// Library-sweep engine. A fault-injection campaign is embarrassingly
// parallel — every probe runs in its own fresh simulated process against
// the shared read-only system registry — so the library sweep hands
// (function × parameter × probe) work units to a pool of workers. Results
// carry stable indices and reports are assembled in canonical order, so
// the sweep produces the same LibReport for any worker count, one
// included.
package inject

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a campaign progress snapshot, delivered after each completed
// function sweep.
type Progress struct {
	// Func is the function whose sweep just completed; FuncProbes is its
	// probe count.
	Func       string
	FuncProbes int
	// DoneFuncs / TotalFuncs and DoneProbes / TotalProbes track the whole
	// sweep.
	DoneFuncs   int
	TotalFuncs  int
	DoneProbes  int
	TotalProbes int
}

// FuncTiming is one function's share of a campaign run.
type FuncTiming struct {
	Name   string
	Probes int
	// Wall is the time spent probing the function, summed over its
	// probes (which may run on several workers at once).
	Wall time.Duration
	// Cached marks a function whose report was reused from the campaign
	// cache instead of being probed (Wall is then zero).
	Cached bool
}

// CampaignStats describes one library sweep's throughput — the numbers
// the CLI and the scaling benchmarks report. It is deliberately kept out
// of LibReport so that reports stay deterministic and comparable across
// worker counts and across local and distributed sweeps.
type CampaignStats struct {
	// Workers is the pool size the sweep ran with.
	Workers int
	// Probes is the number of probe processes executed. Cache hits do
	// not execute probes, so with a warm cache this is smaller than the
	// report's TotalProbes (which keeps full campaign semantics).
	Probes int
	// CachedFuncs / CachedProbes count the functions (and the probes
	// they represent) served from the campaign cache instead of probed.
	CachedFuncs  int
	CachedProbes int
	// Elapsed is the sweep's wall time; ProbesPerSec the throughput.
	Elapsed      time.Duration
	ProbesPerSec float64
	// FuncWall records per-function time, in canonical function order.
	FuncWall []FuncTiming
	// WorkerBusy is each worker's cumulative probe-execution time.
	WorkerBusy []time.Duration
	// Utilization is sum(WorkerBusy) / (Workers × Elapsed): 1.0 means no
	// worker ever waited for work.
	Utilization float64
}

func newCampaignStats(workers, funcs int) *CampaignStats {
	return &CampaignStats{
		Workers:    workers,
		FuncWall:   make([]FuncTiming, 0, funcs),
		WorkerBusy: make([]time.Duration, workers),
	}
}

func (s *CampaignStats) noteFunc(name string, probes int, wall time.Duration, cached bool) {
	s.FuncWall = append(s.FuncWall, FuncTiming{Name: name, Probes: probes, Wall: wall, Cached: cached})
}

func (s *CampaignStats) finish(probes int, elapsed time.Duration) {
	s.Probes = probes
	s.Elapsed = elapsed
	if elapsed > 0 {
		s.ProbesPerSec = float64(probes) / elapsed.Seconds()
	}
	var busy time.Duration
	for _, b := range s.WorkerBusy {
		busy += b
	}
	if s.Workers > 0 && elapsed > 0 {
		s.Utilization = busy.Seconds() / (float64(s.Workers) * elapsed.Seconds())
	}
}

// probeTask is one flattened work unit: function fn, probe spec sp within
// that function's plan.
type probeTask struct {
	fn, sp int
}

// RunLibrary sweeps every exported function of the target library on a
// pool of WithWorkers workers. Functions the campaign cache holds are
// served from it; every other function's probes become tasks, which the
// workers claim in canonical order from a shared counter. Worker 0 is the
// calling goroutine, so a one-worker sweep starts no goroutine. The
// report is identical for any worker count.
func (c *Campaign) RunLibrary() (*LibReport, error) {
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	plan := c.planLibrary()
	config := c.configHash()
	keys, reports := c.partition(plan.funcs, config)
	stats := newCampaignStats(workers, len(plan.funcs))
	start := time.Now()

	// Results and errors land in slots addressed by stable indices, so
	// execution order cannot influence the merged report.
	cached := make([]bool, len(plan.funcs))
	tasks := make([]probeTask, 0, plan.totalProbes)
	results := make([][]ProbeResult, len(plan.funcs))
	remaining := make([]atomic.Int32, len(plan.funcs))
	for fi, fp := range plan.funcs {
		if reports[fi] != nil {
			cached[fi] = true
			continue
		}
		results[fi] = make([]ProbeResult, len(fp.specs))
		remaining[fi].Store(int32(len(fp.specs)))
		for si := range fp.specs {
			tasks = append(tasks, probeTask{fn: fi, sp: si})
		}
	}
	errs := make([]error, len(tasks))

	var (
		next     atomic.Int64 // next unclaimed task
		failed   atomic.Bool  // set by the first error; no task is claimed after it
		doneP    atomic.Int64 // completed probes, cache hits included
		funcBusy = make([]atomic.Int64, len(plan.funcs))
		// progMu serializes function completion: the progress callback
		// runs under it and reads both counters under it, so successive
		// snapshots never go backwards.
		progMu sync.Mutex
		doneF  int
	)
	notify := func(fp *funcPlan, probes int) {
		doneF++
		if c.progress != nil {
			c.progress(Progress{
				Func: fp.name, FuncProbes: probes,
				DoneFuncs: doneF, TotalFuncs: len(plan.funcs),
				DoneProbes: int(doneP.Load()), TotalProbes: plan.totalProbes,
			})
		}
	}

	// Cache hits complete "instantly": report them first, in canonical
	// order, before any worker starts.
	for fi := range plan.funcs {
		if cached[fi] {
			doneP.Add(int64(reports[fi].Probes))
			notify(&plan.funcs[fi], reports[fi].Probes)
		}
	}

	// Tasks are claimed in increasing index order and a claimed task
	// always runs to completion, so every task before a failed one has
	// run: the first error in errs is the canonically first failure.
	work := func(worker int) {
		for !failed.Load() {
			idx := int(next.Add(1) - 1)
			if idx >= len(tasks) {
				return
			}
			t := tasks[idx]
			fp := &plan.funcs[t.fn]
			t0 := time.Now()
			r, err := c.runProbe(fp.proto, fp.specs[t.sp:t.sp+1])
			d := time.Since(t0)
			stats.WorkerBusy[worker] += d
			if err == nil {
				results[t.fn][t.sp] = r
				funcBusy[t.fn].Add(int64(d))
				doneP.Add(1)
				if remaining[t.fn].Add(-1) == 0 {
					// Exactly one worker sees the count reach zero: it
					// builds the function's report and makes its one
					// cache put.
					reports[t.fn] = buildReport(fp.name, fp.proto, results[t.fn])
					if err = c.cachePut(fp.name, config, keys[t.fn], reports[t.fn]); err == nil {
						progMu.Lock()
						notify(fp, len(fp.specs))
						progMu.Unlock()
					}
				}
			}
			if err != nil {
				errs[idx] = err
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	wall := make([]time.Duration, len(plan.funcs))
	for fi := range funcBusy {
		wall[fi] = time.Duration(funcBusy[fi].Load())
	}
	return c.mergeReports(plan, reports, cached, wall, stats, start), nil
}

// partition resolves a planned sweep against the campaign cache, after
// one batch warm-up from the registry. It returns every function's cache
// key and the reports the cache already holds; a nil report is a function
// that must be probed. Without a cache every report is nil and the keys
// are left empty.
func (c *Campaign) partition(funcs []funcPlan, config string) (keys []string, hits []*FuncReport) {
	keys = make([]string, len(funcs))
	hits = make([]*FuncReport, len(funcs))
	if c.cache == nil {
		return keys, hits
	}
	for fi := range funcs {
		keys[fi] = funcKey(funcs[fi].proto, config)
	}
	c.warmFromRegistry(config, keys)
	for fi := range funcs {
		hits[fi] = c.cacheLookup(&funcs[fi], config, keys[fi])
	}
	return keys, hits
}

// mergeReports assembles a finished sweep in canonical function order:
// the LibReport from every function's report, and stats from each
// function's cache flag and probing time. It completes stats (measuring
// Elapsed from start) and hands them to the stats sink. Local and
// distributed sweeps both merge here, so their reports are identical.
func (c *Campaign) mergeReports(plan *libPlan, reports []*FuncReport, cached []bool, wall []time.Duration, stats *CampaignStats, start time.Time) *LibReport {
	lr := &LibReport{Library: c.target}
	executed := 0
	for fi, fp := range plan.funcs {
		fr := reports[fi]
		if cached[fi] {
			stats.CachedFuncs++
			stats.CachedProbes += fr.Probes
		} else {
			executed += fr.Probes
		}
		lr.Funcs = append(lr.Funcs, fr)
		lr.TotalProbes += fr.Probes
		lr.TotalFailures += fr.Failures
		stats.noteFunc(fp.name, fr.Probes, wall[fi], cached[fi])
	}
	stats.finish(executed, time.Since(start))
	if c.statsSink != nil {
		c.statsSink(stats)
	}
	return lr
}
