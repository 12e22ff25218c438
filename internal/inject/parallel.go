// Parallel campaign engine. A fault-injection campaign is embarrassingly
// parallel — every probe runs in its own fresh simulated process against
// the shared read-only system registry — so the library sweep fans
// (function × parameter × probe) work units across a worker pool. Results
// carry stable indices and reports are assembled in canonical order, so a
// parallel sweep produces a LibReport identical to the sequential one for
// any worker count.
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
	// Wall is the time spent probing the function: contiguous wall time
	// in a sequential run, summed per-probe time in a parallel run
	// (where one function's probes interleave across workers).
	Wall time.Duration
	// Cached marks a function whose report was reused from the campaign
	// cache instead of being probed (Wall is then zero).
	Cached bool
}

// CampaignStats describes one library sweep's throughput — the numbers
// the CLI and the scaling benchmarks report. It is deliberately kept out
// of LibReport so that reports stay deterministic and comparable across
// engines.
type CampaignStats struct {
	// Workers is the pool size the sweep ran with (1 = sequential).
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

// runLibraryParallel fans the library sweep across a worker pool.
// workers <= 0 means GOMAXPROCS.
func (c *Campaign) runLibraryParallel(workers int) (*LibReport, *CampaignStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	plan := c.planLibrary()
	c.warmFromRegistry(plan.funcs)
	stats := newCampaignStats(workers, len(plan.funcs))
	config := c.configHash()
	start := time.Now()

	// Cache partition: functions with a current cache entry skip the
	// worker pool entirely; only the rest become probe tasks. The merge
	// below walks canonical order regardless, so a warm run's report is
	// byte-identical to a cold one.
	cachedReports := make([]*FuncReport, len(plan.funcs))
	keys := make([]string, len(plan.funcs))
	cachedFuncs, cachedProbes := 0, 0
	for fi := range plan.funcs {
		fr, key := c.cacheLookup(&plan.funcs[fi], config)
		keys[fi] = key
		if fr != nil {
			cachedReports[fi] = fr
			cachedFuncs++
			cachedProbes += fr.Probes
		}
	}
	stats.CachedFuncs = cachedFuncs
	stats.CachedProbes = cachedProbes

	// Results and errors land in slots addressed by stable indices, so
	// execution order cannot influence the merged report. Errors keep
	// their flat task index so the winner is the canonically first one,
	// like the sequential engine's fail-fast.
	tasks := make([]probeTask, 0, plan.totalProbes)
	results := make([][]ProbeResult, len(plan.funcs))
	built := make([]*FuncReport, len(plan.funcs))
	remaining := make([]int32, len(plan.funcs))
	for fi, fp := range plan.funcs {
		if cachedReports[fi] != nil {
			continue
		}
		results[fi] = make([]ProbeResult, len(fp.specs))
		remaining[fi] = int32(len(fp.specs))
		for si := range fp.specs {
			tasks = append(tasks, probeTask{fn: fi, sp: si})
		}
	}
	errs := make([]error, len(tasks))

	var (
		stop     = make(chan struct{})
		stopOnce sync.Once
		wg       sync.WaitGroup
		doneP    atomic.Int64 // completed probes
		doneF    atomic.Int64 // completed functions
		funcBusy = make([]atomic.Int64, len(plan.funcs))
		progMu   sync.Mutex // serializes function completion and the progress callback
		taskCh   = make(chan int)
	)
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	// Cache hits complete "instantly": report them first, in canonical
	// order, and seed the counters the workers' progress builds on.
	for fi, fp := range plan.funcs {
		if cachedReports[fi] == nil {
			continue
		}
		done := doneP.Add(int64(cachedReports[fi].Probes))
		df := doneF.Add(1)
		if c.progress != nil {
			c.progress(Progress{
				Func: fp.name, FuncProbes: cachedReports[fi].Probes,
				DoneFuncs: int(df), TotalFuncs: len(plan.funcs),
				DoneProbes: int(done), TotalProbes: plan.totalProbes,
			})
		}
	}

	// Feeder: hands out flat task indices until done or aborted.
	go func() {
		defer close(taskCh)
		for i := range tasks {
			select {
			case taskCh <- i:
			case <-stop:
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range taskCh {
				t := tasks[idx]
				fp := plan.funcs[t.fn]
				t0 := time.Now()
				r, err := c.runProbe(fp.proto, fp.specs[t.sp].param, fp.specs[t.sp].probe, uint32(worker))
				d := time.Since(t0)
				stats.WorkerBusy[worker] += d
				if err != nil {
					errs[idx] = err
					abort()
					continue
				}
				results[t.fn][t.sp] = r
				funcBusy[t.fn].Add(int64(d))
				doneP.Add(1)
				if atomic.AddInt32(&remaining[t.fn], -1) == 0 {
					// Exactly one worker observes the zero crossing,
					// making it the single writer of built[t.fn] and
					// the sole cache-put for this function.
					built[t.fn] = buildReport(fp.name, fp.proto, results[t.fn])
					if c.cache != nil {
						if err := c.cachePut(fp.name, config, keys[t.fn], built[t.fn]); err != nil {
							errs[idx] = err
							abort()
							continue
						}
					}
					// Both counters are read under the lock, so
					// successive snapshots never go backwards even when
					// workers finish functions out of order.
					progMu.Lock()
					df := doneF.Add(1)
					if c.progress != nil {
						c.progress(Progress{
							Func: fp.name, FuncProbes: len(fp.specs),
							DoneFuncs: int(df), TotalFuncs: len(plan.funcs),
							DoneProbes: int(doneP.Load()), TotalProbes: plan.totalProbes,
						})
					}
					progMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Deterministic merge: canonical function order, canonical probe
	// order within each function. Cached functions contribute their
	// stored reports; probed ones the reports built at completion.
	lr := &LibReport{Library: c.target}
	executed := 0
	for fi, fp := range plan.funcs {
		fr := cachedReports[fi]
		cached := fr != nil
		if !cached {
			fr = built[fi]
			executed += fr.Probes
		}
		lr.Funcs = append(lr.Funcs, fr)
		lr.TotalProbes += fr.Probes
		lr.TotalFailures += fr.Failures
		stats.noteFunc(fp.name, fr.Probes, time.Duration(funcBusy[fi].Load()), cached)
	}
	stats.finish(executed, time.Since(start))
	if c.statsSink != nil {
		c.statsSink(stats)
	}
	return lr, stats, nil
}
