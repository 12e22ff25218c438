// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time and prints its metrics, one per line by name and
// unit, then a last line holding one JSON object with the keys correct,
// attempted, failed, and metrics.
//
//	go build -o perfbench.bin . && cd .. && perfbench/perfbench.bin \
//		--workload hardened-app --seed 1 --seconds 20 --trace 0
//
// It runs from the repository root (it reads BENCHMARK.json and the
// robust-API baseline in testdata/). With --trace 0 it reports the
// end-to-end metrics BENCHMARK.json lists. With --trace 1 it alternates
// untraced and traced operations and reports the per-layer metrics
// instead; traced operations run with the interposition shims of
// shim.go and per-call timers. --selftest checks that the shims change
// nothing and that every per-layer count repeats exactly at a fixed
// seed (see NOTES.md).
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"healers/internal/proc"
	"healers/internal/simelf"
)

// bench is one set-up instance of a workload.
type bench interface {
	// op runs operation i of closed loop worker. Traced operations also
	// feed the per-layer probes. It returns the items the operation
	// completed (wrapped calls, probes, requests, documents), its
	// duration, and an error when the operation's output check failed.
	op(worker, i int, traced bool) (items int, dur time.Duration, err error)
	// finish runs the end-of-run output checks and returns the
	// per-layer metrics the traced operations gathered.
	finish() (layers map[string]float64, err error)
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// item names what items_per_s counts, for the human-readable line.
	item string
	// workers is the number of concurrent closed loops.
	workers int
	// setup builds the system under test and the seed's inputs.
	setup func(seed uint64, traced bool) (bench, error)
}

var workloads = []workload{
	{name: "hardened-app", item: "calls", workers: 1, setup: setupHardenedApp},
	{name: "cold-sweep", item: "probes", workers: 1, setup: setupColdSweep},
	{name: "chaos-soak", item: "requests", workers: 1, setup: setupChaosSoak},
	{name: "fleet-ingest", item: "docs", workers: 2, setup: setupFleetIngest},
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median. The first instance is the one measured.
const setupRepeats = 10

// spec is the part of BENCHMARK.json the program reads: metric names
// and units.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hardened-app, cold-sweep, chaos-soak, or fleet-ingest")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	selftest := fs.Bool("selftest", false, "check shim transparency and count repeatability, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *selftest {
		if err := selfTest(sp, *seed, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: self-test failed:", err)
			return 1
		}
		fmt.Fprintln(stdout, "perfbench: self-test passed")
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload hardened-app|cold-sweep|chaos-soak|fleet-ingest, --seconds > 0, --trace 0|1")
		return 2
	}
	out, err := measure(w, sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(stdout, "%s %s = %.6g %s\n", w.name, n, m.Value, m.Unit)
	}
	if *trace == 0 {
		fmt.Fprintf(stdout, "%s %s_per_s = %.6g 1/s\n", w.name, w.item, out.Metrics["items_per_s"].Value)
	}
	fmt.Fprintf(stdout, "%s failed operations: %d of %d\n", w.name, out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric list: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

// sample is one measured operation.
type sample struct {
	// at is the running time of the run when the operation started.
	at     time.Duration
	dur    time.Duration
	items  int
	traced bool
	err    error
}

// measure sets the workload up, runs it for d, and assembles the metrics
// of the run: the end-to-end list untraced, the per-layer list traced.
func measure(w workload, sp *spec, seed uint64, d time.Duration, traced bool) (*output, error) {
	var setups []float64
	b, err := timedSetup(w, seed, traced, &setups)
	if err != nil {
		return nil, err
	}
	defer b.close()
	// An untraced run repeats the set-up at even intervals during the
	// run, so setup_s, like the operation metrics, is a median over the
	// whole run rather than over one moment of it.
	var extra func() error
	if !traced {
		extra = func() error {
			x, err := timedSetup(w, seed, false, &setups)
			if err == nil {
				x.close()
			}
			return err
		}
	}

	out := &output{Metrics: make(map[string]metricValue)}
	var failures []string
	// One untimed warm-up operation per worker, all at once, lets lazy
	// state settle; its output is checked like every other operation's.
	warm := make([]error, w.workers)
	var wg sync.WaitGroup
	for wk := range warm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, warm[wk] = b.op(wk, -1, false)
		}()
	}
	wg.Wait()
	for _, err := range warm {
		out.Attempted++
		if err != nil {
			out.Failed++
			failures = append(failures, err.Error())
		}
	}
	samples, err := loop(b, w.workers, d, traced, extra)
	if err != nil {
		return nil, err
	}
	layers, endErr := b.finish()
	for _, s := range samples {
		out.Attempted++
		if s.err != nil {
			out.Failed++
			failures = append(failures, s.err.Error())
		}
	}
	if endErr != nil {
		// An end-of-run check cannot name the operation that broke it,
		// so every operation of the run counts as failed.
		failures = append(failures, endErr.Error())
		out.Failed = out.Attempted
	}
	for i, f := range failures {
		if i == 3 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d more failures\n", w.name, len(failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, f)
	}
	out.Correct = out.Failed == 0

	var untraced, tracedOps []sample
	for _, s := range samples {
		if s.traced {
			tracedOps = append(tracedOps, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	if len(untraced) == 0 || (traced && len(tracedOps) == 0) {
		return nil, fmt.Errorf("%s: run too short: no measured operation completed", w.name)
	}
	values := map[string]float64{}
	if traced {
		for k, v := range layers {
			values[k] = v
		}
		values["trace.overhead_pct"] = 100 * (p(durMS(tracedOps, d), 0.5)/p(durMS(untraced, d), 0.5) - 1)
		return fill(out, values, sp.PerLayer, true)
	}
	for len(setups) < setupRepeats {
		// The run ended before the last spread-out set-ups came due.
		if err := extra(); err != nil {
			return nil, err
		}
	}
	values["setup_s"] = p(setups, 0.5)
	values["op_ms_p50"], values["op_ms_p90"], values["items_per_s"] = windowed(untraced, w.workers, d)
	var ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	values["mem_mb"] = float64(ms2.HeapAlloc) / (1 << 20)
	return fill(out, values, sp.EndToEnd, false)
}

// fill copies the computed values into out under the names and units of
// the metric list. An end-to-end metric must have been computed; a
// per-layer metric the workload does not exercise reads 0.
func fill(out *output, values map[string]float64, list []metricSpec, zeroOK bool) (*output, error) {
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a number", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	for n := range values {
		return nil, fmt.Errorf("metric %s is missing from BENCHMARK.json", n)
	}
	return out, nil
}

// timedSetup sets the workload up and appends the time it took to
// setups. Like a fresh process, each set-up starts from a collected heap
// with no free memory held: otherwise how many pages it faults in back
// depends on how far the runtime's background scavenger got in
// returning them to the OS, and on a 2-vCPU VM that moved hardened-app's
// 7 ms set-up to 10 ms from one batch of runs to the next.
func timedSetup(w workload, seed uint64, traced bool, setups *[]float64) (bench, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	b, err := w.setup(seed, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	*setups = append(*setups, time.Since(t0).Seconds())
	return b, nil
}

// loop drives the closed loops for d of running time and returns their
// operations. With traced set, every second operation of each
// worker is traced. If extra is not nil, worker 0 calls it between
// operations setupRepeats-1 times, evenly spread over the run; every
// loop pauses while it runs, and the pause does not count as running
// time.
func loop(b bench, workers int, d time.Duration, traced bool, extra func() error) ([]sample, error) {
	var mu sync.Mutex
	var samples []sample
	var extraErr error
	var wg sync.WaitGroup
	// Operations hold gate shared, an extra set-up exclusively.
	var gate sync.RWMutex
	var paused atomic.Int64
	start := time.Now()
	running := func() time.Duration { return time.Since(start) - time.Duration(paused.Load()) }
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			extras := 0
			for i := 0; running() < d; i++ {
				for wk == 0 && extra != nil && extras < setupRepeats-1 &&
					running() >= time.Duration(extras+1)*d/setupRepeats {
					gate.Lock()
					t0 := time.Now()
					err := extra()
					paused.Add(int64(time.Since(t0)))
					gate.Unlock()
					if err != nil {
						extraErr = err
						return
					}
					extras++
				}
				tr := traced && i%2 == 1
				gate.RLock()
				at := running()
				items, dur, err := b.op(wk, i, tr)
				gate.RUnlock()
				mine = append(mine, sample{at: at, dur: dur, items: items, traced: tr, err: err})
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, extraErr
}

// A window of windowed holds the operations that started less than
// window after its first one, and at least windowOps of them (a cold
// sweep outlasts a window, so there a window holds windowOps sweeps).
const (
	window    = 250 * time.Millisecond
	windowOps = 4
)

// windowed cuts the run into consecutive windows and returns the median,
// over the windows, of each window's median and 90th-percentile latency
// in milliseconds, and of its throughput: items per second of operation
// time, times the number of concurrent loops. The host slows the same
// code by up to 2x in bursts of a tenth of a second to seconds, so a
// run's latencies are a mixture of a fast and a slow mode whose shares
// differ from run to run. A quantile over the whole run jumps between the
// modes as the shares move past it, a mean follows the shares; the median
// over windows stays in the mode that holds most of the run's time. A
// shorter tail joins the last window. If any operation failed, the run is
// one window, so that a failure is never outvoted by fast windows.
func windowed(ss []sample, workers int, run time.Duration) (p50, p90, perS float64) {
	ss = slices.Clone(ss)
	slices.SortFunc(ss, func(a, b sample) int { return cmp.Compare(a.at, b.at) })
	failed := slices.ContainsFunc(ss, func(s sample) bool { return s.err != nil })
	var meds, p90s, rates []float64
	for lo := 0; lo < len(ss); {
		hi := lo + 1
		for hi < len(ss) && (ss[hi].at-ss[lo].at < window || hi-lo < windowOps) {
			hi++
		}
		if last := ss[len(ss)-1]; failed || hi < len(ss) && (last.at+last.dur-ss[hi].at < window || len(ss)-hi < windowOps) {
			hi = len(ss)
		}
		ms := durMS(ss[lo:hi], run)
		meds = append(meds, p(ms, 0.5))
		p90s = append(p90s, p(ms, 0.9))
		var items int
		var busy time.Duration
		for _, s := range ss[lo:hi] {
			if s.err == nil {
				items += s.items
			}
			busy += s.dur
		}
		rates = append(rates, float64(workers*items)/busy.Seconds())
		lo = hi
	}
	return p(meds, 0.5), p(p90s, 0.5), p(rates, 0.5)
}

// durMS returns the operations' durations in milliseconds. A failed
// operation counts as missing any latency limit: it reads as long as
// the whole run, never as a fast one.
func durMS(ss []sample, run time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		d := s.dur
		if s.err != nil {
			d = run
		}
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// p returns the q-quantile of xs by linear interpolation between the
// closest ranks.
func p(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// layerProbes accumulates per-layer samples across traced operations.
type layerProbes struct {
	// series holds timing samples, reported as medians.
	series map[string][]float64
	// counts holds the first traced operation's counts; later traced
	// operations must repeat them exactly.
	counts   map[string]float64
	mismatch string
}

func (lp *layerProbes) add(name string, v float64) {
	if lp.series == nil {
		lp.series = make(map[string][]float64)
	}
	lp.series[name] = append(lp.series[name], v)
}

// count records a per-operation count and checks that it repeats.
func (lp *layerProbes) count(name string, v float64) {
	if lp.counts == nil {
		lp.counts = make(map[string]float64)
	}
	if old, ok := lp.counts[name]; !ok {
		lp.counts[name] = v
	} else if old != v && lp.mismatch == "" {
		lp.mismatch = fmt.Sprintf("count %s changed between identical operations: %g then %g", name, old, v)
	}
}

// result returns the medians and the counts as one metric map.
func (lp *layerProbes) result() (map[string]float64, error) {
	out := make(map[string]float64)
	for k, v := range lp.series {
		out[k] = p(v, 0.5)
	}
	for k, v := range lp.counts {
		out[k] = v
	}
	if lp.mismatch != "" {
		return out, fmt.Errorf("%s", lp.mismatch)
	}
	return out, nil
}

// timeStarts returns the median time, in microseconds, of starting exe
// with the given preloads.
func timeStarts(sys *simelf.System, exe string, preloads []string) (float64, error) {
	const n = 200
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := proc.Start(sys, exe, proc.WithPreloads(preloads...)); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return p(us, 0.5), nil
}
