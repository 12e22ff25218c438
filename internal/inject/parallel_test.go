package inject

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"healers/internal/clib"
	"healers/internal/cmath"
	"healers/internal/simelf"
	"healers/internal/xmlrep"
)

func libmSystem(t *testing.T) *simelf.System {
	t.Helper()
	sys := libcSystem(t)
	libm, err := cmath.AsLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLibrary(libm); err != nil {
		t.Fatal(err)
	}
	return sys
}

// runBoth sweeps one library with one worker and with the given worker
// count against fresh systems, returning both reports.
func runBoth(t *testing.T, mkSys func(*testing.T) *simelf.System, soname string, workers int) (one, many *LibReport) {
	t.Helper()
	sweep := func(n int) *LibReport {
		c, err := New(mkSys(t), soname, WithWorkers(n))
		if err != nil {
			t.Fatal(err)
		}
		lr, err := c.RunLibrary()
		if err != nil {
			t.Fatalf("%d-worker sweep: %v", n, err)
		}
		return lr
	}
	return sweep(1), sweep(workers)
}

// assertIdentical requires the two reports to match byte for byte: same
// verdicts, probe counts, outcomes, and an identical rendered robust-API
// document.
func assertIdentical(t *testing.T, seq, par *LibReport) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("LibReports differ")
		if seq.TotalProbes != par.TotalProbes || seq.TotalFailures != par.TotalFailures {
			t.Errorf("totals: seq %d probes/%d failures, par %d probes/%d failures",
				seq.TotalProbes, seq.TotalFailures, par.TotalProbes, par.TotalFailures)
		}
		for i := range seq.Funcs {
			if i < len(par.Funcs) && !reflect.DeepEqual(seq.Funcs[i], par.Funcs[i]) {
				t.Errorf("first differing function: %s", seq.Funcs[i].Name)
				break
			}
		}
	}
	// The generated= stamp is the one field allowed to differ between
	// the two renderings (the smoke scripts strip it the same way); on a
	// loaded machine the two Marshal calls can straddle a second
	// boundary, so zero it before comparing.
	sdoc := xmlrep.NewRobustAPIDoc(seq.Library, seq.RobustAPI())
	pdoc := xmlrep.NewRobustAPIDoc(par.Library, par.RobustAPI())
	sdoc.Generated, pdoc.Generated = "", ""
	sx, err := xmlrep.Marshal(sdoc)
	if err != nil {
		t.Fatal(err)
	}
	px, err := xmlrep.Marshal(pdoc)
	if err != nil {
		t.Fatal(err)
	}
	if string(sx) != string(px) {
		t.Error("rendered robust-API XML differs")
	}
}

func TestParallelDeterminismLibm(t *testing.T) {
	for _, workers := range []int{2, 4, 0} {
		one, many := runBoth(t, libmSystem, cmath.Soname, workers)
		assertIdentical(t, one, many)
	}
}

func TestParallelDeterminismLibc(t *testing.T) {
	one, many := runBoth(t, libcSystem, clib.LibcSoname, 4)
	assertIdentical(t, one, many)
}

// TestParallelStatsAndProgress checks the throughput layer over a
// half-warm cache, for one worker and for a pool: per-worker busy time,
// cache accounting, and progress callbacks that report every function
// exactly once and never go backwards.
func TestParallelStatsAndProgress(t *testing.T) {
	path := cachePath(t)
	fill := openTestCache(t, path)
	cold, _ := runCached(t, libcSystem, clib.LibcSoname, fill)
	if err := fill.Save(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		// Every other function stays warm.
		cache := openTestCache(t, path)
		warmFuncs, warmProbes := 0, 0
		for i, fr := range cold.Funcs {
			if i%2 == 1 {
				cache.Drop(fr.Name)
				continue
			}
			warmFuncs++
			warmProbes += fr.Probes
		}
		var (
			mu    sync.Mutex
			calls []Progress
		)
		lr, stats := runCached(t, libcSystem, clib.LibcSoname, cache,
			WithWorkers(workers),
			WithProgress(func(p Progress) {
				mu.Lock()
				calls = append(calls, p)
				mu.Unlock()
			}))
		assertIdentical(t, cold, lr)
		if stats == nil {
			t.Fatal("stats sink never called")
		}
		if stats.Workers != workers || len(stats.WorkerBusy) != workers {
			t.Errorf("workers=%d: stats.Workers = %d, %d WorkerBusy entries", workers, stats.Workers, len(stats.WorkerBusy))
		}
		if stats.CachedFuncs != warmFuncs || stats.CachedProbes != warmProbes {
			t.Errorf("workers=%d: cached %d funcs / %d probes, want the warm half's %d / %d",
				workers, stats.CachedFuncs, stats.CachedProbes, warmFuncs, warmProbes)
		}
		if stats.Probes != lr.TotalProbes-warmProbes {
			t.Errorf("workers=%d: stats.Probes = %d, want %d", workers, stats.Probes, lr.TotalProbes-warmProbes)
		}
		if stats.ProbesPerSec <= 0 || stats.Elapsed <= 0 || stats.WorkerBusy[0] <= 0 {
			t.Errorf("workers=%d: throughput not measured: %v elapsed, %.1f probes/s, busy %v",
				workers, stats.Elapsed, stats.ProbesPerSec, stats.WorkerBusy)
		}
		if len(stats.FuncWall) != len(lr.Funcs) {
			t.Errorf("workers=%d: FuncWall has %d entries, report has %d functions", workers, len(stats.FuncWall), len(lr.Funcs))
		}

		seen := map[string]int{}
		for i, p := range calls {
			seen[p.Func]++
			if p.TotalFuncs != len(lr.Funcs) || p.TotalProbes != lr.TotalProbes {
				t.Fatalf("workers=%d: progress totals %+v, want %d funcs / %d probes", workers, p, len(lr.Funcs), lr.TotalProbes)
			}
			if i > 0 && (p.DoneFuncs != calls[i-1].DoneFuncs+1 || p.DoneProbes < calls[i-1].DoneProbes) {
				t.Fatalf("workers=%d: progress not monotonic at %d: %+v -> %+v", workers, i, calls[i-1], p)
			}
		}
		if len(seen) != len(lr.Funcs) || len(calls) != len(lr.Funcs) {
			t.Errorf("workers=%d: progress fired %d times for %d distinct functions, want each of %d once",
				workers, len(calls), len(seen), len(lr.Funcs))
		}
		if last := calls[len(calls)-1]; last.DoneFuncs != len(lr.Funcs) || last.DoneProbes != lr.TotalProbes {
			t.Errorf("workers=%d: final progress = %+v, want all %d funcs / %d probes done", workers, last, len(lr.Funcs), lr.TotalProbes)
		}
	}
}

// TestSequentialStats checks that one worker and a pool account the same
// sweep alike: the same probes, the same per-function entries in the same
// order, and every worker's busy time measured.
func TestSequentialStats(t *testing.T) {
	sweep := func(workers int) *CampaignStats {
		var stats *CampaignStats
		c, err := New(libmSystem(t), cmath.Soname, WithWorkers(workers), WithStatsSink(func(s *CampaignStats) { stats = s }))
		if err != nil {
			t.Fatal(err)
		}
		lr, err := c.RunLibrary()
		if err != nil {
			t.Fatal(err)
		}
		if stats == nil || stats.Workers != workers || stats.Probes != lr.TotalProbes || len(stats.WorkerBusy) != workers {
			t.Fatalf("%d-worker stats = %+v", workers, stats)
		}
		return stats
	}
	one, many := sweep(1), sweep(4)
	if one.WorkerBusy[0] <= 0 {
		t.Errorf("one-worker WorkerBusy = %v", one.WorkerBusy)
	}
	if len(one.FuncWall) != len(many.FuncWall) {
		t.Fatalf("FuncWall lengths differ: %d vs %d", len(one.FuncWall), len(many.FuncWall))
	}
	for i := range one.FuncWall {
		a, b := one.FuncWall[i], many.FuncWall[i]
		if a.Name != b.Name || a.Probes != b.Probes || a.Cached != b.Cached || a.Wall <= 0 || b.Wall <= 0 {
			t.Errorf("FuncWall[%d]: one worker %+v, four workers %+v", i, a, b)
		}
	}
}

// TestWorkersDefault pins WithWorkers(0) to one worker per CPU.
func TestWorkersDefault(t *testing.T) {
	var stats *CampaignStats
	c, err := New(libmSystem(t), cmath.Soname, WithWorkers(0), WithStatsSink(func(s *CampaignStats) { stats = s }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunLibrary(); err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); stats.Workers != want {
		t.Errorf("WithWorkers(0) ran %d workers, want GOMAXPROCS=%d", stats.Workers, want)
	}
}
