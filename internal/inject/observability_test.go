package inject

import (
	"testing"

	"healers/internal/cmath"
	"healers/internal/gen"
	"healers/internal/wrappers"
)

// TestParallelProfilingHistogramConsistency runs the profiling wrapper
// underneath the parallel fault-injection campaign and checks the
// observability counters stay consistent under concurrency: for every
// wrapped function the latency histogram's bucket sum must equal the
// call counter — a lost increment on either side (a data race, a
// dropped lock) breaks the equality. libm is the target because its
// probes never fault, so every intercepted call runs both the prefix
// (call counter) and the postfix (histogram) hook. Run under -race via
// make check.
func TestParallelProfilingHistogramConsistency(t *testing.T) {
	sys := libmSystem(t)
	libm, ok := sys.Library(cmath.Soname)
	if !ok {
		t.Fatalf("%s not installed", cmath.Soname)
	}
	wrapper, st, err := wrappers.Profiling(libm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLibrary(wrapper); err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, cmath.Soname, WithPreloads(wrappers.ProfilingSoname), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunLibrary(); err != nil {
		t.Fatalf("parallel sweep under profiling wrapper: %v", err)
	}
	// The campaign has quiesced, so direct State field access is safe.
	total := checkProfilingConsistency(t, st)
	if total == 0 {
		t.Fatal("campaign drove no calls through the profiling wrapper")
	}
	if st.TotalCalls() != total {
		t.Errorf("TotalCalls = %d, want %d", st.TotalCalls(), total)
	}

	// Reset and sweep again: the second run must land on exactly the
	// same totals — counts surviving the Reset, or increments lost to
	// it, would both break the equality (the sweep
	// itself is deterministic for any worker count).
	st.Reset()
	if _, err := c.RunLibrary(); err != nil {
		t.Fatalf("post-Reset parallel sweep: %v", err)
	}
	if again := checkProfilingConsistency(t, st); again != total {
		t.Errorf("post-Reset sweep total = %d, want %d (same deterministic campaign)", again, total)
	}
}

// checkProfilingConsistency asserts the quiesce-time invariants of a
// profiling-wrapper State — bucket-sum == call-count per function, every
// completed call counted as passed, errno histograms consistent across
// the per-function and global views, nothing denied/substituted — and
// returns the total call count.
func checkProfilingConsistency(t *testing.T, st *gen.State) uint64 {
	t.Helper()
	var total, funcErrno uint64
	for i, name := range st.FuncNames() {
		calls := st.Funcs[i].Calls
		hist := gen.HistTotal(st.ExecHist[i])
		if hist != calls {
			t.Errorf("%s: histogram bucket sum %d != call counter %d (lost increments)", name, hist, calls)
		}
		// libm probes never fault and the profiling wrapper never
		// denies, so every counted call also completed every check.
		if st.Funcs[i].Passed != calls {
			t.Errorf("%s: Passed = %d, want %d (== calls)", name, st.Funcs[i].Passed, calls)
		}
		if st.Funcs[i].Denied != 0 || st.Funcs[i].Substituted != 0 || st.Funcs[i].Contained != 0 {
			t.Errorf("%s: deny/subst/contain = %d/%d/%d, want all 0 under pure profiling",
				name, st.Funcs[i].Denied, st.Funcs[i].Substituted, st.Funcs[i].Contained)
		}
		for _, n := range st.FuncErrno[i] {
			funcErrno += n
		}
		total += calls
	}
	// The collect-errors and func-errors micro-generators observe the
	// same calls, so their histogram totals must agree exactly.
	var globalErrno uint64
	for _, n := range st.GlobalErrno {
		globalErrno += n
	}
	if funcErrno != globalErrno {
		t.Errorf("per-function errno total %d != global errno total %d", funcErrno, globalErrno)
	}
	return total
}
