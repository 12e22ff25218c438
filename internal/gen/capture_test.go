package gen

import (
	"sync"
	"testing"
	"time"

	"healers/internal/cheader"
	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
)

// TestCaptureRaceHammer hammers one wrapped function from many
// goroutines — each with its own Env, all bumping the same State's
// counters — and asserts the counters are *exact* after the writers
// quiesce: bucket-sum == call-count, errno totals, and deny/pass splits
// all come out to the arithmetic of the workload, not merely
// race-detector-clean. A first phase interleaves Reset and the atomic
// totalling reads with live writers (no exactness is possible there —
// an in-flight increment may survive a Reset — but the race detector
// sees every pairing); the exact phase then starts from a quiesced
// Reset. Run under -race via make check.
func TestCaptureRaceHammer(t *testing.T) {
	proto, err := cheader.ParsePrototype("size_t f(const char *s); // @s in_str")
	if err != nil {
		t.Fatal(err)
	}
	api := ctypes.RobustAPI{
		"f": {{Name: "s", Chain: "in_str", Level: 3, LevelName: "cstring"}},
	}
	st := NewState("libhammer.so")
	// Call counter sits before the arg check so denied calls are counted
	// too; every postfix (histogram, errno collectors) runs for denied
	// and passed calls alike, keeping the expected totals exact.
	g := MustGenerator(MGPrototype(), MGExectime(), MGCollectErrors(),
		MGFuncErrors(), MGCallCounter(), MGArgCheck(api), MGCaller())
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		env.Errno = cval.EINVAL
		return cval.Uint(3), nil
	}
	w := g.Build(proto, &next, st)
	idx := st.Index("f")

	const workers = 8
	const iters = 400 // even: half valid, half denied per worker

	hammer := func() {
		var wg sync.WaitGroup
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				env := cval.NewEnv()
				valid, f := env.Img.StaticString("abc")
				if f != nil {
					panic(f)
				}
				for i := 0; i < iters; i++ {
					env.Errno = 0
					arg := cval.Ptr(valid)
					if i%2 == 1 {
						arg = cval.Ptr(0) // fails the cstring check
					}
					if _, fault := w(env, []cval.Value{arg}); fault != nil {
						panic(fault)
					}
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: writers race with Reset and the totalling reads. Only
	// freedom from data races is asserted here.
	done := make(chan struct{})
	go func() {
		defer close(done)
		hammer()
	}()
	for i := 0; i < 50; i++ {
		st.Reset()
		st.TotalCalls()
		st.ContainmentTotals()
	}
	<-done

	// Phase 2: quiesced Reset, then an exact workload.
	st.Reset()
	hammer()

	const calls = workers * iters
	const denied = calls / 2
	const passed = calls - denied
	if got := st.TotalCalls(); got != calls {
		t.Errorf("TotalCalls = %d, want %d", got, calls)
	}
	if st.Funcs[idx].Calls != calls {
		t.Errorf("Calls = %d, want %d", st.Funcs[idx].Calls, calls)
	}
	if got := HistTotal(st.ExecHist[idx]); got != calls {
		t.Errorf("histogram bucket sum = %d, want %d (== call count)", got, calls)
	}
	if st.Funcs[idx].Passed != passed {
		t.Errorf("Passed = %d, want %d", st.Funcs[idx].Passed, passed)
	}
	if st.Funcs[idx].Denied != denied {
		t.Errorf("Denied = %d, want %d", st.Funcs[idx].Denied, denied)
	}
	// Every call flips errno (0 -> EINVAL when passed, 0 -> EDenied when
	// vetoed; EDenied clamps to the histogram's overflow slot), so both
	// errno histograms account every call exactly.
	if got := st.FuncErrno[idx][cval.EINVAL]; got != passed {
		t.Errorf("FuncErrno[EINVAL] = %d, want %d", got, passed)
	}
	if got := st.FuncErrno[idx][cval.MaxErrno]; got != denied {
		t.Errorf("FuncErrno[EDenied overflow slot] = %d, want %d", got, denied)
	}
	if got := st.GlobalErrno[cval.EINVAL]; got != passed {
		t.Errorf("GlobalErrno[EINVAL] = %d, want %d", got, passed)
	}
	if got := st.GlobalErrno[cval.MaxErrno]; got != denied {
		t.Errorf("GlobalErrno[EDenied overflow slot] = %d, want %d", got, denied)
	}
	if got := len(st.DenyLog); got != DenyLogCap {
		t.Errorf("DenyLog length = %d, want capped at %d", got, DenyLogCap)
	}
}

// BenchmarkCounterCapture prices one call's worth of pure counter
// capture — call count, latency histogram bucket, global and
// per-function errno — with the wrapper scaffolding and timestamping a
// full interception adds stripped away: a handful of atomic adds into
// the State's shared slots. Run with -cpu 1,2: goroutines contending on
// one slot's cache line make each add dearer than at -cpu 1. The
// end-to-end view lives in the root package's
// BenchmarkCaptureContention.
func BenchmarkCounterCapture(b *testing.B) {
	st := NewState("bench-capture")
	idx := st.Index("f")
	slot := errnoSlot(cval.EINVAL)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			st.AddCall(idx)
			st.addExecSample(idx, 1500*time.Nanosecond)
			st.addGlobalErrno(slot)
			st.addFuncErrno(idx, slot)
		}
	})
	b.StopTimer()
	if st.Funcs[idx].Calls != uint64(b.N) {
		b.Fatalf("Calls = %d, want %d (lost increments)", st.Funcs[idx].Calls, b.N)
	}
	if hist := HistTotal(st.ExecHist[idx]); hist != uint64(b.N) {
		b.Fatalf("bucket sum %d != %d calls", hist, b.N)
	}
}
