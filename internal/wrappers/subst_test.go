package wrappers

import (
	"sync"
	"testing"

	"healers/internal/clib"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/gen"
	"healers/internal/simelf"
)

// robustLib builds the full robustness wrapper (with substitutions) over
// libc and returns the loaded link map plus the shared state, so tests
// can run calls from any number of independent envs.
func robustLib(t *testing.T) (*dynlink.Linkmap, *gen.State) {
	t.Helper()
	lc := clib.MustRegistry().AsLibrary()
	wrapper, st, err := Robustness(lc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := simelf.NewSystem()
	if err := sys.AddLibrary(lc); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLibrary(wrapper); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddExecutable(&simelf.Executable{Name: "app", Needed: []string{clib.LibcSoname}}); err != nil {
		t.Fatal(err)
	}
	lm, err := dynlink.Load(sys, "app", []string{wrapper.Soname})
	if err != nil {
		t.Fatal(err)
	}
	return lm, st
}

func TestSubstSprintfTooFewArgs(t *testing.T) {
	lc := libc(t)
	wrapper, st, err := Robustness(lc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)

	env.Errno = 0
	v, f := call("sprintf") // no destination, no format
	if f != nil {
		t.Fatalf("argless sprintf faulted: %v", f)
	}
	if v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("argless sprintf = %d, errno %d; want -1/EDenied", v.Int32(), env.Errno)
	}
	idx := st.Index("sprintf")
	if st.Funcs[idx].Denied != 1 || st.Funcs[idx].Calls != 1 {
		t.Errorf("denied=%d calls=%d, want 1/1", st.Funcs[idx].Denied, st.Funcs[idx].Calls)
	}
	// One destination but no format string is still too few.
	dst, _ := env.Img.StaticString("xxxxxxxx")
	env.Errno = 0
	if v, _ := call("sprintf", cval.Ptr(dst)); v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("format-less sprintf = %d, errno %d; want -1/EDenied", v.Int32(), env.Errno)
	}
}

func TestSubstGetsTooFewArgs(t *testing.T) {
	lc := libc(t)
	wrapper, st, err := Robustness(lc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)

	env.Errno = 0
	v, f := call("gets")
	if f != nil {
		t.Fatalf("argless gets faulted: %v", f)
	}
	if !v.IsNull() || env.Errno != cval.EDenied {
		t.Errorf("argless gets = %v, errno %d; want NULL/EDenied", v, env.Errno)
	}
	if st.Funcs[st.Index("gets")].Denied != 1 {
		t.Errorf("Denied = %d, want 1", st.Funcs[st.Index("gets")].Denied)
	}
}

func TestSubstGetsUnwritableDestination(t *testing.T) {
	lc := libc(t)
	wrapper, st, err := Robustness(lc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)
	env.Stdin.WriteString("input line\n")

	env.Errno = 0
	v, f := call("gets", cval.Ptr(0xdead0000)) // unmapped
	if f != nil {
		t.Fatalf("gets into unmapped memory faulted: %v", f)
	}
	if !v.IsNull() || env.Errno != cval.EDenied {
		t.Errorf("gets(wild) = %v, errno %d; want NULL/EDenied", v, env.Errno)
	}
	// Read-only memory is as unwritable as unmapped memory.
	ro, _ := env.Img.LiteralString("readonly")
	env.Errno = 0
	if v, _ := call("gets", cval.Ptr(ro)); !v.IsNull() || env.Errno != cval.EDenied {
		t.Errorf("gets(rodata) = %v, errno %d; want NULL/EDenied", v, env.Errno)
	}
	if got := st.Funcs[st.Index("gets")].Denied; got != 2 {
		t.Errorf("Denied = %d, want 2", got)
	}
}

func TestSubstSprintfPercentNRejected(t *testing.T) {
	lc := libc(t)
	wrapper, _, err := Robustness(lc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)

	// A writable heap destination, a hostile format: the substitution's
	// own format validation must reject %n even though the bounded
	// snprintf would cap the write.
	dst, f := call("malloc", cval.Uint(64))
	if f != nil || dst.IsNull() {
		t.Fatalf("malloc = %v, %v", dst, f)
	}
	evil, _ := env.Img.StaticString("hi %n there")
	env.Errno = 0
	v, f := call("sprintf", cval.Ptr(dst.Addr()), cval.Ptr(evil))
	if f != nil {
		t.Fatalf("%%n sprintf faulted: %v", f)
	}
	if v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("%%n sprintf = %d, errno %d; want -1/EDenied", v.Int32(), env.Errno)
	}
}

// TestSubstSprintfParallelProbes hammers one substituted symbol from
// many goroutines, each with its own simulated process against the
// shared wrapper library — the parallel fault-injection campaign shape.
// Run under -race (make check does) this pins the locked accounting in
// the substitution paths: AddCall/NoteDeny on the shared State.
func TestSubstSprintfParallelProbes(t *testing.T) {
	lm, st := robustLib(t)
	fn, ok := lm.Resolve("sprintf")
	if !ok {
		t.Fatal("resolve sprintf")
	}
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := cval.NewEnv()
			dst, _ := env.Img.StaticString("xxxxxxxxxxxxxxxx")
			fmtStr, _ := env.Img.StaticString("n=%d")
			for i := 0; i < iters; i++ {
				// Alternate a denied call (too few args) with a valid
				// bounded one, so both accounting paths interleave.
				if _, f := fn(env, nil); f != nil {
					t.Errorf("denied sprintf faulted: %v", f)
					return
				}
				if _, f := fn(env, []cval.Value{cval.Ptr(dst), cval.Ptr(fmtStr), cval.Int(int64(i))}); f != nil {
					t.Errorf("bounded sprintf faulted: %v", f)
					return
				}
			}
		}()
	}
	wg.Wait()
	idx := st.Index("sprintf")
	if st.Funcs[idx].Calls != workers*iters*2 {
		t.Errorf("Calls = %d, want %d", st.Funcs[idx].Calls, workers*iters*2)
	}
	if st.Funcs[idx].Denied != workers*iters {
		t.Errorf("Denied = %d, want %d", st.Funcs[idx].Denied, workers*iters)
	}
}
