package wrappers

import (
	"strings"
	"testing"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/simelf"
)

// loadWith builds a system with libc plus the given wrappers, preloaded
// in order (the first is outermost), and returns a call helper resolving
// through them.
func loadWith(t *testing.T, wrappers ...*simelf.Library) (*cval.Env, func(string, ...cval.Value) (cval.Value, *cmem.Fault)) {
	t.Helper()
	sys := simelf.NewSystem()
	if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
		t.Fatal(err)
	}
	var preloads []string
	for _, w := range wrappers {
		if err := sys.AddLibrary(w); err != nil {
			t.Fatal(err)
		}
		preloads = append(preloads, w.Soname)
	}
	if err := sys.AddExecutable(&simelf.Executable{Name: "app", Needed: []string{clib.LibcSoname}}); err != nil {
		t.Fatal(err)
	}
	lm, err := dynlink.Load(sys, "app", preloads)
	if err != nil {
		t.Fatal(err)
	}
	env := cval.NewEnv()
	return env, func(name string, args ...cval.Value) (cval.Value, *cmem.Fault) {
		fn, ok := lm.Resolve(name)
		if !ok {
			t.Fatalf("resolve %s", name)
		}
		return fn(env, args)
	}
}

func libc(t *testing.T) *simelf.Library {
	t.Helper()
	return clib.MustRegistry().AsLibrary()
}

func TestRobustnessWrapperDeniesAndPasses(t *testing.T) {
	lc := libc(t)
	var protos []*ctypes.Prototype
	for _, n := range lc.Symbols() {
		if p := lc.Proto(n); p != nil {
			protos = append(protos, p)
		}
	}
	wrapper, st, err := Robustness(lc, StrongestAPI(protos), nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)

	// Valid calls go through untouched.
	s, _ := env.Img.StaticString("hello")
	if v, f := call("strlen", cval.Ptr(s)); f != nil || v.Uint32() != 5 {
		t.Fatalf("strlen = %v, %v", v, f)
	}
	// Invalid calls are denied, not crashed.
	env.Errno = 0
	v, f := call("strlen", cval.Ptr(0))
	if f != nil || env.Errno != cval.EDenied || v.Int32() != -1 {
		t.Errorf("strlen(NULL) = %v, %v, errno %d", v, f, env.Errno)
	}
	// Pointer-returning functions are denied with NULL.
	env.Errno = 0
	v, f = call("strchr", cval.Ptr(0), cval.Int('x'))
	if f != nil || !v.IsNull() || env.Errno != cval.EDenied {
		t.Errorf("strchr(NULL) = %v, %v, errno %d", v, f, env.Errno)
	}
	if st.Funcs[st.Index("strlen")].Denied != 1 {
		t.Errorf("strlen denied count = %d", st.Funcs[st.Index("strlen")].Denied)
	}
}

func TestRobustnessSubstitutionSprintf(t *testing.T) {
	wrapper, st, err := Robustness(libc(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)

	// sprintf into a small heap chunk: the substitution bounds it at
	// the chunk's capacity instead of smashing the neighbour.
	small := env.Img.Heap.Malloc(8)
	next := env.Img.Heap.Malloc(8)
	env.Img.Space.WriteCString(next, "intact")
	fmtStr, _ := env.Img.StaticString("%s")
	long, _ := env.Img.StaticString(strings.Repeat("Z", 64))
	n, f := call("sprintf", cval.Ptr(small), cval.Ptr(fmtStr), cval.Ptr(long))
	if f != nil {
		t.Fatalf("bounded sprintf faulted: %v", f)
	}
	if n.Int32() != 64 { // snprintf semantics: full length returned
		t.Errorf("sprintf returned %d, want 64", n.Int32())
	}
	got, _ := env.Img.CString(next)
	if got != "intact" {
		t.Errorf("neighbour = %q; substitution did not bound the write", got)
	}
	// Unwritable destination is denied.
	env.Errno = 0
	if v, f := call("sprintf", cval.Ptr(0xdead0000), cval.Ptr(fmtStr), cval.Ptr(long)); f != nil || v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("sprintf wild dst = %v, %v, errno %d", v, f, env.Errno)
	}
	// Hostile format strings are rejected.
	env.Errno = 0
	evil, _ := env.Img.StaticString("x%n")
	if v, _ := call("sprintf", cval.Ptr(small), cval.Ptr(evil)); v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("sprintf %%n not rejected: %v errno %d", v, env.Errno)
	}
	if st.Funcs[st.Index("sprintf")].Denied != 2 {
		t.Errorf("sprintf denials = %d, want 2", st.Funcs[st.Index("sprintf")].Denied)
	}
}

func TestRobustnessSubstitutionGets(t *testing.T) {
	wrapper, _, err := Robustness(libc(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)
	env.Stdin.WriteString(strings.Repeat("B", 100) + "\n")

	small := env.Img.Heap.Malloc(8)
	guard := env.Img.Heap.Malloc(8)
	env.Img.Space.WriteCString(guard, "guarded")
	if v, f := call("gets", cval.Ptr(small)); f != nil || v.IsNull() {
		t.Fatalf("bounded gets = %v, %v", v, f)
	}
	got, _ := env.Img.CString(guard)
	if got != "guarded" {
		t.Errorf("guard = %q; gets overflowed despite substitution", got)
	}
	s, _ := env.Img.CString(small)
	if len(s) != 7 { // 8-byte chunk: 7 chars + NUL
		t.Errorf("bounded gets read %q (%d chars), want 7", s, len(s))
	}
}

func TestSecurityWrapperDetectsSmashPostCall(t *testing.T) {
	// Even when the overflow is not preventable pre-call (a raw memory
	// write between intercepted calls), the canary check on the next
	// intercepted call detects it.
	wrapper, st, err := Security(libc(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)

	// First intercepted call switches canaries on.
	p := call0(t, call, "malloc", cval.Uint(16))
	// The application smashes the chunk directly (not through libc).
	if f := env.Img.Space.WriteByteAt(p.Addr()+16, 0x41); f != nil {
		t.Fatal(f)
	}
	// The next intercepted call trips the canary check.
	s, _ := env.Img.StaticString("x")
	_, f := call("strlen", cval.Ptr(s))
	if f == nil || f.Kind != cmem.FaultOverflow {
		t.Errorf("post-smash call: fault = %v, want OVERFLOW", f)
	}
	if st.Overflows == 0 {
		t.Error("overflow not counted")
	}
}

func call0(t *testing.T, call func(string, ...cval.Value) (cval.Value, *cmem.Fault), name string, args ...cval.Value) cval.Value {
	t.Helper()
	v, f := call(name, args...)
	if f != nil {
		t.Fatalf("%s: %v", name, f)
	}
	return v
}

func TestSecurityWrapperRejectsFmtAttack(t *testing.T) {
	wrapper, _, err := Security(libc(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)
	evil, _ := env.Img.StaticString("boom %n boom")
	out := env.Img.Heap.Malloc(16)
	env.Errno = 0
	v, f := call("printf", cval.Ptr(evil), cval.Ptr(out))
	if f != nil {
		t.Fatalf("printf faulted: %v", f)
	}
	if v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("printf %%n = %v errno %d, want denial", v, env.Errno)
	}
	// A normal format still works.
	ok, _ := env.Img.StaticString("fine %d\n")
	if v, f := call("printf", cval.Ptr(ok), cval.Int(7)); f != nil || v.Int32() != 7 {
		t.Errorf("printf fine = %v, %v", v, f)
	}
	if env.Stdout.String() != "fine 7\n" {
		t.Errorf("stdout = %q", env.Stdout.String())
	}
}

func TestWrapperSubsetOnly(t *testing.T) {
	// Wrapping a subset leaves other symbols resolving to raw libc.
	wrapper, _, err := Security(libc(t), []string{"memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapper.Lookup("memcpy"); !ok {
		t.Fatal("subset wrapper missing memcpy")
	}
	if _, ok := wrapper.Lookup("strlen"); ok {
		t.Error("subset wrapper wrapped strlen")
	}
	if _, _, err := Security(libc(t), []string{"no_such_fn"}); err == nil {
		t.Error("unknown function accepted in subset")
	}
}

func TestStrongestAPIShape(t *testing.T) {
	lc := libc(t)
	api := StrongestAPI([]*ctypes.Prototype{lc.Proto("strcpy"), lc.Proto("abs")})
	if got := api["strcpy"][0].LevelName; got != "writable_sized" {
		t.Errorf("strongest strcpy dest = %q", got)
	}
	if got := api["abs"][0].LevelName; got != "any" {
		t.Errorf("strongest abs j = %q", got)
	}
}

func TestProfilingWrapperCollects(t *testing.T) {
	wrapper, st, err := Profiling(libc(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)
	s, _ := env.Img.StaticString("abc")
	for i := 0; i < 5; i++ {
		call0(t, call, "strlen", cval.Ptr(s))
	}
	if st.Funcs[st.Index("strlen")].Calls != 5 {
		t.Errorf("strlen count = %d", st.Funcs[st.Index("strlen")].Calls)
	}
	st.Reset()
	if st.TotalCalls() != 0 {
		t.Error("Reset did not clear counters")
	}
	if got := st.FuncNames()[st.Index("strlen")]; got != "strlen" {
		t.Errorf("name round trip = %q", got)
	}
}
