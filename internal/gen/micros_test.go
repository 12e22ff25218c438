package gen

import (
	"strings"
	"testing"

	"healers/internal/cheader"
	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/simelf"
)

// buildOne wires a single prototype's wrapper directly to its libc
// implementation (no link map) for focused micro-generator tests.
func buildOne(t *testing.T, g *Generator, st *State, fn string) (cval.CFunc, *cval.Env) {
	t.Helper()
	libc := clib.MustRegistry().AsLibrary()
	proto := libc.Proto(fn)
	if proto == nil {
		t.Fatalf("no proto for %s", fn)
	}
	base, _ := libc.Lookup(fn)
	next := base
	return g.Build(proto, &next, st), cval.NewEnv()
}

func TestHeapCheckMicroDetectsAndArms(t *testing.T) {
	g := MustGenerator(MGPrototype(), MGHeapCheck(), MGCaller())
	st := NewState("w")
	wrapped, env := buildOne(t, g, st, "strlen")
	s, _ := env.Img.StaticString("x")

	if env.Img.Heap.CanariesEnabled() {
		t.Fatal("canaries on before first intercepted call")
	}
	if _, f := wrapped(env, []cval.Value{cval.Ptr(s)}); f != nil {
		t.Fatalf("clean call: %v", f)
	}
	if !env.Img.Heap.CanariesEnabled() {
		t.Error("first intercepted call did not arm canaries")
	}
	// Smash a canaried chunk; the next wrapped call must detect it.
	p := env.Img.Heap.Malloc(8)
	env.Img.Space.WriteByteAt(p+8, 0x41)
	if _, f := wrapped(env, []cval.Value{cval.Ptr(s)}); f == nil || f.Kind != cmem.FaultOverflow {
		t.Errorf("post-smash call: fault = %v, want OVERFLOW", f)
	}
	if st.Overflows != 1 {
		t.Errorf("Overflows = %d", st.Overflows)
	}
	// Source fragments mention the check.
	proto, _ := cheader.ParsePrototype("size_t strlen(const char *s); // @s in_str")
	src := g.Source(proto)
	if !strings.Contains(src, "healers_heap_check") || !strings.Contains(src, "healers_heap_enable_canaries") {
		t.Errorf("heap-check source:\n%s", src)
	}
}

func TestBoundCheckMicroPreventsOverflow(t *testing.T) {
	g := MustGenerator(MGPrototype(), MGBoundCheck(), MGCaller())
	st := NewState("w")
	wrapped, env := buildOne(t, g, st, "strcpy")

	dst := env.Img.Heap.Malloc(8)
	small, _ := env.Img.StaticString("ok")
	if _, f := wrapped(env, []cval.Value{cval.Ptr(dst), cval.Ptr(small)}); f != nil {
		t.Fatalf("fitting copy: %v", f)
	}
	long, _ := env.Img.StaticString(strings.Repeat("A", 40))
	_, f := wrapped(env, []cval.Value{cval.Ptr(dst), cval.Ptr(long)})
	if f == nil || f.Kind != cmem.FaultOverflow {
		t.Fatalf("overflowing copy: fault = %v, want OVERFLOW prevention", f)
	}
	if !strings.Contains(f.Detail, "prevented") {
		t.Errorf("fault detail = %q", f.Detail)
	}
	// Non-heap destinations are left to the canary layer.
	static, _ := env.Img.StaticAlloc(8)
	if _, f := wrapped(env, []cval.Value{cval.Ptr(static), cval.Ptr(small)}); f != nil {
		t.Errorf("static dst: %v", f)
	}
	proto, _ := cheader.ParsePrototype("char *strcpy(char *dest, const char *src); // @dest out_buf src=src nul @src in_str")
	if src := g.Source(proto); !strings.Contains(src, "healers_chunk_room") {
		t.Errorf("bound-check source:\n%s", src)
	}
}

func TestFmtCheckMicroDenies(t *testing.T) {
	g := MustGenerator(MGPrototype(), MGFmtCheck(), MGCaller())
	st := NewState("w")
	wrapped, env := buildOne(t, g, st, "printf")

	evil, _ := env.Img.StaticString("%n")
	env.Errno = 0
	v, f := wrapped(env, []cval.Value{cval.Ptr(evil)})
	if f != nil || v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("%%n call = %v, %v, errno %d", v, f, env.Errno)
	}
	fine, _ := env.Img.StaticString("ok %d")
	if v, f := wrapped(env, []cval.Value{cval.Ptr(fine), cval.Int(3)}); f != nil || v.Int32() != 4 {
		t.Errorf("fine call = %v, %v", v, f)
	}
	proto, _ := cheader.ParsePrototype("int printf(const char *format, ...); // @format fmt")
	if src := g.Source(proto); !strings.Contains(src, "healers_check_fmt_no_percent_n") {
		t.Errorf("fmt-check source:\n%s", src)
	}
}

func TestExitFlushMicroFiresOncePerProcess(t *testing.T) {
	g := MustGenerator(MGPrototype(), MGExitFlush(), MGCaller())
	st := NewState("w")
	wrapped, env := buildOne(t, g, st, "exit")

	flushes := 0
	st.OnExit = func(e *cval.Env, s *State) { flushes++ }
	if _, f := wrapped(env, []cval.Value{cval.Int(0)}); f != nil {
		t.Fatalf("exit call: %v", f)
	}
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1", flushes)
	}
	// A second exit in the same process does not re-flush.
	if _, f := wrapped(env, []cval.Value{cval.Int(0)}); f != nil {
		t.Fatalf("second exit: %v", f)
	}
	if flushes != 1 {
		t.Errorf("flushes after second exit = %d, want 1", flushes)
	}
	// A fresh process flushes again.
	env2 := cval.NewEnv()
	if _, f := wrapped(env2, []cval.Value{cval.Int(0)}); f != nil {
		t.Fatalf("fresh exit: %v", f)
	}
	if flushes != 2 {
		t.Errorf("flushes across processes = %d, want 2", flushes)
	}
	// The exit wrapper's source carries the flush call.
	proto, _ := cheader.ParsePrototype("void exit(int status);")
	if src := g.Source(proto); !strings.Contains(src, "healers_flush_collected_data") {
		t.Errorf("exit-flush source:\n%s", src)
	}
	// Non-exit functions get no flush fragment.
	other, _ := cheader.ParsePrototype("int abs(int j);")
	if src := g.Source(other); strings.Contains(src, "healers_flush_collected_data") {
		t.Error("non-exit wrapper carries flush fragment")
	}
}

func TestLibrarySourceConcatenates(t *testing.T) {
	g := profilingGen()
	p1, _ := cheader.ParsePrototype("int abs(int j);")
	p2, _ := cheader.ParsePrototype("size_t strlen(const char *s); // @s in_str")
	src := g.LibrarySource([]*ctypes.Prototype{p1, p2})
	if !strings.Contains(src, "int abs(int a1)") || !strings.Contains(src, "size_t strlen(const char* a1)") {
		t.Errorf("library source:\n%s", src)
	}
}

func TestStateResetAndName(t *testing.T) {
	st := NewState("w")
	i := st.Index("strlen")
	st.CallCount[i] = 9
	st.DeniedCount[i] = 2
	st.FuncErrno[i][1] = 3
	st.GlobalErrno[1] = 3
	st.Overflows = 1
	st.DenyLog = []string{"x"}
	st.Reset()
	if st.TotalCalls() != 0 || st.DeniedCount[i] != 0 || st.FuncErrno[i][1] != 0 ||
		st.GlobalErrno[1] != 0 || st.Overflows != 0 || st.DenyLog != nil {
		t.Errorf("Reset left state: %+v", st)
	}
	if st.Name(i) != "strlen" {
		t.Errorf("Name = %q", st.Name(i))
	}
	if st.Index("strlen") != i {
		t.Error("Reset lost the index table")
	}
}

func TestSubstTrampolineUnresolved(t *testing.T) {
	// A substituted symbol whose library never loaded faults cleanly.
	libc := clib.MustRegistry().AsLibrary()
	st := NewState("w")
	lib := MustGenerator(MGPrototype(), MGCaller()).BuildLibrarySubst("w.so",
		[]*ctypes.Prototype{libc.Proto("sprintf")}, st,
		map[string]Subst{"sprintf": func(next simelf.NextFunc, st *State) (cval.CFunc, error) { return nil, nil }})
	fn, ok := lib.Lookup("sprintf")
	if !ok {
		t.Fatal("substituted symbol not exported")
	}
	if _, f := fn(cval.NewEnv(), nil); f == nil || f.Kind != cmem.FaultAbort {
		t.Errorf("unresolved substitute: fault = %v, want SIGABRT", f)
	}
}
