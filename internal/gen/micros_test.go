package gen

import (
	"fmt"
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

// TestFmtCheckMicroDenies runs the format check alone and composed with
// the profiling wrapper's call counter: any micro-generator list
// composes (§2.3), and each member keeps its job in the composition.
func TestFmtCheckMicroDenies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *Generator
		counted uint64 // calls the counter records per wrapped call
	}{
		{"fmt_check", MustGenerator(MGPrototype(), MGFmtCheck(), MGCaller()), 0},
		{"call_counter+fmt_check", MustGenerator(MGPrototype(), MGCallCounter(), MGFmtCheck(), MGCaller()), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewState("w")
			wrapped, env := buildOne(t, tc.g, st, "printf")

			evil, _ := env.Img.StaticString("%n")
			env.Errno = 0
			v, f := wrapped(env, []cval.Value{cval.Ptr(evil)})
			if f != nil || v.Int32() != -1 || env.Errno != cval.EDenied {
				t.Errorf("%%n call = %v, %v, errno %d", v, f, env.Errno)
			}
			if got := st.TotalCalls(); got != tc.counted {
				t.Errorf("calls counted after the denied call = %d, want %d", got, tc.counted)
			}
			fine, _ := env.Img.StaticString("ok %d")
			if v, f := wrapped(env, []cval.Value{cval.Ptr(fine), cval.Int(3)}); f != nil || v.Int32() != 4 {
				t.Errorf("fine call = %v, %v", v, f)
			}
			if got := st.TotalCalls(); got != 2*tc.counted {
				t.Errorf("calls counted = %d, want %d", got, 2*tc.counted)
			}
			proto, _ := cheader.ParsePrototype("int printf(const char *format, ...); // @format fmt")
			if src := tc.g.Source(proto); !strings.Contains(src, "healers_check_fmt_no_percent_n") {
				t.Errorf("fmt-check source:\n%s", src)
			}
		})
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

func TestStateResetAndName(t *testing.T) {
	st := NewState("w")
	i := st.Index("strlen")
	st.Funcs[i].Calls = 9
	st.Funcs[i].Denied = 2
	st.FuncErrno[i][1] = 3
	st.GlobalErrno[1] = 3
	st.Overflows = 1
	st.DenyLog = []string{"x"}
	st.Reset()
	if st.TotalCalls() != 0 || st.Funcs[i].Denied != 0 || st.FuncErrno[i][1] != 0 ||
		st.GlobalErrno[1] != 0 || st.Overflows != 0 || st.DenyLog != nil {
		t.Errorf("Reset left state: %+v", st)
	}
	if got := st.FuncNames()[i]; got != "strlen" {
		t.Errorf("name at index %d = %q after Reset", i, got)
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

// TestTraceMicroRecordsCalls drives the trace micro-generator through a
// wrapper and checks the entries the ring renders when read: the "..."
// suffix past traceMaxArgs argument words, a denied call, an errno
// outcome, Seq across Reset, and SetTraceCap growth on a ring that
// already holds entries.
func TestTraceMicroRecordsCalls(t *testing.T) {
	proto, err := cheader.ParsePrototype("int f(const char *s, ...); // @s in_str")
	if err != nil {
		t.Fatal(err)
	}
	api := ctypes.RobustAPI{"f": {{Name: "s", Chain: "in_str", Level: 1, LevelName: "nonnull"}}}
	st := NewState("libtrace.so")
	// The trace sits outside the argument check so that it sees denied
	// calls.
	g := MustGenerator(MGPrototype(), MGTrace(3), MGArgCheck(api), MGCaller())
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		if len(args) > 1 && args[1] == 34 {
			env.Errno = cval.ERANGE
		}
		return cval.Int(int64(len(args))), nil
	}
	w := g.Build(proto, &next, st)
	env := cval.NewEnv()
	s, f := env.Img.StaticString("x")
	if f != nil {
		t.Fatal(f)
	}
	call := func(args ...cval.Value) {
		t.Helper()
		if _, f := w(env, args); f != nil {
			t.Fatal(f)
		}
	}
	type want struct {
		seq           uint64
		args, outcome string
	}
	check := func(what string, ws ...want) {
		t.Helper()
		got := st.Trace()
		if len(got) != len(ws) {
			t.Fatalf("%s: %d entries %+v, want %d", what, len(got), got, len(ws))
		}
		for i, e := range got {
			if e.Func != "f" || e.Seq != ws[i].seq || e.Args != ws[i].args || e.Outcome != ws[i].outcome {
				t.Errorf("%s: entry %d = %d %s(%s) %s, want %d f(%s) %s", what, i,
					e.Seq, e.Func, e.Args, e.Outcome, ws[i].seq, ws[i].args, ws[i].outcome)
			}
		}
	}
	sx := fmt.Sprintf("%#x", uint64(s))

	long := []cval.Value{cval.Ptr(s)}
	for k := 1; k <= traceMaxArgs+1; k++ {
		long = append(long, cval.Int(int64(k)))
	}
	call(long...)                       // seq 1: ten words, eight rendered
	call(cval.Ptr(0))                   // seq 2: denied
	call(cval.Ptr(s), cval.Int(34))     // seq 3: errno=ERANGE
	call(cval.Ptr(s), cval.Int(0xbeef)) // seq 4: ok; seq 1 leaves the ring
	check("full ring",
		want{2, "0x0", "denied"},
		want{3, sx + ", 0x22", "errno=ERANGE"},
		want{4, sx + ", 0xbeef", "ok"})

	// Exactly traceMaxArgs+1 words still truncate.
	call(long[:traceMaxArgs+1]...) // seq 5
	if got := st.Trace()[2].Args; got != sx+", 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, ..." {
		t.Errorf("nine words rendered %q", got)
	}

	st.Reset()
	check("after Reset")
	env.Errno = 0
	call(cval.Ptr(s), cval.Int(34)) // seq 6
	call(long...)                   // seq 7
	check("refilled after Reset",
		want{6, sx + ", 0x22", "errno=ERANGE"},
		want{7, sx + ", 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, ...", "ok"})

	// Growth re-linearizes the live entries, then the ring fills to the
	// new capacity before it wraps.
	call(cval.Ptr(0)) // seq 8
	call(cval.Ptr(s)) // seq 9: seq 6 leaves the ring
	st.SetTraceCap(4)
	call(cval.Ptr(0)) // seq 10
	check("grown ring",
		want{7, sx + ", 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, ...", "ok"},
		want{8, "0x0", "denied"},
		want{9, sx, "ok"},
		want{10, "0x0", "denied"})
	call(cval.Ptr(s), cval.Int(1)) // seq 11: seq 7 leaves the ring
	check("grown ring wrapped",
		want{8, "0x0", "denied"},
		want{9, sx, "ok"},
		want{10, "0x0", "denied"},
		want{11, sx + ", 0x1", "ok"})
}
