package gen

import (
	"strings"
	"testing"

	"healers/internal/cheader"
	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/simelf"
)

func wctransProto(t *testing.T) *ctypes.Prototype {
	t.Helper()
	p, err := cheader.ParsePrototype("wctrans_t wctrans(const char *name); // @name in_str")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// profilingGen mirrors wrappers.ProfilingGenerator locally to keep the
// package test self-contained.
func profilingGen() *Generator {
	return MustGenerator(
		MGPrototype(), MGExectime(), MGCollectErrors(), MGFuncErrors(), MGCallCounter(), MGCaller(),
	)
}

// TestFigure3Source pins the generated wctrans wrapper against the
// paper's Figure 3: same micro-generators, same fragment order, same
// structural elements.
func TestFigure3Source(t *testing.T) {
	src := profilingGen().Source(wctransProto(t))

	wantInOrder := []string{
		"/* Prefix code by micro-gen prototype */",
		"wctrans_t wctrans(const char* a1)",
		"wctrans_t ret;",
		"/* Prefix code by micro-gen function exectime */",
		"rdtsc(exectime_start);",
		"/* Prefix code by micro-gen collect errors */",
		"int collect_errors_err = errno;",
		"/* Prefix code by micro-gen func errors */",
		"int func_error_err = errno;",
		"/* Prefix code by micro-gen call counter */",
		"++call_counter_num_calls[NO_WCTRANS];",
		"/* Postfix code by micro-gen caller */",
		"ret = (*addr_wctrans)(a1);",
		"/* Postfix code by micro-gen func errors */",
		"++func_error_cnter[NO_WCTRANS][MAX_ERRNO];",
		"/* Postfix code by micro-gen collect errors */",
		"++collect_errors_cnter[MAX_ERRNO];",
		"/* Postfix code by micro-gen function exectime */",
		"exectime[NO_WCTRANS] += exectime_end - exectime_start;",
		"/* Postfix code by micro-gen prototype */",
		"return ret;",
	}
	pos := 0
	for _, want := range wantInOrder {
		i := strings.Index(src[pos:], want)
		if i < 0 {
			t.Fatalf("generated source missing (or out of order): %q\n--- got ---\n%s", want, src)
		}
		pos += i + len(want)
	}
}

func TestSourceVoidReturn(t *testing.T) {
	p, err := cheader.ParsePrototype("void free(void *ptr); // @ptr heap_ptr")
	if err != nil {
		t.Fatal(err)
	}
	src := profilingGen().Source(p)
	if strings.Contains(src, "ret =") {
		t.Error("void wrapper assigns to ret")
	}
	if !strings.Contains(src, "(*addr_free)(a1);") {
		t.Error("void wrapper missing call")
	}
	if !strings.Contains(src, "return;") {
		t.Error("void wrapper missing bare return")
	}
}

func TestSourceVariadic(t *testing.T) {
	p, err := cheader.ParsePrototype("int printf(const char *format, ...); // @format fmt")
	if err != nil {
		t.Fatal(err)
	}
	src := profilingGen().Source(p)
	if !strings.Contains(src, "int printf(const char* a1, ...)") {
		t.Errorf("variadic signature wrong:\n%s", src)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(MGPrototype()); err == nil {
		t.Error("generator without caller accepted")
	}
	if _, err := NewGenerator(MGPrototype(), MGCaller(), MGCaller()); err == nil {
		t.Error("generator with two callers accepted")
	}
	if _, err := NewGenerator(MGPrototype(), MGCaller()); err != nil {
		t.Errorf("minimal generator rejected: %v", err)
	}
}

// wrapLibc builds a profiling wrapper over the real simulated libc and
// loads app->wrapper->libc, returning a resolver.
func wrapLibc(t *testing.T, g *Generator, st *State, fns ...string) (*cval.Env, func(string, ...cval.Value) (cval.Value, *cmem.Fault)) {
	t.Helper()
	reg := clib.MustRegistry()
	libc := reg.AsLibrary()
	var protos []*ctypes.Prototype
	for _, fn := range fns {
		p := libc.Proto(fn)
		if p == nil {
			t.Fatalf("no proto for %s", fn)
		}
		protos = append(protos, p)
	}
	wrapper := g.BuildLibrarySubst("libwrap.so", protos, st, nil)

	sys := simelf.NewSystem()
	if err := sys.AddLibrary(libc); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLibrary(wrapper); err != nil {
		t.Fatal(err)
	}
	app := &simelf.Executable{Name: "app", Needed: []string{clib.LibcSoname}}
	if err := sys.AddExecutable(app); err != nil {
		t.Fatal(err)
	}
	lm, err := dynlink.Load(sys, "app", []string{"libwrap.so"})
	if err != nil {
		t.Fatal(err)
	}
	env := cval.NewEnv()
	return env, func(name string, args ...cval.Value) (cval.Value, *cmem.Fault) {
		fn, ok := lm.Resolve(name)
		if !ok {
			t.Fatalf("resolve %s failed", name)
		}
		return fn(env, args)
	}
}

func TestProfilingHooksCollect(t *testing.T) {
	st := NewState("libwrap.so")
	env, call := wrapLibc(t, profilingGen(), st, "strlen", "wctrans")

	s, _ := env.Img.StaticString("hello")
	for i := 0; i < 3; i++ {
		v, f := call("strlen", cval.Ptr(s))
		if f != nil || v.Uint32() != 5 {
			t.Fatalf("wrapped strlen = %v, %v", v, f)
		}
	}
	bogus, _ := env.Img.StaticString("bogus")
	if _, f := call("wctrans", cval.Ptr(bogus)); f != nil {
		t.Fatalf("wrapped wctrans: %v", f)
	}

	idx := st.Index("strlen")
	if st.Funcs[idx].Calls != 3 {
		t.Errorf("strlen count = %d, want 3", st.Funcs[idx].Calls)
	}
	widx := st.Index("wctrans")
	if st.Funcs[widx].Calls != 1 {
		t.Errorf("wctrans count = %d, want 1", st.Funcs[widx].Calls)
	}
	// wctrans("bogus") sets EINVAL; both errno histograms must see it.
	if st.FuncErrno[widx][cval.EINVAL] != 1 {
		t.Errorf("func errno histogram EINVAL = %d, want 1", st.FuncErrno[widx][cval.EINVAL])
	}
	if st.GlobalErrno[cval.EINVAL] != 1 {
		t.Errorf("global errno histogram EINVAL = %d, want 1", st.GlobalErrno[cval.EINVAL])
	}
	if st.TotalCalls() != 4 {
		t.Errorf("TotalCalls = %d, want 4", st.TotalCalls())
	}
	// Execution time accumulated something nonzero for strlen.
	if st.Funcs[idx].ExecNS <= 0 {
		t.Errorf("ExecNS = %d, want > 0", st.Funcs[idx].ExecNS)
	}
	names := st.FuncNames()
	if len(names) != 2 {
		t.Errorf("FuncNames = %v", names)
	}
}

func TestWrapperTransparency(t *testing.T) {
	// A wrapped fault must pass through unchanged (the wrapper is
	// transparent for behaviour it doesn't veto).
	st := NewState("libwrap.so")
	_, call := wrapLibc(t, profilingGen(), st, "strlen")
	_, f := call("strlen", cval.Ptr(0))
	if f == nil || f.Kind != cmem.FaultSegv {
		t.Errorf("fault through wrapper = %v, want SIGSEGV", f)
	}
}

func TestArgCheckDenies(t *testing.T) {
	reg := clib.MustRegistry()
	libc := reg.AsLibrary()
	api := ctypes.RobustAPI{
		"strlen": {{Name: "s", Chain: "in_str", Level: 3, LevelName: "cstring"}},
	}
	g := MustGenerator(MGPrototype(), MGArgCheck(api), MGCaller())
	st := NewState("libwrap.so")
	env, call := func() (*cval.Env, func(string, ...cval.Value) (cval.Value, *cmem.Fault)) {
		protos := []*ctypes.Prototype{libc.Proto("strlen")}
		wrapper := g.BuildLibrarySubst("libwrap.so", protos, st, nil)
		sys := simelf.NewSystem()
		if err := sys.AddLibrary(libc); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddLibrary(wrapper); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddExecutable(&simelf.Executable{Name: "app", Needed: []string{clib.LibcSoname}}); err != nil {
			t.Fatal(err)
		}
		lm, err := dynlink.Load(sys, "app", []string{"libwrap.so"})
		if err != nil {
			t.Fatal(err)
		}
		env := cval.NewEnv()
		return env, func(name string, args ...cval.Value) (cval.Value, *cmem.Fault) {
			fn, _ := lm.Resolve(name)
			return fn(env, args)
		}
	}()

	// Valid call passes through.
	s, _ := env.Img.StaticString("four")
	v, f := call("strlen", cval.Ptr(s))
	if f != nil || v.Uint32() != 4 {
		t.Fatalf("valid strlen = %v, %v", v, f)
	}
	// NULL is denied instead of crashing.
	env.Errno = 0
	v, f = call("strlen", cval.Ptr(0))
	if f != nil {
		t.Fatalf("denied call faulted: %v", f)
	}
	if env.Errno != cval.EDenied {
		t.Errorf("errno = %d, want EDenied", env.Errno)
	}
	if v.Int32() != -1 {
		t.Errorf("denied return = %d, want -1", v.Int32())
	}
	if st.Funcs[st.Index("strlen")].Denied != 1 {
		t.Errorf("Denied = %d", st.Funcs[st.Index("strlen")].Denied)
	}
	if len(st.DenyLog) != 1 || !strings.Contains(st.DenyLog[0], "strlen") {
		t.Errorf("DenyLog = %v", st.DenyLog)
	}
}

func TestArgCheckSourceRendering(t *testing.T) {
	api := ctypes.RobustAPI{
		"strlen": {{Name: "s", Chain: "in_str", Level: 3, LevelName: "cstring"}},
	}
	p, err := cheader.ParsePrototype("size_t strlen(const char *s); // @s in_str")
	if err != nil {
		t.Fatal(err)
	}
	src := MustGenerator(MGPrototype(), MGArgCheck(api), MGCaller()).Source(p)
	for _, want := range []string{"healers_check_cstring(a1", "EHEALERS_DENIED"} {
		if !strings.Contains(src, want) {
			t.Errorf("arg-check source missing %q:\n%s", want, src)
		}
	}
}

func TestUnresolvedNextFaults(t *testing.T) {
	p, err := cheader.ParsePrototype("int f(int a);")
	if err != nil {
		t.Fatal(err)
	}
	st := NewState("w")
	var next cval.CFunc // never resolved
	w := MustGenerator(MGPrototype(), MGCaller()).Build(p, &next, st)
	if _, f := w(cval.NewEnv(), []cval.Value{cval.Int(1)}); f == nil || f.Kind != cmem.FaultAbort {
		t.Errorf("unresolved next: fault = %v, want SIGABRT", f)
	}
}

func TestBuildLibraryRequiresNextDefinition(t *testing.T) {
	p, err := cheader.ParsePrototype("int not_in_libc(int a);")
	if err != nil {
		t.Fatal(err)
	}
	st := NewState("libwrap.so")
	wrapper := MustGenerator(MGPrototype(), MGCaller()).BuildLibrarySubst("libwrap.so", []*ctypes.Prototype{p}, st, nil)
	sys := simelf.NewSystem()
	if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLibrary(wrapper); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddExecutable(&simelf.Executable{Name: "app", Needed: []string{clib.LibcSoname}}); err != nil {
		t.Fatal(err)
	}
	if _, err := dynlink.Load(sys, "app", []string{"libwrap.so"}); err == nil {
		t.Error("load succeeded although the wrapped symbol has no next definition")
	}
}
