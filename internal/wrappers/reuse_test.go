package wrappers

import (
	"fmt"
	"strings"
	"testing"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
)

// The tests below pin what nested and contained wrapped calls leave
// behind — return values, every counter, the deny log and the trace ring
// — while the generator reuses call contexts: a context is handed back
// when its call returns, so a call made from inside another wrapped call
// (a qsort comparator calling strlen) must get a context of its own, and a
// contained call's retries must still see the call's own arguments.

// stateReport renders the counters of every function st saw called, its
// deny log, and its trace ring without durations.
func stateReport(b *strings.Builder, st *gen.State) {
	for i, name := range st.FuncNames() {
		if st.Funcs[i].Calls == 0 && st.Funcs[i].Denied == 0 {
			continue
		}
		fmt.Fprintf(b, "%s %s calls=%d passed=%d denied=%d contained=%d retried=%d hist=%d\n",
			st.Soname, name, st.Funcs[i].Calls, st.Funcs[i].Passed, st.Funcs[i].Denied,
			st.Funcs[i].Contained, st.Funcs[i].Retried, gen.HistTotal(st.ExecHist[i]))
	}
	for _, r := range st.DenyLog {
		fmt.Fprintf(b, "%s deny %s\n", st.Soname, r)
	}
	for _, e := range st.Trace() {
		fmt.Fprintf(b, "%s trace %d %s(%s) %s\n", st.Soname, e.Seq, e.Func, e.Args, e.Outcome)
	}
}

// wordArray mallocs an array of pointers to the given words through call
// and returns its address.
func wordArray(t *testing.T, env *cval.Env, call func(string, ...cval.Value) (cval.Value, *cmem.Fault), words []string) cmem.Addr {
	t.Helper()
	arr, f := call("malloc", cval.Uint(uint64(4*len(words))))
	if f != nil || arr.IsNull() {
		t.Fatalf("malloc = %v, %v", arr, f)
	}
	for i, w := range words {
		a := cmem.Addr(0xdead0000) // a wild pointer for an empty word
		if w != "" {
			s, f := env.Img.StaticString(w)
			if f != nil {
				t.Fatal(f)
			}
			a = s
		}
		if f := env.Img.Space.WriteU32(arr.Addr()+cmem.Addr(4*i), uint32(a)); f != nil {
			t.Fatal(f)
		}
	}
	return arr.Addr()
}

// lenCmp registers a comparator of word pointers by length that calls
// strlen through call: each comparison makes two wrapped calls from
// inside the wrapped qsort.
func lenCmp(env *cval.Env, call func(string, ...cval.Value) (cval.Value, *cmem.Fault)) cval.Value {
	return cval.Ptr(env.RegisterText("len_cmp", func(e *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		var n [2]int64
		for k := range n {
			p, f := e.Img.Space.ReadU32(args[k].Addr())
			if f != nil {
				return 0, f
			}
			r, f := call("strlen", cval.Ptr(cmem.Addr(p)))
			if f != nil {
				return 0, f
			}
			n[k] = int64(r.Int32())
		}
		return cval.Int(n[0] - n[1]), nil
	}))
}

// sortedWords reads the word array back.
func sortedWords(t *testing.T, env *cval.Env, arr cmem.Addr, n int) string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		p, f := env.Img.Space.ReadU32(arr + cmem.Addr(4*i))
		if f != nil {
			t.Fatal(f)
		}
		s, f := env.Img.Space.ReadCString(cmem.Addr(p), 64)
		if f != nil {
			s = fmt.Sprintf("<%#x>", p)
		}
		out = append(out, s)
	}
	return strings.Join(out, " ")
}

func TestNestedCallsUnderStackedWrappers(t *testing.T) {
	lc := libc(t)
	var protos []*ctypes.Prototype
	for _, n := range lc.Symbols() {
		if p := lc.Proto(n); p != nil {
			protos = append(protos, p)
		}
	}
	sec, secSt, err := Security(lc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rob, robSt, err := Robustness(lc, StrongestAPI(protos), nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, profSt, err := Profiling(lc, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, sec, rob, prof)

	words := []string{"banana", "fig", "cherry", "kiwi", "apple", "date"}
	arr := wordArray(t, env, call, words)
	var b strings.Builder
	r, f := call("qsort", cval.Ptr(arr), cval.Uint(uint64(len(words))), cval.Uint(4), lenCmp(env, call))
	fmt.Fprintf(&b, "qsort = %v, %v: %s\n", r, f, sortedWords(t, env, arr, len(words)))
	// A denied call and an errno outcome after the nested ones.
	r, f = call("strlen", cval.Ptr(0))
	fmt.Fprintf(&b, "strlen(NULL) = %v, %v, errno %d\n", r, f, env.Errno)
	num, _ := env.Img.StaticString("99999999999999999999")
	env.Errno = 0
	r, f = call("strtol", cval.Ptr(num), cval.Ptr(0), cval.Int(10))
	fmt.Fprintf(&b, "strtol = %v, %v, errno %d\n", r, f, env.Errno)
	for _, st := range []*gen.State{secSt, robSt, profSt} {
		stateReport(&b, st)
	}
	if got := b.String(); got != nestedGolden {
		t.Errorf("report:\n%s\nwant:\n%s", got, nestedGolden)
	}
}

func TestContainedRetriesUnderNestedCalls(t *testing.T) {
	lc := libc(t)
	policy := NewPolicyEngine([]PolicyRule{
		{Func: "strlen", Class: "crash", Decision: gen.ContainDecision{Action: gen.ActionRetry, Retries: 2}},
	}, BreakerConfig{Threshold: -1})
	cont, contSt, err := Containment(lc, nil, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, profSt, err := Profiling(lc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Profiling outermost: it sees each contained fault as the errno
	// return the containment wrapper made of it.
	env, call := loadWith(t, prof, cont)

	// The empty word is a wild pointer: each comparison that reaches it
	// faults in strlen, is retried twice, and is virtualized to -1.
	words := []string{"banana", "", "fig", "kiwi"}
	arr := wordArray(t, env, call, words)
	var b strings.Builder
	r, f := call("qsort", cval.Ptr(arr), cval.Uint(uint64(len(words))), cval.Uint(4), lenCmp(env, call))
	fmt.Fprintf(&b, "qsort = %v, %v: %s, errno %d\n", r, f, sortedWords(t, env, arr, len(words)), env.Errno)
	env.Errno = 0
	r, f = call("strlen", cval.Ptr(0xdead0000))
	fmt.Fprintf(&b, "strlen(wild) = %v, %v, errno %d\n", r, f, env.Errno)
	for _, st := range []*gen.State{contSt, profSt} {
		stateReport(&b, st)
	}
	if got := b.String(); got != containedGolden {
		t.Errorf("report:\n%s\nwant:\n%s", got, containedGolden)
	}
}

// nestedGolden and containedGolden were recorded with a generator that
// allocated a fresh context for every call.
const nestedGolden = `qsort = 0x0, <nil>: fig kiwi date apple banana cherry
strlen(NULL) = 0xffffffffffffffff, <nil>, errno 1000
strtol = 0x7fffffff, <nil>, errno 34
libhealers_sec.so malloc calls=1 passed=1 denied=0 contained=0 retried=0 hist=0
libhealers_sec.so qsort calls=1 passed=1 denied=0 contained=0 retried=0 hist=0
libhealers_sec.so strlen calls=25 passed=25 denied=0 contained=0 retried=0 hist=0
libhealers_sec.so strtol calls=1 passed=1 denied=0 contained=0 retried=0 hist=0
libhealers_robust.so malloc calls=1 passed=1 denied=0 contained=0 retried=0 hist=0
libhealers_robust.so qsort calls=1 passed=1 denied=0 contained=0 retried=0 hist=0
libhealers_robust.so strlen calls=25 passed=24 denied=1 contained=0 retried=0 hist=0
libhealers_robust.so strtol calls=1 passed=1 denied=0 contained=0 retried=0 hist=0
libhealers_robust.so deny strlen: arg 1 fails nonnull
libhealers_prof.so malloc calls=1 passed=1 denied=0 contained=0 retried=0 hist=1
libhealers_prof.so qsort calls=1 passed=1 denied=0 contained=0 retried=0 hist=1
libhealers_prof.so strlen calls=24 passed=24 denied=0 contained=0 retried=0 hist=24
libhealers_prof.so strtol calls=1 passed=1 denied=0 contained=0 retried=0 hist=1
libhealers_prof.so trace 1 malloc(0x18) ok
libhealers_prof.so trace 2 strlen(0x8000000) ok
libhealers_prof.so trace 3 strlen(0x8000008) ok
libhealers_prof.so trace 4 strlen(0x8000000) ok
libhealers_prof.so trace 5 strlen(0x8000010) ok
libhealers_prof.so trace 6 strlen(0x8000010) ok
libhealers_prof.so trace 7 strlen(0x8000018) ok
libhealers_prof.so trace 8 strlen(0x8000000) ok
libhealers_prof.so trace 9 strlen(0x8000018) ok
libhealers_prof.so trace 10 strlen(0x8000008) ok
libhealers_prof.so trace 11 strlen(0x8000018) ok
libhealers_prof.so trace 12 strlen(0x8000010) ok
libhealers_prof.so trace 13 strlen(0x8000020) ok
libhealers_prof.so trace 14 strlen(0x8000000) ok
libhealers_prof.so trace 15 strlen(0x8000020) ok
libhealers_prof.so trace 16 strlen(0x8000018) ok
libhealers_prof.so trace 17 strlen(0x8000020) ok
libhealers_prof.so trace 18 strlen(0x8000010) ok
libhealers_prof.so trace 19 strlen(0x8000028) ok
libhealers_prof.so trace 20 strlen(0x8000000) ok
libhealers_prof.so trace 21 strlen(0x8000028) ok
libhealers_prof.so trace 22 strlen(0x8000020) ok
libhealers_prof.so trace 23 strlen(0x8000028) ok
libhealers_prof.so trace 24 strlen(0x8000018) ok
libhealers_prof.so trace 25 strlen(0x8000028) ok
libhealers_prof.so trace 26 qsort(0x10000008, 0x6, 0x4, 0x400000) ok
libhealers_prof.so trace 27 strtol(0x8000030, 0x0, 0xa) errno=ERANGE
`

const containedGolden = `qsort = 0x0, <nil>: <0xdead0000> fig kiwi banana, errno 14
strlen(wild) = 0xffffffffffffffff, <nil>, errno 14
libhealers_contain.so malloc calls=1 passed=1 denied=0 contained=0 retried=0 hist=1
libhealers_contain.so qsort calls=1 passed=1 denied=0 contained=0 retried=0 hist=1
libhealers_contain.so strlen calls=11 passed=8 denied=3 contained=3 retried=6 hist=11
libhealers_contain.so deny strlen: contained crash (SIGSEGV)
libhealers_contain.so deny strlen: contained crash (SIGSEGV)
libhealers_contain.so deny strlen: contained crash (SIGSEGV)
libhealers_prof.so malloc calls=1 passed=1 denied=0 contained=0 retried=0 hist=1
libhealers_prof.so qsort calls=1 passed=1 denied=0 contained=0 retried=0 hist=1
libhealers_prof.so strlen calls=11 passed=11 denied=0 contained=0 retried=0 hist=11
libhealers_prof.so trace 1 malloc(0x10) ok
libhealers_prof.so trace 2 strlen(0x8000000) ok
libhealers_prof.so trace 3 strlen(0xdead0000) errno=EFAULT
libhealers_prof.so trace 4 strlen(0x8000000) ok
libhealers_prof.so trace 5 strlen(0x8000008) ok
libhealers_prof.so trace 6 strlen(0xdead0000) ok
libhealers_prof.so trace 7 strlen(0x8000008) ok
libhealers_prof.so trace 8 strlen(0x8000000) ok
libhealers_prof.so trace 9 strlen(0x8000010) ok
libhealers_prof.so trace 10 strlen(0x8000008) ok
libhealers_prof.so trace 11 strlen(0x8000010) ok
libhealers_prof.so trace 12 qsort(0x10000008, 0x4, 0x4, 0x400000) errno=EFAULT
libhealers_prof.so trace 13 strlen(0xdead0000) errno=EFAULT
`
