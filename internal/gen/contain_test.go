package gen

import (
	"strings"
	"testing"

	"healers/internal/cheader"
	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
)

// stubPolicy is a canned ContainPolicy for tests: a fixed decision plus
// a simple trip-after-threshold breaker.
type stubPolicy struct {
	decision  ContainDecision
	threshold int
	failures  int
	tripped   bool
}

func (p *stubPolicy) Decide(string, FailureClass) ContainDecision { return p.decision }

func (p *stubPolicy) RecordFailure(string, FailureClass) bool {
	p.failures++
	if p.threshold > 0 && p.failures >= p.threshold && !p.tripped {
		p.tripped = true
		return true
	}
	return false
}

func (p *stubPolicy) Tripped(string) bool { return p.tripped }

func intProto(t *testing.T) *ctypes.Prototype {
	t.Helper()
	p, err := cheader.ParsePrototype("int f(int a);")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func containGenOf(policy ContainPolicy) *Generator {
	return MustGenerator(MGPrototype(), MGWatchdog(0), MGContain(policy), MGCaller())
}

func TestContainVirtualizesCrash(t *testing.T) {
	st := NewState("libcontain.so")
	env, call := wrapLibc(t, containGenOf(nil), st, "strlen")

	// strlen(NULL) faults in the real implementation; the containment
	// wrapper must survive it as an errno return.
	v, f := call("strlen", cval.Ptr(0))
	if f != nil {
		t.Fatalf("contained call faulted: %v", f)
	}
	if env.Errno != cval.EFAULT {
		t.Errorf("errno = %d, want EFAULT", env.Errno)
	}
	if v.Int32() != -1 {
		t.Errorf("virtualized return = %d, want -1", v.Int32())
	}
	idx := st.Index("strlen")
	if st.Funcs[idx].Contained != 1 {
		t.Errorf("Contained = %d, want 1", st.Funcs[idx].Contained)
	}
	if len(st.DenyLog) == 0 || !strings.Contains(st.DenyLog[0], "contained crash") {
		t.Errorf("DenyLog = %v", st.DenyLog)
	}
	// The process survives: a healthy call still works afterwards.
	s, _ := env.Img.StaticString("alive")
	v, f = call("strlen", cval.Ptr(s))
	if f != nil || v.Uint32() != 5 {
		t.Errorf("post-containment strlen = %v, %v", v, f)
	}
	if env.Img.Space.JournalActive() {
		t.Error("journal left armed after calls")
	}
}

func TestContainRollsBackPartialWrites(t *testing.T) {
	st := NewState("libcontain.so")
	env, call := wrapLibc(t, containGenOf(nil), st, "strcpy")

	// A destination with 4 writable bytes before unmapped space: strcpy
	// copies 4 bytes, faults on the 5th, and containment must erase the
	// partial copy.
	const base = cmem.Addr(0x00900000)
	if f := env.Img.Space.Map(base, cmem.PageSize, cmem.ProtRW); f != nil {
		t.Fatal(f)
	}
	dst := base + cmem.PageSize - 4
	src, _ := env.Img.StaticString("overflowing")

	if _, f := call("strcpy", cval.Ptr(dst), cval.Ptr(src)); f != nil {
		t.Fatalf("contained strcpy faulted: %v", f)
	}
	if env.Errno != cval.EFAULT {
		t.Errorf("errno = %d, want EFAULT", env.Errno)
	}
	var buf [4]byte
	if f := env.Img.Space.Read(dst, buf[:]); f != nil {
		t.Fatal(f)
	}
	if buf != [4]byte{} {
		t.Errorf("partial strcpy not rolled back: %q", buf)
	}
}

func TestWatchdogConvertsHangToEINTR(t *testing.T) {
	st := NewState("libcontain.so")
	g := MustGenerator(MGPrototype(), MGWatchdog(64), MGCaller())
	env, call := wrapLibc(t, g, st, "strlen")

	// 200 non-NUL bytes: strlen burns through the 64-access budget.
	const base = cmem.Addr(0x00900000)
	if f := env.Img.Space.Map(base, cmem.PageSize, cmem.ProtRW); f != nil {
		t.Fatal(f)
	}
	for i := cmem.Addr(0); i < 200; i++ {
		if f := env.Img.Space.WriteByteAt(base+i, 'A'); f != nil {
			t.Fatal(f)
		}
	}
	v, f := call("strlen", cval.Ptr(base))
	if f != nil {
		t.Fatalf("watchdogged call faulted: %v", f)
	}
	if env.Errno != cval.EINTR {
		t.Errorf("errno = %d, want EINTR", env.Errno)
	}
	if v.Int32() != -1 {
		t.Errorf("return = %d, want -1", v.Int32())
	}
	if st.Funcs[st.Index("strlen")].Contained != 1 {
		t.Errorf("Contained = %d, want 1", st.Funcs[st.Index("strlen")].Contained)
	}
	// The per-call budget is gone; the process's fuel is unlimited again.
	if env.Img.Space.Fuel() != -1 {
		t.Errorf("fuel after call = %d, want -1 (restored)", env.Img.Space.Fuel())
	}
}

func TestWatchdogHonorsTighterOuterBudget(t *testing.T) {
	st := NewState("libcontain.so")
	g := MustGenerator(MGPrototype(), MGWatchdog(1<<20), MGCaller())
	env, call := wrapLibc(t, g, st, "strlen")

	s, _ := env.Img.StaticString("hi")
	// An injector-style outer budget smaller than the watchdog's must
	// stay in force and keep draining across calls.
	env.Img.Space.SetFuel(1000)
	if _, f := call("strlen", cval.Ptr(s)); f != nil {
		t.Fatalf("call under outer budget: %v", f)
	}
	rem := env.Img.Space.Fuel()
	if rem < 0 || rem >= 1000 {
		t.Errorf("outer fuel after call = %d, want 0 < fuel < 1000", rem)
	}
}

// TestWatchdogFuelRestoreTable drives the fuel-restore arithmetic of
// the watchdog postfix through its edges: unlimited outer fuel, an
// outer budget looser or tighter than the watchdog's, and a call that
// exhausts its budget to exactly 0. The wrapped function simulates
// consumption by decrementing fuel directly, so each case's usage is
// exact.
func TestWatchdogFuelRestoreTable(t *testing.T) {
	const budget = 100
	cases := []struct {
		name    string
		outer   int64 // fuel before the call; -1 = unlimited
		consume int64 // fuel the inner call burns (from its armed view)
		want    int64 // fuel after the call returns
	}{
		{"unlimited_outer", -1, 30, -1},
		{"unlimited_outer_exhaust_to_zero", -1, budget, -1},
		{"looser_outer_charged", 1000, 30, 970},
		{"looser_outer_exhaust_to_zero", 150, budget, 50},
		{"outer_equals_usage", budget + 0, 20, 80}, // prev==budget: not armed, drains outer directly
		{"tighter_outer_untouched", 50, 20, 30},    // watchdog must not extend the probe deadline
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := intProto(t)
			st := NewState("w")
			var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
				sp := env.Img.Space
				if f := sp.Fuel(); f >= 0 {
					sp.SetFuel(f - c.consume)
				}
				return cval.Int(0), nil
			}
			g := MustGenerator(MGPrototype(), MGWatchdog(budget), MGCaller())
			w := g.Build(p, &next, st)
			env := cval.NewEnv()
			env.Img.Space.SetFuel(c.outer)
			if _, f := w(env, []cval.Value{cval.Int(1)}); f != nil {
				t.Fatalf("call faulted: %v", f)
			}
			if got := env.Img.Space.Fuel(); got != c.want {
				t.Errorf("fuel after call = %d, want %d", got, c.want)
			}
		})
	}
}

// TestWatchdogNestedBudgetsStack pins nested watchdog composition: an
// inner (tighter) watchdog's usage must be charged against the outer
// watchdog's budget, and the outer must still restore the original
// fuel — with one shared save slot instead of a stack, the outer
// watchdog's restore was silently skipped.
func TestWatchdogNestedBudgetsStack(t *testing.T) {
	p := intProto(t)
	st := NewState("w")
	const consume = 25
	var sawFuel int64
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		sp := env.Img.Space
		sawFuel = sp.Fuel()
		sp.SetFuel(sawFuel - consume)
		return cval.Int(0), nil
	}
	g := MustGenerator(MGPrototype(), MGWatchdog(100), MGWatchdog(40), MGCaller())
	w := g.Build(p, &next, st)
	env := cval.NewEnv()
	if _, f := w(env, []cval.Value{cval.Int(1)}); f != nil {
		t.Fatalf("nested watchdog call faulted: %v", f)
	}
	if sawFuel != 40 {
		t.Errorf("inner call saw fuel %d, want 40 (innermost budget wins)", sawFuel)
	}
	if got := env.Img.Space.Fuel(); got != -1 {
		t.Errorf("fuel after nested call = %d, want -1 (fully restored)", got)
	}

	// Under an outer probe budget, both pops charge the usage through.
	env.Img.Space.SetFuel(500)
	if _, f := w(env, []cval.Value{cval.Int(1)}); f != nil {
		t.Fatalf("nested watchdog call under probe budget faulted: %v", f)
	}
	if got := env.Img.Space.Fuel(); got != 500-consume {
		t.Errorf("probe fuel after nested call = %d, want %d", got, 500-consume)
	}
}

func TestContainRetrySucceeds(t *testing.T) {
	p := intProto(t)
	st := NewState("w")
	policy := &stubPolicy{decision: ContainDecision{Action: ActionRetry, Retries: 3}}
	calls := 0
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		calls++
		if calls < 3 {
			return 0, &cmem.Fault{Kind: cmem.FaultSegv, Op: "f"}
		}
		return cval.Int(7), nil
	}
	w := containGenOf(policy).Build(p, &next, st)
	env := cval.NewEnv()
	v, f := w(env, []cval.Value{cval.Int(1)})
	if f != nil {
		t.Fatalf("retried call faulted: %v", f)
	}
	if v.Int32() != 7 {
		t.Errorf("retried return = %d, want 7", v.Int32())
	}
	if calls != 3 {
		t.Errorf("original invoked %d times, want 3", calls)
	}
	idx := st.Index("f")
	if st.Funcs[idx].Retried != 2 {
		t.Errorf("Retried = %d, want 2", st.Funcs[idx].Retried)
	}
	if st.Funcs[idx].Contained != 0 {
		t.Errorf("Contained = %d, want 0 (recovered by retry)", st.Funcs[idx].Contained)
	}
	if st.Funcs[idx].Passed != 1 {
		t.Errorf("Passed = %d, want 1", st.Funcs[idx].Passed)
	}
}

func TestContainRetryExhaustedFallsBackToDeny(t *testing.T) {
	p := intProto(t)
	st := NewState("w")
	policy := &stubPolicy{decision: ContainDecision{Action: ActionRetry, Retries: 2}}
	calls := 0
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		calls++
		return 0, &cmem.Fault{Kind: cmem.FaultSegv, Op: "f"}
	}
	w := containGenOf(policy).Build(p, &next, st)
	env := cval.NewEnv()
	v, f := w(env, []cval.Value{cval.Int(1)})
	if f != nil {
		t.Fatalf("call faulted after retry exhaustion: %v", f)
	}
	if calls != 3 { // original + 2 retries
		t.Errorf("original invoked %d times, want 3", calls)
	}
	if v.Int32() != -1 || env.Errno != cval.EFAULT {
		t.Errorf("ret=%d errno=%d, want -1/EFAULT", v.Int32(), env.Errno)
	}
	idx := st.Index("f")
	if st.Funcs[idx].Retried != 2 || st.Funcs[idx].Contained != 1 {
		t.Errorf("Retried=%d Contained=%d, want 2/1",
			st.Funcs[idx].Retried, st.Funcs[idx].Contained)
	}
}

func TestContainSubstituteReturnsSafeDefault(t *testing.T) {
	p := intProto(t)
	st := NewState("w")
	sub := cval.Int(42)
	policy := &stubPolicy{decision: ContainDecision{Action: ActionSubstitute, Substitute: &sub}}
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		return 0, &cmem.Fault{Kind: cmem.FaultAbort, Op: "f"}
	}
	w := containGenOf(policy).Build(p, &next, st)
	env := cval.NewEnv()
	v, f := w(env, []cval.Value{cval.Int(1)})
	if f != nil {
		t.Fatalf("substituted call faulted: %v", f)
	}
	if v.Int32() != 42 {
		t.Errorf("substituted return = %d, want 42", v.Int32())
	}
	if env.Errno != 0 {
		t.Errorf("substitution set errno %d, want untouched", env.Errno)
	}
}

func TestContainEscalatePropagates(t *testing.T) {
	p := intProto(t)
	st := NewState("w")
	policy := &stubPolicy{decision: ContainDecision{Action: ActionEscalate}}
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		return 0, &cmem.Fault{Kind: cmem.FaultHang, Op: "f"}
	}
	w := containGenOf(policy).Build(p, &next, st)
	_, f := w(cval.NewEnv(), []cval.Value{cval.Int(1)})
	if f == nil || f.Kind != cmem.FaultHang {
		t.Errorf("escalated fault = %v, want the original hang", f)
	}
	if st.Funcs[st.Index("f")].Contained != 0 {
		t.Error("escalated fault counted as contained")
	}
}

func TestBreakerTripsToUpfrontDeny(t *testing.T) {
	p := intProto(t)
	st := NewState("w")
	policy := &stubPolicy{threshold: 2}
	calls := 0
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		calls++
		return 0, &cmem.Fault{Kind: cmem.FaultSegv, Op: "f"}
	}
	w := containGenOf(policy).Build(p, &next, st)
	env := cval.NewEnv()
	for i := 0; i < 2; i++ {
		if _, f := w(env, []cval.Value{cval.Int(1)}); f != nil {
			t.Fatalf("contained call %d faulted: %v", i, f)
		}
	}
	idx := st.Index("f")
	if st.Funcs[idx].BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", st.Funcs[idx].BreakerTrips)
	}
	// The breaker is open: the brittle implementation is not poked again.
	env.Errno = 0
	v, f := w(env, []cval.Value{cval.Int(1)})
	if f != nil {
		t.Fatalf("post-trip call faulted: %v", f)
	}
	if calls != 2 {
		t.Errorf("original invoked %d times after trip, want 2", calls)
	}
	if env.Errno != cval.EDenied || v.Int32() != -1 {
		t.Errorf("post-trip ret=%d errno=%d, want -1/EDenied", v.Int32(), env.Errno)
	}
	if st.Funcs[idx].Denied != 3 { // 2 contained + 1 breaker deny
		t.Errorf("Denied = %d, want 3", st.Funcs[idx].Denied)
	}
}

// optInGen arms Contain without installing a consuming postfix, to prove
// the generator never silently swallows a caught fault.
type optInGen struct{}

func (optInGen) Name() string                               { return "opt-in" }
func (optInGen) PrefixSource(*ctypes.Prototype) []string    { return nil }
func (optInGen) PostfixSource(*ctypes.Prototype) []string   { return nil }
func (optInGen) PostfixHook(*ctypes.Prototype, *State) Hook { return nil }
func (optInGen) PrefixHook(*ctypes.Prototype, *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		ctx.Contain = true
		return nil
	}
}

func TestUnconsumedContainedFaultPropagates(t *testing.T) {
	p := intProto(t)
	st := NewState("w")
	var next cval.CFunc = func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		return 0, &cmem.Fault{Kind: cmem.FaultBus, Op: "f"}
	}
	w := MustGenerator(MGPrototype(), optInGen{}, MGCaller()).Build(p, &next, st)
	_, f := w(cval.NewEnv(), []cval.Value{cval.Int(1)})
	if f == nil || f.Kind != cmem.FaultBus {
		t.Errorf("unconsumed caught fault = %v, want the original bus error", f)
	}
}

func TestContainmentSourceRendering(t *testing.T) {
	p, err := cheader.ParsePrototype("size_t strlen(const char *s); // @s in_str")
	if err != nil {
		t.Fatal(err)
	}
	src := containGenOf(nil).Source(p)
	for _, want := range []string{
		"healers_fuel_push(1048576)",
		"healers_breaker_open(NO_STRLEN)",
		"healers_journal_begin();",
		"healers_journal_rollback();",
		"healers_recover(NO_STRLEN, healers_fault_class())",
		"HEALERS_RETRY",
		"healers_fuel_pop();",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("containment source missing %q:\n%s", want, src)
		}
	}
}

func TestClassifyFaultAndErrno(t *testing.T) {
	cases := []struct {
		kind  cmem.FaultKind
		class FailureClass
		errno int32
	}{
		{cmem.FaultSegv, ClassCrash, cval.EFAULT},
		{cmem.FaultBus, ClassCrash, cval.EFAULT},
		{cmem.FaultProt, ClassCrash, cval.EFAULT},
		{cmem.FaultOverflow, ClassCrash, cval.EFAULT},
		{cmem.FaultHang, ClassHang, cval.EINTR},
		{cmem.FaultAbort, ClassAbort, cval.EINVAL},
		{cmem.FaultFPE, ClassAbort, cval.EINVAL},
		{cmem.FaultOOM, ClassOOM, cval.EINVAL},
	}
	for _, c := range cases {
		got := ClassifyFault(&cmem.Fault{Kind: c.kind})
		if got != c.class {
			t.Errorf("ClassifyFault(%v) = %v, want %v", c.kind, got, c.class)
		}
		if e := ContainErrno(got); e != c.errno {
			t.Errorf("ContainErrno(%v) = %d, want %d", got, e, c.errno)
		}
	}
	if a, ok := ContainActionByName("retry"); !ok || a != ActionRetry {
		t.Errorf("ContainActionByName(retry) = %v, %v", a, ok)
	}
	if _, ok := ContainActionByName("bogus"); ok {
		t.Error("bogus action name accepted")
	}
}

func TestStateResetClearsContainmentCounters(t *testing.T) {
	st := NewState("w")
	idx := st.Index("f")
	st.noteContained(idx, ClassCrash)
	st.Funcs[idx].Retried, st.Funcs[idx].BreakerTrips = 1, 1
	st.Reset()
	if st.ContainedByClass[idx][ClassCrash] != 0 {
		t.Errorf("Reset left per-class contained counter: %d", st.ContainedByClass[idx][ClassCrash])
	}
	if st.Funcs[idx].Contained != 0 || st.Funcs[idx].Retried != 0 || st.Funcs[idx].BreakerTrips != 0 {
		t.Errorf("Reset left containment counters: %d/%d/%d",
			st.Funcs[idx].Contained, st.Funcs[idx].Retried, st.Funcs[idx].BreakerTrips)
	}
}
