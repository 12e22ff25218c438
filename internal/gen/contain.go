package gen

import (
	"fmt"
	"sync/atomic"
	"time"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
)

// Fault containment: the self-healing layer of the containment wrapper.
//
// The micro-generators so far either observe a call (profiling) or veto
// it before it runs (robustness/security checks). Containment handles
// the remaining case: the original function was invoked and *faulted* —
// wild pointer, abort, allocation failure, or a hang burning through its
// access budget. MGContain snapshots the process's writable memory in
// the Space's write journal before the call, catches the fault via
// CallCtx.Contain, rolls partial writes back, and virtualizes the
// failure into an errno return chosen per failure class, so the process
// observes a failed library call instead of dying. MGWatchdog bounds
// each call's memory-access budget with the same fuel machinery the
// fault-injection campaign uses per probe, converting runaway loops
// into catchable hang faults.

// ---------------------------------------------------------------------
// failure classes

// FailureClass groups fault kinds into the categories the recovery
// policy distinguishes.
type FailureClass int

const (
	// ClassCrash covers wild memory accesses (SEGV, bus error,
	// protection violations).
	ClassCrash FailureClass = iota
	// ClassHang covers access-budget exhaustion (runaway loops).
	ClassHang
	// ClassAbort covers assertion-style terminations and FPEs.
	ClassAbort
	// ClassOOM covers allocation failure surfaced as a fault.
	ClassOOM
)

var failureClassNames = [...]string{"crash", "hang", "abort", "oom"}

// NumFailureClasses is the number of failure classes, for sizing
// per-class counter arrays (ClassCrash..ClassOOM are contiguous from 0).
const NumFailureClasses = len(failureClassNames)

func (c FailureClass) String() string {
	if c < 0 || int(c) >= len(failureClassNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return failureClassNames[c]
}

// ClassifyFault maps a fault kind to its failure class. Overflow is
// grouped with crashes: both are wild writes the wrapper contained.
func ClassifyFault(f *cmem.Fault) FailureClass {
	switch f.Kind {
	case cmem.FaultHang:
		return ClassHang
	case cmem.FaultAbort, cmem.FaultFPE:
		return ClassAbort
	case cmem.FaultOOM:
		return ClassOOM
	default:
		return ClassCrash
	}
}

// ContainErrno is the errno a virtualized failure of the given class
// reports: EINTR for interrupted (hung) calls, EFAULT for bad memory
// accesses, EINVAL for the rest.
func ContainErrno(c FailureClass) int32 {
	switch c {
	case ClassHang:
		return cval.EINTR
	case ClassCrash:
		return cval.EFAULT
	default:
		return cval.EINVAL
	}
}

// ---------------------------------------------------------------------
// recovery policy

// ContainAction is what the recovery policy does with a contained fault.
type ContainAction int

const (
	// ActionDeny virtualizes the fault into an errno return (the
	// default).
	ActionDeny ContainAction = iota
	// ActionRetry re-invokes the original function up to Retries times
	// (with a simulated backoff) before falling back to deny.
	ActionRetry
	// ActionSubstitute returns a bounded safe default value without
	// setting the failure errno — for functions whose callers treat any
	// return as valid (rand, isalpha).
	ActionSubstitute
	// ActionEscalate re-raises the fault: the policy judges the failure
	// unsafe to virtualize and lets the process die.
	ActionEscalate
)

var containActionNames = [...]string{"deny", "retry", "substitute", "escalate"}

func (a ContainAction) String() string {
	if a < 0 || int(a) >= len(containActionNames) {
		return fmt.Sprintf("action(%d)", int(a))
	}
	return containActionNames[a]
}

// ContainActionByName maps a policy-document action name back to the
// enum; ok is false for an unknown name.
func ContainActionByName(name string) (ContainAction, bool) {
	for i, n := range containActionNames {
		if n == name {
			return ContainAction(i), true
		}
	}
	return 0, false
}

// ContainDecision is one recovery ruling: the action plus its
// parameters.
type ContainDecision struct {
	Action ContainAction
	// Retries bounds re-invocations for ActionRetry.
	Retries int
	// Backoff is the simulated delay between retries (recorded, not
	// slept: the simulation has no wall-clock to waste).
	Backoff time.Duration
	// Substitute is the value ActionSubstitute returns; nil means the
	// prototype's deny value (NULL / -1).
	Substitute *cval.Value
}

// ContainPolicy decides how a contained failure is recovered. The
// interface lives in gen so the containment micro-generator can consult
// it without gen importing the policy-engine package above it; the
// wrappers layer supplies the implementation (PolicyEngine).
type ContainPolicy interface {
	// Decide maps (function, failure class) to a recovery ruling.
	Decide(fn string, class FailureClass) ContainDecision
	// RecordFailure notes one contained failure of fn and reports
	// whether it tripped the function's circuit breaker (the trip
	// transition only — subsequent failures of a tripped function
	// return false).
	RecordFailure(fn string, class FailureClass) bool
	// Tripped reports whether fn's circuit breaker is open, in which
	// case the wrapper denies the call up front instead of risking the
	// brittle implementation again.
	Tripped(fn string) bool
}

// ---------------------------------------------------------------------
// containment micro-generator

type containGen struct {
	policy ContainPolicy
}

// MGContain builds the fault-containment micro-generator. Place it
// last before MGCaller so its postfix runs first and consumes the
// caught fault before observers see the call. policy may be nil: every
// failure is then virtualized as a plain deny with the class errno.
func MGContain(policy ContainPolicy) MicroGenerator { return &containGen{policy: policy} }

func (*containGen) Name() string { return "contain" }

func (*containGen) PrefixSource(proto *ctypes.Prototype) []string {
	return []string{
		fmt.Sprintf("    if (healers_breaker_open(%s)) {", fnIndexMacro(proto)),
		"        errno = EHEALERS_DENIED;",
		"        return HEALERS_ERRVAL;",
		"    }",
		"    healers_journal_begin();",
		"    if (sigsetjmp(healers_contain_jmp, 1) != 0)",
		"        goto contained;  /* fault caught by signal handler */",
	}
}

func (g *containGen) PostfixSource(proto *ctypes.Prototype) []string {
	return []string{
		"    healers_journal_commit();",
		"    goto done;",
		"contained:",
		"    healers_journal_rollback();",
		fmt.Sprintf("    switch (healers_recover(%s, healers_fault_class())) {", fnIndexMacro(proto)),
		"    case HEALERS_RETRY:   goto retry;",
		"    case HEALERS_ESCALATE: healers_reraise();",
		"    default:",
		"        errno = healers_fault_errno();",
		"        ret = HEALERS_ERRVAL;",
		"    }",
		"done:",
	}
}

func (g *containGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		if ctx.Denied {
			return nil
		}
		// Circuit breaker: a function that failed too often is denied
		// up front — self-healing by not poking the wound.
		if g.policy != nil && g.policy.Tripped(ctx.Proto.Name) {
			ctx.Denied = true
			ctx.DenyReason = ctx.Proto.Name + ": circuit breaker open"
			ctx.Env.Errno = cval.EDenied
			ctx.Ret = denyValue(ctx.Proto)
			st.NoteDeny(ctx.FuncIndex, ctx.DenyReason)
			return nil
		}
		ctx.Contain = true
		ctx.containArmed = true
		ctx.Env.Img.Space.BeginJournal()
		return nil
	}
}

func (g *containGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		if !ctx.containArmed {
			return nil
		}
		ctx.containArmed = false
		sp := ctx.Env.Img.Space
		if ctx.ContainedFault == nil {
			sp.CommitJournal()
			return nil
		}
		fault := ctx.ContainedFault
		ctx.ContainedFault = nil
		sp.RollbackJournal()
		class := ClassifyFault(fault)

		decision := ContainDecision{Action: ActionDeny}
		if g.policy != nil {
			decision = g.policy.Decide(ctx.Proto.Name, class)
		}

		if decision.Action == ActionRetry && ctx.invoke != nil {
			for attempt := 0; attempt < decision.Retries; attempt++ {
				atomic.AddUint64(&st.Funcs[ctx.FuncIndex].Retried, 1)
				sp.BeginJournal()
				ret, f := ctx.invoke()
				if f == nil {
					sp.CommitJournal()
					ctx.Ret = ret
					return nil
				}
				sp.RollbackJournal()
				fault, class = f, ClassifyFault(f)
			}
			decision.Action = ActionDeny
		}

		if decision.Action == ActionEscalate {
			// The policy refuses to virtualize this failure; the
			// generator's unconsumed-fault path re-raises it.
			ctx.ContainedFault = fault
			ctx.escalated = true
			return nil
		}

		st.noteContained(ctx.FuncIndex, class)
		if g.policy != nil && g.policy.RecordFailure(ctx.Proto.Name, class) {
			atomic.AddUint64(&st.Funcs[ctx.FuncIndex].BreakerTrips, 1)
		}
		ctx.Denied = true
		ctx.DenyReason = fmt.Sprintf("%s: contained %s (%s)", ctx.Proto.Name, class, fault.Kind)
		st.NoteDeny(ctx.FuncIndex, ctx.DenyReason)
		if decision.Action == ActionSubstitute && decision.Substitute != nil {
			ctx.Ret = *decision.Substitute
			return nil
		}
		ctx.Env.Errno = ContainErrno(class)
		ctx.Ret = denyValue(ctx.Proto)
		return nil
	}
}

// ---------------------------------------------------------------------
// watchdog micro-generator

type watchdogGen struct {
	budget int64
}

// DefaultWatchdogBudget is the per-call access budget the containment
// wrapper installs — generous enough for any legitimate libc call in
// the simulation, small enough to trip a runaway loop quickly. The
// fault-injection campaign's per-probe budget (64Mi accesses) bounds a
// whole probe; a single call gets a fraction of that.
const DefaultWatchdogBudget = 1 << 20

// MGWatchdog bounds one call's memory accesses using the Space fuel
// budget (the injector's hang detector, here per call instead of per
// probe). An exhausted budget raises FaultHang, which the containment
// postfix virtualizes into EINTR; without MGContain the watchdog's own
// postfix consumes hang faults so the micro-generator is independently
// useful. budget <= 0 selects DefaultWatchdogBudget.
func MGWatchdog(budget int64) MicroGenerator {
	if budget <= 0 {
		budget = DefaultWatchdogBudget
	}
	return &watchdogGen{budget: budget}
}

func (*watchdogGen) Name() string { return "watchdog" }

func (g *watchdogGen) PrefixSource(proto *ctypes.Prototype) []string {
	return []string{fmt.Sprintf("    healers_fuel_push(%d);  /* per-call access budget */", g.budget)}
}

func (*watchdogGen) PostfixSource(proto *ctypes.Prototype) []string {
	return []string{"    healers_fuel_pop();"}
}

// watchdogFrame saves one watchdog micro-generator's view of the outer
// fuel budget across a call. Every watchdog prefix pushes exactly one
// frame (armed or not) and every watchdog postfix pops exactly one, so
// nested watchdogs restore LIFO: the inner pop charges the inner
// budget's usage against the outer budget, and the outer pop charges
// that in turn against its own saved budget.
type watchdogFrame struct {
	prev   int64
	budget int64
	armed  bool
}

func (g *watchdogGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		fr := watchdogFrame{}
		if !ctx.Denied {
			sp := ctx.Env.Img.Space
			prev := sp.Fuel()
			// Under an injector-armed outer budget, the call gets the
			// smaller of the two — the watchdog must not extend a
			// probe's deadline.
			if prev < 0 || prev > g.budget {
				fr = watchdogFrame{prev: prev, budget: g.budget, armed: true}
				sp.SetFuel(g.budget)
			}
			ctx.Contain = true
		}
		ctx.watchdogStack = append(ctx.watchdogStack, fr)
		return nil
	}
}

func (g *watchdogGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		if n := len(ctx.watchdogStack); n > 0 {
			fr := ctx.watchdogStack[n-1]
			ctx.watchdogStack = ctx.watchdogStack[:n-1]
			if fr.armed {
				sp := ctx.Env.Img.Space
				used := fr.budget - sp.Fuel()
				if sp.Fuel() < 0 {
					// The call exhausted its budget and the hang fault
					// left fuel disarmed: charge the full budget.
					used = fr.budget
				}
				switch {
				case fr.prev < 0:
					sp.SetFuel(-1)
				case fr.prev > used:
					sp.SetFuel(fr.prev - used)
				default:
					sp.SetFuel(0)
				}
			}
		}
		// Consume a hang fault when no containment micro-generator ran
		// before us (composition without MGContain).
		if f := ctx.ContainedFault; f != nil && !ctx.escalated && ClassifyFault(f) == ClassHang {
			ctx.ContainedFault = nil
			st.noteContained(ctx.FuncIndex, ClassHang)
			ctx.Denied = true
			ctx.DenyReason = fmt.Sprintf("%s: watchdog budget exhausted", ctx.Proto.Name)
			st.NoteDeny(ctx.FuncIndex, ctx.DenyReason)
			ctx.Env.Errno = cval.EINTR
			ctx.Ret = denyValue(ctx.Proto)
		}
		return nil
	}
}
