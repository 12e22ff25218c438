// Package wrappers assembles the three canonical HEALERS wrapper types of
// Figure 1 from the micro-generator architecture:
//
//   - the robustness wrapper denies calls whose arguments violate the
//     fault-injection-derived robust API (crash/abort prevention for
//     high-availability applications);
//   - the security wrapper prevents and detects heap buffer overflows and
//     rejects hostile format strings (for root-privileged processes);
//   - the profiling wrapper counts calls, times them, and histograms
//     errno values, exporting a self-describing XML document.
//
// Each builder returns an interposable shared library (preload it with
// proc.WithPreloads) plus the live statistics State behind it.
package wrappers

import (
	"fmt"

	"healers/internal/ctypes"
	"healers/internal/gen"
	"healers/internal/simelf"
)

// Sonames of the generated wrapper libraries.
const (
	RobustnessSoname  = "libhealers_robust.so"
	SecuritySoname    = "libhealers_sec.so"
	ProfilingSoname   = "libhealers_prof.so"
	ContainmentSoname = "libhealers_contain.so"
)

// protosOf collects the prototypes for the named functions from a target
// library, failing on unknown names; nil names means every exported
// symbol with a prototype.
func protosOf(target *simelf.Library, names []string) ([]*ctypes.Prototype, error) {
	if names == nil {
		names = target.Symbols()
	}
	var protos []*ctypes.Prototype
	for _, n := range names {
		p := target.Proto(n)
		if p == nil {
			if _, exported := target.Lookup(n); !exported {
				return nil, fmt.Errorf("wrappers: %s does not export %q", target.Soname, n)
			}
			continue // exported but prototype-less symbols cannot be wrapped
		}
		protos = append(protos, p)
	}
	return protos, nil
}

// build is the protos → State → library step every wrapper builder
// shares: it wraps the named functions of target (names == nil wraps
// every exported symbol with a prototype) with g into the library
// soname, exporting subst's bounded substitutes in place of the
// composition where subst names a function.
func build(g *gen.Generator, target *simelf.Library, soname string, names []string, subst map[string]gen.Subst) (*simelf.Library, *gen.State, error) {
	protos, err := protosOf(target, names)
	if err != nil {
		return nil, nil, err
	}
	st := gen.NewState(soname)
	return g.BuildLibrarySubst(soname, protos, st, subst), st, nil
}

// RobustnessGenerator is the robustness composition: calls whose
// arguments violate api are denied before they reach the original.
func RobustnessGenerator(api ctypes.RobustAPI) *gen.Generator {
	return gen.MustGenerator(
		gen.MGPrototype(),
		gen.MGCallCounter(),
		gen.MGArgCheck(api),
		gen.MGCaller(),
	)
}

// Robustness builds the robustness wrapper for the given functions of
// target, enforcing the supplied robust API. names == nil wraps the whole
// library.
func Robustness(target *simelf.Library, api ctypes.RobustAPI, names []string) (*simelf.Library, *gen.State, error) {
	return build(RobustnessGenerator(api), target, RobustnessSoname, names, boundedSubstitutions())
}

// SecurityGenerator is the security composition: heap-smash detection,
// computable-bound overflow prevention, and format-string rejection.
func SecurityGenerator() *gen.Generator {
	return gen.MustGenerator(
		gen.MGPrototype(),
		gen.MGCallCounter(),
		gen.MGHeapCheck(),
		gen.MGBoundCheck(),
		gen.MGFmtCheck(),
		gen.MGCaller(),
	)
}

// Security builds the security wrapper: canary-based heap-smash detection
// on every intercepted call, computable-bound overflow prevention, and
// format-string rejection. names == nil wraps the whole library.
func Security(target *simelf.Library, names []string) (*simelf.Library, *gen.State, error) {
	return build(SecurityGenerator(), target, SecuritySoname, names, nil)
}

// DefaultTraceDepth is the call-trace ring capacity of the profiling
// wrapper built by Profiling: the number of most recent intercepted
// calls retained for post-mortem inspection (healers-profile -trace).
const DefaultTraceDepth = 256

// Profiling builds the profiling wrapper of Figure 3/Figure 5 extended
// with the observability layer: call counts, execution time plus
// per-function log2 latency histograms, per-function and global errno
// histograms, and a bounded ring of recent call traces
// (DefaultTraceDepth entries). names == nil wraps the whole library.
func Profiling(target *simelf.Library, names []string) (*simelf.Library, *gen.State, error) {
	g := gen.MustGenerator(
		gen.MGPrototype(),
		// Declared right after the prototype so its postfix runs last:
		// the flush sees every other micro-generator's final counters.
		gen.MGExitFlush(),
		// Trace wraps the timing micro-generators so its recorded
		// duration and outcome cover the whole intercepted call.
		gen.MGTrace(DefaultTraceDepth),
		gen.MGExectime(),
		gen.MGCollectErrors(),
		gen.MGFuncErrors(),
		gen.MGCallCounter(),
		gen.MGCaller(),
	)
	return build(g, target, ProfilingSoname, names, nil)
}

// ProfilingGenerator is the paper-faithful profiling composition — the
// exact stack of the paper's Figure 3 wctrans listing. It is the one
// rendering-only composition: it lacks Profiling's trace ring, so the
// rendered source matches the figure.
func ProfilingGenerator() *gen.Generator {
	return gen.MustGenerator(
		gen.MGPrototype(),
		// Declared right after the prototype so its postfix runs last:
		// the flush sees every other micro-generator's final counters.
		gen.MGExitFlush(),
		gen.MGExectime(),
		gen.MGCollectErrors(),
		gen.MGFuncErrors(),
		gen.MGCallCounter(),
		gen.MGCaller(),
	)
}

// ContainmentGenerator is the containment composition. The watchdog and
// containment micro-generators sit last before the caller so their
// postfixes run first: the caught fault is rolled back and virtualized
// before any observing micro-generator sees the call. An optional robust
// API adds argument checking in front — deny-before-call and
// contain-after-call compose.
func ContainmentGenerator(api ctypes.RobustAPI, policy gen.ContainPolicy) *gen.Generator {
	micros := []gen.MicroGenerator{
		gen.MGPrototype(),
		gen.MGCallCounter(),
		// Latency histograms: the exectime postfix runs *after*
		// containment's (reverse order), so a contained call's sample
		// includes its rollback and retries — the latency the caller
		// actually saw, which is what the chaos soak quantiles report.
		gen.MGExectime(),
	}
	if api != nil {
		micros = append(micros, gen.MGArgCheck(api))
	}
	return gen.MustGenerator(append(micros,
		gen.MGWatchdog(0),
		gen.MGContain(policy),
		gen.MGCaller(),
	)...)
}

// Containment builds the fault-containment wrapper: every intercepted
// call runs under a write journal and a per-call access budget; a fault
// in the original function is rolled back and virtualized into an errno
// return as the recovery policy directs (deny, retry, substitute, or
// escalate), with a circuit breaker flipping repeatedly failing
// functions to always-deny. policy == nil installs DefaultPolicy();
// api != nil additionally vetoes calls violating the robust API before
// they run. names == nil wraps the whole library.
func Containment(target *simelf.Library, api ctypes.RobustAPI, policy gen.ContainPolicy, names []string) (*simelf.Library, *gen.State, error) {
	if policy == nil {
		policy = DefaultPolicy()
	}
	return build(ContainmentGenerator(api, policy), target, ContainmentSoname, names, nil)
}

// StrongestAPI builds a robust API that demands the strongest lattice
// level for every parameter of every prototype — the "assume the worst"
// configuration used before a campaign has run, and the baseline for the
// ablation benchmarks.
func StrongestAPI(protos []*ctypes.Prototype) ctypes.RobustAPI {
	api := make(ctypes.RobustAPI, len(protos))
	for _, p := range protos {
		params := make([]ctypes.RobustParam, len(p.Params))
		for i, prm := range p.Params {
			chain := ctypes.ChainFor(prm)
			lvl := chain.Strongest()
			params[i] = ctypes.RobustParam{
				Name:      prm.Name,
				Chain:     chain.Name,
				Level:     lvl,
				LevelName: chain.Levels[lvl].Name,
			}
		}
		api[p.Name] = params
	}
	return api
}
