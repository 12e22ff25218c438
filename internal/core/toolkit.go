// Package core is the HEALERS toolkit itself: the orchestration layer
// that ties the substrates together into the paper's workflow.
//
//	scan    — enumerate libraries and applications, emit declaration
//	          files (demos §3.1/§3.2, Fig. 4);
//	inject  — run automated fault-injection campaigns and derive robust
//	          APIs (§2.2, Fig. 2);
//	generate— build robustness / security / profiling wrappers from
//	          micro-generators and install them (§2.3, Fig. 3);
//	run     — execute applications with wrappers preloaded, collect XML
//	          profiles, ship them to a collection server (§3.3, Fig. 5);
//	verify  — re-run the campaign with the wrapper preloaded and show
//	          the failures are gone.
package core

import (
	"fmt"
	"sort"
	"strings"

	"healers/internal/clib"
	"healers/internal/cmath"
	"healers/internal/collect"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/dynlink"
	"healers/internal/gen"
	"healers/internal/inject"
	"healers/internal/proc"
	"healers/internal/simelf"
	"healers/internal/victim"
	"healers/internal/wrappers"
	"healers/internal/xmlrep"
)

// Toolkit is one HEALERS instance bound to one simulated system.
type Toolkit struct {
	sys *simelf.System
	// states remembers the statistics object behind each generated
	// wrapper library.
	states map[string]*gen.State
}

// NewToolkit creates a toolkit over a fresh system with the simulated C
// library installed.
func NewToolkit() (*Toolkit, error) {
	sys := simelf.NewSystem()
	reg, err := clib.NewRegistry()
	if err != nil {
		return nil, err
	}
	if err := sys.AddLibrary(reg.AsLibrary()); err != nil {
		return nil, err
	}
	libm, err := cmath.AsLibrary()
	if err != nil {
		return nil, err
	}
	if err := sys.AddLibrary(libm); err != nil {
		return nil, err
	}
	return &Toolkit{sys: sys, states: make(map[string]*gen.State)}, nil
}

// System exposes the underlying system registry.
func (t *Toolkit) System() *simelf.System { return t.sys }

// InstallSampleApps installs the victim applications (rootd, textutil,
// stress).
func (t *Toolkit) InstallSampleApps() error {
	return victim.InstallAll(t.sys)
}

// WrapperState returns the statistics behind a generated wrapper.
func (t *Toolkit) WrapperState(soname string) (*gen.State, bool) {
	st, ok := t.states[soname]
	return st, ok
}

// ---------------------------------------------------------------------
// Scanning (demos §3.1 and §3.2)

// LibraryScan is the library-centric scan result.
type LibraryScan struct {
	Soname string
	// Functions lists every exported function, sorted.
	Functions []string
	// Protos carries the parsed prototype per function (nil when the
	// symbol has no prototype information).
	Protos map[string]*ctypes.Prototype
}

// Declarations renders the scan as the XML declaration file of demo §3.1.
func (s *LibraryScan) Declarations() *xmlrep.Declarations {
	var protos []*ctypes.Prototype
	for _, fn := range s.Functions {
		if p := s.Protos[fn]; p != nil {
			protos = append(protos, p)
		}
	}
	return xmlrep.NewDeclarations(s.Soname, protos)
}

// ListLibraries lists every installed library ("our toolkit can list all
// libraries in the system").
func (t *Toolkit) ListLibraries() []string { return t.sys.Libraries() }

// ListApplications lists every installed executable.
func (t *Toolkit) ListApplications() []string { return t.sys.Executables() }

// ScanLibrary enumerates a library's functions and prototypes.
func (t *Toolkit) ScanLibrary(soname string) (*LibraryScan, error) {
	lib, ok := t.sys.Library(soname)
	if !ok {
		return nil, fmt.Errorf("core: no such library %q", soname)
	}
	scan := &LibraryScan{
		Soname:    soname,
		Functions: lib.Symbols(),
		Protos:    make(map[string]*ctypes.Prototype),
	}
	for _, fn := range scan.Functions {
		scan.Protos[fn] = lib.Proto(fn)
	}
	return scan, nil
}

// AppScan is the application-centric scan of Figure 4: the libraries an
// executable links against and its undefined symbols.
type AppScan struct {
	Name string
	// DirectLibs are the NEEDED entries.
	DirectLibs []string
	// AllLibs is the transitive closure, in load order.
	AllLibs []string
	// MissingLibs are NEEDED entries not installed.
	MissingLibs []string
	// Undefined are the symbols the application imports.
	Undefined []string
	// ResolvedBy maps each undefined symbol to the library that defines
	// it ("" when unresolved).
	ResolvedBy map[string]string
}

// ScanApplication extracts the linked-library list and undefined-function
// list of an executable (demo §3.2, Fig. 4).
func (t *Toolkit) ScanApplication(name string) (*AppScan, error) {
	exe, ok := t.sys.Executable(name)
	if !ok {
		return nil, fmt.Errorf("core: no such application %q", name)
	}
	scan := &AppScan{
		Name:       name,
		DirectLibs: append([]string(nil), exe.Needed...),
		Undefined:  append([]string(nil), exe.Undefined...),
		ResolvedBy: make(map[string]string),
	}
	sort.Strings(scan.Undefined)
	scan.AllLibs, scan.MissingLibs = t.sys.TransitiveDeps(exe.Needed)
	for _, sym := range scan.Undefined {
		scan.ResolvedBy[sym] = ""
		for _, soname := range scan.AllLibs {
			lib, _ := t.sys.Library(soname)
			if _, ok := lib.Lookup(sym); ok {
				scan.ResolvedBy[sym] = soname
				break
			}
		}
	}
	return scan, nil
}

// ---------------------------------------------------------------------
// Fault injection (§2.2, Fig. 2)

// Inject runs a fault-injection campaign against every function of a
// library and returns the full report.
func (t *Toolkit) Inject(soname string, opts ...inject.CampaignOption) (*inject.LibReport, error) {
	c, err := inject.New(t.sys, soname, opts...)
	if err != nil {
		return nil, err
	}
	return c.RunLibrary()
}

// CompareInjectionModes runs the single-fault and pairwise sweeps on one
// function (the DESIGN.md §5 campaign-mode ablation).
func (t *Toolkit) CompareInjectionModes(soname, fn string) (*inject.ModeComparison, error) {
	c, err := inject.New(t.sys, soname)
	if err != nil {
		return nil, err
	}
	return c.CompareModes(fn)
}

// InjectFunction probes a single function.
func (t *Toolkit) InjectFunction(soname, fn string, opts ...inject.CampaignOption) (*inject.FuncReport, error) {
	c, err := inject.New(t.sys, soname, opts...)
	if err != nil {
		return nil, err
	}
	return c.RunFunction(fn)
}

// InjectCoordinator plans a distributed campaign over soname and returns
// the coordinator, ready to Serve worker processes and Wait for the
// merged report — which is byte-identical to a sequential Inject run for
// any worker count.
func (t *Toolkit) InjectCoordinator(soname string, nshards int, opts []inject.CampaignOption, copts ...inject.CoordOption) (*inject.Coordinator, error) {
	c, err := inject.New(t.sys, soname, opts...)
	if err != nil {
		return nil, err
	}
	return inject.NewCoordinator(c, nshards, copts...), nil
}

// RunInjectWorker joins the distributed-campaign coordinator at addr and
// processes shard leases until the sweep completes.
func (t *Toolkit) RunInjectWorker(addr string, opts ...inject.WorkerOption) (*inject.WorkerSummary, error) {
	return inject.RunWorker(t.sys, addr, opts...)
}

// LoadRobustAPIXML parses a robust-API document previously produced by a
// campaign (healers-inject -xml), so a wrapper can be generated without
// re-running injection — the "adapt quickly to new software releases"
// workflow: campaigns run once per release, wrappers regenerate from the
// stored artifact.
func (t *Toolkit) LoadRobustAPIXML(data []byte) (ctypes.RobustAPI, error) {
	doc, err := xmlrep.Unmarshal[xmlrep.RobustAPIDoc](data)
	if err != nil {
		return nil, err
	}
	return doc.API()
}

// DeriveRobustAPI runs the campaign and extracts the robust API.
func (t *Toolkit) DeriveRobustAPI(soname string, opts ...inject.CampaignOption) (ctypes.RobustAPI, *inject.LibReport, error) {
	lr, err := t.Inject(soname, opts...)
	if err != nil {
		return nil, nil, err
	}
	return lr.RobustAPI(), lr, nil
}

// ---------------------------------------------------------------------
// Wrapper generation (§2.3)

// generate looks up target, builds a wrapper over it with build, and
// installs the wrapper library and its state — the step every
// Generate*Wrapper shares.
func (t *Toolkit) generate(target string, build func(*simelf.Library) (*simelf.Library, *gen.State, error)) (*gen.State, error) {
	lib, ok := t.sys.Library(target)
	if !ok {
		return nil, fmt.Errorf("core: no such library %q", target)
	}
	wrapper, st, err := build(lib)
	if err != nil {
		return nil, err
	}
	if err := t.sys.AddLibrary(wrapper); err != nil {
		return st, err
	}
	t.states[wrapper.Soname] = st
	return st, nil
}

// GenerateRobustnessWrapper builds and installs the robustness wrapper
// for target enforcing api. names == nil wraps the whole library.
func (t *Toolkit) GenerateRobustnessWrapper(target string, api ctypes.RobustAPI, names []string) (*gen.State, error) {
	return t.generate(target, func(lib *simelf.Library) (*simelf.Library, *gen.State, error) {
		return wrappers.Robustness(lib, api, names)
	})
}

// GenerateSecurityWrapper builds and installs the security wrapper.
func (t *Toolkit) GenerateSecurityWrapper(target string, names []string) (*gen.State, error) {
	return t.generate(target, func(lib *simelf.Library) (*simelf.Library, *gen.State, error) {
		return wrappers.Security(lib, names)
	})
}

// CollectorEnvVar is the environment variable through which a wrapped
// process learns its collection server's address — configuration via the
// process environment, like LD_PRELOAD itself.
const CollectorEnvVar = "HEALERS_COLLECTOR"

// GenerateProfilingWrapper builds and installs the profiling wrapper. Its
// exit-flush hook uploads the XML profile to the address in the wrapped
// process's HEALERS_COLLECTOR environment variable, if set.
func (t *Toolkit) GenerateProfilingWrapper(target string, names []string) (*gen.State, error) {
	return t.generate(target, func(lib *simelf.Library) (*simelf.Library, *gen.State, error) {
		wrapper, st, err := wrappers.Profiling(lib, names)
		if err != nil {
			return nil, nil, err
		}
		st.OnExit = uploadProfile
		return wrapper, st, nil
	})
}

// uploadProfile is the profiling wrapper's exit-flush hook: it uploads
// the XML profile to the collector named by CollectorEnvVar, if set.
func uploadProfile(env *cval.Env, st *gen.State) {
	addr, ok := env.GetenvString(CollectorEnvVar)
	if !ok {
		return
	}
	app, _ := env.GetenvString("HEALERS_APP")
	if app == "" {
		app = "wrapped-app"
	}
	// Upload failures must not take down the wrapped application; the
	// error lands on its stderr instead.
	if err := collect.Upload(addr, xmlrep.NewProfileLog("sim-host", app, st)); err != nil {
		fmt.Fprintf(&env.Stderr, "healers: profile upload failed: %v\n", err)
	}
}

// GenerateContainmentWrapper builds and installs the fault-containment
// wrapper for target: journaled calls, caught faults virtualized into
// errno returns under the given recovery policy. api may be nil (no
// upfront argument checks); policy may be nil (deny-on-failure with the
// default circuit breaker).
func (t *Toolkit) GenerateContainmentWrapper(target string, api ctypes.RobustAPI, policy gen.ContainPolicy, names []string) (*gen.State, error) {
	return t.generate(target, func(lib *simelf.Library) (*simelf.Library, *gen.State, error) {
		return wrappers.Containment(lib, api, policy, names)
	})
}

// LoadPolicyXML parses a recovery-policy document (healers-gen -policy)
// into the engine the containment wrapper consults.
func (t *Toolkit) LoadPolicyXML(data []byte) (*wrappers.PolicyEngine, error) {
	doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
	if err != nil {
		return nil, err
	}
	return wrappers.PolicyFromDoc(doc)
}

// WrapperSource renders the generated C-like source of one function's
// wrapper (Fig. 3). kind is "robustness", "security", "profiling", or
// "containment".
func (t *Toolkit) WrapperSource(kind, target, fn string, api ctypes.RobustAPI) (string, error) {
	lib, ok := t.sys.Library(target)
	if !ok {
		return "", fmt.Errorf("core: no such library %q", target)
	}
	proto := lib.Proto(fn)
	if proto == nil {
		return "", fmt.Errorf("core: %s has no prototype for %q", target, fn)
	}
	var g *gen.Generator
	switch kind {
	case "robustness":
		g = wrappers.RobustnessGenerator(api)
	case "security":
		g = wrappers.SecurityGenerator()
	case "profiling":
		g = wrappers.ProfilingGenerator()
	case "containment":
		g = wrappers.ContainmentGenerator(api, nil)
	default:
		return "", fmt.Errorf("core: unknown wrapper kind %q", kind)
	}
	return g.Source(proto), nil
}

// ---------------------------------------------------------------------
// Running and profiling (§3.3)

// RunResult couples a process result with the profile collected during
// the run, when a profiling wrapper was preloaded.
type RunResult struct {
	Proc    proc.Result
	Profile *xmlrep.ProfileLog
}

// RunProfiled executes an application with the profiling wrapper
// preloaded (generating and installing it on first use) and returns the
// run result plus the end-of-run profile document.
func (t *Toolkit) RunProfiled(app, stdin string, argv ...string) (*RunResult, error) {
	if _, ok := t.sys.Library(wrappers.ProfilingSoname); !ok {
		if _, err := t.GenerateProfilingWrapper(clib.LibcSoname, nil); err != nil {
			return nil, err
		}
	}
	// Zero the counters so each profiled run reports only itself.
	st := t.states[wrappers.ProfilingSoname]
	st.Reset()
	p, err := proc.Start(t.sys, app,
		proc.WithPreloads(wrappers.ProfilingSoname),
		proc.WithStdin(stdin))
	if err != nil {
		return nil, err
	}
	res := p.Run(argv...)
	log := xmlrep.NewProfileLog("sim-host", app, st)
	return &RunResult{Proc: res, Profile: log}, nil
}

// RunContained executes an application with the fault-containment
// wrapper preloaded (generating and installing it on first use under
// policy) and returns the run result plus the wrapper's profile
// document, containment counters included. A non-empty chaosSpec
// ("RATE[:SEED]") arms chaos mode for the run, so the wrapper has
// faults to contain.
func (t *Toolkit) RunContained(app, stdin string, policy gen.ContainPolicy, chaosSpec string, argv ...string) (*RunResult, error) {
	if _, ok := t.sys.Library(wrappers.ContainmentSoname); !ok {
		if _, err := t.GenerateContainmentWrapper(clib.LibcSoname, nil, policy, nil); err != nil {
			return nil, err
		}
	}
	st := t.states[wrappers.ContainmentSoname]
	st.Reset()
	opts := []proc.Option{
		proc.WithPreloads(wrappers.ContainmentSoname),
		proc.WithStdin(stdin),
	}
	if chaosSpec != "" {
		opts = append(opts, proc.WithEnvVar(proc.ChaosEnvVar, chaosSpec))
	}
	p, err := proc.Start(t.sys, app, opts...)
	if err != nil {
		return nil, err
	}
	res := p.Run(argv...)
	return &RunResult{Proc: res, Profile: xmlrep.NewProfileLog("sim-host", app, st)}, nil
}

// ChaosResult couples a chaos-mode run's outcome with the injector's
// draw statistics, so survival claims can be checked against how many
// faults were actually thrown at the process.
type ChaosResult struct {
	Proc proc.Result
	// Calls counts chaos rolls (one per C-library call); Injected
	// counts the faults the injector actually produced.
	Calls    uint64
	Injected uint64
}

// RunChaos executes an application under chaos mode: every C-library
// call fails with probability rate, drawing from the deterministic
// injector seeded with seed. Preloads (typically the containment
// wrapper) interpose between the application and the failing libc —
// the survival experiment of the recovery layer.
func (t *Toolkit) RunChaos(app string, rate float64, seed uint64, preloads []string, stdin string, argv ...string) (*ChaosResult, error) {
	p, err := proc.Start(t.sys, app,
		proc.WithPreloads(preloads...),
		proc.WithStdin(stdin),
		proc.WithEnvVar(proc.ChaosEnvVar, fmt.Sprintf("%g:%d", rate, seed)))
	if err != nil {
		return nil, err
	}
	res := p.Run(argv...)
	cr := &ChaosResult{Proc: res}
	if c := p.Env().Chaos; c != nil {
		cr.Calls, cr.Injected = c.Calls, c.Injected
	}
	return cr, nil
}

// ---------------------------------------------------------------------
// Chaos soak and sequence campaigns (stateful victims)

// SoakResult summarizes a sustained chaos soak of a stateful victim
// daemon: whether it survived the whole request window, how much the
// injector threw at it, how much the containment layer absorbed, and
// the request-latency quantiles the wrapper's histograms recorded.
type SoakResult struct {
	App      string
	Requests int
	// Served counts requests the daemon actually completed (its
	// per-request log lines) — the survival-time measure: an
	// unprotected daemon dies at its first injected fault, so
	// Served/Requests is the fraction of the window it survived.
	Served    int
	Survived  bool
	Contained bool
	Proc      proc.Result
	// Calls and Injected are the chaos injector's counters.
	Calls    uint64
	Injected uint64
	// ContainedFaults, Retried, and BreakerTrips are the containment
	// wrapper's recovery counters (zero for unprotected runs).
	ContainedFaults uint64
	Retried         uint64
	BreakerTrips    uint64
	// P50NS and P99NS are wrapped-call latency quantiles from the
	// wrapper's log2 histograms (zero for unprotected runs).
	P50NS int64
	P99NS int64
}

// PolicyHitRate is the fraction of injected faults the recovery policy
// absorbed (contained into errno returns).
func (r *SoakResult) PolicyHitRate() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.ContainedFaults) / float64(r.Injected)
}

// RunSoak drives a victim daemon (rootd or stackd) in streaming mode
// through `requests` benign requests under sustained chaos at the given
// rate and seed. With contained set, the fault-containment wrapper is
// preloaded (generated on first use) and its recovery counters and
// latency histograms are folded into the result; without it the bare
// daemon dies at its first injected fault.
func (t *Toolkit) RunSoak(app string, requests int, rate float64, seed uint64, contained bool) (*SoakResult, error) {
	var stdin []byte
	var logLine string
	switch app {
	case victim.RootdName:
		stdin = victim.StreamTraffic(requests)
		logLine = "rootd: request logged\n"
	case victim.StackdName:
		stdin = victim.StackStreamTraffic(requests)
		logLine = "stackd: request logged\n"
	default:
		return nil, fmt.Errorf("core: no streaming soak victim %q", app)
	}
	var preloads []string
	var st *gen.State
	if contained {
		// The soak-tuned recovery policy: deny with errno (the daemon's
		// retry loop replays), circuit breaker off — under *injected*
		// faults a breaker would condemn the hot read path and turn the
		// soak into a self-inflicted outage. An already-installed
		// containment wrapper (and its policy) is reused as-is.
		if _, ok := t.sys.Library(wrappers.ContainmentSoname); !ok {
			if _, err := t.GenerateContainmentWrapper(clib.LibcSoname, nil, wrappers.SoakPolicy(), nil); err != nil {
				return nil, err
			}
		}
		st = t.states[wrappers.ContainmentSoname]
		st.Reset()
		preloads = []string{wrappers.ContainmentSoname}
	}
	cr, err := t.RunChaos(app, rate, seed, preloads, string(stdin), victim.RootdStreamFlag)
	if err != nil {
		return nil, err
	}
	res := &SoakResult{
		App:       app,
		Requests:  requests,
		Served:    strings.Count(cr.Proc.Stdout, logLine),
		Survived:  !cr.Proc.Crashed() && cr.Proc.Status == 0,
		Contained: contained,
		Proc:      cr.Proc,
		Calls:     cr.Calls,
		Injected:  cr.Injected,
	}
	if st != nil {
		res.ContainedFaults, res.Retried, res.BreakerTrips = st.ContainmentTotals()
		merged := make([]uint64, gen.HistBuckets)
		for _, h := range st.ExecHist {
			for j, v := range h {
				merged[j] += v
			}
		}
		res.P50NS = gen.HistQuantileNS(merged, 0.50)
		res.P99NS = gen.HistQuantileNS(merged, 0.99)
	}
	return res, nil
}

// RunSequenceCampaign runs a temporal fault-sequence campaign over one
// scenario. Silent corruptions the journal diff catches are attributed
// to the containment wrapper's state (when one is installed), so they
// surface in profile XML and the /metrics outcome family.
func (t *Toolkit) RunSequenceCampaign(scenario inject.SequenceScenario, opts ...inject.SequenceOption) (*inject.SequenceReport, error) {
	sc, err := inject.NewSequence(t.sys, scenario, opts...)
	if err != nil {
		return nil, err
	}
	report, err := sc.Run()
	if err != nil {
		return nil, err
	}
	if st, ok := t.WrapperState(wrappers.ContainmentSoname); ok {
		for _, fn := range report.SilentCorruptions() {
			st.NoteSilentCorruption(st.Index(fn))
		}
	}
	return report, nil
}

// Run executes an application with arbitrary preloads.
func (t *Toolkit) Run(app string, preloads []string, stdin string, argv ...string) (proc.Result, error) {
	p, err := proc.Start(t.sys, app,
		proc.WithPreloads(preloads...),
		proc.WithStdin(stdin))
	if err != nil {
		return proc.Result{}, err
	}
	return p.Run(argv...), nil
}

// ---------------------------------------------------------------------
// Verification (the before/after table)

// HardeningResult compares campaign failures without and with the
// robustness wrapper — the headline robustness table.
type HardeningResult struct {
	Before *inject.LibReport
	After  *inject.LibReport
}

// VerifyHardening derives the robust API, installs the robustness
// wrapper, and re-runs the whole campaign with the wrapper preloaded.
// Campaign options (worker count, progress, stats sinks) apply to both
// the before and after sweeps.
func (t *Toolkit) VerifyHardening(target string, opts ...inject.CampaignOption) (*HardeningResult, ctypes.RobustAPI, error) {
	api, before, err := t.DeriveRobustAPI(target, opts...)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := t.sys.Library(wrappers.RobustnessSoname); !ok {
		if _, err := t.GenerateRobustnessWrapper(target, api, nil); err != nil {
			return nil, nil, err
		}
	}
	afterOpts := append(append([]inject.CampaignOption(nil), opts...), inject.WithPreloads(wrappers.RobustnessSoname))
	after, err := t.Inject(target, afterOpts...)
	if err != nil {
		return nil, nil, err
	}
	return &HardeningResult{Before: before, After: after}, api, nil
}

// Linkmap builds the load map for an application without running it.
// It is kept for TestLinkmapQuery, which shows a preloaded wrapper
// interposing ahead of libc in the search order (§2).
func (t *Toolkit) Linkmap(app string, preloads []string) (*dynlink.Linkmap, error) {
	return dynlink.Load(t.sys, app, preloads)
}
