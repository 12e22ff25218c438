package inject

import (
	"fmt"
	"sort"
	"time"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/proc"
	"healers/internal/simelf"
)

// Outcome classifies how one probe call ended, following the Ballista
// CRASH severity scale restricted to what a wrapper can observe.
type Outcome int

const (
	// OutcomeOK: the call returned without fault and without errno.
	OutcomeOK Outcome = iota
	// OutcomeErrno: the call returned gracefully with errno set.
	OutcomeErrno
	// OutcomeCrash: SIGSEGV/SIGBUS — a robustness failure.
	OutcomeCrash
	// OutcomeAbort: SIGABRT — a robustness failure.
	OutcomeAbort
	// OutcomeDenied: a preloaded wrapper rejected the call instead of
	// letting it reach the implementation (only seen in verify runs).
	OutcomeDenied
	// OutcomeHang: the call exhausted the probe's access budget — it
	// would have run "forever" (probe-child timeout).
	OutcomeHang
	// OutcomeCorrupt: the call returned normally but silently modified
	// memory it promised only to read (a const-qualified argument) —
	// Ballista's "Silent" class, detected by snapshotting read-only
	// golden arguments around the call.
	OutcomeCorrupt
	// OutcomeSilentCorruption: the run finished with a success status
	// but its committed state diverged from the golden (un-faulted)
	// run's — damage the errno-based classes cannot see, detected by the
	// cmem journal diff in sequence campaigns.
	OutcomeSilentCorruption
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeErrno:
		return "errno"
	case OutcomeCrash:
		return "crash"
	case OutcomeAbort:
		return "abort"
	case OutcomeDenied:
		return "denied"
	case OutcomeHang:
		return "hang"
	case OutcomeCorrupt:
		return "silent"
	case OutcomeSilentCorruption:
		return "silent-corruption"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Failure reports whether the outcome is a robustness failure — the
// paper's "crashes, hangs, or aborts" triad.
func (o Outcome) Failure() bool {
	return o == OutcomeCrash || o == OutcomeAbort || o == OutcomeHang ||
		o == OutcomeCorrupt || o == OutcomeSilentCorruption
}

// DeniedErrno is the errno value HEALERS robustness wrappers set when they
// reject a call; the campaign uses it to distinguish "denied by wrapper"
// from an ordinary errno return.
const DeniedErrno = cval.EDenied

// ProbeResult is the record of one probe call.
type ProbeResult struct {
	// Param is the injected parameter index.
	Param int
	// Probe is the injected probe's name.
	Probe string
	// SatLevel is the strongest lattice level the injected value
	// satisfied in this call's context (computed before the call).
	SatLevel int
	// Outcome classifies the call's ending.
	Outcome Outcome
	// Fault carries the fault for crash/abort outcomes.
	Fault *cmem.Fault
}

// ParamVerdict is the derived robust type for one parameter.
type ParamVerdict struct {
	Name  string
	Chain string
	// Level is the index of the derived weakest robust level.
	// Level == len(chain levels) means no lattice level suffices:
	// argument checking cannot make the function robust (sprintf's
	// destination), and fault containment (canaries) is required.
	Level int
	// LevelName is the derived level's name, or "uncontainable".
	LevelName string
}

// FuncReport is the campaign's result for one function.
type FuncReport struct {
	Name    string
	Proto   *ctypes.Prototype
	Results []ProbeResult
	// Verdicts holds the derived robust type per parameter.
	Verdicts []ParamVerdict
	// Probes and Failures count totals.
	Probes   int
	Failures int
	// NeedsContainment is set when some parameter has no robust lattice
	// level (see ParamVerdict.Level).
	NeedsContainment bool
}

// RobustLevelNames returns the derived level names in parameter order.
func (r *FuncReport) RobustLevelNames() []string {
	names := make([]string, len(r.Verdicts))
	for i, v := range r.Verdicts {
		names[i] = v.LevelName
	}
	return names
}

// LibReport aggregates a whole library campaign.
type LibReport struct {
	Library string
	Funcs   []*FuncReport
	// TotalProbes and TotalFailures aggregate across functions.
	TotalProbes   int
	TotalFailures int
}

// OutcomeHistogram counts probe outcomes across the whole campaign — the
// Ballista-style CRASH-scale summary (how many SEGV vs SIGABRT vs hang).
func (lr *LibReport) OutcomeHistogram() map[Outcome]int {
	h := make(map[Outcome]int)
	for _, fr := range lr.Funcs {
		for _, r := range fr.Results {
			h[r.Outcome]++
		}
	}
	return h
}

// FuncsWithFailures returns how many functions had at least one failure.
func (lr *LibReport) FuncsWithFailures() int {
	n := 0
	for _, fr := range lr.Funcs {
		if fr.Failures > 0 {
			n++
		}
	}
	return n
}

// RobustAPI extracts the derived robust API from the campaign results —
// the artifact Figure 2's pipeline hands to the wrapper generator.
func (lr *LibReport) RobustAPI() ctypes.RobustAPI {
	api := make(ctypes.RobustAPI, len(lr.Funcs))
	for _, fr := range lr.Funcs {
		api[fr.Name] = append([]ctypes.RobustParam(nil), verdictsToParams(fr.Verdicts)...)
	}
	return api
}

func verdictsToParams(vs []ParamVerdict) []ctypes.RobustParam {
	out := make([]ctypes.RobustParam, len(vs))
	for i, v := range vs {
		out[i] = ctypes.RobustParam{Name: v.Name, Chain: v.Chain, Level: v.Level, LevelName: v.LevelName}
	}
	return out
}

// Func returns the report for one function, or nil.
func (lr *LibReport) Func(name string) *FuncReport {
	for _, fr := range lr.Funcs {
		if fr.Name == name {
			return fr
		}
	}
	return nil
}

// Campaign drives fault injection against one library in one system
// configuration. The zero value is not usable; construct with New.
type Campaign struct {
	sys      *simelf.System
	target   string // soname of the library under test
	preloads []string
	stdin    string
	hostname string
	// workers is the library-sweep pool size: 1 (the default) probes on
	// the calling goroutine alone, <= 0 means GOMAXPROCS.
	workers int
	// progress, when set, receives a snapshot after every completed
	// function sweep.
	progress func(Progress)
	// statsSink, when set, receives the throughput statistics of every
	// library sweep.
	statsSink func(*CampaignStats)
	// cache, when set, lets library sweeps skip functions whose stored
	// outcome still matches the content hash of (prototype, probe
	// hierarchy, config), and records fresh outcomes for the next run.
	cache *Cache
	// registry, when set, layers a shared campaign-cache registry over
	// the local cache: locally missing entries are batch-fetched before
	// probing and fresh ones pushed back (see WithRegistry).
	registry *RegistryCache
}

// CampaignOption configures a campaign.
type CampaignOption func(*Campaign)

// WithPreloads runs every probe process with the given wrapper libraries
// preloaded — the verification mode that demonstrates hardening.
func WithPreloads(sonames ...string) CampaignOption {
	return func(c *Campaign) { c.preloads = append(c.preloads, sonames...) }
}

// WithStdin seeds each probe process's stdin (gets() needs input to be
// dangerous).
func WithStdin(data string) CampaignOption {
	return func(c *Campaign) { c.stdin = data }
}

// WithWorkers sets the library sweep's pool size: every probe still runs
// in its own fresh process, but up to n probe processes execute
// concurrently. n == 1 (the default) runs one probe at a time on the
// calling goroutine; n <= 0 uses GOMAXPROCS. Reports are merged
// deterministically, so any worker count produces an identical LibReport.
func WithWorkers(n int) CampaignOption {
	return func(c *Campaign) { c.workers = n }
}

// WithProgress installs a progress callback invoked after each function
// sweep completes. Calls never overlap, so the callback need not be
// thread-safe. A library sweep reports its cache hits first, in canonical
// order; probed functions follow in completion order, which is
// nondeterministic with more than one worker.
func WithProgress(fn func(Progress)) CampaignOption {
	return func(c *Campaign) { c.progress = fn }
}

// WithStatsSink installs a callback that receives the throughput
// statistics of every library sweep the campaign runs — the hook through
// which the CLI surfaces probes/sec without the numbers contaminating the
// deterministic LibReport.
func WithStatsSink(fn func(*CampaignStats)) CampaignOption {
	return func(c *Campaign) { c.statsSink = fn }
}

// WithCache attaches a campaign cache (see OpenCache): library sweeps
// reuse stored per-function outcomes whose content-hash key still matches
// and store fresh outcomes for later runs. A nil cache is ignored. The
// reused reports are byte-identical to what probing would have produced —
// the key covers everything that influences a sweep — so cached and
// probed runs render identical robust-API documents.
func WithCache(cache *Cache) CampaignOption {
	return func(c *Campaign) { c.cache = cache }
}

// probeFuel is the per-probe memory-access budget: generous enough for
// any legitimate single libc call, small enough to flag a runaway loop —
// the timeout a real injector puts on its probe children.
const probeFuel = 64 << 20

// probeHostName is the synthetic executable each probe runs in.
const probeHostName = "healers-probe-host"

// New builds a campaign against the library with the given soname in sys.
// It installs (once) a minimal probe-host executable linked against the
// target.
func New(sys *simelf.System, soname string, opts ...CampaignOption) (*Campaign, error) {
	if _, ok := sys.Library(soname); !ok {
		return nil, fmt.Errorf("inject: no such library %q", soname)
	}
	c := &Campaign{sys: sys, target: soname, hostname: probeHostName + ":" + soname, workers: 1}
	for _, o := range opts {
		o(c)
	}
	if c.registry != nil && c.cache == nil {
		// Registry hits need a local cache to land in; an in-memory one
		// suffices when the caller did not attach a file-backed cache.
		c.cache, _ = OpenCache("")
	}
	if _, ok := sys.Executable(c.hostname); !ok {
		host := &simelf.Executable{
			Name:   c.hostname,
			Interp: "sim-ld.so",
			Needed: []string{soname},
			Main:   func(simelf.Caller, []string) int32 { return 0 },
		}
		if err := sys.AddExecutable(host); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// runProbe executes one probe call in a fresh process: materialize every
// argument, golden except for the parameters the injected set inj names,
// call, classify. The niladic plain call's one spec names no parameter
// (param -1) and injects nothing; a single-fault probe injects one
// parameter and is the only kind that records the satisfied lattice
// level (and its Param/Probe); a pairwise probe injects two. Every kind
// gets the same fuel budget, stdin seeding, and outcome classification.
func (c *Campaign) runProbe(proto *ctypes.Prototype, inj []probeSpec) (ProbeResult, error) {
	opts := []proc.Option{proc.WithPreloads(c.preloads...)}
	if c.stdin != "" {
		opts = append(opts, proc.WithStdin(c.stdin))
	}
	p, err := proc.Start(c.sys, c.hostname, opts...)
	if err != nil {
		return ProbeResult{}, fmt.Errorf("inject: starting probe host: %w", err)
	}
	env := p.Env()
	if err := prepareProbeRegions(env); err != nil {
		return ProbeResult{}, err
	}
	args := make([]cval.Value, len(proto.Params))
	for i, prm := range proto.Params {
		pr := GoldenProbe(prm)
		if sp, ok := injectedAt(inj, i); ok {
			pr = sp.probe
		}
		v, err := pr.Make(env)
		if err != nil {
			return ProbeResult{}, fmt.Errorf("inject: %s param %d probe %s: %w", proto.Name, i, pr.Name, err)
		}
		args[i] = v
	}
	var out ProbeResult
	if len(inj) == 1 {
		out.Param, out.Probe = inj[0].param, inj[0].probe.Name
		if i := inj[0].param; i >= 0 {
			out.SatLevel = ctypes.SatisfiedLevel(env, proto, i, args, ctypes.ChainFor(proto.Params[i]))
		}
	}
	snaps := snapshotReadOnlyArgs(env, proto, args, inj)

	env.Errno = 0
	env.Img.Space.SetFuel(probeFuel)
	_, res := p.RunCall(proto.Name, args...)
	env.Img.Space.SetFuel(-1)

	switch o, faulted := faultOutcome(res.Fault); {
	case faulted:
		out.Outcome, out.Fault = o, res.Fault
	case env.Errno == DeniedErrno:
		out.Outcome = OutcomeDenied
	case corruptedReadOnlyArg(env, snaps):
		out.Outcome = OutcomeCorrupt
	case env.Errno != 0:
		out.Outcome = OutcomeErrno
	default:
		out.Outcome = OutcomeOK
	}
	// abort() aborting is its contract, not a robustness failure.
	if len(proto.Params) == 0 && proto.Name == "abort" && out.Outcome == OutcomeAbort {
		out.Outcome, out.Fault = OutcomeOK, nil
	}
	return out, nil
}

// injectedAt returns the spec of inj that injects parameter i, if any.
func injectedAt(inj []probeSpec, i int) (probeSpec, bool) {
	for _, sp := range inj {
		if sp.param == i {
			return sp, true
		}
	}
	return probeSpec{}, false
}

// faultOutcome classifies the fault that ended a probe call or a
// sequence run — a hang, an abort, or (any other kind) a crash — and
// reports false when there was none.
func faultOutcome(f *cmem.Fault) (Outcome, bool) {
	switch {
	case f == nil:
		return OutcomeOK, false
	case f.Kind == cmem.FaultHang:
		return OutcomeHang, true
	case f.Kind == cmem.FaultAbort:
		return OutcomeAbort, true
	default:
		return OutcomeCrash, true
	}
}

// roSnapshot records the content of one read-only-role argument before a
// probe call.
type roSnapshot struct {
	addr cmem.Addr
	data []byte
}

// snapshotMax bounds per-argument snapshots; corruption beyond it goes
// unnoticed, like any sampling detector.
const snapshotMax = 256

// snapshotReadOnlyArgs captures the golden arguments the function
// promises not to write (in_str and in_buf roles). Injected parameters
// are skipped — their values are deliberately invalid.
func snapshotReadOnlyArgs(env *cval.Env, proto *ctypes.Prototype, args []cval.Value, inj []probeSpec) []roSnapshot {
	var snaps []roSnapshot
	for i, prm := range proto.Params {
		if _, injected := injectedAt(inj, i); injected || i >= len(args) {
			continue
		}
		if prm.Role != ctypes.RoleInStr && prm.Role != ctypes.RoleInBuf {
			continue
		}
		a := args[i].Addr()
		if a.IsNull() {
			continue
		}
		n := env.Img.Space.MappedLen(a, cmem.ProtRead, snapshotMax)
		if n == 0 {
			continue
		}
		buf := make([]byte, n)
		if f := env.Img.Space.Read(a, buf); f != nil {
			continue
		}
		snaps = append(snaps, roSnapshot{addr: a, data: buf})
	}
	return snaps
}

// corruptedReadOnlyArg reports whether any snapshotted argument changed
// across the call.
func corruptedReadOnlyArg(env *cval.Env, snaps []roSnapshot) bool {
	for _, s := range snaps {
		buf := make([]byte, len(s.data))
		if f := env.Img.Space.Read(s.addr, buf); f != nil {
			return true // became unreadable: also silent damage
		}
		for i := range buf {
			if buf[i] != s.data[i] {
				return true
			}
		}
	}
	return false
}

// probeSpec is one injected (parameter, probe) pair. A single-fault plan
// lists one per probe call; the niladic plain call's spec has param -1
// and injects nothing.
type probeSpec struct {
	param int
	probe Probe
}

// planFunction enumerates the probe calls a single-fault sweep of proto
// makes, in canonical order: parameters first to last, each parameter's
// probe catalog in catalog order. Niladic functions get one plain call.
func planFunction(proto *ctypes.Prototype) []probeSpec {
	if len(proto.Params) == 0 {
		return []probeSpec{{param: -1, probe: Probe{Name: "call"}}}
	}
	var specs []probeSpec
	for i, prm := range proto.Params {
		for _, probe := range ProbesFor(prm) {
			specs = append(specs, probeSpec{param: i, probe: probe})
		}
	}
	return specs
}

// buildReport derives a function report from the ordered probe results of
// one planFunction sweep. It depends only on the canonical result order,
// so every worker count and every distributed worker derives the same
// report.
func buildReport(name string, proto *ctypes.Prototype, results []ProbeResult) *FuncReport {
	report := &FuncReport{Name: name, Proto: proto, Results: results, Probes: len(results)}
	for _, r := range results {
		if r.Outcome.Failure() {
			report.Failures++
		}
	}
	if len(proto.Params) == 0 {
		return report
	}
	for i, prm := range proto.Params {
		chain := ctypes.ChainFor(prm)
		// failedAtOrAbove[sat] records whether any probe satisfying
		// exactly level sat failed.
		failedAtOrAbove := make([]bool, len(chain.Levels)+1)
		for _, r := range results {
			if r.Param == i && r.Outcome.Failure() {
				failedAtOrAbove[r.SatLevel] = true
			}
		}
		// Derive the weakest robust level: the smallest L such that no
		// failing probe satisfied a level >= L. A probe that satisfied
		// level s and failed rules out all levels <= s.
		derived := 0
		for s := len(chain.Levels) - 1; s >= 0; s-- {
			if failedAtOrAbove[s] {
				derived = s + 1
				break
			}
		}
		v := ParamVerdict{Name: prm.Name, Chain: chain.Name, Level: derived}
		if derived >= len(chain.Levels) {
			v.LevelName = "uncontainable"
			report.NeedsContainment = true
		} else {
			v.LevelName = chain.Levels[derived].Name
		}
		report.Verdicts = append(report.Verdicts, v)
	}
	return report
}

// RunFunction sweeps every probe of every parameter of the named function
// (single-fault mode) and derives the robust type per parameter. It
// shares the library sweep's cache discipline: an attached cache answers
// an unchanged function instantly and receives a freshly derived report,
// which is what makes a targeted re-probe (drop one entry, re-run one
// function) cost one function's probes.
func (c *Campaign) RunFunction(name string) (*FuncReport, error) {
	lib, _ := c.sys.Library(c.target)
	proto := lib.Proto(name)
	if proto == nil {
		return nil, fmt.Errorf("inject: %s has no prototype for %q", c.target, name)
	}
	fp := funcPlan{name: name, proto: proto, specs: planFunction(proto)}
	config := c.configHash()
	key := funcKey(proto, config)
	c.warmFromRegistry(config, []string{key})
	fr, _, _, err := c.sweepFunction(&fp, config, key, nil)
	return fr, err
}

// sweepFunction resolves one function, whose cache key under config is
// key, on its own, outside a library sweep: from the cache when it holds
// the function, otherwise by running every planned probe in canonical
// order (calling beforeProbe, when set, ahead of each) and recording the
// fresh report in the cache. It returns whether the report came from the
// cache and the time spent probing.
func (c *Campaign) sweepFunction(fp *funcPlan, config, key string, beforeProbe func()) (fr *FuncReport, cached bool, wall time.Duration, err error) {
	if fr = c.cacheLookup(fp, config, key); fr != nil {
		return fr, true, 0, nil
	}
	results := make([]ProbeResult, 0, len(fp.specs))
	start := time.Now()
	for k := range fp.specs {
		if beforeProbe != nil {
			beforeProbe()
		}
		r, err := c.runProbe(fp.proto, fp.specs[k:k+1])
		if err != nil {
			return nil, false, 0, err
		}
		results = append(results, r)
	}
	fr = buildReport(fp.name, fp.proto, results)
	wall = time.Since(start)
	if err := c.cachePut(fp.name, config, key, fr); err != nil {
		return nil, false, 0, err
	}
	return fr, false, wall, nil
}

// scannableFuncs returns the target's probe-able function names in
// canonical (sorted) order.
func (c *Campaign) scannableFuncs() []string {
	lib, _ := c.sys.Library(c.target)
	names := lib.Symbols()
	sort.Strings(names)
	out := names[:0]
	for _, name := range names {
		if lib.Proto(name) == nil {
			continue // no prototype — not scannable, like a stripped symbol
		}
		out = append(out, name)
	}
	return out
}

// cacheLookup consults the campaign cache for one planned function's
// key, returning the stored report (live prototype attached) or nil.
func (c *Campaign) cacheLookup(fp *funcPlan, config, key string) (fr *FuncReport) {
	if c.cache != nil {
		if fr = c.cache.lookup(key, config); fr != nil {
			fr.Proto = fp.proto
		}
	}
	return fr
}

// funcPlan is one function's planned sweep.
type funcPlan struct {
	name  string
	proto *ctypes.Prototype
	specs []probeSpec
}

// libPlan is a whole library sweep, planned up front so local and
// distributed sweeps work from the same canonical probe order.
type libPlan struct {
	funcs       []funcPlan
	totalProbes int
}

// planLibrary plans the sweep of every scannable function, in canonical
// order.
func (c *Campaign) planLibrary() *libPlan {
	lib, _ := c.sys.Library(c.target)
	plan := &libPlan{}
	for _, name := range c.scannableFuncs() {
		proto := lib.Proto(name)
		specs := planFunction(proto)
		plan.funcs = append(plan.funcs, funcPlan{name: name, proto: proto, specs: specs})
		plan.totalProbes += len(specs)
	}
	return plan
}
