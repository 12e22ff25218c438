package inject

// Temporal fault-sequence campaigns: the pairwise covering idea lifted
// from parameter pairs to *call* pairs. Where pairwise.go injects two
// bad arguments into one call, the sequence engine replays a scripted
// victim scenario — a deterministic sequence of library calls against
// one process — and injects fault combinations across consecutive
// calls, covering every (fault-class × call-position) interaction at
// quadratic cost (the VERIMAG multi-fault methodology's subject).
//
// Every run is compared against a *golden* (un-faulted) replay on two
// axes: how the process ended (the errno-visible axis every classifier
// already had) and the journal-diff digest of its committed state (the
// axis only the cmem write journal can see). A run that exits
// successfully with a diverged digest is the class errno-based
// classification is structurally blind to: silent corruption.

import (
	"fmt"

	"healers/internal/cmem"
	"healers/internal/proc"
	"healers/internal/simelf"
	"healers/internal/xmlrep"
)

// SequenceScenario is one deterministic victim workload: an executable
// in the campaign's system plus the argv/stdin/preload configuration
// that makes its call stream reproducible.
type SequenceScenario struct {
	Name     string
	App      string
	Argv     []string
	Stdin    string
	Preloads []string
}

// seqClass is one fault class the sequence planner covers. Silent
// classes do not fault the call: they let it succeed and corrupt one
// byte of its committed state afterwards.
type seqClass struct {
	name   string
	kind   cmem.FaultKind
	silent bool
}

// seqClasses is the covered fault mix, mirroring the chaos-mode kinds
// the recovery policy distinguishes, plus the silent class.
var seqClasses = []seqClass{
	{name: "crash", kind: cmem.FaultSegv},
	{name: "abort", kind: cmem.FaultAbort},
	{name: "oom", kind: cmem.FaultOOM},
	{name: "hang", kind: cmem.FaultHang},
	{name: "silent", silent: true},
}

// SeqStep is one scripted fault of a run: class cl at 1-based call
// index Call, labelled with the function the golden run observed there.
type SeqStep struct {
	Call  uint64
	Class string
	Func  string
}

// SequenceRun is one fault-combination run's record.
type SequenceRun struct {
	Steps   []SeqStep
	Outcome Outcome
	Exit    int32
	// Diverged reports a journal-diff digest differing from the golden
	// run's; for successful exits this is what makes the outcome
	// silent-corruption, for faulting runs it is recorded as additional
	// evidence without reclassifying.
	Diverged bool
	Fault    *cmem.Fault
}

// SequenceReport is a whole sequence campaign's result.
type SequenceReport struct {
	Scenario string
	App      string
	// Calls is the golden run's intercepted-call count; GoldenOps its
	// per-call function names; GoldenDigest its committed-state digest.
	Calls        uint64
	GoldenOps    []string
	GoldenDigest string
	Runs         []SequenceRun
	// Probes and Failures count totals like the other report types.
	Probes   int
	Failures int
}

// SilentCorruptions returns the function names (with multiplicity, in
// run order) whose calls were the corruption site of a
// silent-corruption run — the attribution a wrapper State records.
func (r *SequenceReport) SilentCorruptions() []string {
	var funcs []string
	for _, run := range r.Runs {
		if run.Outcome != OutcomeSilentCorruption {
			continue
		}
		for _, s := range run.Steps {
			if s.Class == "silent" {
				funcs = append(funcs, s.Func)
			}
		}
	}
	return funcs
}

// ToXML renders the report as its checksummed document form.
func (r *SequenceReport) ToXML() *xmlrep.SequenceReportDoc {
	doc := &xmlrep.SequenceReportDoc{
		Scenario:     r.Scenario,
		App:          r.App,
		Calls:        r.Calls,
		GoldenDigest: r.GoldenDigest,
	}
	for _, run := range r.Runs {
		rx := xmlrep.SeqRunXML{
			Outcome:  run.Outcome.String(),
			Exit:     run.Exit,
			Diverged: run.Diverged,
		}
		if run.Fault != nil {
			rx.FaultKind = int(run.Fault.Kind)
			rx.FaultOp = run.Fault.Op
			rx.FaultDetail = run.Fault.Detail
		}
		for _, s := range run.Steps {
			rx.Steps = append(rx.Steps, xmlrep.SeqStepXML{Call: s.Call, Class: s.Class, Func: s.Func})
		}
		doc.Runs = append(doc.Runs, rx)
	}
	doc.Stamp()
	return doc
}

// SequenceCampaign drives temporal fault sequences against one scenario.
type SequenceCampaign struct {
	sys       *simelf.System
	scenario  SequenceScenario
	positions int
}

// SequenceOption configures a sequence campaign.
type SequenceOption func(*SequenceCampaign)

// WithPositions sets how many call positions the planner selects
// (evenly spaced over the golden call stream). More positions cover
// more interactions at quadratically more runs.
func WithPositions(n int) SequenceOption {
	return func(sc *SequenceCampaign) {
		if n > 0 {
			sc.positions = n
		}
	}
}

// defaultSeqPositions is the default call-position sample size: with 5
// fault classes it plans 5K singles + 25(K-1) pairs — K=4 keeps a
// scenario under a hundred runs.
const defaultSeqPositions = 4

// NewSequence builds a sequence campaign for one scenario in sys.
func NewSequence(sys *simelf.System, scenario SequenceScenario, opts ...SequenceOption) (*SequenceCampaign, error) {
	if _, ok := sys.Executable(scenario.App); !ok {
		return nil, fmt.Errorf("inject: no such executable %q", scenario.App)
	}
	sc := &SequenceCampaign{sys: sys, scenario: scenario, positions: defaultSeqPositions}
	for _, o := range opts {
		o(sc)
	}
	return sc, nil
}

// start spins up one fresh victim process with the scenario's
// configuration and the given fault script armed, journal on.
func (sc *SequenceCampaign) start(script []cmem.ScriptedFault, trace bool) (*proc.Process, error) {
	opts := []proc.Option{proc.WithPreloads(sc.scenario.Preloads...)}
	if sc.scenario.Stdin != "" {
		opts = append(opts, proc.WithStdin(sc.scenario.Stdin))
	}
	p, err := proc.Start(sc.sys, sc.scenario.App, opts...)
	if err != nil {
		return nil, fmt.Errorf("inject: starting sequence victim: %w", err)
	}
	chaos := cmem.NewScriptedChaos(script)
	chaos.TraceOps = trace
	env := p.Env()
	env.Chaos = chaos
	// The outer journal records every committed byte of the whole run —
	// containment's per-call journals commit into it — so the run's net
	// state change is diffable (and corruptible) at any point.
	env.Img.Space.BeginJournal()
	return p, nil
}

// Run executes the campaign: one golden replay, then every planned
// single fault and every consecutive-position fault pair. The report is
// deterministic: same scenario, same plan, same outcomes, same digests.
func (sc *SequenceCampaign) Run() (*SequenceReport, error) {
	// Golden replay: no faults, op tracing on. Its call stream defines
	// the injectable positions and its digest the uncorrupted end state.
	p, err := sc.start(nil, true)
	if err != nil {
		return nil, err
	}
	res := p.Run(sc.scenario.Argv...)
	if res.Crashed() {
		return nil, fmt.Errorf("inject: golden run of %s crashed: %s", sc.scenario.App, res)
	}
	env := p.Env()
	calls := env.Chaos.Calls
	if calls == 0 {
		return nil, fmt.Errorf("inject: golden run of %s made no library calls", sc.scenario.App)
	}
	report := &SequenceReport{
		Scenario:     sc.scenario.Name,
		App:          sc.scenario.App,
		Calls:        calls,
		GoldenOps:    env.Chaos.Ops,
		GoldenDigest: env.Img.Space.JournalDiffDigest(),
	}

	positions := planPositions(calls, sc.positions)

	// Singles: every class at every selected position.
	for _, pos := range positions {
		for _, cl := range seqClasses {
			run, err := sc.runScript(report, []SeqStep{sc.step(report, pos, cl)})
			if err != nil {
				return nil, err
			}
			report.note(run)
		}
	}
	// Pairs: every class combination across consecutive selected
	// positions — the temporal analogue of pairwise argument coverage.
	for k := 0; k+1 < len(positions); k++ {
		for _, ca := range seqClasses {
			for _, cb := range seqClasses {
				run, err := sc.runScript(report, []SeqStep{
					sc.step(report, positions[k], ca),
					sc.step(report, positions[k+1], cb),
				})
				if err != nil {
					return nil, err
				}
				report.note(run)
			}
		}
	}
	return report, nil
}

// step builds one scripted step, labelled from the golden op stream.
func (sc *SequenceCampaign) step(r *SequenceReport, pos uint64, cl seqClass) SeqStep {
	s := SeqStep{Call: pos, Class: cl.name}
	if pos >= 1 && pos <= uint64(len(r.GoldenOps)) {
		s.Func = r.GoldenOps[pos-1]
	}
	return s
}

// note appends a run and updates the totals.
func (r *SequenceReport) note(run SequenceRun) {
	r.Runs = append(r.Runs, run)
	r.Probes++
	if run.Outcome.Failure() {
		r.Failures++
	}
}

// runScript executes one fault-combination run and classifies it against
// the golden digest.
func (sc *SequenceCampaign) runScript(report *SequenceReport, steps []SeqStep) (SequenceRun, error) {
	script := make([]cmem.ScriptedFault, len(steps))
	for i, s := range steps {
		cl := classByName(s.Class)
		script[i] = cmem.ScriptedFault{Call: s.Call, Kind: cl.kind, Silent: cl.silent}
	}
	p, err := sc.start(script, false)
	if err != nil {
		return SequenceRun{}, err
	}
	res := p.Run(sc.scenario.Argv...)
	env := p.Env()
	run := SequenceRun{
		Steps:    steps,
		Exit:     res.Status,
		Diverged: env.Img.Space.JournalDiffDigest() != report.GoldenDigest,
		Fault:    res.Fault,
	}
	switch o, faulted := faultOutcome(res.Fault); {
	case faulted:
		run.Outcome = o
	case res.Status != 0:
		run.Outcome = OutcomeErrno
	case run.Diverged:
		// The errno-visible axis says success; the state axis says the
		// committed bytes are not the golden run's. This is the class
		// the whole journal-diff machinery exists to catch.
		run.Outcome = OutcomeSilentCorruption
	default:
		run.Outcome = OutcomeOK
	}
	return run, nil
}

// classByName resolves a planner class name; unknown names fall back to
// the crash class (cannot happen for planner-built steps).
func classByName(name string) seqClass {
	for _, cl := range seqClasses {
		if cl.name == name {
			return cl
		}
	}
	return seqClasses[0]
}

// planPositions selects up to k call positions evenly spaced over
// [1, calls], deduplicated and ascending — the covering sample the
// quadratic pair stage runs over.
func planPositions(calls uint64, k int) []uint64 {
	if k <= 0 {
		k = 1
	}
	if uint64(k) > calls {
		k = int(calls)
	}
	positions := make([]uint64, 0, k)
	for i := 0; i < k; i++ {
		var pos uint64
		if k == 1 {
			pos = 1 + calls/2
			if pos > calls {
				pos = calls
			}
		} else {
			pos = 1 + uint64(i)*(calls-1)/uint64(k-1)
		}
		if n := len(positions); n > 0 && positions[n-1] == pos {
			continue
		}
		positions = append(positions, pos)
	}
	return positions
}
