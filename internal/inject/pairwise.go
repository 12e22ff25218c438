package inject

import (
	"fmt"
	"strings"
	"time"

	"healers/internal/cmem"
	"healers/internal/ctypes"
)

// Pairwise campaigns inject two parameters at once while the rest stay
// golden. Full cartesian probing explodes combinatorially; pairwise
// covers every two-way interaction at quadratic (not exponential) cost —
// the classic covering-array argument. The ablation benchmark compares it
// against the default single-fault sweep: how many extra failures do
// interactions reveal, for how many extra probes?

// PairResult is one two-parameter probe call.
type PairResult struct {
	ParamA, ParamB int
	ProbeA, ProbeB string
	Outcome        Outcome
	Fault          *cmem.Fault
}

// PairReport aggregates a pairwise sweep of one function.
type PairReport struct {
	Name     string
	Proto    *ctypes.Prototype
	Results  []PairResult
	Probes   int
	Failures int
}

// pairwiseConfigSuffix marks pairwise cache entries: mixed into the
// injector config before hashing the cache key, it keeps a pairwise
// sweep's entry from ever colliding with the single-fault sweep's for
// the same prototype and configuration.
const pairwiseConfigSuffix = "+pairwise"

// RunFunctionPairwise probes every pair of parameters of the named
// function with every probe combination. It shares RunFunction's cache
// and stats-sink discipline: an attached cache answers an unchanged
// function instantly (under a pairwise-marked key, so the two sweep
// modes never cross-contaminate), fresh sweeps are stored back, and an
// attached stats sink receives the run's throughput.
func (c *Campaign) RunFunctionPairwise(name string) (*PairReport, error) {
	lib, _ := c.sys.Library(c.target)
	proto := lib.Proto(name)
	if proto == nil {
		return nil, fmt.Errorf("inject: %s has no prototype for %q", c.target, name)
	}
	var key, config string
	if c.cache != nil {
		config = c.configHash() + pairwiseConfigSuffix
		key = funcKey(proto, config)
		if fr := c.cache.lookup(key, config); fr != nil {
			pr, err := pairReportFromFunc(proto, fr)
			if err == nil {
				c.emitPairStats(pr, 0, true)
				return pr, nil
			}
			// Undecodable pairwise entry: fall through and re-probe.
		}
	}
	report := &PairReport{Name: name, Proto: proto}
	n := len(proto.Params)
	// One probe catalog per parameter, hoisted out of the pair loops:
	// ProbesFor allocates, and the inner loops would otherwise recompute
	// parameter i's catalog for every partner j.
	probes := make([][]Probe, n)
	for i := range probes {
		probes[i] = ProbesFor(proto.Params[i])
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, pi := range probes[i] {
				for _, pj := range probes[j] {
					r, err := c.runProbe(proto, []probeSpec{{param: i, probe: pi}, {param: j, probe: pj}})
					if err != nil {
						return nil, err
					}
					report.Results = append(report.Results, PairResult{
						ParamA: i, ParamB: j, ProbeA: pi.Name, ProbeB: pj.Name,
						Outcome: r.Outcome, Fault: r.Fault,
					})
					report.Probes++
					if r.Outcome.Failure() {
						report.Failures++
					}
				}
			}
		}
	}
	if c.cache != nil {
		if err := c.cachePut(name, config, key, pairReportToFunc(report)); err != nil {
			return nil, err
		}
	}
	c.emitPairStats(report, time.Since(start), false)
	return report, nil
}

// emitPairStats reports one pairwise sweep through the campaign's stats
// sink, mirroring the library sweep's bookkeeping.
func (c *Campaign) emitPairStats(pr *PairReport, wall time.Duration, cached bool) {
	if c.statsSink == nil {
		return
	}
	stats := newCampaignStats(1, 1)
	executed := 0
	if cached {
		stats.CachedFuncs++
		stats.CachedProbes += pr.Probes
	} else {
		executed = pr.Probes
		stats.WorkerBusy[0] = wall
	}
	stats.noteFunc(pr.Name, pr.Probes, wall, cached)
	stats.finish(executed, wall)
	c.statsSink(stats)
}

// pairReportToFunc packs a pairwise report into the cache's FuncReport
// shape: each pair result becomes a ProbeResult whose Param encodes both
// indices ((a<<16)|b) and whose Probe joins both probe names. Verdicts
// stay empty — pairwise sweeps observe interactions, they do not derive
// robust types.
func pairReportToFunc(pr *PairReport) *FuncReport {
	fr := &FuncReport{Name: pr.Name, Probes: pr.Probes, Failures: pr.Failures}
	for _, r := range pr.Results {
		fr.Results = append(fr.Results, ProbeResult{
			Param:   r.ParamA<<16 | r.ParamB,
			Probe:   r.ProbeA + "+" + r.ProbeB,
			Outcome: r.Outcome,
			Fault:   r.Fault,
		})
	}
	return fr
}

// pairReportFromFunc is the inverse of pairReportToFunc.
func pairReportFromFunc(proto *ctypes.Prototype, fr *FuncReport) (*PairReport, error) {
	pr := &PairReport{Name: fr.Name, Proto: proto, Probes: fr.Probes, Failures: fr.Failures}
	for _, r := range fr.Results {
		a, b, ok := strings.Cut(r.Probe, "+")
		if !ok {
			return nil, fmt.Errorf("inject: cache entry %s: unpaired probe %q", fr.Name, r.Probe)
		}
		pr.Results = append(pr.Results, PairResult{
			ParamA:  r.Param >> 16,
			ParamB:  r.Param & 0xffff,
			ProbeA:  a,
			ProbeB:  b,
			Outcome: r.Outcome,
			Fault:   r.Fault,
		})
	}
	return pr, nil
}

// CompareModes runs both sweep modes for one function and reports their
// cost and detection power — the DESIGN.md §5 ablation.
type ModeComparison struct {
	Name            string
	SingleProbes    int
	SingleFailures  int
	PairProbes      int
	PairFailures    int
	SingleDetects   bool // function flagged brittle by single-fault
	PairwiseDetects bool // function flagged brittle by pairwise
}

// CompareModes runs the single-fault and pairwise sweeps on one function.
func (c *Campaign) CompareModes(name string) (*ModeComparison, error) {
	single, err := c.RunFunction(name)
	if err != nil {
		return nil, err
	}
	pair, err := c.RunFunctionPairwise(name)
	if err != nil {
		return nil, err
	}
	return &ModeComparison{
		Name:            name,
		SingleProbes:    single.Probes,
		SingleFailures:  single.Failures,
		PairProbes:      pair.Probes,
		PairFailures:    pair.Failures,
		SingleDetects:   single.Failures > 0,
		PairwiseDetects: pair.Failures > 0,
	}, nil
}
