package main

import (
	"fmt"
	"strings"
	"time"

	"healers/internal/clib"
	"healers/internal/core"
	"healers/internal/gen"
	"healers/internal/proc"
	"healers/internal/simelf"
	"healers/internal/victim"
	"healers/internal/wrappers"
)

const (
	// soakRequests is one chaos-soak window's request count.
	soakRequests = 50
	// soakRate is healers-attack's default -chaos-rate.
	soakRate = 0.05
	// soakWindows is how many distinct chaos seeds the workload cycles
	// through (seed, seed+1, ..., seed+soakWindows-1), so every run
	// repeats the same windows whatever its length.
	soakWindows = 32
)

// chaosSoak drives the streaming rootd daemon through 50-request windows
// under chaos, contained by the fault-containment wrapper — the only
// workload that runs the containment journal and the policy engine.
type chaosSoak struct {
	tk   *core.Toolkit
	sys  *simelf.System
	st   *gen.State
	seed uint64

	tracing      bool
	outer, inner *shim
	// untraced holds each window's untraced result, which the traced
	// run of the same window must reproduce.
	untraced map[uint64]soakCounters
	probes   layerProbes
	// cycle sums the counts of the first traced cycle of windows.
	cycle     map[string]float64
	cycleSeen map[uint64]bool
}

// soakCounters are one window's deterministic outcomes.
type soakCounters struct {
	// Output is the daemon's exit status and console output.
	Output                           string
	Served                           int
	Survived                         bool
	Calls, Injected                  uint64
	Contained, Retried, BreakerTrips uint64
}

func setupChaosSoak(seed uint64, traced bool) (bench, error) {
	tk, err := core.NewToolkit()
	if err != nil {
		return nil, err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return nil, err
	}
	st, err := tk.GenerateContainmentWrapper(clib.LibcSoname, nil, wrappers.SoakPolicy(), nil)
	if err != nil {
		return nil, err
	}
	c := &chaosSoak{tk: tk, sys: tk.System(), st: st, seed: seed, tracing: traced}
	if traced {
		if c.outer, c.inner, err = installShims(c.sys); err != nil {
			return nil, err
		}
		c.untraced = make(map[uint64]soakCounters)
		c.cycle = make(map[string]float64)
		c.cycleSeen = make(map[uint64]bool)
	}
	return c, nil
}

// window maps operation i to its chaos seed. A traced run runs every
// window twice, untraced then traced.
func (c *chaosSoak) window(i int) uint64 {
	if i < 0 {
		i = 0
	}
	if c.tracing {
		i /= 2
	}
	return c.seed + uint64(i%soakWindows)
}

func (c *chaosSoak) op(_, i int, traced bool) (int, time.Duration, error) {
	w := c.window(i)
	if traced {
		return c.tracedOp(w)
	}
	t0 := time.Now()
	res, err := c.tk.RunSoak(victim.RootdName, soakRequests, soakRate, w, true)
	dur := time.Since(t0)
	if err != nil {
		return 0, dur, err
	}
	got := soakCounters{soakOutput(res.Proc), res.Served, res.Survived, res.Calls, res.Injected, res.ContainedFaults, res.Retried, res.BreakerTrips}
	if c.untraced != nil {
		c.untraced[w] = got
	}
	if !got.Survived || got.Served != soakRequests {
		return 0, dur, fmt.Errorf("chaos-soak: window %d: survived=%v, served %d of %d", w, got.Survived, got.Served, soakRequests)
	}
	return soakRequests, dur, nil
}

// tracedOp runs one window the way Toolkit.RunSoak does, step for step,
// with the outer and inner shims around the containment wrapper. It
// also times the wrapper-state bookkeeping RunSoak does around the run
// (State.Reset, ContainmentTotals, Sync).
func (c *chaosSoak) tracedOp(w uint64) (int, time.Duration, error) {
	c.outer.take()
	c.inner.take()
	t0 := time.Now()
	stdin := string(victim.StreamTraffic(soakRequests))
	c.st.Reset()
	state := time.Since(t0)
	cr, err := c.tk.RunChaos(victim.RootdName, soakRate, w,
		[]string{outerSoname, wrappers.ContainmentSoname, innerSoname}, stdin, victim.RootdStreamFlag)
	if err != nil {
		return 0, time.Since(t0), err
	}
	got := soakCounters{
		Output:   soakOutput(cr.Proc),
		Served:   strings.Count(cr.Proc.Stdout, "rootd: request logged\n"),
		Survived: !cr.Proc.Crashed() && cr.Proc.Status == 0,
		Calls:    cr.Calls,
		Injected: cr.Injected,
	}
	ts := time.Now()
	got.Contained, got.Retried, got.BreakerTrips = c.st.ContainmentTotals()
	c.st.Sync()
	state += time.Since(ts)
	merged := make([]uint64, gen.HistBuckets)
	for _, h := range c.st.ExecHist {
		for j, v := range h {
			merged[j] += v
		}
	}
	gen.HistQuantileNS(merged, 0.50)
	gen.HistQuantileNS(merged, 0.99)
	dur := time.Since(t0)
	c.probes.add("gen.state_us_per_op", float64(state)/1e3)
	if want, ok := c.untraced[w]; ok && want != got {
		return 0, dur, fmt.Errorf("chaos-soak: window %d: the traced run's output or counters differ from the untraced run's", w)
	}
	if !got.Survived || got.Served != soakRequests {
		return 0, dur, fmt.Errorf("chaos-soak: window %d: survived=%v, served %d of %d", w, got.Survived, got.Served, soakRequests)
	}
	outer, inner := c.outer.take(), c.inner.take()
	recordShimTimes(&c.probes, outer, inner)
	// Counts are summed over one cycle of windows, so they do not
	// depend on how many windows the run had time for.
	if len(c.cycleSeen) < soakWindows && !c.cycleSeen[w] {
		c.cycleSeen[w] = true
		for k, v := range shimCountMetrics(outer, inner) {
			c.cycle[k] += v
		}
		c.cycle["wrappers.contained_per_op"] += float64(got.Contained)
		c.cycle["wrappers.retried_per_op"] += float64(got.Retried)
		c.cycle["cmem.chaos_calls_per_op"] += float64(got.Calls)
		c.cycle["cmem.chaos_injected_per_op"] += float64(got.Injected)
		c.cycle["victim.served_ratio"] += float64(got.Served) / soakRequests
	}
	return soakRequests, dur, nil
}

func soakOutput(r proc.Result) string {
	return fmt.Sprintf("%s\n%s\n%s", r, r.Stdout, r.Stderr)
}

func (c *chaosSoak) finish() (map[string]float64, error) {
	if !c.tracing {
		return nil, nil
	}
	if len(c.cycleSeen) < soakWindows {
		return nil, fmt.Errorf("chaos-soak: the traced run covered %d of %d windows", len(c.cycleSeen), soakWindows)
	}
	us, err := timeStarts(c.sys, victim.RootdName, []string{wrappers.ContainmentSoname})
	if err != nil {
		return nil, err
	}
	c.probes.add("proc.start_us", us)
	out, err := c.probes.result()
	if err != nil {
		return nil, err
	}
	for k, v := range c.cycle {
		out[k] = v / soakWindows
	}
	out["wrappers.policy_hit_rate"] = c.cycle["wrappers.contained_per_op"] / c.cycle["cmem.chaos_injected_per_op"]
	return out, nil
}

func (c *chaosSoak) close() {}
