package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"healers/internal/clib"
	"healers/internal/core"
	"healers/internal/inject"
	"healers/internal/simelf"
	"healers/internal/xmlrep"
)

// coldSweep is Fig. 2's robust-API derivation: one full sequential,
// uncached fault-injection campaign over libc per operation. The seed is
// unused: the campaign's probes are fixed by the library's prototypes.
type coldSweep struct {
	tk   *core.Toolkit
	base *xmlrep.RobustAPIDoc

	inner *shim
	// report is the digest of the first sweep's report (the untraced
	// warm-up sweep), which every later sweep, traced or not, must
	// reproduce.
	report []byte
	probes layerProbes
}

func setupColdSweep(_ uint64, traced bool) (bench, error) {
	tk, err := core.NewToolkit()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	base, err := xmlrep.Unmarshal[xmlrep.RobustAPIDoc](data)
	if err != nil {
		return nil, err
	}
	c := &coldSweep{tk: tk, base: base}
	if traced {
		libc, _ := tk.System().Library(clib.LibcSoname)
		c.inner = newShim(innerSoname, libc, true)
		if err := tk.System().AddLibrary(c.inner.lib); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *coldSweep) op(_, _ int, traced bool) (int, time.Duration, error) {
	// Every sweep starts from a collected heap, as a fresh
	// healers-inject process does; the sweep itself runs with the
	// default collector settings.
	runtime.GC()
	var stats *inject.CampaignStats
	opts := []inject.CampaignOption{inject.WithStatsSink(func(s *inject.CampaignStats) { stats = s })}
	if traced {
		opts = append(opts, inject.WithPreloads(innerSoname))
		c.inner.take()
	}
	t0 := time.Now()
	lr, err := c.tk.Inject(clib.LibcSoname, opts...)
	dur := time.Since(t0)
	if err != nil {
		return 0, dur, err
	}
	regs, imps, err := core.CompareToBaseline(lr, c.base)
	if err != nil {
		return 0, dur, err
	}
	if len(regs)+len(imps) > 0 {
		return 0, dur, fmt.Errorf("cold-sweep: %d differences from the baseline", len(regs)+len(imps))
	}
	report, err := reportDigest(lr)
	if err != nil {
		return 0, dur, err
	}
	if c.report == nil {
		c.report = report
	} else if !bytes.Equal(report, c.report) {
		return 0, dur, fmt.Errorf("cold-sweep: the report differs from the first sweep's (traced: %v)", traced)
	}
	if traced {
		c.trace(lr, stats, dur)
	}
	return lr.TotalProbes, dur, nil
}

// reportDigest hashes a sweep's report document (the baseline document
// the regression gate diffs, which carries no timestamp) together with
// every probe's individual result, so two sweeps agree only if every
// probe ended the same way.
func reportDigest(lr *inject.LibReport) ([]byte, error) {
	doc, err := xmlrep.Marshal(core.NewBaselineDoc(clib.LibcSoname, lr))
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(doc)
	for _, fr := range lr.Funcs {
		for _, r := range fr.Results {
			fmt.Fprintf(h, "%s %d %s %d %s %v\n", fr.Name, r.Param, r.Probe, r.SatLevel, r.Outcome, r.Fault)
		}
	}
	return h.Sum(nil), nil
}

// trace records one traced sweep's layer metrics.
func (c *coldSweep) trace(lr *inject.LibReport, stats *inject.CampaignStats, dur time.Duration) {
	in := c.inner.take()
	lp := &c.probes
	probes := float64(lr.TotalProbes)
	lp.count("inject.probes_per_op", probes)
	lp.count("inject.cache_hits", float64(stats.CachedProbes))
	for k, v := range shimCountMetrics(shimCounts{}, in) {
		lp.count(k, v)
	}
	lp.count("cmem.loads_per_probe", float64(in.MemLoads)/probes)
	lp.count("cmem.stores_per_probe", float64(in.MemStores)/probes)
	lp.count("cmem.pages_per_probe", float64(in.Pages)/probes)
	hist := lr.OutcomeHistogram()
	for _, o := range []inject.Outcome{inject.OutcomeCrash, inject.OutcomeHang, inject.OutcomeAbort,
		inject.OutcomeErrno, inject.OutcomeDenied, inject.OutcomeCorrupt, inject.OutcomeOK} {
		name := o.String()
		if o == inject.OutcomeCorrupt {
			name = "corrupt"
		}
		lp.count("inject.outcome."+name, float64(hist[o]))
	}
	recordShimTimes(lp, shimCounts{}, in)
	lp.add("clib.ms_per_probe", float64(in.NS)/1e6/probes)
	lp.add("inject.overhead_ms_per_probe", float64(dur.Nanoseconds()-in.NS)/1e6/probes)
	for _, f := range stats.FuncWall {
		if f.Name == "calloc" {
			lp.add("inject.calloc_share", f.Wall.Seconds()/stats.Elapsed.Seconds())
		}
	}
}

func (c *coldSweep) finish() (map[string]float64, error) {
	if c.inner == nil {
		return nil, nil
	}
	host, err := probeHost(c.tk.System())
	if err != nil {
		return nil, err
	}
	us, err := timeStarts(c.tk.System(), host, nil)
	if err != nil {
		return nil, err
	}
	c.probes.add("proc.start_us", us)
	return c.probes.result()
}

// probeHost returns the name of the executable the campaign runs its
// probes in.
func probeHost(sys *simelf.System) (string, error) {
	for _, name := range sys.Executables() {
		if strings.HasPrefix(name, "healers-probe-host") {
			return name, nil
		}
	}
	return "", fmt.Errorf("cold-sweep: no probe host installed")
}

func (c *coldSweep) close() {}
