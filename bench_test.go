// Benchmark harness regenerating every figure and demonstration of the
// paper plus the quantitative claims its text makes (see EXPERIMENTS.md
// for the index and the measured results):
//
//	F1 — Fig. 1: wrapper interposition topology (per-wrapper call cost)
//	F2 — Fig. 2: automated fault-injection campaign throughput
//	F3 — Fig. 3: per-micro-generator overhead decomposition
//	F4 — Fig. 4: application-centric scan
//	F5 — Fig. 5: profiled application run
//	D1 — §3.4:  heap-smash attack and its containment
//	T1 — §1 "low overhead" claim: micro and macro overhead per wrapper
//	T2 — robustness hardening: campaign before/after wrapping
//	Ablation — design choices called out in DESIGN.md §5
package healers

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"healers/internal/clib"
	"healers/internal/cmem"
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

// benchSystem builds a system with libc, the victim apps, and all three
// canonical wrappers installed.
func benchSystem(b *testing.B) *simelf.System {
	b.Helper()
	sys := simelf.NewSystem()
	if err := victim.InstallAll(sys); err != nil {
		b.Fatal(err)
	}
	libc, _ := sys.Library(clib.LibcSoname)
	sec, _, err := wrappers.Security(libc, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AddLibrary(sec); err != nil {
		b.Fatal(err)
	}
	prof, _, err := wrappers.Profiling(libc, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AddLibrary(prof); err != nil {
		b.Fatal(err)
	}
	rob, _, err := wrappers.Robustness(libc, wrappers.StrongestAPI(benchProtos(b, libc)), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AddLibrary(rob); err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchProtos(b *testing.B, libc *simelf.Library) []*ctypes.Prototype {
	b.Helper()
	var protos []*ctypes.Prototype
	for _, n := range libc.Symbols() {
		if p := libc.Proto(n); p != nil {
			protos = append(protos, p)
		}
	}
	return protos
}

// callEnv builds a ready environment with a string argument for strlen
// micro benches.
func callEnv(b *testing.B) (*cval.Env, cval.Value) {
	b.Helper()
	env := cval.NewEnv()
	a, f := env.Img.StaticString("the quick brown fox jumps over the lazy dog")
	if f != nil {
		b.Fatal(f)
	}
	return env, cval.Ptr(a)
}

// resolveIn returns the strlen entry of a link map for the stress app
// under the given preloads.
func resolveIn(b *testing.B, sys *simelf.System, preloads ...string) cval.CFunc {
	b.Helper()
	lm, err := dynlink.Load(sys, victim.StressName, preloads)
	if err != nil {
		b.Fatal(err)
	}
	fn, ok := lm.Resolve("strlen")
	if !ok {
		b.Fatal("strlen unresolved")
	}
	return fn
}

// BenchmarkF1_Interposition measures one intercepted strlen call as the
// preload stack of Figure 1 deepens: direct libc, one wrapper, two
// stacked wrappers. The paper's claim: interposition itself is cheap.
func BenchmarkF1_Interposition(b *testing.B) {
	sys := benchSystem(b)
	stacks := []struct {
		name     string
		preloads []string
	}{
		{"direct", nil},
		{"one_wrapper", []string{wrappers.ProfilingSoname}},
		{"two_wrappers", []string{wrappers.SecuritySoname, wrappers.ProfilingSoname}},
	}
	for _, s := range stacks {
		b.Run(s.name, func(b *testing.B) {
			fn := resolveIn(b, sys, s.preloads...)
			env, arg := callEnv(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, f := fn(env, []cval.Value{arg}); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkF2_Campaign measures the Figure 2 pipeline: one complete
// single-function fault-injection campaign (every probe in a fresh
// simulated process) for a representative function.
func BenchmarkF2_Campaign(b *testing.B) {
	for _, fn := range []string{"strcpy", "memcpy", "abs"} {
		b.Run(fn, func(b *testing.B) {
			sys := simelf.NewSystem()
			if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
				b.Fatal(err)
			}
			c, err := inject.New(sys, clib.LibcSoname)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunFunction(fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF2_CampaignParallel measures the whole-library sweep at
// several worker counts — the campaign scaling curve of EXPERIMENTS.md.
// The sweep fans (function × parameter × probe) units across a worker
// pool; on a multi-core runner the -j variants show near-linear speedup,
// while reports stay byte-identical to the one-worker sweep's.
func BenchmarkF2_CampaignParallel(b *testing.B) {
	workers := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, j := range workers {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			sys := simelf.NewSystem()
			if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
				b.Fatal(err)
			}
			c, err := inject.New(sys, clib.LibcSoname, inject.WithWorkers(j))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lr, err := c.RunLibrary()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(lr.TotalProbes), "probes/op")
			}
		})
	}
}

// BenchmarkF2_CampaignIncremental measures the campaign cache: the same
// full-libc sweep cold (empty cache), warm (every function served from
// the cache — the EXPERIMENTS.md headline, required to be ≥10× faster
// than cold), and with exactly one function invalidated (the incremental
// cost of editing one prototype). Warm runs produce byte-identical
// reports to cold ones; the cache tests pin that, this pins the speed.
func BenchmarkF2_CampaignIncremental(b *testing.B) {
	mkCampaign := func(b *testing.B, cache *inject.Cache) *inject.Campaign {
		b.Helper()
		sys := simelf.NewSystem()
		if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
			b.Fatal(err)
		}
		c, err := inject.New(sys, clib.LibcSoname, inject.WithCache(cache))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	fill := func(b *testing.B) (*inject.Cache, *inject.Campaign) {
		b.Helper()
		cache, err := inject.OpenCache("")
		if err != nil {
			b.Fatal(err)
		}
		c := mkCampaign(b, cache)
		if _, err := c.RunLibrary(); err != nil {
			b.Fatal(err)
		}
		return cache, c
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := inject.OpenCache("")
			if err != nil {
				b.Fatal(err)
			}
			c := mkCampaign(b, cache)
			b.StartTimer()
			if _, err := c.RunLibrary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		_, c := fill(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr, err := c.RunLibrary()
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(lr.TotalProbes), "probes_reused/op")
			}
		}
	})
	b.Run("one_invalidated", func(b *testing.B) {
		cache, c := fill(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache.Drop("strcpy")
			b.StartTimer()
			if _, err := c.RunLibrary(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkF3_MicroGenOverhead decomposes wrapper cost per
// micro-generator, the composability claim behind Figure 3: each feature
// costs only its own fragment.
func BenchmarkF3_MicroGenOverhead(b *testing.B) {
	libc := clib.MustRegistry().AsLibrary()
	proto := libc.Proto("strlen")
	base, _ := libc.Lookup("strlen")

	micros := []struct {
		name string
		mk   func() gen.MicroGenerator
	}{
		{"caller_only", nil},
		{"call_counter", gen.MGCallCounter},
		{"exectime", gen.MGExectime},
		{"collect_errors", gen.MGCollectErrors},
		{"func_errors", gen.MGFuncErrors},
		{"heap_check", gen.MGHeapCheck},
		{"bound_check", gen.MGBoundCheck},
	}
	for _, m := range micros {
		b.Run(m.name, func(b *testing.B) {
			parts := []gen.MicroGenerator{gen.MGPrototype()}
			if m.mk != nil {
				parts = append(parts, m.mk())
			}
			parts = append(parts, gen.MGCaller())
			g, err := gen.NewGenerator(parts...)
			if err != nil {
				b.Fatal(err)
			}
			st := gen.NewState("bench")
			next := base
			wrapped := g.Build(proto, &next, st)
			env, arg := callEnv(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, f := wrapped(env, []cval.Value{arg}); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkF4_AppScan measures the application-centric scan of Figure 4.
func BenchmarkF4_AppScan(b *testing.B) {
	tk := newBenchToolkit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tk.ScanApplication(victim.RootdName); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchToolkit builds a toolkit with sample apps for facade benches.
func newBenchToolkit(b *testing.B) *Toolkit {
	b.Helper()
	tk, err := NewToolkit()
	if err != nil {
		b.Fatal(err)
	}
	if err := tk.InstallSampleApps(); err != nil {
		b.Fatal(err)
	}
	return tk
}

// BenchmarkF5_ProfiledWorkload measures a full textutil run under the
// profiling wrapper, XML log included — the Figure 5 pipeline.
func BenchmarkF5_ProfiledWorkload(b *testing.B) {
	tk := newBenchToolkit(b)
	const input = "profile this line\nand this one too\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := tk.RunProfiled(victim.TextutilName, input)
		if err != nil {
			b.Fatal(err)
		}
		if rr.Proc.Crashed() {
			b.Fatal(rr.Proc)
		}
	}
}

// BenchmarkD1_AttackAndContainment measures the §3.4 demo cycle: one
// exploited undefended run plus one contained defended run.
func BenchmarkD1_AttackAndContainment(b *testing.B) {
	sys := benchSystem(b)
	attack := string(victim.ExploitPacket())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := proc.Start(sys, victim.RootdName, proc.WithStdin(attack))
		if err != nil {
			b.Fatal(err)
		}
		if res := p.Run(); res.Crashed() || !p.Env().ShellSpawned {
			b.Fatalf("undefended exploit failed: %v", res)
		}
		p, err = proc.Start(sys, victim.RootdName, proc.WithStdin(attack),
			proc.WithPreloads(wrappers.SecuritySoname))
		if err != nil {
			b.Fatal(err)
		}
		if res := p.Run(); !res.Crashed() || res.Fault.Kind != cmem.FaultOverflow {
			b.Fatalf("defended exploit not contained: %v", res)
		}
	}
}

// BenchmarkT1_MicroOverhead is the paper's "low overhead" claim at call
// granularity: one strlen call through each wrapper type.
func BenchmarkT1_MicroOverhead(b *testing.B) {
	sys := benchSystem(b)
	configs := []struct {
		name     string
		preloads []string
	}{
		{"raw", nil},
		{"robustness", []string{wrappers.RobustnessSoname}},
		{"security", []string{wrappers.SecuritySoname}},
		{"profiling", []string{wrappers.ProfilingSoname}},
		{"all_stacked", []string{wrappers.SecuritySoname, wrappers.RobustnessSoname, wrappers.ProfilingSoname}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			fn := resolveIn(b, sys, cfg.preloads...)
			env, arg := callEnv(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, f := fn(env, []cval.Value{arg}); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkT1_MacroOverhead is the same claim at application granularity:
// a complete stress run (100 iterations of mixed libc traffic) under each
// wrapper configuration.
func BenchmarkT1_MacroOverhead(b *testing.B) {
	sys := benchSystem(b)
	configs := []struct {
		name     string
		preloads []string
	}{
		{"raw", nil},
		{"robustness", []string{wrappers.RobustnessSoname}},
		{"security", []string{wrappers.SecuritySoname}},
		{"profiling", []string{wrappers.ProfilingSoname}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := proc.Start(sys, victim.StressName, proc.WithPreloads(cfg.preloads...))
				if err != nil {
					b.Fatal(err)
				}
				if res := p.Run("100"); res.Crashed() || res.Status != 0 {
					b.Fatalf("stress under %s: %v", cfg.name, res)
				}
			}
		})
	}
}

// BenchmarkT2_HardeningCampaign measures the before/after robustness
// verification on a representative function subset (the full-library
// variant runs in the tests).
func BenchmarkT2_HardeningCampaign(b *testing.B) {
	subset := []string{"strcpy", "strcat", "memcpy", "strlen", "strtol"}
	for i := 0; i < b.N; i++ {
		tk := newBenchToolkit(b)
		api := RobustAPI{}
		before := 0
		for _, fn := range subset {
			fr, err := tk.InjectFunction(Libc, fn)
			if err != nil {
				b.Fatal(err)
			}
			before += fr.Failures
			params := make([]ctypes.RobustParam, len(fr.Verdicts))
			for j, v := range fr.Verdicts {
				params[j] = ctypes.RobustParam{Name: v.Name, Chain: v.Chain, Level: v.Level, LevelName: v.LevelName}
			}
			api[fn] = params
		}
		if _, err := tk.GenerateRobustnessWrapper(Libc, api, nil); err != nil {
			b.Fatal(err)
		}
		after := 0
		for _, fn := range subset {
			fr, err := tk.InjectFunction(Libc, fn, inject.WithPreloads(RobustnessWrapper))
			if err != nil {
				b.Fatal(err)
			}
			after += fr.Failures
		}
		if before == 0 || after != 0 {
			b.Fatalf("hardening shape violated: %d before, %d after", before, after)
		}
		if i == 0 {
			b.ReportMetric(float64(before), "failures_before")
			b.ReportMetric(float64(after), "failures_after")
		}
	}
}

// BenchmarkAblation_ProbeIsolation compares the fresh-process-per-probe
// design against reusing one process for a whole probe sweep: reuse is
// faster but state corruption leaks between probes (DESIGN.md §5).
func BenchmarkAblation_ProbeIsolation(b *testing.B) {
	sys := simelf.NewSystem()
	if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
		b.Fatal(err)
	}
	c, err := inject.New(sys, clib.LibcSoname)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh_process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.RunFunction("strcpy"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused_process", func(b *testing.B) {
		// The unsound variant: all probes in one process image.
		libc, _ := sys.Library(clib.LibcSoname)
		fn, _ := libc.Lookup("strlen")
		for i := 0; i < b.N; i++ {
			env := cval.NewEnv()
			a, _ := env.Img.StaticString("probe")
			for j := 0; j < 12; j++ { // same probe count as strcpy's sweep
				fn(env, []cval.Value{cval.Ptr(a)})
			}
		}
	})
}

// BenchmarkAblation_CanaryPlacement compares checking heap integrity on
// every intercepted call (the shipped security wrapper) against checking
// only on allocation-family calls: the cheap placement detects smashes
// later (DESIGN.md §5).
func BenchmarkAblation_CanaryPlacement(b *testing.B) {
	configs := []struct {
		name  string
		funcs []string // nil = wrap everything
	}{
		{"every_call", nil},
		{"heap_ops_only", []string{"malloc", "free", "realloc", "calloc"}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			sys := simelf.NewSystem()
			if err := victim.InstallAll(sys); err != nil {
				b.Fatal(err)
			}
			libc, _ := sys.Library(clib.LibcSoname)
			sec, _, err := wrappers.Security(libc, cfg.funcs)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.AddLibrary(sec); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := proc.Start(sys, victim.StressName, proc.WithPreloads(wrappers.SecuritySoname))
				if err != nil {
					b.Fatal(err)
				}
				if res := p.Run("50"); res.Crashed() || res.Status != 0 {
					b.Fatalf("stress: %v", res)
				}
			}
		})
	}
}

// BenchmarkAblation_PLTCache compares cached (PLT-bound) symbol
// resolution against walking the search order on every call.
func BenchmarkAblation_PLTCache(b *testing.B) {
	sys := benchSystem(b)
	b.Run("cached", func(b *testing.B) {
		lm, err := dynlink.Load(sys, victim.StressName, []string{wrappers.ProfilingSoname})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := lm.Resolve("strlen"); !ok {
				b.Fatal("unresolved")
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lm, err := dynlink.Load(sys, victim.StressName, []string{wrappers.ProfilingSoname})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := lm.Resolve("strlen"); !ok {
				b.Fatal("unresolved")
			}
		}
	})
}

// benchProfileDoc builds one marshalled profile document for the ingest
// benchmarks — a realistic multi-function log, a few KB of XML.
func benchProfileDoc(b *testing.B) []byte {
	b.Helper()
	st := gen.NewState("libhealers_prof.so")
	for i, fn := range []string{"strlen", "malloc", "free", "memcpy", "strtok", "toupper"} {
		st.Funcs[st.Index(fn)].Calls = uint64(100 + 13*i)
	}
	data, err := xmlrep.Marshal(xmlrep.NewProfileLog("bench-host", "bench-app", st))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// waitIngested blocks until the server has ingested n documents.
func waitIngested(b *testing.B, srv *collect.Server, n uint64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().DocsReceived < n {
		if time.Now().After(deadline) {
			b.Fatalf("server ingested %d docs, want %d", srv.Stats().DocsReceived, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkCollectIngest measures end-to-end upload throughput over
// loopback TCP into a budget-bounded store: one persistent client
// streaming length-prefixed profile documents, the server sniffing,
// parsing, aggregating, and evicting as it goes. Memory stays bounded by
// the 1024-document budget no matter how large b.N grows.
func BenchmarkCollectIngest(b *testing.B) {
	srv, err := collect.Serve("127.0.0.1:0", collect.WithMaxDocs(1024))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := collect.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	doc := benchProfileDoc(b)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendRaw(doc); err != nil {
			b.Fatal(err)
		}
	}
	waitIngested(b, srv, uint64(b.N))
	b.StopTimer()
	if st := srv.Stats(); st.DocsRetained > 1024 {
		b.Fatalf("retention budget violated: %d docs retained", st.DocsRetained)
	}
}

// BenchmarkCollectAggregate compares the streaming aggregate (a map copy,
// maintained at ingest) against the full re-parse of every stored XML
// document it replaced — the poll-loop cost model of healers-collectd and
// the web UI. The acceptance bar is ≥10× in favour of incremental.
func BenchmarkCollectAggregate(b *testing.B) {
	const docs = 512
	srv, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := collect.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	doc := benchProfileDoc(b)
	for i := 0; i < docs; i++ {
		if err := c.SendRaw(doc); err != nil {
			b.Fatal(err)
		}
	}
	waitIngested(b, srv, docs)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg, err := srv.AggregateCalls()
			if err != nil || agg["strlen"] == 0 {
				b.Fatalf("aggregate = %v, %v", agg, err)
			}
		}
	})
	b.Run("reparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg, err := srv.AggregateCallsFull()
			if err != nil || agg["strlen"] == 0 {
				b.Fatalf("aggregate = %v, %v", agg, err)
			}
		}
	})
}

// benchHistProfileDoc builds one marshalled profile document whose every
// function carries a populated log2 latency histogram and errno counts —
// the observability-heavy ingest case for the histogram-merge benchmark.
func benchHistProfileDoc(b *testing.B) []byte {
	b.Helper()
	st := gen.NewState("libhealers_prof.so")
	for i, fn := range []string{"strlen", "malloc", "free", "memcpy", "strtok", "toupper"} {
		idx := st.Index(fn)
		st.Funcs[idx].Calls = uint64(100 + 13*i)
		var sum uint64
		for bkt := 2; bkt < 2+12; bkt++ {
			st.ExecHist[idx][bkt] = uint64(bkt + i)
			sum += uint64(bkt + i)
		}
		// Keep the invariant the capture path guarantees: bucket sum ==
		// timed calls.
		st.Funcs[idx].Calls = sum
		st.Funcs[idx].ExecNS = int64(sum) * 100
		st.FuncErrno[idx][2] = uint64(i) // ENOENT
	}
	data, err := xmlrep.Marshal(xmlrep.NewProfileLog("bench-host", "bench-app", st))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkCollectHistMerge measures the observability layer's ingest
// cost: histogram-carrying profile documents streamed over loopback TCP,
// each merged element-wise into the fleet aggregate at ingest time, with
// a fleet-wide p99 read (one O(buckets) walk over the merged histogram)
// verified at the end. Compare against BenchmarkCollectIngest (documents
// without latency data) for the marginal cost of the histograms.
func BenchmarkCollectHistMerge(b *testing.B) {
	srv, err := collect.Serve("127.0.0.1:0", collect.WithMaxDocs(1024))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := collect.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	doc := benchHistProfileDoc(b)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendRaw(doc); err != nil {
			b.Fatal(err)
		}
	}
	waitIngested(b, srv, uint64(b.N))
	b.StopTimer()
	agg := srv.Aggregate()
	fa := agg.Funcs["strlen"]
	if fa == nil || fa.Hist == nil {
		b.Fatal("aggregate lost the strlen histogram")
	}
	if got := gen.HistTotal(fa.Hist); got != fa.Calls {
		b.Fatalf("merged bucket sum %d != merged calls %d", got, fa.Calls)
	}
	if gen.HistQuantileNS(fa.Hist, 0.99) == 0 {
		b.Fatal("fleet p99 = 0 over a populated histogram")
	}
}

// BenchmarkSubstrate_HeapAllocator pins the heap allocator's own cost so
// wrapper overheads above can be read against it.
func BenchmarkSubstrate_HeapAllocator(b *testing.B) {
	for _, canaries := range []bool{false, true} {
		b.Run(fmt.Sprintf("canaries=%v", canaries), func(b *testing.B) {
			sp := cmem.NewSpace()
			h := cmem.NewHeap(sp, cmem.HeapBase, cmem.HeapLimit)
			h.SetCanaries(canaries)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := h.Malloc(64)
				if p.IsNull() {
					b.Fatal("malloc failed")
				}
				if f := h.Free(p); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkF3_ContainOverhead prices fault containment on the healthy
// path: one strlen call direct, through the containment micro-generator
// (journal + policy check), and through the full watchdog+contain stack
// — the overhead an application pays for crashes it never has.
func BenchmarkF3_ContainOverhead(b *testing.B) {
	libc := clib.MustRegistry().AsLibrary()
	proto := libc.Proto("strlen")
	base, _ := libc.Lookup("strlen")

	variants := []struct {
		name   string
		micros []gen.MicroGenerator
	}{
		{"direct", nil},
		{"contain", []gen.MicroGenerator{gen.MGContain(wrappers.DefaultPolicy())}},
		{"watchdog_contain", []gen.MicroGenerator{gen.MGWatchdog(0), gen.MGContain(wrappers.DefaultPolicy())}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			fn := base
			if v.micros != nil {
				parts := append([]gen.MicroGenerator{gen.MGPrototype()}, v.micros...)
				parts = append(parts, gen.MGCaller())
				g, err := gen.NewGenerator(parts...)
				if err != nil {
					b.Fatal(err)
				}
				next := base
				fn = g.Build(proto, &next, gen.NewState("bench"))
			}
			env, arg := callEnv(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, f := fn(env, []cval.Value{arg}); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkCaptureContention prices the statistics-capture hot path of
// one wrapped call under concurrency: the full counter stack of the
// profiling wrapper (call counter, exectime + latency histogram, global
// and per-function errno collectors) shared by every goroutine through
// one gen.State, each goroutine driving its own simulated process. Run
// with -cpu 1,2 — capture is a handful of lock-free atomic adds into
// the State's shared counters, so goroutines contend only on the cache
// lines of the slots they share; a lock-serialized capture path shows
// up as ns/op climbing steeply with the cpu count. Smoke-run by make
// check.
func BenchmarkCaptureContention(b *testing.B) {
	libc := clib.MustRegistry().AsLibrary()
	proto := libc.Proto("strlen")
	base, _ := libc.Lookup("strlen")
	g, err := gen.NewGenerator(
		gen.MGPrototype(),
		gen.MGExectime(),
		gen.MGCollectErrors(),
		gen.MGFuncErrors(),
		gen.MGCallCounter(),
		gen.MGCaller(),
	)
	if err != nil {
		b.Fatal(err)
	}
	next := base
	st := gen.NewState("bench-contention")
	fn := g.Build(proto, &next, st)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		// One Env per goroutine, like one simulated process per worker.
		env := cval.NewEnv()
		a, f := env.Img.StaticString("the quick brown fox jumps over the lazy dog")
		if f != nil {
			b.Fatal(f)
		}
		arg := []cval.Value{cval.Ptr(a)}
		for pb.Next() {
			if _, f := fn(env, arg); f != nil {
				b.Fatal(f)
			}
		}
	})
	b.StopTimer()
	if total := st.TotalCalls(); total != uint64(b.N) {
		b.Fatalf("TotalCalls = %d, want %d (lost increments)", total, b.N)
	}
	for i := range st.FuncNames() {
		if hist := gen.HistTotal(st.ExecHist[i]); hist != st.Funcs[i].Calls {
			b.Fatalf("bucket sum %d != call count %d", hist, st.Funcs[i].Calls)
		}
	}
}

// BenchmarkChaosSurvival runs the stress workload under chaos mode with
// the containment wrapper preloaded, asserting survival every
// iteration — the recovery layer's end-to-end path, also smoke-run by
// make check.
func BenchmarkChaosSurvival(b *testing.B) {
	tk := newBenchToolkit(b)
	if _, err := tk.GenerateContainmentWrapper(Libc, nil, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := tk.RunChaos(Stress, 0.05, uint64(i)+1, []string{ContainmentWrapper}, "", "30")
		if err != nil {
			b.Fatal(err)
		}
		if cr.Proc.Crashed() {
			// Surface the failing seed's containment ledger: how many
			// faults flew, how many the wrapper absorbed, and whether a
			// breaker trip preceded the death.
			var contained, retried, trips uint64
			if st, ok := tk.WrapperState(ContainmentWrapper); ok {
				contained, retried, trips = st.ContainmentTotals()
			}
			b.Fatalf("wrapped chaos run crashed (seed %d): %s (calls %d, injected %d, contained %d, retried %d, breaker trips %d)",
				i+1, cr.Proc, cr.Calls, cr.Injected, contained, retried, trips)
		}
	}
}

// BenchmarkChaosSoak is the stateful-victim endurance run: the rootd
// daemon in streaming mode serving a fixed request window under
// sustained 5% chaos with the containment wrapper preloaded. Every
// iteration asserts the contained daemon survives the whole window
// while the unprotected daemon (checked once, outside the timed loop)
// dies partway; the reported metrics are the survival fraction, the
// recovery-policy hit rate, and the wrapped-call latency quantiles.
func BenchmarkChaosSoak(b *testing.B) {
	tk := newBenchToolkit(b)
	const requests, rate, seed = 50, 0.05, 7

	bare, err := tk.RunSoak(Rootd, requests, rate, seed, false)
	if err != nil {
		b.Fatal(err)
	}
	if bare.Survived {
		b.Fatalf("unprotected soak survived %d requests under chaos (injected %d)",
			requests, bare.Injected)
	}

	var last *SoakResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soak, err := tk.RunSoak(Rootd, requests, rate, seed+uint64(i), true)
		if err != nil {
			b.Fatal(err)
		}
		if !soak.Survived {
			b.Fatalf("contained soak died (seed %d): %s (served %d/%d, injected %d, contained %d, retried %d, breaker trips %d)",
				seed+uint64(i), soak.Proc, soak.Served, requests,
				soak.Injected, soak.ContainedFaults, soak.Retried, soak.BreakerTrips)
		}
		last = soak
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Served)/float64(last.Requests), "survival")
	b.ReportMetric(last.PolicyHitRate(), "policy-hits")
	b.ReportMetric(float64(last.P50NS), "p50-ns")
	b.ReportMetric(float64(last.P99NS), "p99-ns")
}
