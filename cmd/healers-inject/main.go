// Command healers-inject runs the automated fault-injection campaign of
// §2.2 / Figure 2 against a library, prints the robustness table, and can
// emit the derived robust API as XML or verify the hardening by re-running
// the campaign with the generated robustness wrapper preloaded.
//
// Usage:
//
//	healers-inject                      # campaign against libc.so.6
//	healers-inject -func strcpy         # probe a single function
//	healers-inject -xml                 # emit the robust-API XML file
//	healers-inject -verify              # before/after hardening table
//	healers-inject -j 4 -stats          # parallel campaign + throughput
//	healers-inject -cache FILE          # reuse cached per-function outcomes
//	healers-inject -checkpoint FILE     # flush results after every function
//	healers-inject -verify-baseline F   # CI gate: diff against baseline F
//	healers-inject -coordinator H:P     # serve the sweep to worker processes
//	healers-inject -worker H:P          # process shard leases from a coordinator
//	healers-inject -registry H:P        # share the campaign cache fleet-wide
//	healers-inject -sequence textutil   # temporal fault-sequence campaign
//
// Sequence campaigns: `-sequence APP` replays a deterministic victim
// scenario and injects fault combinations across consecutive library
// calls (pairwise over fault-class × call-position), classifying every
// run against a golden replay on both the errno axis and the cmem
// journal-diff state digest — runs that exit successfully with diverged
// committed state are classified silent-corruption. `-seq-positions`
// sizes the position sample, `-seq-report` writes the checksummed XML
// report, and `-seq-upload` ships it to a healers-collectd, where it
// feeds the healers_outcome_total metric family.
//
// Distributed campaigns: `-coordinator host:port` plans the sweep, shards
// it into `-shards` work units, and leases shards to every `-worker`
// process that connects; the merged report (and `-xml` output) is
// byte-identical to a single-process run. Workers exit on their own once
// the coordinator reports the sweep complete.
//
// Shared cache registry: `-registry host:port` points at a
// `healers-collectd -registry DIR` instance. Before probing, the sweep
// batch-fetches every locally missing function from the registry and
// probes only genuine misses; fresh derivations are pushed back so the
// next runner anywhere inherits them. An unreachable registry degrades
// the run to local-only operation with a counted warning — it never
// fails the sweep.
//
// Exit status: 0 on success, 1 on a campaign or I/O error, 2 on a usage
// error, 3 when -verify-baseline found a robustness regression.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"healers"
	"healers/internal/collect"
	"healers/internal/inject"
	"healers/internal/webui"
	"healers/internal/xmlrep"
)

// errRegression marks a -verify-baseline failure; main maps it to exit
// status 3 so CI can distinguish "robustness regressed" from "the tool
// broke".
var errRegression = errors.New("robustness regression detected")

func main() {
	var o options
	flag.StringVar(&o.lib, "lib", healers.Libc, "library to probe")
	flag.StringVar(&o.fn, "func", "", "probe only this function")
	flag.BoolVar(&o.asXML, "xml", false, "emit the derived robust API as XML")
	flag.BoolVar(&o.verify, "verify", false, "re-run the campaign with the robustness wrapper preloaded")
	flag.BoolVar(&o.pairwise, "pairwise", false, "with -func: also run the pairwise (two-parameter) sweep")
	flag.IntVar(&o.jobs, "j", 1, "parallel probe workers (0 = one per CPU)")
	flag.BoolVar(&o.stats, "stats", false, "print campaign throughput statistics to stderr")
	flag.BoolVar(&o.progress, "progress", false, "print per-function campaign progress to stderr")
	flag.StringVar(&o.cacheFile, "cache", "", "campaign cache file: reuse stored per-function outcomes, store fresh ones")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file: like -cache but flushed after every completed function")
	flag.StringVar(&o.verifyBaseline, "verify-baseline", "", "diff the derivation against this robust-API baseline file; exit 3 on regression")
	flag.StringVar(&o.writeBaseline, "write-baseline", "", "write the derivation as a robustness baseline file and exit")
	flag.StringVar(&o.coordinator, "coordinator", "", "serve a distributed campaign to workers on this host:port")
	flag.StringVar(&o.worker, "worker", "", "join the distributed-campaign coordinator at this host:port")
	flag.StringVar(&o.registry, "registry", "", "shared campaign-cache registry at this host:port: fetch known results before probing, push fresh ones back")
	flag.IntVar(&o.shards, "shards", 0, "work units a -coordinator sweep is sharded into (0 = default)")
	flag.StringVar(&o.metricsAddr, "metrics", "", "with -coordinator: serve Prometheus /metrics on this host:port")
	flag.StringVar(&o.sequence, "sequence", "", "run a temporal fault-sequence campaign against this sample application (textutil or stress)")
	flag.IntVar(&o.seqPositions, "seq-positions", 0, "call positions the sequence planner samples (0 = default)")
	flag.StringVar(&o.seqReport, "seq-report", "", "with -sequence: write the checksummed sequence-report XML to this file")
	flag.StringVar(&o.seqUpload, "seq-upload", "", "with -sequence: upload the sequence report to the healers-collectd at this host:port")
	flag.Parse()

	if o.pairwise && o.fn == "" {
		fmt.Fprintln(os.Stderr, "healers-inject: -pairwise requires -func")
		os.Exit(2)
	}
	if o.coordinator != "" && o.worker != "" {
		fmt.Fprintln(os.Stderr, "healers-inject: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	}
	if (o.coordinator != "" || o.worker != "") &&
		(o.fn != "" || o.verify || o.verifyBaseline != "" || o.writeBaseline != "") {
		fmt.Fprintln(os.Stderr, "healers-inject: distributed mode only runs whole-library sweeps (no -func, -verify, or baseline flags)")
		os.Exit(2)
	}
	if o.metricsAddr != "" && o.coordinator == "" {
		fmt.Fprintln(os.Stderr, "healers-inject: -metrics requires -coordinator")
		os.Exit(2)
	}
	if (o.seqPositions != 0 || o.seqReport != "" || o.seqUpload != "") && o.sequence == "" {
		fmt.Fprintln(os.Stderr, "healers-inject: -seq-positions, -seq-report, and -seq-upload require -sequence")
		os.Exit(2)
	}
	if o.sequence != "" && (o.coordinator != "" || o.worker != "" || o.fn != "" || o.verify) {
		fmt.Fprintln(os.Stderr, "healers-inject: -sequence runs standalone (no -func, -verify, or distributed flags)")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "healers-inject:", err)
		if errors.Is(err, errRegression) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// options bundles the command's flags.
type options struct {
	lib, fn        string
	asXML          bool
	verify         bool
	pairwise       bool
	jobs           int
	stats          bool
	progress       bool
	cacheFile      string
	checkpoint     string
	verifyBaseline string
	writeBaseline  string
	coordinator    string
	worker         string
	registry       string
	shards         int
	metricsAddr    string
	sequence       string
	seqPositions   int
	seqReport      string
	seqUpload      string
}

// campaignOpts translates the flags into campaign options. Collected
// stats land in *sink (one entry per library sweep — two for -verify).
func (o options) campaignOpts(sink *[]*inject.CampaignStats, cache *inject.Cache, rc *inject.RegistryCache) []inject.CampaignOption {
	opts := []inject.CampaignOption{inject.WithWorkers(o.jobs)}
	if cache != nil {
		opts = append(opts, inject.WithCache(cache))
	}
	if rc != nil {
		opts = append(opts, inject.WithRegistry(rc))
	}
	if o.progress {
		opts = append(opts, inject.WithProgress(func(p inject.Progress) {
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-20s %3d probes (%d/%d total)\n",
				p.DoneFuncs, p.TotalFuncs, p.Func, p.FuncProbes, p.DoneProbes, p.TotalProbes)
		}))
	}
	if o.stats {
		opts = append(opts, inject.WithStatsSink(func(s *inject.CampaignStats) {
			*sink = append(*sink, s)
		}))
	}
	return opts
}

// openCaches opens the campaign cache and/or checkpoint file. The first
// return is the active cache the campaign runs with; the second is the
// persistent -cache store when it is distinct from the active one (both
// flags given), so finished results flow back into it.
func openCaches(o options) (active, persist *inject.Cache, err error) {
	if o.cacheFile == "" && o.checkpoint == "" {
		return nil, nil, nil
	}
	open := func(path string) (*inject.Cache, error) {
		c, err := inject.OpenCache(path)
		if err != nil {
			return nil, err
		}
		if reason := c.DiscardReason(); reason != "" {
			fmt.Fprintf(os.Stderr, "healers-inject: discarding %s: %s\n", path, reason)
		}
		return c, nil
	}
	if o.cacheFile != "" {
		if persist, err = open(o.cacheFile); err != nil {
			return nil, nil, err
		}
	}
	if o.checkpoint == "" {
		return persist, nil, nil
	}
	if active, err = open(o.checkpoint); err != nil {
		return nil, nil, err
	}
	// Warm-start the checkpoint from the persistent cache, and flush it
	// after every completed function so an interrupted run resumes.
	active.MergeFrom(persist)
	active.SetAutoFlush(1)
	return active, persist, nil
}

func printStats(stats []*inject.CampaignStats) {
	labels := []string{"", ""}
	if len(stats) == 2 {
		labels = []string{"before hardening: ", "after hardening: "}
	}
	for i, s := range stats {
		fmt.Fprint(os.Stderr, labels[i%len(labels)], healers.RenderCampaignStats(s))
	}
}

func run(o options) error {
	tk, err := healers.NewToolkit()
	if err != nil {
		return err
	}
	var stats []*inject.CampaignStats
	cache, persist, err := openCaches(o)
	if err != nil {
		return err
	}
	var rc *inject.RegistryCache
	if o.registry != "" {
		rc = inject.NewRegistryCache(o.registry)
	}
	copts := o.campaignOpts(&stats, cache, rc)
	defer func() { printStats(stats) }()

	var runErr error
	switch {
	case o.worker != "":
		runErr = runWorker(o, tk, cache, rc)
	case o.coordinator != "":
		runErr = runCoordinator(o, tk, copts)
	default:
		runErr = dispatch(o, tk, copts)
	}

	// Drain queued registry pushes before exiting, then report what the
	// shared cache contributed. The registry is an accelerator, never a
	// dependency, so even a failing Close stays a warning. The smoke
	// scripts parse the summary line.
	if rc != nil {
		if cerr := rc.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "healers-inject: registry close:", cerr)
		}
		registrySummary(o.registry, rc.Stats())
	}

	// Persist what the campaign learned, even after a regression — the
	// cache is valid either way. A save failure surfaces unless the run
	// itself already failed harder.
	if cache != nil {
		if serr := cache.Save(); serr != nil && runErr == nil {
			runErr = serr
		}
		if persist != nil {
			persist.MergeFrom(cache)
			if serr := persist.Save(); serr != nil && runErr == nil {
				runErr = serr
			}
		}
	}
	return runErr
}

// registrySummary reports the shared-cache layer's contribution on
// stderr; scripts/smoke-registry.sh greps it to assert a warm run was
// served entirely from the registry.
func registrySummary(addr string, st inject.RegistryCacheStats) {
	fmt.Fprintf(os.Stderr, "healers-inject: registry %s: %d hit(s), %d miss(es), %d corrupt, %d pushed, %d dropped\n",
		addr, st.RemoteHits, st.RemoteMisses, st.Corrupt, st.PutFuncs, st.PutDropped)
	if st.Degraded {
		fmt.Fprintf(os.Stderr, "healers-inject: WARNING: registry %s unreachable (%d transport error(s)); sweep degraded to local-only cache\n",
			addr, st.Errors)
	}
}

// runCoordinator serves the sweep to worker processes, waits for the
// merged report, and renders it through the same paths as a local run.
func runCoordinator(o options, tk *healers.Toolkit, copts []inject.CampaignOption) error {
	co, err := tk.InjectCoordinator(o.lib, o.shards, copts)
	if err != nil {
		return err
	}
	if err := co.Serve(o.coordinator); err != nil {
		return err
	}
	defer co.Close()
	// The smoke scripts and operators parse this line for the bound
	// address (useful with an ephemeral ":0" port).
	fmt.Fprintf(os.Stderr, "healers-inject: coordinator listening on %s\n", co.Addr())
	if o.metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.metricsAddr, webui.MetricsHandlerFor(webui.MetricsSources{Coordinator: co})); err != nil {
				fmt.Fprintln(os.Stderr, "healers-inject: metrics server:", err)
			}
		}()
	}
	lr, _, err := co.Wait()
	if err != nil {
		return err
	}
	// Keep answering polls until every worker has been told the sweep is
	// over, so they exit cleanly instead of erroring on a dead port.
	co.Drain(2 * time.Second)
	if o.asXML {
		data, err := xmlrep.Marshal(xmlrep.NewRobustAPIDoc(o.lib, lr.RobustAPI()))
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(data); err != nil {
			return fmt.Errorf("writing robust-API XML: %w", err)
		}
		return nil
	}
	fmt.Print(healers.RenderCampaign(lr))
	return nil
}

// runWorker joins a coordinator and processes shard leases until the
// sweep completes. The active cache (-cache / -checkpoint) doubles as
// the worker's local cache; results it holds are reported without
// re-probing.
func runWorker(o options, tk *healers.Toolkit, cache *inject.Cache, rc *inject.RegistryCache) error {
	var wopts []inject.WorkerOption
	if cache != nil {
		wopts = append(wopts, inject.WithWorkerCache(cache))
	}
	if rc != nil {
		wopts = append(wopts, inject.WithWorkerRegistry(rc))
	}
	sum, err := tk.RunInjectWorker(o.worker, wopts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "healers-inject: worker %s done: %d lease(s), %d function(s) (%d cached, %d duplicate), %d probes\n",
		sum.Worker, sum.Leases, sum.Funcs, sum.Cached, sum.Duplicates, sum.Probes)
	return nil
}

// sequenceScenario maps a sample-application name to its canonical
// deterministic workload.
func sequenceScenario(app string) (healers.SequenceScenario, error) {
	switch app {
	case healers.Textutil:
		return healers.SequenceScenario{
			Name:  "textutil-words",
			App:   app,
			Stdin: "delta alpha charlie bravo\n",
		}, nil
	case healers.Stress:
		return healers.SequenceScenario{
			Name: "stress-mixed",
			App:  app,
			Argv: []string{"10"},
		}, nil
	}
	return healers.SequenceScenario{}, fmt.Errorf("no sequence scenario for %q (have %s and %s)",
		app, healers.Textutil, healers.Stress)
}

// runSequence runs the temporal fault-sequence campaign: a scripted
// victim scenario replayed under every planned fault combination, each
// run classified against the golden replay on both the errno axis and
// the journal-diff state digest.
func runSequence(o options, tk *healers.Toolkit) error {
	if err := tk.InstallSampleApps(); err != nil {
		return err
	}
	scenario, err := sequenceScenario(o.sequence)
	if err != nil {
		return err
	}
	var sopts []inject.SequenceOption
	if o.seqPositions > 0 {
		sopts = append(sopts, inject.WithPositions(o.seqPositions))
	}
	report, err := tk.RunSequenceCampaign(scenario, sopts...)
	if err != nil {
		return err
	}

	fmt.Printf("sequence campaign %s (%s): %d golden calls, %d runs, %d failures\n",
		report.Scenario, report.App, report.Calls, report.Probes, report.Failures)
	counts := map[string]int{}
	for _, run := range report.Runs {
		counts[run.Outcome.String()]++
	}
	outcomes := make([]string, 0, len(counts))
	for out := range counts {
		outcomes = append(outcomes, out)
	}
	sort.Strings(outcomes)
	for _, out := range outcomes {
		fmt.Printf("  %-18s %4d\n", out, counts[out])
	}
	if funcs := report.SilentCorruptions(); len(funcs) > 0 {
		fmt.Printf("silent-corruption sites: %s\n", strings.Join(funcs, ", "))
	}

	doc := report.ToXML()
	if o.seqReport != "" {
		data, err := xmlrep.Marshal(doc)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.seqReport, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote sequence report to %s\n", o.seqReport)
	}
	if o.seqUpload != "" {
		if err := collect.Upload(o.seqUpload, doc); err != nil {
			return fmt.Errorf("uploading sequence report: %w", err)
		}
		fmt.Printf("uploaded sequence report to %s\n", o.seqUpload)
	}
	return nil
}

// dispatch executes the mode the flags selected.
func dispatch(o options, tk *healers.Toolkit, copts []inject.CampaignOption) error {
	if o.sequence != "" {
		return runSequence(o, tk)
	}

	if o.fn != "" {
		fr, err := tk.InjectFunction(o.lib, o.fn)
		if err != nil {
			return err
		}
		if o.pairwise {
			cmp, err := tk.CompareInjectionModes(o.lib, o.fn)
			if err != nil {
				return err
			}
			fmt.Printf("%s: single-fault %d probes / %d failures; pairwise %d probes / %d failures\n",
				o.fn, cmp.SingleProbes, cmp.SingleFailures, cmp.PairProbes, cmp.PairFailures)
		}
		fmt.Printf("%s: %d probes, %d failures\n", fr.Proto, fr.Probes, fr.Failures)
		for _, r := range fr.Results {
			status := r.Outcome.String()
			if r.Fault != nil {
				status += " (" + r.Fault.Error() + ")"
			}
			fmt.Printf("  param %d probe %-14s sat-level %d -> %s\n", r.Param, r.Probe, r.SatLevel, status)
		}
		fmt.Printf("derived robust types: %s\n", strings.Join(fr.RobustLevelNames(), ", "))
		if fr.NeedsContainment {
			fmt.Println("NOTE: argument checks alone cannot contain this function; the")
			fmt.Println("robustness wrapper installs a bounded substitution or the security")
			fmt.Println("wrapper's canaries are required.")
		}
		return nil
	}

	if o.verify {
		h, _, err := tk.VerifyHardening(o.lib, copts...)
		if err != nil {
			return err
		}
		fmt.Print(healers.RenderHardening(h))
		return nil
	}

	if o.verifyBaseline != "" {
		return verifyBaseline(o, tk, copts)
	}

	if o.writeBaseline != "" {
		lr, err := tk.Inject(o.lib, copts...)
		if err != nil {
			return err
		}
		data, err := xmlrep.Marshal(healers.NewBaselineDoc(o.lib, lr))
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.writeBaseline, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote robustness baseline for %s (%d functions) to %s\n",
			o.lib, len(lr.Funcs), o.writeBaseline)
		return nil
	}

	api, report, err := tk.DeriveRobustAPI(o.lib, copts...)
	if err != nil {
		return err
	}
	if o.asXML {
		data, err := xmlrep.Marshal(xmlrep.NewRobustAPIDoc(o.lib, api))
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(data); err != nil {
			return fmt.Errorf("writing robust-API XML: %w", err)
		}
		return nil
	}
	fmt.Print(healers.RenderCampaign(report))
	return nil
}

// verifyBaseline is the CI gate: derive fresh, diff against the baseline
// file, fail on regressions.
func verifyBaseline(o options, tk *healers.Toolkit, copts []inject.CampaignOption) error {
	data, err := os.ReadFile(o.verifyBaseline)
	if err != nil {
		return err
	}
	regressions, improvements, err := tk.VerifyBaseline(o.lib, data, copts...)
	if err != nil {
		return err
	}
	for _, d := range improvements {
		fmt.Printf("improved: %s\n", d)
	}
	if len(regressions) > 0 {
		for _, d := range regressions {
			fmt.Printf("REGRESSION: %s\n", d)
		}
		return fmt.Errorf("%w: %d regression(s) against %s", errRegression, len(regressions), o.verifyBaseline)
	}
	fmt.Printf("robust-API baseline verified: %s matches %s (no regressions)\n", o.lib, o.verifyBaseline)
	return nil
}
