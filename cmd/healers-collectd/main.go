// Command healers-collectd is the central collection server of §2.3:
// wrapped applications upload their self-describing XML documents over
// TCP; the server stores them (under a bounded retention budget) and
// prints a summary of everything it has received.
//
// It is also the fleet's policy control plane: containment processes
// poll it for recovery-policy documents (healers-policy-request frames)
// and hot-reload whatever newer revision it serves, and operators push
// stamped policy documents at it with -push-policy. With -derive the
// collector closes the loop itself: it folds the fleet's per-(function,
// failure-class) containment counters into escalation decisions,
// publishes each tightened policy as a new revision, and — when a
// campaign cache is at hand — re-probes escalated functions through the
// ordinary cache-aware injection engine.
//
// Usage:
//
//	healers-collectd -addr 127.0.0.1:7099            # run until interrupted
//	healers-collectd -addr 127.0.0.1:0 -max 3        # exit after 3 documents
//	healers-collectd -stats -max-docs 4096           # print ingest counters on exit
//	healers-collectd -metrics 127.0.0.1:9099         # Prometheus /metrics endpoint
//	healers-collectd -policy recovery.xml -derive    # closed-loop adaptive hardening
//	healers-collectd -push-policy recovery.xml -addr HOST:7099   # operator push
//	healers-collectd -registry DIR                   # shared campaign-cache registry
//
// With -registry the collector also serves a content-addressed campaign
// cache on the same port: `healers-inject -registry HOST:PORT` runners
// fetch per-function results other runners already derived and push
// fresh ones back. The store is bounded by -registry-max-docs and
// -registry-max-bytes (oldest entries evicted first) and persists in
// DIR across restarts.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"time"

	"healers/internal/collect"
	"healers/internal/core"
	"healers/internal/inject"
	"healers/internal/webui"
	"healers/internal/xmlrep"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7099", "listen address")
	maxDocs := flag.Int("max", 0, "exit after receiving this many documents (0 = run until interrupted)")
	stats := flag.Bool("stats", false, "print the ingest counters in the exit summary")
	capDocs := flag.Int("max-docs", collect.DefaultMaxDocs, "retention budget: documents kept before oldest are evicted (0 = unbounded)")
	capBytes := flag.Int64("max-bytes", collect.DefaultMaxBytes, "retention budget: raw XML bytes kept before oldest are evicted (0 = unbounded)")
	maxConns := flag.Int("max-conns", collect.DefaultMaxConns, "concurrent upload connection cap (0 = unbounded)")
	metricsAddr := flag.String("metrics", "", "serve the Prometheus /metrics endpoint on this HTTP address (empty = disabled)")
	policyFile := flag.String("policy", "", "stamped recovery-policy document to serve; -derive writes escalated revisions back to it")
	pushPolicy := flag.String("push-policy", "", "client mode: push this stamped policy document to -addr and exit")
	derive := flag.Bool("derive", false, "adaptive re-derivation: escalate recovery rules from fleet containment counters")
	deriveRate := flag.Float64("derive-rate", core.DefaultEscalationRate, "containment rate per (function, class) that triggers escalation")
	deriveMinCalls := flag.Uint64("derive-min-calls", core.DefaultEscalationMinCalls, "evidence floor: functions with fewer calls are never escalated")
	deriveEvery := flag.Duration("derive-every", 2*time.Second, "how often the -derive pass re-evaluates the fleet aggregate")
	reprobeLib := flag.String("reprobe", "", "with -derive: re-probe escalated functions of this library via the campaign cache")
	cachePath := flag.String("cache", "", "campaign cache file for -reprobe")
	registryDir := flag.String("registry", "", "serve a shared campaign-cache registry persisted in this directory (empty = disabled)")
	registryMaxDocs := flag.Int("registry-max-docs", collect.DefaultMaxDocs, "registry budget: entries kept before oldest are evicted (0 = unbounded)")
	registryMaxBytes := flag.Int64("registry-max-bytes", collect.DefaultMaxBytes, "registry budget: stored XML bytes kept before oldest are evicted (0 = unbounded)")
	flag.Parse()

	if *pushPolicy != "" {
		if err := runPush(*addr, *pushPolicy); err != nil {
			fmt.Fprintln(os.Stderr, "healers-collectd:", err)
			os.Exit(1)
		}
		return
	}
	cfg := serveConfig{
		addr: *addr, maxDocs: *maxDocs, showStats: *stats,
		capDocs: *capDocs, capBytes: *capBytes, maxConns: *maxConns,
		metricsAddr: *metricsAddr, policyFile: *policyFile,
		derive: *derive, deriveEvery: *deriveEvery,
		escalation: core.EscalationConfig{FaultRate: *deriveRate, MinCalls: *deriveMinCalls},
		reprobeLib: *reprobeLib, cachePath: *cachePath,
		registryDir: *registryDir, registryMaxDocs: *registryMaxDocs, registryMaxBytes: *registryMaxBytes,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "healers-collectd:", err)
		os.Exit(1)
	}
}

// runPush is the operator's one-shot policy push: send the stamped
// document to a running collector and report its ack.
func runPush(addr, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
	if err != nil {
		return err
	}
	ack, err := collect.PushPolicy(addr, doc)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("policy push refused (serving revision %d): %s", ack.Revision, ack.Reason)
	}
	fmt.Printf("policy revision %d accepted by %s\n", ack.Revision, addr)
	return nil
}

// serveConfig carries the daemon's parsed flags.
type serveConfig struct {
	addr        string
	maxDocs     int
	showStats   bool
	capDocs     int
	capBytes    int64
	maxConns    int
	metricsAddr string
	policyFile  string
	derive      bool
	deriveEvery time.Duration
	escalation  core.EscalationConfig
	reprobeLib  string
	cachePath   string

	registryDir      string
	registryMaxDocs  int
	registryMaxBytes int64
}

func run(cfg serveConfig) error {
	if cfg.deriveEvery <= 0 {
		cfg.deriveEvery = 2 * time.Second
	}
	cp := collect.NewControlPlane()
	if cfg.policyFile != "" {
		data, err := os.ReadFile(cfg.policyFile)
		if err != nil {
			return err
		}
		doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
		if err != nil {
			return err
		}
		if err := cp.SetPolicy(doc); err != nil {
			return err
		}
		fmt.Printf("serving policy revision %d from %s\n", doc.Revision, cfg.policyFile)
	}

	// The campaign-cache registry shares the port with ingest and the
	// control plane: its table answers registry frames, the control
	// plane's answers policy frames, and every other kind falls through
	// to the document store.
	var reg *collect.Registry
	if cfg.registryDir != "" {
		r, err := collect.NewRegistry(cfg.registryDir,
			collect.WithRegistryMaxDocs(cfg.registryMaxDocs),
			collect.WithRegistryMaxBytes(cfg.registryMaxBytes))
		if err != nil {
			return err
		}
		reg = r
	}

	sopts := []collect.Option{
		collect.WithMaxDocs(cfg.capDocs),
		collect.WithMaxBytes(cfg.capBytes),
		collect.WithMaxConns(cfg.maxConns),
		collect.WithHandler(cp.Handler()),
	}
	if reg != nil {
		sopts = append(sopts, collect.WithHandler(reg.Handler()))
	}
	srv, err := collect.Serve(cfg.addr, sopts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("healers-collectd listening on %s\n", srv.Addr())
	if reg != nil {
		st := reg.Stats()
		fmt.Printf("campaign-cache registry in %s (%d entries, %d bytes)\n", cfg.registryDir, st.Entries, st.Bytes)
	}

	if cfg.metricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", webui.MetricsHandlerFor(webui.MetricsSources{Collector: srv, Control: cp, Registry: reg}))
		hsrv := &http.Server{Handler: mux}
		defer hsrv.Close()
		go func() {
			// Serve returns ErrServerClosed on Close; nothing to do.
			_ = hsrv.Serve(ln)
		}()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}

	var deriver *deriveLoop
	if cfg.derive {
		deriver, err = newDeriveLoop(cp, cfg)
		if err != nil {
			return err
		}
	}

	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt)

	// Drain incrementally by sequence cursor: each tick copies only the
	// documents that arrived since the last one, not the whole store.
	var cursor uint64
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	deriveTick := time.NewTicker(cfg.deriveEvery)
	defer deriveTick.Stop()
	for {
		select {
		case <-interrupted:
			fmt.Println("\ninterrupted")
			return summarize(os.Stdout, srv, reg, cfg.showStats)
		case <-deriveTick.C:
			if deriver != nil {
				deriver.step(srv)
			}
		case <-ticker.C:
			cursor = report(srv, cursor)
			if cfg.maxDocs > 0 && srv.Stats().DocsReceived >= uint64(cfg.maxDocs) {
				// Drain once more so documents that arrived inside
				// this tick are reported before the summary.
				report(srv, cursor)
				if deriver != nil {
					// One final pass so a short -max run still derives
					// from everything it received.
					deriver.step(srv)
				}
				return summarize(os.Stdout, srv, reg, cfg.showStats)
			}
		}
	}
}

// deriveLoop is the adaptive-derivation state: the control plane to
// publish to, the escalation parameters, and the optional re-probe
// toolchain (toolkit + campaign cache).
type deriveLoop struct {
	cp         *collect.ControlPlane
	cfg        core.EscalationConfig
	policyFile string
	reprobeLib string
	tk         *core.Toolkit
	cache      *inject.Cache
}

func newDeriveLoop(cp *collect.ControlPlane, cfg serveConfig) (*deriveLoop, error) {
	d := &deriveLoop{cp: cp, cfg: cfg.escalation, policyFile: cfg.policyFile, reprobeLib: cfg.reprobeLib}
	if cfg.reprobeLib != "" {
		tk, err := core.NewToolkit()
		if err != nil {
			return nil, err
		}
		d.tk = tk
		if cfg.cachePath != "" {
			cache, err := inject.OpenCache(cfg.cachePath)
			if err != nil {
				return nil, err
			}
			if reason := cache.DiscardReason(); reason != "" {
				fmt.Printf("WARNING: campaign cache discarded: %s\n", reason)
			}
			d.cache = cache
		}
	}
	fmt.Printf("adaptive derivation armed: rate >= %g over >= %d calls escalates\n",
		d.cfg.FaultRate, d.cfg.MinCalls)
	return d, nil
}

// step runs one derivation pass: evaluate the aggregate, publish a
// tightened revision when anything crossed the threshold, and re-probe
// the escalated functions when a toolchain is configured.
func (d *deriveLoop) step(srv *collect.Server) {
	cur, _ := d.cp.Policy()
	doc, escalations := core.EscalatePolicy(srv.Aggregate(), cur, d.cfg)
	if doc == nil {
		return
	}
	if err := d.cp.SetPolicy(doc); err != nil {
		// Lost a race with a concurrent operator push of a higher
		// revision; the next tick re-evaluates against it.
		fmt.Printf("derive: revision %d not published: %v\n", doc.Revision, err)
		return
	}
	d.cp.NoteEscalations(len(escalations))
	for _, e := range escalations {
		fmt.Printf("derive: escalated %s/%s: %s -> %s (%d/%d calls contained, rate %.1f%%)\n",
			e.Func, e.Class, e.From, e.To, e.Contained, e.Calls, 100*e.Rate)
	}
	fmt.Printf("derive: published policy revision %d (%d rules)\n", doc.Revision, len(doc.Rules))
	if d.policyFile != "" {
		// Replaced atomically, so the file-watching subscribers never
		// read a torn policy file.
		data, err := xmlrep.Marshal(doc)
		if err == nil {
			err = xmlrep.WriteFileAtomic(d.policyFile, data, 0o644)
		}
		if err != nil {
			fmt.Printf("derive: writing %s: %v\n", d.policyFile, err)
		}
	}
	if d.tk != nil {
		d.reprobe(escalations)
	}
}

// reprobe re-derives each escalated function's robust type through the
// cache-aware engine and persists the refreshed cache.
func (d *deriveLoop) reprobe(escalations []core.Escalation) {
	seen := map[string]bool{}
	for _, e := range escalations {
		if seen[e.Func] {
			continue
		}
		seen[e.Func] = true
		fr, err := d.tk.ReprobeFunction(d.reprobeLib, e.Func, d.cache)
		if err != nil {
			fmt.Printf("derive: re-probe %s: %v\n", e.Func, err)
			continue
		}
		fmt.Printf("derive: re-probed %s: %d probes, %d failures, needs_containment=%v\n",
			e.Func, fr.Probes, fr.Failures, fr.NeedsContainment)
	}
	if d.cache != nil {
		if err := d.cache.Save(); err != nil {
			fmt.Printf("derive: saving cache: %v\n", err)
		}
	}
}

// report prints documents received since cursor and returns the new one.
// Documents evicted before the poll could see them are reported as an
// explicit gap instead of silently skipped.
func report(srv *collect.Server, cursor uint64) uint64 {
	docs, next, evicted := srv.DocsSince(cursor)
	if evicted > 0 {
		fmt.Printf("WARNING: %d document(s) evicted before this poll (retention budget too small for the poll interval)\n", evicted)
	}
	for _, d := range docs {
		fmt.Printf("received %-14s from %-21s (%d bytes)\n", d.Kind, d.From, len(d.Data))
	}
	return next
}

// summarize writes the exit summary to w: call counts per function and
// document counts per kind in name order, then the registry counters.
func summarize(w io.Writer, srv *collect.Server, reg *collect.Registry, showStats bool) error {
	agg, err := srv.AggregateCalls()
	if err != nil {
		return err
	}
	if len(agg) == 0 {
		fmt.Fprintln(w, "no profiles received")
	} else {
		fmt.Fprintln(w, "\naggregate call counts across all received profiles:")
		for _, fn := range slices.Sorted(maps.Keys(agg)) {
			fmt.Fprintf(w, "  %-14s %d\n", fn, agg[fn])
		}
	}
	if showStats {
		st := srv.Stats()
		fmt.Fprintln(w, "\ningest counters:")
		fmt.Fprintf(w, "  docs received    %d (%d bytes)\n", st.DocsReceived, st.BytesReceived)
		fmt.Fprintf(w, "  docs retained    %d (%d bytes)\n", st.DocsRetained, st.BytesRetained)
		fmt.Fprintf(w, "  docs evicted     %d (%d bytes)\n", st.DocsEvicted, st.BytesEvicted)
		fmt.Fprintf(w, "  frames rejected  %d\n", st.FramesRejected)
		fmt.Fprintf(w, "  docs rejected    %d\n", st.DocsRejected)
		fmt.Fprintf(w, "  conns accepted   %d (rejected %d, active %d)\n", st.ConnsAccepted, st.ConnsRejected, st.ActiveConns)
		kinds := srv.KindCounts()
		for _, kind := range slices.Sorted(maps.Keys(kinds)) {
			fmt.Fprintf(w, "  kind %-12s %d\n", kind, kinds[kind])
		}
	}
	if reg != nil {
		st := reg.Stats()
		fmt.Fprintln(w, "\ncampaign-cache registry:")
		fmt.Fprintf(w, "  entries          %d (%d bytes)\n", st.Entries, st.Bytes)
		fmt.Fprintf(w, "  gets             %d hit(s), %d miss(es)\n", st.Hits, st.Misses)
		fmt.Fprintf(w, "  puts             %d stored, %d already known, %d frame(s) rejected\n", st.Puts, st.Known, st.Rejected)
		fmt.Fprintf(w, "  evicted          %d, corrupt files discarded %d\n", st.Evicted, st.Corrupt)
	}
	return nil
}
