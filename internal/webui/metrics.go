package webui

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"healers/internal/collect"
	"healers/internal/gen"
	"healers/internal/inject"
	"healers/internal/wrappers"
)

// CampaignMetrics accumulates fault-injection campaign throughput for the
// /metrics endpoint. Hand its Sink to inject.WithStatsSink and every
// completed campaign folds its totals in; the latest run's gauges
// (workers, probes/s, utilization) are kept alongside the cumulative
// counters.
type CampaignMetrics struct {
	mu     sync.Mutex
	runs   uint64
	probes uint64
	last   inject.CampaignStats
	seen   bool
}

// Sink returns the callback to pass to inject.WithStatsSink; it may be
// invoked from any goroutine.
func (m *CampaignMetrics) Sink() func(*inject.CampaignStats) {
	return func(st *inject.CampaignStats) {
		if st == nil {
			return
		}
		m.mu.Lock()
		m.runs++
		m.probes += uint64(st.Probes)
		m.last = *st
		m.seen = true
		m.mu.Unlock()
	}
}

// snapshot copies the accumulated state.
func (m *CampaignMetrics) snapshot() (runs, probes uint64, last inject.CampaignStats, seen bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs, m.probes, m.last, m.seen
}

// MetricsSources names everything a /metrics endpoint can render; any
// field may be nil (its families are omitted). Engines maps a label to
// each local policy engine whose hot-reload counters should be
// exported — the closed-loop demo and healers-profile use it to expose
// healers_policy_reloads_total next to the collector's fleet counters.
type MetricsSources struct {
	Collector   *collect.Server
	Campaign    *CampaignMetrics
	Coordinator *inject.Coordinator
	Control     *collect.ControlPlane
	Registry    *collect.Registry
	Engines     map[string]*wrappers.PolicyEngine
}

// MetricsHandlerFor serves the Prometheus text exposition format over
// every non-nil source: fleet profile aggregate, ingest counters,
// campaign throughput, a distributed campaign's lease table and
// per-worker throughput, control-plane policy distribution, and
// policy-engine hot-reload counters. healers-web, healers-collectd and
// healers-inject -metrics all mount it, so one scrape config covers
// every daemon.
func MetricsHandlerFor(src MetricsSources) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		if src.Collector != nil {
			writeProfileMetrics(&b, src.Collector)
			writeIngestMetrics(&b, src.Collector)
		}
		if src.Campaign != nil {
			writeCampaignMetrics(&b, src.Campaign)
		}
		if src.Coordinator != nil {
			writeCoordinatorMetrics(&b, src.Coordinator)
		}
		if src.Control != nil {
			writeControlMetrics(&b, src.Control)
		}
		if src.Registry != nil {
			writeRegistryMetrics(&b, src.Registry)
		}
		if len(src.Engines) > 0 {
			writePolicyEngineMetrics(&b, src.Engines)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
}

// labelEscaper applies the text exposition format's only three label
// escapes; every other byte of a valid UTF-8 value, tabs and
// non-printable runes included, is taken literally by the format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel renders a label value, quotes included. Every label value
// goes through it: Go's %q escapes (\t, \u00ad, doubled backslashes)
// are not valid in the format and fail the whole scrape.
func promLabel(s string) string { return `"` + labelEscaper.Replace(s) + `"` }

// sortedFuncs returns the aggregate's function names in stable order.
func sortedFuncs(agg *collect.FleetAggregate) []string {
	names := make([]string, 0, len(agg.Funcs))
	for fn := range agg.Funcs {
		names = append(names, fn)
	}
	sort.Strings(names)
	return names
}

func writeProfileMetrics(b *strings.Builder, col *collect.Server) {
	agg := col.Aggregate()
	names := sortedFuncs(agg)

	b.WriteString("# HELP healers_calls_total Calls intercepted per wrapped function, fleet-wide.\n")
	b.WriteString("# TYPE healers_calls_total counter\n")
	for _, fn := range names {
		fmt.Fprintf(b, "healers_calls_total{function=%s} %d\n", promLabel(fn), agg.Funcs[fn].Calls)
	}

	b.WriteString("# HELP healers_latency_ns Per-call wall time of wrapped functions, log2-bucketed at capture.\n")
	b.WriteString("# TYPE healers_latency_ns histogram\n")
	for _, fn := range names {
		fa := agg.Funcs[fn]
		if fa.Hist == nil {
			continue
		}
		var cum uint64
		for i, c := range fa.Hist {
			cum += c
			// The cumulative encoding only changes where a sample
			// landed; emit those boundaries and let the final +Inf
			// line cover everything else (including the unbounded
			// last bucket).
			if c == 0 || i == gen.HistBuckets-1 {
				continue
			}
			fmt.Fprintf(b, "healers_latency_ns_bucket{function=%s,le=\"%d\"} %d\n", promLabel(fn), gen.HistUpperNS(i), cum)
		}
		total := gen.HistTotal(fa.Hist)
		fmt.Fprintf(b, "healers_latency_ns_bucket{function=%s,le=\"+Inf\"} %d\n", promLabel(fn), total)
		fmt.Fprintf(b, "healers_latency_ns_sum{function=%s} %d\n", promLabel(fn), fa.ExecNS)
		fmt.Fprintf(b, "healers_latency_ns_count{function=%s} %d\n", promLabel(fn), total)
	}

	b.WriteString("# HELP healers_errno_total Calls that set errno, per function and errno name.\n")
	b.WriteString("# TYPE healers_errno_total counter\n")
	for _, fn := range names {
		fa := agg.Funcs[fn]
		errnos := make([]string, 0, len(fa.Errnos))
		for e := range fa.Errnos {
			errnos = append(errnos, e)
		}
		sort.Strings(errnos)
		for _, e := range errnos {
			fmt.Fprintf(b, "healers_errno_total{function=%s,errno=%s} %d\n", promLabel(fn), promLabel(e), fa.Errnos[e])
		}
	}

	b.WriteString("# HELP healers_check_outcome_total Wrapper check outcomes per function: passed, denied, or substituted.\n")
	b.WriteString("# TYPE healers_check_outcome_total counter\n")
	for _, fn := range names {
		fa := agg.Funcs[fn]
		for _, oc := range []struct {
			name  string
			count uint64
		}{{"passed", fa.Passed}, {"denied", fa.Denied}, {"substituted", fa.Substituted}} {
			if oc.count == 0 {
				continue
			}
			fmt.Fprintf(b, "healers_check_outcome_total{function=%s,outcome=%s} %d\n", promLabel(fn), promLabel(oc.name), oc.count)
		}
	}

	b.WriteString("# HELP healers_containment_total Fault-containment events per function: contained faults, retry attempts, breaker trips.\n")
	b.WriteString("# TYPE healers_containment_total counter\n")
	for _, fn := range names {
		fa := agg.Funcs[fn]
		for _, ev := range []struct {
			name  string
			count uint64
		}{{"contained", fa.Contained}, {"retried", fa.Retried}, {"breaker_trips", fa.BreakerTrips}} {
			if ev.count == 0 {
				continue
			}
			fmt.Fprintf(b, "healers_containment_total{function=%s,event=%s} %d\n", promLabel(fn), promLabel(ev.name), ev.count)
		}
	}

	b.WriteString("# HELP healers_containment_class_total Contained faults per function and failure class.\n")
	b.WriteString("# TYPE healers_containment_class_total counter\n")
	for _, fn := range names {
		fa := agg.Funcs[fn]
		for c, count := range fa.ContainedBy {
			if count == 0 {
				continue
			}
			fmt.Fprintf(b, "healers_containment_class_total{function=%s,class=%s} %d\n",
				promLabel(fn), promLabel(gen.FailureClass(c).String()), count)
		}
	}

	b.WriteString("# HELP healers_outcome_total Fault-sequence run outcomes by class, plus per-function silent corruptions from profiles.\n")
	b.WriteString("# TYPE healers_outcome_total counter\n")
	classes := make([]string, 0, len(agg.Outcomes))
	for class := range agg.Outcomes {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Fprintf(b, "healers_outcome_total{class=%s} %d\n", promLabel(class), agg.Outcomes[class])
	}

	b.WriteString("# HELP healers_overflows_total Canary and bound violations detected fleet-wide.\n")
	b.WriteString("# TYPE healers_overflows_total counter\n")
	fmt.Fprintf(b, "healers_overflows_total %d\n", agg.Overflows)
}

func writeIngestMetrics(b *strings.Builder, col *collect.Server) {
	st := col.Stats()
	for _, m := range []struct {
		name, help string
		value      uint64
	}{
		{"healers_ingest_docs_received_total", "Documents stored and aggregated.", st.DocsReceived},
		{"healers_ingest_bytes_received_total", "Raw XML bytes of stored documents.", st.BytesReceived},
		{"healers_ingest_docs_rejected_total", "Unknown kinds and unparseable profiles.", st.DocsRejected},
		{"healers_ingest_frames_rejected_total", "Bad lengths, truncated or timed-out frame bodies.", st.FramesRejected},
		{"healers_ingest_docs_evicted_total", "Documents dropped by the retention budget.", st.DocsEvicted},
		{"healers_ingest_conns_accepted_total", "Upload connections admitted to a handler.", st.ConnsAccepted},
		{"healers_ingest_conns_rejected_total", "Upload connections closed by the connection cap.", st.ConnsRejected},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.value)
	}
	fmt.Fprintf(b, "# HELP healers_ingest_docs_retained Documents currently held.\n# TYPE healers_ingest_docs_retained gauge\nhealers_ingest_docs_retained %d\n", st.DocsRetained)
	fmt.Fprintf(b, "# HELP healers_ingest_active_conns Upload connections currently served.\n# TYPE healers_ingest_active_conns gauge\nhealers_ingest_active_conns %d\n", st.ActiveConns)
}

// writeCoordinatorMetrics renders a distributed campaign's lease table
// and per-worker throughput, so a long sweep across a worker fleet is
// observable while it runs.
func writeCoordinatorMetrics(b *strings.Builder, co *inject.Coordinator) {
	workers := co.WorkerStats()
	shards := co.Shards()

	fmt.Fprintf(b, "# HELP healers_coordinator_workers Worker processes seen by the coordinator.\n# TYPE healers_coordinator_workers gauge\nhealers_coordinator_workers %d\n", len(workers))
	fmt.Fprintf(b, "# HELP healers_coordinator_funcs_remaining Functions still lacking a result.\n# TYPE healers_coordinator_funcs_remaining gauge\nhealers_coordinator_funcs_remaining %d\n", co.Remaining())

	b.WriteString("# HELP healers_coordinator_shards Lease-table population by state.\n# TYPE healers_coordinator_shards gauge\n")
	for _, st := range []struct {
		name  string
		count int
	}{{"pending", shards.Pending}, {"leased", shards.Leased}, {"done", shards.Done}} {
		fmt.Fprintf(b, "healers_coordinator_shards{state=%s} %d\n", promLabel(st.name), st.count)
	}
	fmt.Fprintf(b, "# HELP healers_coordinator_releases_total Shards re-leased after a lease timeout.\n# TYPE healers_coordinator_releases_total counter\nhealers_coordinator_releases_total %d\n", shards.Releases)
	fmt.Fprintf(b, "# HELP healers_coordinator_stragglers_total Speculative duplicate leases past the straggler deadline.\n# TYPE healers_coordinator_stragglers_total counter\nhealers_coordinator_stragglers_total %d\n", shards.Stragglers)

	b.WriteString("# HELP healers_coordinator_worker_funcs_total Accepted function results per worker.\n# TYPE healers_coordinator_worker_funcs_total counter\n")
	for _, ws := range workers {
		fmt.Fprintf(b, "healers_coordinator_worker_funcs_total{worker=%s} %d\n", promLabel(ws.Name), ws.Funcs)
	}
	b.WriteString("# HELP healers_coordinator_worker_probes_total Probes behind each worker's accepted results.\n# TYPE healers_coordinator_worker_probes_total counter\n")
	for _, ws := range workers {
		fmt.Fprintf(b, "healers_coordinator_worker_probes_total{worker=%s} %d\n", promLabel(ws.Name), ws.Probes)
	}
	b.WriteString("# HELP healers_coordinator_worker_busy_seconds_total Worker-reported probing wall time.\n# TYPE healers_coordinator_worker_busy_seconds_total counter\n")
	for _, ws := range workers {
		fmt.Fprintf(b, "healers_coordinator_worker_busy_seconds_total{worker=%s} %g\n", promLabel(ws.Name), ws.Busy.Seconds())
	}
}

// writeControlMetrics renders the control plane's policy-distribution
// counters.
func writeControlMetrics(b *strings.Builder, cp *collect.ControlPlane) {
	st := cp.Stats()
	fmt.Fprintf(b, "# HELP healers_control_policy_revision Policy revision the control plane currently serves (0 = none).\n# TYPE healers_control_policy_revision gauge\nhealers_control_policy_revision %d\n", st.Revision)
	for _, m := range []struct {
		name, help string
		value      uint64
	}{
		{"healers_control_policy_pushes_total", "Policy documents accepted by the control plane.", st.Pushes},
		{"healers_control_policy_rejected_total", "Policy pushes refused (malformed, unstamped, corrupted, or stale).", st.Rejected},
		{"healers_control_policy_served_total", "Full policy documents served to polling subscribers.", st.Served},
		{"healers_control_policy_not_modified_total", "Policy requests answered already-current.", st.NotModified},
		{"healers_control_escalations_total", "Rules tightened by adaptive derivation.", st.Escalations},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.value)
	}
}

// writeRegistryMetrics renders the campaign-cache registry's occupancy
// and exchange counters.
func writeRegistryMetrics(b *strings.Builder, reg *collect.Registry) {
	st := reg.Stats()
	fmt.Fprintf(b, "# HELP healers_registry_entries Campaign-cache entries currently stored.\n# TYPE healers_registry_entries gauge\nhealers_registry_entries %d\n", st.Entries)
	fmt.Fprintf(b, "# HELP healers_registry_bytes Stored XML bytes of all registry entries.\n# TYPE healers_registry_bytes gauge\nhealers_registry_bytes %d\n", st.Bytes)
	for _, m := range []struct {
		name, help string
		value      uint64
	}{
		{"healers_registry_hits_total", "Get keys answered with a stored entry.", st.Hits},
		{"healers_registry_misses_total", "Get keys the registry did not hold.", st.Misses},
		{"healers_registry_puts_total", "Entries stored by put exchanges.", st.Puts},
		{"healers_registry_known_total", "Put entries already held (first write wins).", st.Known},
		{"healers_registry_rejected_total", "Put frames refused: malformed, unstamped, or checksum-mismatched.", st.Rejected},
		{"healers_registry_evicted_total", "Entries dropped by the doc/byte budgets.", st.Evicted},
		{"healers_registry_corrupt_total", "Stored files discarded at load for failing validation.", st.Corrupt},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.value)
	}
}

// writePolicyEngineMetrics renders each local policy engine's
// hot-reload counters, labeled by the caller-chosen engine name.
func writePolicyEngineMetrics(b *strings.Builder, engines map[string]*wrappers.PolicyEngine) {
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString("# HELP healers_policy_revision Policy revision each engine currently runs.\n# TYPE healers_policy_revision gauge\n")
	for _, n := range names {
		fmt.Fprintf(b, "healers_policy_revision{engine=%s} %d\n", promLabel(n), engines[n].Revision())
	}
	b.WriteString("# HELP healers_policy_reloads_total Rule-set hot swaps each engine has applied.\n# TYPE healers_policy_reloads_total counter\n")
	for _, n := range names {
		fmt.Fprintf(b, "healers_policy_reloads_total{engine=%s} %d\n", promLabel(n), engines[n].Reloads())
	}
	b.WriteString("# HELP healers_policy_reload_rejected_total Reload attempts each engine refused, old rules kept.\n# TYPE healers_policy_reload_rejected_total counter\n")
	for _, n := range names {
		fmt.Fprintf(b, "healers_policy_reload_rejected_total{engine=%s} %d\n", promLabel(n), engines[n].RejectedReloads())
	}
}

func writeCampaignMetrics(b *strings.Builder, camp *CampaignMetrics) {
	runs, probes, last, seen := camp.snapshot()
	fmt.Fprintf(b, "# HELP healers_campaign_runs_total Fault-injection campaigns completed.\n# TYPE healers_campaign_runs_total counter\nhealers_campaign_runs_total %d\n", runs)
	fmt.Fprintf(b, "# HELP healers_campaign_probes_total Probe processes executed across all campaigns.\n# TYPE healers_campaign_probes_total counter\nhealers_campaign_probes_total %d\n", probes)
	if !seen {
		return
	}
	fmt.Fprintf(b, "# HELP healers_campaign_workers Worker pool size of the most recent campaign.\n# TYPE healers_campaign_workers gauge\nhealers_campaign_workers %d\n", last.Workers)
	fmt.Fprintf(b, "# HELP healers_campaign_probes_per_second Throughput of the most recent campaign.\n# TYPE healers_campaign_probes_per_second gauge\nhealers_campaign_probes_per_second %g\n", last.ProbesPerSec)
	fmt.Fprintf(b, "# HELP healers_campaign_utilization Worker utilization of the most recent campaign (1.0 = no idle).\n# TYPE healers_campaign_utilization gauge\nhealers_campaign_utilization %g\n", last.Utilization)
}
