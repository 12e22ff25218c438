package webui

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
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
		var fams []family
		if src.Collector != nil {
			fams = append(fams, aggregateFamilies(src.Collector.Aggregate())...)
			fams = append(fams, ingestFamilies(src.Collector.Stats())...)
		}
		if src.Campaign != nil {
			fams = append(fams, campaignFamilies(src.Campaign)...)
		}
		if src.Coordinator != nil {
			fams = append(fams, coordinatorFamilies(src.Coordinator)...)
		}
		if src.Control != nil {
			fams = append(fams, controlFamilies(src.Control.Stats())...)
		}
		if src.Registry != nil {
			fams = append(fams, registryFamilies(src.Registry.Stats())...)
		}
		if len(src.Engines) > 0 {
			fams = append(fams, engineFamilies(src.Engines)...)
		}
		var b strings.Builder
		for i := range fams {
			fams[i].write(&b)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
}

// Metric types of the text exposition format.
const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// A family is one metric family of the exposition: the name, type and
// help text of its HELP and TYPE lines, then its samples in order. A
// family without samples still exports its HELP and TYPE lines.
type family struct {
	name, typ, help string
	samples         []sample
}

// A sample is one line of a family: the suffix after the family's name
// (a histogram's _bucket, _sum or _count), label name/value pairs, and
// the value, printed with %v (so a float64 prints as %g).
type sample struct {
	suffix string
	labels []string
	value  any
}

// scalar returns a family of one unlabelled sample.
func scalar(name, typ, help string, value any) family {
	return family{name: name, typ: typ, help: help, samples: []sample{{value: value}}}
}

// add appends a sample with the given label name/value pairs.
func (f *family) add(value any, labels ...string) {
	f.samples = append(f.samples, sample{labels: labels, value: value})
}

// addNonzero appends, for each nonzero counts[i], a sample labelled
// function=fn and label=names[i].
func (f *family) addNonzero(fn, label string, names []string, counts []uint64) {
	for i, n := range counts {
		if n != 0 {
			f.add(n, "function", fn, label, names[i])
		}
	}
}

// addHistogram appends a log2 histogram (gen.HistBuckets buckets) in the
// format's cumulative encoding: a _bucket line per bucket a sample
// landed in, the +Inf line (which also covers the unbounded last
// bucket), then _sum and _count.
func (f *family) addHistogram(hist []uint64, sum int64, labels ...string) {
	bucket := func(le string, n uint64) {
		f.samples = append(f.samples, sample{"_bucket", append(slices.Clip(labels), "le", le), n})
	}
	var cum uint64
	for i, c := range hist {
		cum += c
		if c != 0 && i != gen.HistBuckets-1 {
			bucket(strconv.FormatInt(gen.HistUpperNS(i), 10), cum)
		}
	}
	bucket("+Inf", cum)
	f.samples = append(f.samples, sample{"_sum", labels, sum}, sample{"_count", labels, cum})
}

// write renders the family in the text exposition format.
func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	for _, s := range f.samples {
		b.WriteString(f.name)
		b.WriteString(s.suffix)
		sep := "{"
		for i := 0; i < len(s.labels); i += 2 {
			b.WriteString(sep + s.labels[i] + "=" + promLabel(s.labels[i+1]))
			sep = ","
		}
		if len(s.labels) > 0 {
			b.WriteByte('}')
		}
		fmt.Fprintf(b, " %v\n", s.value)
	}
}

// labelEscaper applies the text exposition format's only three label
// escapes; every other byte of a valid UTF-8 value, tabs and
// non-printable runes included, is taken literally by the format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel renders a label value, quotes included. Every label value
// goes through it: Go's %q escapes (\t, \u00ad, doubled backslashes)
// are not valid in the format and fail the whole scrape.
func promLabel(s string) string { return `"` + labelEscaper.Replace(s) + `"` }

// aggregateFamilies exports the fleet profile aggregate, functions in
// name order.
func aggregateFamilies(agg *collect.FleetAggregate) []family {
	calls := family{name: "healers_calls_total", typ: counter, help: "Calls intercepted per wrapped function, fleet-wide."}
	latency := family{name: "healers_latency_ns", typ: histogram, help: "Per-call wall time of wrapped functions, log2-bucketed at capture."}
	errnos := family{name: "healers_errno_total", typ: counter, help: "Calls that set errno, per function and errno name."}
	checks := family{name: "healers_check_outcome_total", typ: counter, help: "Wrapper check outcomes per function: passed, denied, or substituted."}
	containment := family{name: "healers_containment_total", typ: counter, help: "Fault-containment events per function: contained faults, retry attempts, breaker trips."}
	classes := family{name: "healers_containment_class_total", typ: counter, help: "Contained faults per function and failure class."}
	for _, fn := range slices.Sorted(maps.Keys(agg.Funcs)) {
		fa := agg.Funcs[fn]
		calls.add(fa.Calls, "function", fn)
		if fa.Hist != nil {
			latency.addHistogram(fa.Hist, fa.ExecNS, "function", fn)
		}
		for _, e := range slices.Sorted(maps.Keys(fa.Errnos)) {
			errnos.add(fa.Errnos[e], "function", fn, "errno", e)
		}
		checks.addNonzero(fn, "outcome", []string{"passed", "denied", "substituted"},
			[]uint64{fa.Passed, fa.Denied, fa.Substituted})
		containment.addNonzero(fn, "event", []string{"contained", "retried", "breaker_trips"},
			[]uint64{fa.Contained, fa.Retried, fa.BreakerTrips})
		for c, n := range fa.ContainedBy {
			if n != 0 {
				classes.add(n, "function", fn, "class", gen.FailureClass(c).String())
			}
		}
	}
	outcomes := family{name: "healers_outcome_total", typ: counter, help: "Fault-sequence run outcomes by class, plus per-function silent corruptions from profiles."}
	for _, class := range slices.Sorted(maps.Keys(agg.Outcomes)) {
		outcomes.add(agg.Outcomes[class], "class", class)
	}
	return []family{calls, latency, errnos, checks, containment, classes, outcomes,
		scalar("healers_overflows_total", counter, "Canary and bound violations detected fleet-wide.", agg.Overflows)}
}

// ingestFamilies exports the collector's ingest counters.
func ingestFamilies(st collect.Stats) []family {
	return []family{
		scalar("healers_ingest_docs_received_total", counter, "Documents stored and aggregated.", st.DocsReceived),
		scalar("healers_ingest_bytes_received_total", counter, "Raw XML bytes of stored documents.", st.BytesReceived),
		scalar("healers_ingest_docs_rejected_total", counter, "Unknown kinds and unparseable profiles.", st.DocsRejected),
		scalar("healers_ingest_frames_rejected_total", counter, "Bad lengths, truncated or timed-out frame bodies.", st.FramesRejected),
		scalar("healers_ingest_docs_evicted_total", counter, "Documents dropped by the retention budget.", st.DocsEvicted),
		scalar("healers_ingest_conns_accepted_total", counter, "Upload connections admitted to a handler.", st.ConnsAccepted),
		scalar("healers_ingest_conns_rejected_total", counter, "Upload connections closed by the connection cap.", st.ConnsRejected),
		scalar("healers_ingest_docs_retained", gauge, "Documents currently held.", st.DocsRetained),
		scalar("healers_ingest_active_conns", gauge, "Upload connections currently served.", st.ActiveConns),
	}
}

// campaignFamilies exports campaign throughput: cumulative counters, and
// the latest run's gauges once a campaign has completed.
func campaignFamilies(camp *CampaignMetrics) []family {
	runs, probes, last, seen := camp.snapshot()
	fams := []family{
		scalar("healers_campaign_runs_total", counter, "Fault-injection campaigns completed.", runs),
		scalar("healers_campaign_probes_total", counter, "Probe processes executed across all campaigns.", probes),
	}
	if !seen {
		return fams
	}
	return append(fams,
		scalar("healers_campaign_workers", gauge, "Worker pool size of the most recent campaign.", last.Workers),
		scalar("healers_campaign_probes_per_second", gauge, "Throughput of the most recent campaign.", last.ProbesPerSec),
		scalar("healers_campaign_utilization", gauge, "Worker utilization of the most recent campaign (1.0 = no idle).", last.Utilization),
	)
}

// coordinatorFamilies exports a distributed campaign's lease table and
// per-worker throughput, so a long sweep across a worker fleet is
// observable while it runs.
func coordinatorFamilies(co *inject.Coordinator) []family {
	workers := co.WorkerStats()
	shards := co.Shards()
	states := family{name: "healers_coordinator_shards", typ: gauge, help: "Lease-table population by state."}
	states.add(shards.Pending, "state", "pending")
	states.add(shards.Leased, "state", "leased")
	states.add(shards.Done, "state", "done")
	funcs := family{name: "healers_coordinator_worker_funcs_total", typ: counter, help: "Accepted function results per worker."}
	probes := family{name: "healers_coordinator_worker_probes_total", typ: counter, help: "Probes behind each worker's accepted results."}
	busy := family{name: "healers_coordinator_worker_busy_seconds_total", typ: counter, help: "Worker-reported probing wall time."}
	for _, ws := range workers {
		funcs.add(ws.Funcs, "worker", ws.Name)
		probes.add(ws.Probes, "worker", ws.Name)
		busy.add(ws.Busy.Seconds(), "worker", ws.Name)
	}
	return []family{
		scalar("healers_coordinator_workers", gauge, "Worker processes seen by the coordinator.", len(workers)),
		scalar("healers_coordinator_funcs_remaining", gauge, "Functions still lacking a result.", co.Remaining()),
		states,
		scalar("healers_coordinator_releases_total", counter, "Shards re-leased after a lease timeout.", shards.Releases),
		scalar("healers_coordinator_stragglers_total", counter, "Speculative duplicate leases past the straggler deadline.", shards.Stragglers),
		funcs, probes, busy,
	}
}

// controlFamilies exports the control plane's policy-distribution
// counters.
func controlFamilies(st collect.ControlStats) []family {
	return []family{
		scalar("healers_control_policy_revision", gauge, "Policy revision the control plane currently serves (0 = none).", st.Revision),
		scalar("healers_control_policy_pushes_total", counter, "Policy documents accepted by the control plane.", st.Pushes),
		scalar("healers_control_policy_rejected_total", counter, "Policy pushes refused (malformed, unstamped, corrupted, or stale).", st.Rejected),
		scalar("healers_control_policy_served_total", counter, "Full policy documents served to polling subscribers.", st.Served),
		scalar("healers_control_policy_not_modified_total", counter, "Policy requests answered already-current.", st.NotModified),
		scalar("healers_control_escalations_total", counter, "Rules tightened by adaptive derivation.", st.Escalations),
	}
}

// registryFamilies exports the campaign-cache registry's occupancy and
// exchange counters.
func registryFamilies(st collect.RegistryStats) []family {
	return []family{
		scalar("healers_registry_entries", gauge, "Campaign-cache entries currently stored.", st.Entries),
		scalar("healers_registry_bytes", gauge, "Stored XML bytes of all registry entries.", st.Bytes),
		scalar("healers_registry_hits_total", counter, "Get keys answered with a stored entry.", st.Hits),
		scalar("healers_registry_misses_total", counter, "Get keys the registry did not hold.", st.Misses),
		scalar("healers_registry_puts_total", counter, "Entries stored by put exchanges.", st.Puts),
		scalar("healers_registry_known_total", counter, "Put entries already held (first write wins).", st.Known),
		scalar("healers_registry_rejected_total", counter, "Put frames refused: malformed, unstamped, or checksum-mismatched.", st.Rejected),
		scalar("healers_registry_evicted_total", counter, "Entries dropped by the doc/byte budgets.", st.Evicted),
		scalar("healers_registry_corrupt_total", counter, "Stored files discarded at load for failing validation.", st.Corrupt),
	}
}

// engineFamilies exports each local policy engine's hot-reload
// counters, labelled by the caller-chosen engine name.
func engineFamilies(engines map[string]*wrappers.PolicyEngine) []family {
	revision := family{name: "healers_policy_revision", typ: gauge, help: "Policy revision each engine currently runs."}
	reloads := family{name: "healers_policy_reloads_total", typ: counter, help: "Rule-set hot swaps each engine has applied."}
	rejected := family{name: "healers_policy_reload_rejected_total", typ: counter, help: "Reload attempts each engine refused, old rules kept."}
	for _, n := range slices.Sorted(maps.Keys(engines)) {
		revision.add(engines[n].Revision(), "engine", n)
		reloads.add(engines[n].Reloads(), "engine", n)
		rejected.add(engines[n].RejectedReloads(), "engine", n)
	}
	return []family{revision, reloads, rejected}
}
