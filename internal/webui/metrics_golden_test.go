package webui

import (
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"healers/internal/clib"
	"healers/internal/collect"
	"healers/internal/cval"
	"healers/internal/gen"
	"healers/internal/inject"
	"healers/internal/simelf"
	"healers/internal/wrappers"
	"healers/internal/xmlrep"
)

// metricsGolden pins the whole /metrics exposition of goldenSources;
// metricsEmptyGolden pins that of emptySources.
const (
	metricsGolden      = "testdata/metrics.golden"
	metricsEmptyGolden = "testdata/metrics_empty.golden"
)

// uploadAndSettle uploads docs to col and waits until every one is
// stored and no upload connection is still being served, so the ingest
// gauges read the same on every run.
func uploadAndSettle(t *testing.T, col *collect.Server, docs ...any) {
	t.Helper()
	for _, doc := range docs {
		if err := collect.Upload(col.Addr(), doc); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Count() < len(docs) || col.Stats().ActiveConns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("collector holds %d of %d documents, %d connections active", col.Count(), len(docs), col.Stats().ActiveConns)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// goldenSources builds a fixture with benign names that feeds every
// /metrics writer: a fleet aggregate with latency, errno, check-outcome,
// containment and class series plus one sequence report, the ingest
// counters, campaign metrics, a coordinator, a control plane, a registry
// and two policy engines.
func goldenSources(t *testing.T) MetricsSources {
	t.Helper()
	col, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })

	st := gen.NewState(wrappers.ContainmentSoname)
	i := st.Index("strcpy")
	st.Funcs[i].Calls = 12
	st.Funcs[i].ExecNS = 9000
	st.ExecHist[i][3] = 4
	st.ExecHist[i][7] = 8
	st.FuncErrno[i][cval.EINVAL] = 3
	st.GlobalErrno[cval.EINVAL] = 3
	st.Funcs[i].Passed = 7
	st.Funcs[i].Denied = 4
	st.Funcs[i].Substituted = 1
	st.Funcs[i].Contained = 5
	st.ContainedByClass[i][gen.ClassCrash] = 3
	st.ContainedByClass[i][gen.ClassHang] = 2
	st.Funcs[i].Retried = 2
	st.Funcs[i].BreakerTrips = 1
	j := st.Index("memcpy")
	st.Funcs[j].Calls = 3
	st.Funcs[j].ExecNS = 600
	st.ExecHist[j][5] = 3
	st.FuncErrno[j][cval.ENOMEM] = 1
	st.GlobalErrno[cval.ENOMEM] = 1
	st.Funcs[j].SilentCorrupt = 1
	st.Overflows = 2
	seq := &xmlrep.SequenceReportDoc{
		Scenario:     "textutil-words",
		App:          "textutil",
		Calls:        9,
		GoldenDigest: "abc123",
		Runs: []xmlrep.SeqRunXML{
			{Outcome: "ok"},
			{Outcome: "crash"},
			{Outcome: "silent-corruption", Diverged: true},
		},
	}
	seq.Stamp()
	uploadAndSettle(t, col, xmlrep.NewProfileLog("h", "app", st), seq)

	camp := &CampaignMetrics{}
	camp.Sink()(&inject.CampaignStats{Workers: 2, Probes: 816, ProbesPerSec: 20480.5, Utilization: 0.75})

	co := newCoordinator(t)

	policy := xmlrep.NewPolicyDoc(0, 0, []xmlrep.PolicyRuleXML{{Func: "strcpy", Action: "deny"}})
	policy.Stamp(3)
	cp := collect.NewControlPlane()
	if err := cp.SetPolicy(policy); err != nil {
		t.Fatal(err)
	}
	cp.NoteEscalations(2)

	reg, err := collect.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put("h1", &xmlrep.CacheFuncXML{Name: "strlen", Key: "k1", Config: "c1", Probes: 4}); err != nil {
		t.Fatal(err)
	}
	reg.Get([]string{"k1", "k2"}, false)

	reloaded := wrappers.DefaultPolicy()
	if err := reloaded.ApplyDoc(policy); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.ApplyDoc(policy); err == nil {
		t.Fatal("re-applying the same revision was accepted")
	}
	return MetricsSources{
		Collector:   col,
		Campaign:    camp,
		Coordinator: co,
		Control:     cp,
		Registry:    reg,
		Engines:     map[string]*wrappers.PolicyEngine{"local": wrappers.DefaultPolicy(), "reloaded": reloaded},
	}
}

// newCoordinator builds a coordinator over the libc campaign with no
// worker attached.
func newCoordinator(t *testing.T) *inject.Coordinator {
	t.Helper()
	sys := simelf.NewSystem()
	if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
		t.Fatal(err)
	}
	c, err := inject.New(sys, clib.LibcSoname)
	if err != nil {
		t.Fatal(err)
	}
	return inject.NewCoordinator(c, 4)
}

// emptySources builds sources that have seen nothing yet: a fresh
// collector, campaign metrics before any campaign, and a coordinator no
// worker has joined.
func emptySources(t *testing.T) MetricsSources {
	t.Helper()
	col, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	return MetricsSources{Collector: col, Campaign: &CampaignMetrics{}, Coordinator: newCoordinator(t)}
}

// checkGolden serves one scrape of src and compares it with the golden
// file at path byte for byte.
func checkGolden(t *testing.T, src MetricsSources, path string) {
	t.Helper()
	rec := httptest.NewRecorder()
	MetricsHandlerFor(src).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Errorf("/metrics differs from %s:\n%s", path, got)
	}
}

// TestMetricsGolden: the full exposition of a fixture covering every
// source is byte-identical to the checked-in golden file.
func TestMetricsGolden(t *testing.T) {
	checkGolden(t, goldenSources(t), metricsGolden)
}

// TestMetricsGoldenEmpty: sources that have seen nothing still export
// every family's HELP and TYPE lines, and their unlabelled samples at
// zero.
func TestMetricsGoldenEmpty(t *testing.T) {
	checkGolden(t, emptySources(t), metricsEmptyGolden)
}
