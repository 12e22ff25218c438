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

// metricsGolden pins the whole /metrics exposition of goldenSources.
const metricsGolden = "testdata/metrics.golden"

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
	st.CallCount[i] = 12
	st.ExecTime[i] = 9000
	st.ExecHist[i][3] = 4
	st.ExecHist[i][7] = 8
	st.FuncErrno[i][cval.EINVAL] = 3
	st.GlobalErrno[cval.EINVAL] = 3
	st.PassedCount[i] = 7
	st.DeniedCount[i] = 4
	st.SubstCount[i] = 1
	st.ContainedCount[i] = 5
	st.ContainedByClass[i][gen.ClassCrash] = 3
	st.ContainedByClass[i][gen.ClassHang] = 2
	st.RetriedCount[i] = 2
	st.BreakerTrips[i] = 1
	j := st.Index("memcpy")
	st.CallCount[j] = 3
	st.ExecTime[j] = 600
	st.ExecHist[j][5] = 3
	st.FuncErrno[j][cval.ENOMEM] = 1
	st.GlobalErrno[cval.ENOMEM] = 1
	st.CorruptionCount[j] = 1
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

	sys := simelf.NewSystem()
	if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
		t.Fatal(err)
	}
	c, err := inject.New(sys, clib.LibcSoname)
	if err != nil {
		t.Fatal(err)
	}
	co := inject.NewCoordinator(c, 4)

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

// TestMetricsGolden: the full exposition of a fixture covering every
// writer is byte-identical to the checked-in golden file.
func TestMetricsGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandlerFor(goldenSources(t)).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Errorf("/metrics differs from %s:\n%s", metricsGolden, got)
	}
}
