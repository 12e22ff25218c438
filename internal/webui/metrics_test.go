package webui

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"healers/internal/clib"
	"healers/internal/collect"
	"healers/internal/gen"
	"healers/internal/inject"
	"healers/internal/simelf"
	"healers/internal/xmlrep"
)

// TestMetricsContainmentFamily: containment counters uploaded in a
// profile surface on /metrics as the healers_containment_total family,
// one labeled series per non-zero event.
func TestMetricsContainmentFamily(t *testing.T) {
	col, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	st := gen.NewState("libhealers_contain.so")
	i := st.Index("strcpy")
	st.Funcs[i].Calls = 12
	st.Funcs[i].Contained = 4
	st.Funcs[i].Retried = 2
	st.Funcs[i].BreakerTrips = 1
	j := st.Index("strlen") // wrapped but never faulted
	st.Funcs[j].Calls = 3
	if err := collect.Upload(col.Addr(), xmlrep.NewProfileLog("h", "app", st)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	ts := httptest.NewServer(MetricsHandlerFor(MetricsSources{Collector: col}))
	defer ts.Close()
	body := get(t, ts.URL, 200)

	for _, want := range []string{
		"# TYPE healers_containment_total counter",
		`healers_containment_total{function="strcpy",event="contained"} 4`,
		`healers_containment_total{function="strcpy",event="retried"} 2`,
		`healers_containment_total{function="strcpy",event="breaker_trips"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// Zero-valued series are suppressed, so a healthy function emits no
	// containment samples at all.
	if strings.Contains(body, `healers_containment_total{function="strlen"`) {
		t.Error("zero containment counters emitted for strlen")
	}
}

// TestCoordinatorMetrics: a distributed-campaign coordinator's lease
// table and per-worker throughput surface on /metrics.
func TestCoordinatorMetrics(t *testing.T) {
	sys := simelf.NewSystem()
	if err := sys.AddLibrary(clib.MustRegistry().AsLibrary()); err != nil {
		t.Fatal(err)
	}
	c, err := inject.New(sys, clib.LibcSoname)
	if err != nil {
		t.Fatal(err)
	}
	co := inject.NewCoordinator(c, 4)

	rec := httptest.NewRecorder()
	MetricsHandlerFor(MetricsSources{Coordinator: co}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"healers_coordinator_workers 0",
		`healers_coordinator_shards{state="pending"} 4`,
		"healers_coordinator_releases_total 0",
		"healers_coordinator_funcs_remaining",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsOutcomeFamily: sequence-report runs and profile
// silent-corruption counters surface as the healers_outcome_total
// family, one labeled series per outcome class.
func TestMetricsOutcomeFamily(t *testing.T) {
	col, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	doc := &xmlrep.SequenceReportDoc{
		Scenario:     "textutil-words",
		App:          "textutil",
		Calls:        9,
		GoldenDigest: "abc123",
		Runs: []xmlrep.SeqRunXML{
			{Outcome: "crash"},
			{Outcome: "crash"},
			{Outcome: "silent-corruption", Diverged: true},
		},
	}
	doc.Stamp()
	if err := collect.Upload(col.Addr(), doc); err != nil {
		t.Fatal(err)
	}
	st := gen.NewState("libhealers_contain.so")
	i := st.Index("strdup")
	st.Funcs[i].Calls = 5
	st.Funcs[i].SilentCorrupt = 2
	if err := collect.Upload(col.Addr(), xmlrep.NewProfileLog("h", "app", st)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Count() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	ts := httptest.NewServer(MetricsHandlerFor(MetricsSources{Collector: col}))
	defer ts.Close()
	body := get(t, ts.URL, 200)

	for _, want := range []string{
		"# TYPE healers_outcome_total counter",
		`healers_outcome_total{class="crash"} 2`,
		`healers_outcome_total{class="silent-corruption"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsLabelEscaping: label values taken from uploaded documents
// are rendered with exactly the exposition format's three escapes.
// Backslash, quote and newline are escaped once; a tab and a
// non-printable rune (U+00AD) pass through literally, because the
// format rejects Go's \t and \u00ad escapes and one such series fails
// the whole scrape.
func TestMetricsLabelEscaping(t *testing.T) {
	col, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	st := gen.NewState("libhealers_prof.so")
	for _, fn := range []string{"a\tb", "soft\u00adhyphen", `back\slash`, `q"uote`, "new\nline"} {
		st.Funcs[st.Index(fn)].Calls = 1
	}
	seq := &xmlrep.SequenceReportDoc{
		Scenario: "s",
		App:      "textutil",
		Calls:    1,
		Runs:     []xmlrep.SeqRunXML{{Outcome: "odd\tclass \"x\"\u00ad"}},
	}
	seq.Stamp()
	uploadAndSettle(t, col, xmlrep.NewProfileLog("h", "app", st), seq)

	rec := httptest.NewRecorder()
	MetricsHandlerFor(MetricsSources{Collector: col}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	lines := strings.Split(rec.Body.String(), "\n")
	for _, want := range []string{
		"healers_calls_total{function=\"a\tb\"} 1",
		"healers_calls_total{function=\"back\\\\slash\"} 1",
		"healers_calls_total{function=\"new\\nline\"} 1",
		"healers_calls_total{function=\"q\\\"uote\"} 1",
		"healers_calls_total{function=\"soft\u00adhyphen\"} 1",
		"healers_outcome_total{class=\"odd\tclass \\\"x\\\"\u00ad\"} 1",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("metrics missing line %q:\n%s", want, rec.Body.String())
		}
	}
}
