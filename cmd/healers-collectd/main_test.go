package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"healers/internal/collect"
	"healers/internal/core"
	"healers/internal/gen"
	"healers/internal/xmlrep"
)

func TestRunReceivesAndExits(t *testing.T) {
	done := make(chan error, 1)
	addr := "127.0.0.1:39917"
	go func() { done <- run(serveConfig{addr: addr, maxDocs: 2, showStats: true}) }()

	// Upload two profiles; run() must return after the second.
	for i := 0; i < 2; i++ {
		st2 := gen.NewState("libhealers_prof.so")
		idx := st2.Index("strlen")
		st2.Funcs[idx].Calls = uint64(i + 1)
		var err error
		for try := 0; try < 100; try++ {
			if err = collect.Upload(addr, xmlrep.NewProfileLog("h", "a", st2)); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithRetentionBudget(t *testing.T) {
	done := make(chan error, 1)
	addr := "127.0.0.1:39918"
	go func() { done <- run(serveConfig{addr: addr, maxDocs: 3, showStats: true, capDocs: 1, maxConns: 4}) }()

	// Three uploads against a one-document budget: run() must still see
	// all three arrive (the cumulative counter drives -max, not the
	// retained store).
	for i := 0; i < 3; i++ {
		st := gen.NewState("libhealers_prof.so")
		st.Funcs[st.Index("strlen")].Calls = uint64(i + 1)
		var err error
		for try := 0; try < 100; try++ {
			if err = collect.Upload(addr, xmlrep.NewProfileLog("h", "a", st)); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run(serveConfig{addr: "256.0.0.1:bad", maxDocs: 1}); err == nil {
		t.Error("bad address accepted")
	}
	if err := run(serveConfig{addr: "127.0.0.1:0", maxDocs: 1, metricsAddr: "256.0.0.1:bad"}); err == nil {
		t.Error("bad metrics address accepted")
	}
}

// TestRunDeriveMode closes the loop inside the daemon: a containment
// profile whose per-class counters cross the escalation threshold is
// uploaded, and the final -derive pass before exit must publish a
// tightened revision and write it back to the -policy file atomically.
func TestRunDeriveMode(t *testing.T) {
	policyPath := filepath.Join(t.TempDir(), "policy.xml")
	initial := &xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Func: "*", Class: "*", Action: "retry", Retries: 1}},
	}
	initial.Stamp(1)
	data, err := xmlrep.Marshal(initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(policyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	addr := "127.0.0.1:39921"
	go func() {
		done <- run(serveConfig{
			addr: addr, maxDocs: 1, policyFile: policyPath,
			derive:      true,
			deriveEvery: time.Hour, // only the final pre-exit pass fires
			escalation:  core.EscalationConfig{FaultRate: 0.05, MinCalls: 8},
		})
	}()

	profile := &xmlrep.ProfileLog{
		Host: "h", App: "a", Wrapper: "libhealers_contain.so",
		Funcs: []xmlrep.FuncProfile{{
			Name: "strlen", FuncCounters: xmlrep.FuncCounters{Calls: 100, Contained: 10},
			ContainedBy: []xmlrep.ClassCount{{Class: "crash", Count: 10}},
		}},
	}
	for try := 0; try < 100; try++ {
		if err = collect.Upload(addr, profile); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	data, err = os.ReadFile(policyPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
	if err != nil {
		t.Fatalf("written-back policy unparseable: %v", err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatalf("written-back policy invalid: %v", err)
	}
	if doc.Revision != 2 {
		t.Errorf("written-back revision = %d, want 2", doc.Revision)
	}
	if r := doc.Rules[0]; r.Func != "strlen" || r.Class != "crash" || r.Action != "deny" {
		t.Errorf("rules[0] = %+v, want the escalated strlen/crash deny", r)
	}
}

// TestRunMetricsEndpoint is the acceptance check for the observability
// layer: two clients upload profiles carrying latency histograms and
// errno counts, and a Prometheus scrape of -metrics returns them
// aggregated across both.
func TestRunMetricsEndpoint(t *testing.T) {
	done := make(chan error, 1)
	addr := "127.0.0.1:39919"
	metricsAddr := "127.0.0.1:39920"
	go func() { done <- run(serveConfig{addr: addr, maxDocs: 3, metricsAddr: metricsAddr}) }()

	// Two clients: each builds a quiesced wrapper state with latency
	// samples in bucket 5 (32..63 ns) and an ENOENT for open.
	for i, calls := range []uint64{2, 3} {
		st := gen.NewState("libhealers_prof.so")
		idx := st.Index("strlen")
		st.Funcs[idx].Calls = calls
		st.ExecHist[idx][5] = calls
		st.Funcs[idx].ExecNS = int64(40 * calls)
		oidx := st.Index("open")
		st.Funcs[oidx].Calls = 1
		st.FuncErrno[oidx][2] = 1 // ENOENT
		var err error
		for try := 0; try < 100; try++ {
			if err = collect.Upload(addr, xmlrep.NewProfileLog("h", "a", st)); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}

	var body string
	for try := 0; try < 100; try++ {
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(b)
			if strings.Contains(body, `healers_calls_total{function="strlen"} 5`) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`healers_calls_total{function="strlen"} 5`,
		`healers_latency_ns_bucket{function="strlen",le="63"} 5`,
		`healers_latency_ns_bucket{function="strlen",le="+Inf"} 5`,
		`healers_latency_ns_count{function="strlen"} 5`,
		`healers_errno_total{function="open",errno="ENOENT"} 2`,
		`healers_ingest_docs_received_total 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	// A third upload satisfies -max 3 and lets run() exit.
	st := gen.NewState("libhealers_prof.so")
	st.Funcs[st.Index("strlen")].Calls = 1
	if err := collect.Upload(addr, xmlrep.NewProfileLog("h", "a", st)); err != nil {
		t.Fatalf("final upload: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSummarizeSorted: the exit summary lists the aggregated functions
// and the received document kinds in name order, whatever order the
// server's maps hold them in.
func TestSummarizeSorted(t *testing.T) {
	srv, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := gen.NewState("libhealers_prof.so")
	for i, fn := range []string{"strlen", "memcpy", "wctrans", "abort", "qsort"} {
		st.Funcs[st.Index(fn)].Calls = uint64(i + 1)
	}
	seq := &xmlrep.SequenceReportDoc{Scenario: "s", App: "a", Runs: []xmlrep.SeqRunXML{{Outcome: "ok"}}}
	seq.Stamp()
	for _, doc := range []any{xmlrep.NewProfileLog("h", "a", st), seq} {
		if err := collect.Upload(srv.Addr(), doc); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Count() < 2; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("collector holds %d of 2 documents", srv.Count())
		}
	}

	var b strings.Builder
	if err := summarize(&b, srv, nil, true); err != nil {
		t.Fatal(err)
	}
	var funcs, kinds []string
	inCalls := false
	for _, line := range strings.Split(b.String(), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "aggregate call counts"):
			inCalls = true
		case line == "":
			inCalls = false
		case inCalls:
			funcs = append(funcs, f[0])
		case len(f) == 3 && f[0] == "kind":
			kinds = append(kinds, f[1])
		}
	}
	if want := []string{"abort", "memcpy", "qsort", "strlen", "wctrans"}; !slices.Equal(funcs, want) {
		t.Errorf("functions listed as %v, want %v\n%s", funcs, want, b.String())
	}
	if want := []string{"profile", "sequence-report"}; !slices.Equal(kinds, want) {
		t.Errorf("kinds listed as %v, want %v\n%s", kinds, want, b.String())
	}
}
