package collect

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"healers/internal/gen"
	"healers/internal/xmlrep"
)

// goldenPreObservability loads the profile document emitted before the
// observability fields existed (shared with internal/xmlrep's golden
// parse test).
func goldenPreObservability(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "xmlrep", "testdata", "profile_pre_observability.xml"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitDocs(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().DocsReceived < n {
		if time.Now().After(deadline) {
			t.Fatalf("server ingested %d docs, want %d", srv.Stats().DocsReceived, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAggregatePreObservabilityGolden proves the streaming ingest
// aggregation handles documents from before the observability layer: the
// totals must match the raw XML and the latency histogram must come back
// as "no data" (nil), never an all-zero histogram.
func TestAggregatePreObservabilityGolden(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendRaw(goldenPreObservability(t)); err != nil {
		t.Fatal(err)
	}
	waitDocs(t, srv, 1)

	agg := srv.Aggregate()
	for fn, wantCalls := range map[string]uint64{"strlen": 42, "open": 7, "strcpy": 5} {
		fa := agg.Funcs[fn]
		if fa == nil || fa.Calls != wantCalls {
			t.Fatalf("%s aggregate = %+v, want %d calls", fn, fa, wantCalls)
		}
		if fa.Hist != nil {
			t.Errorf("%s: pre-observability doc produced a latency histogram: %v", fn, fa.Hist)
		}
	}
	if agg.Funcs["open"].Errnos["ENOENT"] != 3 {
		t.Errorf("open errnos = %v, want ENOENT=3", agg.Funcs["open"].Errnos)
	}
	if agg.Funcs["strcpy"].Denied != 2 {
		t.Errorf("strcpy denied = %d, want 2", agg.Funcs["strcpy"].Denied)
	}
	if agg.Global["ENOENT"] != 3 {
		t.Errorf("global errnos = %v, want ENOENT=3", agg.Global)
	}
}

// TestSpoolerRoundTripsObservabilityDoc pins wire compatibility in the
// other direction: a new-style document carrying latency buckets and a
// call trace passes through the async spooler and the 4-byte
// length-prefixed wire protocol byte-for-byte unchanged, and still
// parses on arrival.
func TestSpoolerRoundTripsObservabilityDoc(t *testing.T) {
	st := gen.NewState("libhealers_prof.so")
	idx := st.Index("strlen")
	st.Funcs[idx].Calls = 10
	st.Funcs[idx].ExecNS = 1234
	st.ExecHist[idx][3] = 4
	st.ExecHist[idx][9] = 6
	st.FuncErrno[idx][2] = 1 // ENOENT
	sent := xmlrep.NewProfileLog("h", "a", st)
	sent.Trace = &xmlrep.TraceXML{Calls: []xmlrep.TraceEntryXML{
		{Seq: 1, Func: "strlen", Args: "0x1000", DurNS: 42, Outcome: "ok"},
	}}
	data, err := xmlrep.Marshal(sent)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sp := NewSpooler(srv.Addr())
	defer sp.Close()
	if err := sp.SendRaw(data); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitDocs(t, srv, 1)

	docs, _, _ := srv.DocsSince(0)
	if len(docs) != 1 || docs[0].Kind != xmlrep.KindProfile {
		t.Fatalf("server holds %+v, want one profile doc", docs)
	}
	if !bytes.Equal(docs[0].Data, data) {
		t.Errorf("document mutated in flight:\nsent %q\ngot  %q", data, docs[0].Data)
	}
	prof, err := xmlrep.Unmarshal[xmlrep.ProfileLog](docs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if h := prof.Funcs[0].LatencyDense(); gen.HistTotal(h) != 10 {
		t.Errorf("latency samples = %d, want 10", gen.HistTotal(h))
	}
	if len(prof.TraceEntries()) != 1 {
		t.Errorf("trace = %+v, want 1 entry", prof.TraceEntries())
	}
}
