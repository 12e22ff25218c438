package collect

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"healers/internal/ctypes"
	"healers/internal/gen"
	"healers/internal/xmlrep"
)

func startServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitCount polls until the server has stored n documents.
func waitCount(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server stored %d docs, want %d", s.Count(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func sampleProfile(app string, calls uint64) *xmlrep.ProfileLog {
	st := gen.NewState("libhealers_prof.so")
	i := st.Index("strlen")
	st.Funcs[i].Calls = calls
	return xmlrep.NewProfileLog("testhost", app, st)
}

func TestUploadAndQuery(t *testing.T) {
	s := startServer(t)
	if err := Upload(s.Addr(), sampleProfile("app1", 10)); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	waitCount(t, s, 1)
	docs, _, _ := s.DocsSince(0)
	if len(docs) != 1 || docs[0].Kind != xmlrep.KindProfile {
		t.Fatalf("DocsSince(0) = %+v", docs)
	}
	if docs[0].From == "" || docs[0].At.IsZero() {
		t.Error("document metadata missing")
	}
	logs, err := s.Profiles()
	if err != nil || len(logs) != 1 {
		t.Fatalf("Profiles = %v, %v", logs, err)
	}
	if logs[0].App != "app1" || logs[0].TotalCalls() != 10 {
		t.Errorf("profile = %+v", logs[0])
	}
}

// TestRecentProfilesParsesOnlyNewest checks that RecentProfiles parses
// only the newest n profiles: the older documents are overwritten with
// bytes that fail to parse, which Profiles reports and RecentProfiles
// never reaches.
func TestRecentProfilesParsesOnlyNewest(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range 10 {
		if err := c.Send(sampleProfile(fmt.Sprintf("app%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send(xmlrep.NewDeclarations("libc.so.6", nil)); err != nil {
		t.Fatal(err)
	}
	waitCount(t, s, 11)
	s.mu.Lock()
	for i := range 6 {
		s.docs[s.head+i].Data = []byte("<healers-profile")
	}
	s.mu.Unlock()
	if _, err := s.Profiles(); err == nil {
		t.Fatal("Profiles parsed the broken documents without an error")
	}
	logs, omitted, err := s.RecentProfiles(4)
	if err != nil {
		t.Fatalf("RecentProfiles parsed an older document: %v", err)
	}
	var apps []string
	for _, l := range logs {
		apps = append(apps, l.App)
	}
	if want := []string{"app6", "app7", "app8", "app9"}; !reflect.DeepEqual(apps, want) || omitted != 6 {
		t.Fatalf("RecentProfiles(4) = %v, %d omitted; want %v, 6 omitted", apps, omitted, want)
	}
}

func TestMultipleDocsOneSession(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Send(sampleProfile("app", uint64(i+1))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// A declaration document on the same session.
	decl := xmlrep.NewDeclarations("libc.so.6", []*ctypes.Prototype{{Name: "f", Ret: ctypes.Int}})
	if err := c.Send(decl); err != nil {
		t.Fatalf("Send decl: %v", err)
	}
	waitCount(t, s, 4)
	docs, _, _ := s.DocsSince(0)
	kinds := map[xmlrep.DocKind]int{}
	for _, d := range docs {
		kinds[d.Kind]++
	}
	if n := kinds[xmlrep.KindProfile]; n != 3 {
		t.Errorf("profiles = %d, want 3", n)
	}
	if n := kinds[xmlrep.KindDeclarations]; n != 1 {
		t.Errorf("declarations = %d, want 1", n)
	}
	if n := len(docs); n != 4 {
		t.Errorf("all docs = %d, want 4", n)
	}
}

func TestAggregateCalls(t *testing.T) {
	s := startServer(t)
	for i, app := range []string{"a", "b", "c"} {
		if err := Upload(s.Addr(), sampleProfile(app, uint64(10*(i+1)))); err != nil {
			t.Fatalf("Upload %s: %v", app, err)
		}
	}
	waitCount(t, s, 3)
	agg, err := s.AggregateCalls()
	if err != nil {
		t.Fatal(err)
	}
	if agg["strlen"] != 60 {
		t.Errorf("aggregate strlen = %d, want 60", agg["strlen"])
	}
}

func TestUnknownDocumentSkipped(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendRaw([]byte("<mystery/>")); err != nil {
		t.Fatalf("SendRaw: %v", err)
	}
	// A valid doc after the junk one must still land.
	if err := c.Send(sampleProfile("late", 1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitCount(t, s, 1)
	if n := s.Count(); n != 1 {
		t.Errorf("stored = %d, want 1 (junk skipped)", n)
	}
}

func TestBadFrameEndsSession(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A zero-length frame is a protocol violation.
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// The server must drop the session; a later upload on a fresh
	// session still works.
	if err := Upload(s.Addr(), sampleProfile("x", 1)); err != nil {
		t.Fatalf("Upload after bad frame: %v", err)
	}
	waitCount(t, s, 1)
}

func TestClientSizeLimit(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendRaw(nil); err == nil {
		t.Error("empty document accepted")
	}
	if err := c.SendRaw(make([]byte, MaxDocSize+1)); err == nil {
		t.Error("oversized document accepted")
	}
}

func TestDialFailure(t *testing.T) {
	if err := Upload("127.0.0.1:1", sampleProfile("x", 1)); err == nil {
		t.Error("Upload to dead port succeeded")
	}
}

func TestWriteDeadlineOnStalledCollector(t *testing.T) {
	// A "collector" that accepts the session but never reads a byte:
	// once the kernel socket buffers fill, writes block — the per-frame
	// deadline must surface a timeout instead of wedging the client.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stalled := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		stalled <- conn // hold the connection open, never read
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if conn := <-stalled; conn != nil {
			conn.Close()
		}
	}()
	oldWrite := DefaultWriteTimeout
	DefaultWriteTimeout = 200 * time.Millisecond
	defer func() { DefaultWriteTimeout = oldWrite }()
	frame := make([]byte, 1<<20)
	start := time.Now()
	var sendErr error
	for i := 0; i < 64 && sendErr == nil; i++ {
		sendErr = c.SendRaw(frame)
	}
	if sendErr == nil {
		t.Fatal("64 MB into a non-reading collector succeeded")
	}
	var ne net.Error
	if !errors.As(sendErr, &ne) || !ne.Timeout() {
		t.Fatalf("SendRaw error = %v, want a timeout", sendErr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire, want well under 5s", elapsed)
	}
}

func TestSendAfterDeadlineRecovers(t *testing.T) {
	// The deadline is per frame: a successful send must clear it so a
	// later slow-but-fine send is not killed by a stale deadline.
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oldWrite := DefaultWriteTimeout
	DefaultWriteTimeout = 50 * time.Millisecond
	defer func() { DefaultWriteTimeout = oldWrite }()
	if err := c.Send(sampleProfile("a", 1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	time.Sleep(120 * time.Millisecond) // well past the first deadline
	if err := c.Send(sampleProfile("b", 2)); err != nil {
		t.Fatalf("Send after idle: %v", err)
	}
	waitCount(t, s, 2)
}

func TestAcceptLoopBailsOnClosedListener(t *testing.T) {
	// A permanently broken listener (closed out from under the server,
	// without Server.Close being called) must end the accept loop
	// instead of hot-spinning on the dead fd.
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln.Close() // not s.Close: the closed channel stays open
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop still running 5s after listener death")
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := Dial(addr); err == nil {
		t.Error("Dial after Close succeeded")
	}
}

// containmentProfile builds a profile whose function carries the
// containment counters the recovery layer serializes.
func containmentProfile(app string) *xmlrep.ProfileLog {
	st := gen.NewState("libhealers_contain.so")
	i := st.Index("strlen")
	st.Funcs[i].Calls = 20
	st.Funcs[i].Contained = 5
	st.Funcs[i].Retried = 3
	st.Funcs[i].BreakerTrips = 1
	return xmlrep.NewProfileLog("testhost", app, st)
}

// TestAggregateContainmentCounters: contained-fault, retry, and
// breaker-trip counters uploaded by two processes fold into the fleet
// aggregate alongside the older outcome counters.
func TestAggregateContainmentCounters(t *testing.T) {
	s := startServer(t)
	for _, app := range []string{"a", "b"} {
		if err := Upload(s.Addr(), containmentProfile(app)); err != nil {
			t.Fatalf("Upload %s: %v", app, err)
		}
	}
	waitCount(t, s, 2)
	agg := s.Aggregate()
	fa := agg.Funcs["strlen"]
	if fa == nil {
		t.Fatal("strlen missing from aggregate")
	}
	if fa.Contained != 10 || fa.Retried != 6 || fa.BreakerTrips != 2 {
		t.Errorf("containment counters = %d/%d/%d, want 10/6/2",
			fa.Contained, fa.Retried, fa.BreakerTrips)
	}
	if fa.Calls != 40 {
		t.Errorf("calls = %d, want 40", fa.Calls)
	}
	// Aggregate hands out a copy: mutating it must not corrupt the
	// server's streaming state.
	fa.Contained = 999
	if s.Aggregate().Funcs["strlen"].Contained != 10 {
		t.Error("Aggregate returned a live reference, not a clone")
	}
}

// TestZeroValueClientWriteDeadline is the stall-protection regression
// test: a zero-value Client{Addr: ...} — which bypasses NewClient and
// used to carry no timeouts at all — must still get the default write
// deadline at use time, so a collector that accepts the connection but
// never drains it cannot wedge the sender.
func TestZeroValueClientWriteDeadline(t *testing.T) {
	oldWrite := DefaultWriteTimeout
	DefaultWriteTimeout = 200 * time.Millisecond
	defer func() { DefaultWriteTimeout = oldWrite }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stalled := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		stalled <- conn // hold the connection open, never read
	}()

	c := &Client{Addr: ln.Addr().String()} // literally the zero value plus an address
	defer c.Close()
	defer func() {
		select {
		case conn := <-stalled:
			conn.Close()
		default:
		}
	}()
	frame := make([]byte, 1<<20)
	start := time.Now()
	var sendErr error
	for i := 0; i < 64 && sendErr == nil; i++ {
		sendErr = c.SendRaw(frame)
	}
	if sendErr == nil {
		t.Fatal("64 MB into a non-reading collector succeeded with a zero-value client")
	}
	var ne net.Error
	if !errors.As(sendErr, &ne) || !ne.Timeout() {
		t.Fatalf("SendRaw error = %v, want a timeout", sendErr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire; the zero value is still unprotected", elapsed)
	}
}

// TestCallRequestResponse covers the request/response extension: a
// handler-answered document comes back as one response frame on the same
// connection, documents of a kind without a handler fall through to the
// store, and the handled count lands in Stats.
func TestCallRequestResponse(t *testing.T) {
	ackFrame, err := xmlrep.Marshal(&xmlrep.WorkAck{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, WithHandler(Handler{
		xmlrep.KindWorkRequest: func([]byte) []byte { return ackFrame },
	}))
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call(&xmlrep.WorkRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if kind, _ := xmlrep.Kind(resp); kind != xmlrep.KindWorkAck {
		t.Fatalf("response = %q, want a work-ack", resp)
	}

	// An unregistered kind on the same session still lands in the store.
	if err := c.Send(sampleProfile("app", 5)); err != nil {
		t.Fatalf("Send after Call: %v", err)
	}
	waitCount(t, s, 1)
	if st := s.Stats(); st.RequestsHandled != 1 || st.DocsReceived != 1 {
		t.Errorf("stats = %+v, want 1 handled request and 1 stored doc", st)
	}
}

// TestServeRefusesDuplicateKind: two handler tables that claim the same
// kind are a configuration error, caught before the server listens.
func TestServeRefusesDuplicateKind(t *testing.T) {
	cp := NewControlPlane()
	s, err := Serve("127.0.0.1:0",
		WithHandler(cp.Handler()),
		WithHandler(Handler{xmlrep.KindRegistryGet: cp.handleRequest, xmlrep.KindPolicyRequest: cp.handleRequest}))
	if err == nil {
		s.Close()
		t.Fatal("Serve accepted two handlers for one kind")
	}
	if !strings.Contains(err.Error(), string(xmlrep.KindPolicyRequest)) {
		t.Errorf("error %q does not name the contested kind", err)
	}
}

// sampleSequenceReport builds a small checksummed sequence-report
// document with the given per-outcome run counts.
func sampleSequenceReport(outcomes map[string]int) *xmlrep.SequenceReportDoc {
	doc := &xmlrep.SequenceReportDoc{
		Scenario:     "textutil-words",
		App:          "textutil",
		Calls:        9,
		GoldenDigest: "abc123",
	}
	for out, n := range outcomes {
		for i := 0; i < n; i++ {
			doc.Runs = append(doc.Runs, xmlrep.SeqRunXML{
				Steps:   []xmlrep.SeqStepXML{{Call: 3, Class: "crash", Func: "strdup"}},
				Outcome: out,
			})
		}
	}
	doc.Stamp()
	return doc
}

// TestSequenceReportIngestion: uploaded sequence reports are sniffed,
// checksum-validated, stored under their own kind, and their per-run
// outcomes feed the fleet aggregate's Outcomes map.
func TestSequenceReportIngestion(t *testing.T) {
	s := startServer(t)
	if err := Upload(s.Addr(), sampleSequenceReport(map[string]int{
		"crash": 3, "silent-corruption": 2, "ok": 1,
	})); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	waitCount(t, s, 1)
	if docs, _, _ := s.DocsSince(0); len(docs) != 1 || docs[0].Kind != xmlrep.KindSequenceReport {
		t.Fatalf("DocsSince(0) = %+v, want one sequence report", docs)
	}
	agg := s.Aggregate()
	for out, want := range map[string]uint64{"crash": 3, "silent-corruption": 2, "ok": 1} {
		if agg.Outcomes[out] != want {
			t.Errorf("Outcomes[%q] = %d, want %d", out, agg.Outcomes[out], want)
		}
	}
}

// TestSequenceReportChecksumRejected: a tampered sequence report is
// counted rejected and contributes nothing to the aggregate.
func TestSequenceReportChecksumRejected(t *testing.T) {
	s := startServer(t)
	doc := sampleSequenceReport(map[string]int{"crash": 1})
	doc.Runs[0].Outcome = "ok" // tamper after Stamp
	if err := Upload(s.Addr(), doc); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	waitRejected(t, s, 1)
	if n := s.Count(); n != 0 {
		t.Errorf("stored %d docs, want 0", n)
	}
	if agg := s.Aggregate(); len(agg.Outcomes) != 0 {
		t.Errorf("tampered report reached the aggregate: %v", agg.Outcomes)
	}
}

// TestAggregateSilentCorruption: a profile's silent-corruption counters
// aggregate per function and feed the outcome totals.
func TestAggregateSilentCorruption(t *testing.T) {
	s := startServer(t)
	st := gen.NewState("libhealers_contain.so")
	i := st.Index("strdup")
	st.Funcs[i].Calls = 5
	st.Funcs[i].SilentCorrupt = 2
	if err := Upload(s.Addr(), xmlrep.NewProfileLog("h", "app", st)); err != nil {
		t.Fatal(err)
	}
	waitCount(t, s, 1)
	agg := s.Aggregate()
	if got := agg.Funcs["strdup"].SilentCorrupt; got != 2 {
		t.Errorf("Funcs[strdup].SilentCorrupt = %d, want 2", got)
	}
	if got := agg.Outcomes["silent-corruption"]; got != 2 {
		t.Errorf("Outcomes[silent-corruption] = %d, want 2", got)
	}
}
