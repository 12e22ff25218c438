package collect

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"time"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
	"healers/internal/xmlrep"
)

// waitReceived polls until the server's cumulative received count hits n
// (Count only reports retained documents, which eviction shrinks).
func waitReceived(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().DocsReceived < n {
		if time.Now().After(deadline) {
			t.Fatalf("server received %d docs, want %d", s.Stats().DocsReceived, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitRejected polls until the server's rejected count hits n.
func waitRejected(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().DocsRejected < n {
		if time.Now().After(deadline) {
			t.Fatalf("server rejected %d docs, want %d", s.Stats().DocsRejected, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCloseWithIdleClientReturnsPromptly is the regression test for the
// shutdown hang: handle() used to block in a deadline-less read with no
// shutdown signal, so Close's wg.Wait() never returned while any client
// held its connection open.
func TestCloseWithIdleClientReturnsPromptly(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Make sure the connection reached a handler before closing: a doc
	// round-trips through it.
	if err := WriteFrame(conn, mustMarshal(t, sampleProfile("idle", 1))); err != nil {
		t.Fatal(err)
	}
	waitReceived(t, s, 1)

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1s while a client connection was open")
	}
	// Close must be idempotent.
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func mustMarshal(t *testing.T, doc any) []byte {
	t.Helper()
	data, err := xmlrep.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestIdleTimeoutDropsSilentClient(t *testing.T) {
	s, err := Serve("127.0.0.1:0", WithIdleTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must drop us at the idle deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle connection not dropped by the server: %v", err)
	}
}

// TestSlowlorisHitsReadDeadline: a client that announces a frame and then
// trickles (here: stalls) must be cut off by the per-frame read deadline
// instead of pinning a handler forever.
func TestSlowlorisHitsReadDeadline(t *testing.T) {
	s, err := Serve("127.0.0.1:0",
		WithIdleTimeout(5*time.Second), WithReadTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header for a 1000-byte document, then only 3 bytes of body.
	if _, err := conn.Write([]byte{0, 0, 3, 0xe8}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("<he")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("slowloris connection not dropped: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("read deadline took %v to fire", elapsed)
	}
	if st := s.Stats(); st.FramesRejected != 1 {
		t.Errorf("FramesRejected = %d, want 1", st.FramesRejected)
	}
}

// TestAnnouncedFrameDoesNotPinMemory: the body buffer grows with the
// bytes that arrive, not with the length the peer announces. A peer that
// announced MaxDocSize, sent 10 bytes and hung up used to cost the server
// a 16 MiB allocation, pinned until the read deadline; 256 such peers
// held 4 GiB.
func TestAnnouncedFrameDoesNotPinMemory(t *testing.T) {
	s := startServer(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, MaxDocSize)
	if _, err := conn.Write(append(frame, "0123456789"...)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().FramesRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the truncated frame was never rejected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("a 10-byte body announced as %d bytes cost %d bytes of allocation", MaxDocSize, n)
	}
}

func TestConnectionCapRejectsExcess(t *testing.T) {
	s, err := Serve("127.0.0.1:0", WithMaxConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Occupy the single slot and prove the handler is live.
	first, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.Send(sampleProfile("holder", 1)); err != nil {
		t.Fatal(err)
	}
	waitReceived(t, s, 1)

	// The next connection must be closed by the server on accept.
	second, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := second.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("over-cap connection read = %v, want EOF", err)
	}
	st := s.Stats()
	if st.ConnsRejected != 1 || st.ConnsAccepted != 1 || st.ActiveConns != 1 {
		t.Errorf("stats = %+v, want 1 accepted, 1 rejected, 1 active", st)
	}
}

func TestEvictionUnderDocsBudget(t *testing.T) {
	s, err := Serve("127.0.0.1:0", WithMaxDocs(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 5; i++ {
		if err := Upload(s.Addr(), sampleProfile(fmt.Sprintf("app%d", i), 10)); err != nil {
			t.Fatal(err)
		}
		waitReceived(t, s, uint64(i))
	}
	if n := s.Count(); n != 3 {
		t.Errorf("retained = %d, want 3", n)
	}
	st := s.Stats()
	if st.DocsReceived != 5 || st.DocsEvicted != 2 || st.DocsRetained != 3 {
		t.Errorf("stats = %+v, want 5 received, 2 evicted, 3 retained", st)
	}
	if st.BytesRetained <= 0 || st.BytesEvicted <= 0 ||
		st.BytesReceived != uint64(st.BytesRetained)+st.BytesEvicted {
		t.Errorf("byte accounting broken: %+v", st)
	}
	// The streaming aggregate covers evicted documents too...
	agg, err := s.AggregateCalls()
	if err != nil {
		t.Fatal(err)
	}
	if agg["strlen"] != 50 {
		t.Errorf("aggregate strlen = %d, want 50 across all 5 docs", agg["strlen"])
	}
	// ...while the re-parsing reference only sees the 3 survivors.
	full, err := s.AggregateCallsFull()
	if err != nil {
		t.Fatal(err)
	}
	if full["strlen"] != 30 {
		t.Errorf("re-parsed strlen = %d, want 30 across retained docs", full["strlen"])
	}
	// Sequence numbers are stable across eviction, and the gap is
	// reported.
	docs, next, evicted := s.DocsSince(0)
	if len(docs) != 3 || docs[0].Seq != 2 || docs[2].Seq != 4 || next != 5 || evicted != 2 {
		t.Errorf("DocsSince(0) = %d docs, first seq %d, next %d, evicted %d", len(docs), docs[0].Seq, next, evicted)
	}
}

func TestEvictionUnderBytesBudget(t *testing.T) {
	doc := mustMarshal(t, sampleProfile("sized", 1))
	s, err := Serve("127.0.0.1:0", WithMaxBytes(int64(2*len(doc))))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if err := c.SendRaw(doc); err != nil {
			t.Fatal(err)
		}
	}
	waitReceived(t, s, 4)
	if n := s.Count(); n != 2 {
		t.Errorf("retained = %d, want 2 under a 2-doc byte budget", n)
	}
	if st := s.Stats(); st.BytesRetained != int64(2*len(doc)) || st.DocsEvicted != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDocsSinceCursor(t *testing.T) {
	s := startServer(t)
	for i := 0; i < 2; i++ {
		if err := Upload(s.Addr(), sampleProfile("a", 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitReceived(t, s, 2)
	docs, next, evicted := s.DocsSince(0)
	if len(docs) != 2 || next != 2 || evicted != 0 {
		t.Fatalf("DocsSince(0) = %d docs, next %d, evicted %d", len(docs), next, evicted)
	}
	// Nothing new: the cursor returns an empty batch, not a re-copy.
	docs, next, evicted = s.DocsSince(next)
	if len(docs) != 0 || next != 2 || evicted != 0 {
		t.Fatalf("DocsSince(2) = %d docs, next %d, evicted %d", len(docs), next, evicted)
	}
	if err := Upload(s.Addr(), sampleProfile("b", 2)); err != nil {
		t.Fatal(err)
	}
	waitReceived(t, s, 3)
	docs, next, evicted = s.DocsSince(next)
	if len(docs) != 1 || docs[0].Seq != 2 || next != 3 || evicted != 0 {
		t.Fatalf("incremental batch = %d docs, next %d, evicted %d", len(docs), next, evicted)
	}
}

// TestDocsSinceReportsEvictionGap pins the loss signal: a poller whose
// cursor fell behind the retention budget must learn exactly how many
// documents it can never see, not silently receive the surviving suffix.
func TestDocsSinceReportsEvictionGap(t *testing.T) {
	s := startServer(t, WithMaxDocs(2))
	for i := 0; i < 5; i++ {
		if err := Upload(s.Addr(), sampleProfile(fmt.Sprintf("app%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitReceived(t, s, 5)
	// Seqs 0..4 stored; only 3 and 4 survive the 2-doc budget.
	docs, next, evicted := s.DocsSince(0)
	if len(docs) != 2 || docs[0].Seq != 3 || next != 5 || evicted != 3 {
		t.Fatalf("DocsSince(0) = %d docs (first seq %d), next %d, evicted %d; want 2 docs from seq 3, next 5, evicted 3",
			len(docs), docs[0].Seq, next, evicted)
	}
	// A cursor inside the evicted range sees only its own share of the
	// gap.
	if _, _, evicted = s.DocsSince(2); evicted != 1 {
		t.Fatalf("DocsSince(2) evicted = %d, want 1", evicted)
	}
	// A caught-up cursor sees no gap, and an empty batch.
	if docs, _, evicted = s.DocsSince(next); len(docs) != 0 || evicted != 0 {
		t.Fatalf("caught-up poll = %d docs, evicted %d", len(docs), evicted)
	}
}

// fillTrace arms st's trace ring with room for n entries and fills it
// with n calls of fn through a trace micro-generator: every entry carries
// argument words, and every other one an errno outcome.
func fillTrace(t *testing.T, st *gen.State, fn string, n int) {
	t.Helper()
	next := cval.CFunc(func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		if len(args)%2 == 0 {
			env.Errno = cval.ENOENT
		}
		return 0, nil
	})
	call := gen.MustGenerator(gen.MGTrace(n), gen.MGCaller()).Build(&ctypes.Prototype{Name: fn, Ret: ctypes.Int}, &next, st)
	env := cval.NewEnv()
	for i := range n {
		if _, f := call(env, []cval.Value{cval.Int(int64(i)), cval.Ptr(0x1000)}[:1+i%2]); f != nil {
			t.Fatal(f)
		}
	}
	if got := len(st.Trace()); got != n {
		t.Fatalf("trace ring holds %d entries, want %d", got, n)
	}
}

// TestIncrementalAggregationMatchesReparse pins the determinism of the
// streaming aggregate: with no eviction, ingest-time accumulation and a
// full re-parse of the stored XML must agree exactly. Every profile
// carries a filled trace ring, which ingest checks without building and
// the re-parse builds.
func TestIncrementalAggregationMatchesReparse(t *testing.T) {
	s := startServer(t)
	funcs := []string{"strlen", "malloc", "memcpy", "free", "strtol"}
	n := 0
	for i := 0; i < 12; i++ {
		st := gen.NewState("libhealers_prof.so")
		fillTrace(t, st, funcs[i%len(funcs)], 16+i)
		for j, fn := range funcs {
			st.Funcs[st.Index(fn)].Calls = uint64((i+1)*(j+3)) % 97
		}
		if err := Upload(s.Addr(), xmlrep.NewProfileLog("host", fmt.Sprintf("app%d", i), st)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	// Non-profile documents must not disturb the aggregate.
	decl := xmlrep.NewDeclarations("libc.so.6", []*ctypes.Prototype{{Name: "f", Ret: ctypes.Int}})
	if err := Upload(s.Addr(), decl); err != nil {
		t.Fatal(err)
	}
	n++
	waitReceived(t, s, uint64(n))
	inc, err := s.AggregateCalls()
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.AggregateCallsFull()
	if err != nil {
		t.Fatal(err)
	}
	// The incremental map keeps zero-call entries the re-parse also
	// produces; compare as whole maps.
	if !reflect.DeepEqual(inc, full) {
		t.Errorf("incremental aggregate diverges from re-parse:\n inc=%v\nfull=%v", inc, full)
	}
	if kinds := s.KindCounts(); kinds[xmlrep.KindProfile] != 12 || kinds[xmlrep.KindDeclarations] != 1 {
		t.Errorf("kind counts = %v", kinds)
	}
	logs, err := s.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 12 {
		t.Fatalf("%d profiles retained, want 12", len(logs))
	}
	for _, l := range logs {
		var i int
		if _, err := fmt.Sscanf(l.App, "app%d", &i); err != nil {
			t.Fatal(err)
		}
		if got := len(l.TraceEntries()); got != 16+i {
			t.Errorf("profile %s re-parses with %d trace entries, want %d", l.App, got, 16+i)
		}
	}
}

// TestHostileTraceRejected: ingest checks a profile's <trace> as
// strictly as a full decode, although it builds none of it. A profile
// that is valid except for its trace is rejected, leaves the aggregate
// as it was and is not retained; a trace whose strings hold references
// is accepted, and RecentProfiles returns it in full.
func TestHostileTraceRejected(t *testing.T) {
	s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := gen.NewState("libhealers_prof.so")
	fillTrace(t, st, "strlen", 8)
	st.Funcs[st.Index("strlen")].Calls = 8
	good := mustMarshal(t, xmlrep.NewProfileLog("host", "app", st))
	if err := c.SendRaw(good); err != nil {
		t.Fatal(err)
	}
	waitReceived(t, s, 1)
	before := s.Aggregate()

	call := []byte(`<call seq="1"`)
	if !bytes.Contains(good, call) {
		t.Fatalf("rendered profile has no %s:\n%s", call, good)
	}
	for i, bad := range []struct{ old, new string }{
		{`<call seq="1"`, `<call seq="x"`},
		{`<call seq="1"`, `<call seq="&#49;" dur_ns="9223372036854775808"`},
		{`<call seq="1"`, "<call seq=\"1\" args=\"\xff\""},
		{`<call seq="1"`, `<call seq="1" outcome="&nbsp;"`},
		{`<call seq="1"`, `<call seq="1" args="<"`},
		{`</trace>`, `</call></trace>`},
		{`</trace>`, `<call seq="9"></trace>`},
		{`<call seq="1"`, `<call seq="1"><1x/></call><call seq="1"`},
	} {
		doc := bytes.Replace(good, []byte(bad.old), []byte(bad.new), 1)
		if bytes.Equal(doc, good) {
			t.Fatalf("rewrite %q left the document unchanged", bad.old)
		}
		if _, err := xmlrep.Unmarshal[xmlrep.ProfileLog](doc); err == nil {
			t.Fatalf("the full decode accepts the rewrite %q -> %q", bad.old, bad.new)
		}
		if err := c.SendRaw(doc); err != nil {
			t.Fatal(err)
		}
		waitRejected(t, s, uint64(i+1))
		if st := s.Stats(); st.DocsReceived != 1 || st.DocsRetained != 1 {
			t.Errorf("rewrite %q -> %q: %d received, %d retained, want 1 and 1", bad.old, bad.new, st.DocsReceived, st.DocsRetained)
		}
		if agg := s.Aggregate(); !reflect.DeepEqual(agg, before) {
			t.Errorf("rewrite %q -> %q changed the aggregate:\n%+v\nwant %+v", bad.old, bad.new, agg, before)
		}
	}

	// Strings that need references: the encoder writes the newline as
	// &#xA;, which becomes the decimal &#10; a hand-written upload may use.
	log := xmlrep.NewProfileLog("host", "refs", st)
	log.Trace.Calls[0].Args = "a&b\n<c>"
	doc := bytes.Replace(mustMarshal(t, log), []byte("&#xA;"), []byte("&#10;"), 1)
	for _, ref := range []string{"&amp;", "&#10;", "&lt;"} {
		if !bytes.Contains(doc, []byte(ref)) {
			t.Fatalf("document holds no %s:\n%s", ref, doc)
		}
	}
	if err := c.SendRaw(doc); err != nil {
		t.Fatal(err)
	}
	waitReceived(t, s, 2)
	if got := s.Aggregate().Funcs["strlen"].Calls; got != 16 {
		t.Errorf("aggregate strlen calls = %d, want 16", got)
	}
	logs, _, err := s.RecentProfiles(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 {
		t.Fatalf("RecentProfiles(1) returned %d profiles", len(logs))
	}
	if got := logs[0].TraceEntries(); !reflect.DeepEqual(got, log.Trace.Calls) {
		t.Errorf("RecentProfiles trace = %+v, want %+v", got, log.Trace.Calls)
	}
	if st := s.Stats(); st.DocsRejected != 8 {
		t.Errorf("%d documents rejected, want 8", st.DocsRejected)
	}
}

func TestTransientAcceptErrorClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&net.OpError{Op: "accept", Err: os.NewSyscallError("accept", syscall.EMFILE)}, true},
		{&net.OpError{Op: "accept", Err: os.NewSyscallError("accept", syscall.ECONNABORTED)}, true},
		{&net.OpError{Op: "accept", Err: os.NewSyscallError("accept", syscall.EINTR)}, true},
		{&net.OpError{Op: "accept", Err: os.NewSyscallError("accept", syscall.EBADF)}, false},
		{&net.OpError{Op: "accept", Err: net.ErrClosed}, false},
		{errors.New("unclassifiable"), false},
		{io.EOF, false},
	}
	for _, c := range cases {
		if got := transientAcceptError(c.err); got != c.want {
			t.Errorf("transientAcceptError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestClientRetryReachesRestartedCollector(t *testing.T) {
	// Reserve an address, then leave it dead until after the client has
	// started retrying.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClient(addr)
	c.RetryMax = 50
	c.RetryBase = 10 * time.Millisecond
	c.RetryCap = 50 * time.Millisecond
	defer c.Close()

	srvCh := make(chan *Server, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		s, err := Serve(addr)
		if err != nil {
			srvCh <- nil
			return
		}
		srvCh <- s
	}()
	if err := c.Send(sampleProfile("retrier", 7)); err != nil {
		t.Fatalf("Send with retry: %v", err)
	}
	s := <-srvCh
	if s == nil {
		t.Fatal("late server failed to start")
	}
	defer s.Close()
	waitReceived(t, s, 1)
}

func TestClientWithoutRetryFailsFast(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	defer c.Close()
	start := time.Now()
	if err := c.Send(sampleProfile("x", 1)); err == nil {
		t.Error("send to dead collector succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("no-retry send took %v", elapsed)
	}
}
