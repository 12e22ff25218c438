package collect

import (
	"strings"
	"testing"

	"healers/internal/gen"
	"healers/internal/xmlrep"
)

func stampedPolicy(revision int, action string) *xmlrep.PolicyDoc {
	doc := &xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Func: "*", Class: "*", Action: action}},
	}
	doc.Stamp(revision)
	return doc
}

func controlServer(t *testing.T) (*ControlPlane, *Server) {
	t.Helper()
	cp := NewControlPlane()
	srv, err := Serve("127.0.0.1:0", WithHandler(cp.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return cp, srv
}

func TestSetPolicyAcceptance(t *testing.T) {
	cp := NewControlPlane()
	if err := cp.SetPolicy(stampedPolicy(1, "retry")); err != nil {
		t.Fatalf("first SetPolicy: %v", err)
	}
	if err := cp.SetPolicy(stampedPolicy(2, "deny")); err != nil {
		t.Fatalf("newer SetPolicy: %v", err)
	}
	doc, rev := cp.Policy()
	if rev != 2 || doc == nil || doc.Rules[0].Action != "deny" {
		t.Fatalf("Policy() = %v rev %d, want the revision-2 deny doc", doc, rev)
	}

	// Rejections: stale, unstamped, corrupted, invalid.
	unstamped := stampedPolicy(3, "retry")
	unstamped.Checksum = ""
	corrupted := stampedPolicy(3, "retry")
	corrupted.Checksum = strings.Repeat("a", 64)
	badAction := stampedPolicy(3, "explode")
	for name, doc := range map[string]*xmlrep.PolicyDoc{
		"stale":      stampedPolicy(2, "retry"),
		"unstamped":  unstamped,
		"corrupted":  corrupted,
		"bad action": badAction,
	} {
		if err := cp.SetPolicy(doc); err == nil {
			t.Errorf("%s document accepted", name)
		}
	}
	st := cp.Stats()
	if st.Revision != 2 || st.Pushes != 2 || st.Rejected != 4 {
		t.Errorf("stats = %+v, want revision 2, 2 pushes, 4 rejections", st)
	}
}

// TestPolicyWireExchange drives the full wire path: push a stamped
// document with PushPolicy, poll it back with FetchPolicy, and check
// the not-modified fast path for a current subscriber.
func TestPolicyWireExchange(t *testing.T) {
	cp, srv := controlServer(t)

	ack, err := PushPolicy(srv.Addr(), stampedPolicy(1, "retry"))
	if err != nil || !ack.OK || ack.Revision != 1 {
		t.Fatalf("PushPolicy = %+v, %v", ack, err)
	}

	c := NewClient(srv.Addr())
	defer c.Close()

	// Behind: the full document comes back.
	doc, err := FetchPolicy(c, "worker-1", 0)
	if err != nil || doc == nil || doc.Revision != 1 {
		t.Fatalf("FetchPolicy(behind) = %v, %v", doc, err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatalf("served document does not validate: %v", err)
	}
	// Current: (nil, nil), the quiet steady state.
	if doc, err := FetchPolicy(c, "worker-1", 1); doc != nil || err != nil {
		t.Fatalf("FetchPolicy(current) = %v, %v, want nil, nil", doc, err)
	}
	st := cp.Stats()
	if st.Served != 1 || st.NotModified != 1 {
		t.Errorf("stats = %+v, want 1 served, 1 not-modified", st)
	}
}

func TestPolicyPushRejectedOverWire(t *testing.T) {
	cp, srv := controlServer(t)
	if err := cp.SetPolicy(stampedPolicy(5, "deny")); err != nil {
		t.Fatal(err)
	}
	ack, err := PushPolicy(srv.Addr(), stampedPolicy(3, "retry"))
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if ack.OK || !strings.Contains(ack.Reason, "stale") || ack.Revision != 5 {
		t.Errorf("ack = %+v, want a stale refusal carrying revision 5", ack)
	}
}

func TestFetchPolicyNoPolicyLoaded(t *testing.T) {
	_, srv := controlServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	if doc, err := FetchPolicy(c, "worker-1", 0); doc != nil || err != nil {
		t.Fatalf("FetchPolicy(empty control plane) = %v, %v, want nil, nil", doc, err)
	}
}

// TestControlPlaneSharesServerWithIngest proves the kind table: one
// server takes profile uploads and policy traffic on the same port.
func TestControlPlaneSharesServerWithIngest(t *testing.T) {
	cp, srv := controlServer(t)
	if err := cp.SetPolicy(stampedPolicy(1, "retry")); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Addr())
	defer c.Close()

	profile := &xmlrep.ProfileLog{
		Host: "h", App: "a", Wrapper: "w",
		Funcs: []xmlrep.FuncProfile{{Name: "malloc", FuncCounters: xmlrep.FuncCounters{Calls: 7}}},
	}
	if err := c.Send(profile); err != nil {
		t.Fatalf("profile upload: %v", err)
	}
	doc, err := FetchPolicy(c, "worker-1", 0)
	if err != nil || doc == nil {
		t.Fatalf("policy fetch on the ingest connection: %v, %v", doc, err)
	}
	waitCount(t, srv, 1)
	if agg := srv.Aggregate(); agg.Funcs["malloc"] == nil || agg.Funcs["malloc"].Calls != 7 {
		t.Errorf("profile not aggregated alongside policy traffic: %+v", agg.Funcs)
	}
}

// TestAggregateContainedByClass checks the per-class containment
// counters merge at ingest — the evidence the adaptive-derivation pass
// escalates on.
func TestAggregateContainedByClass(t *testing.T) {
	_, srv := controlServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	for i := 0; i < 2; i++ {
		profile := &xmlrep.ProfileLog{
			Host: "h", App: "a", Wrapper: "w",
			Funcs: []xmlrep.FuncProfile{{
				Name: "malloc", FuncCounters: xmlrep.FuncCounters{Calls: 10, Contained: 3},
				ContainedBy: []xmlrep.ClassCount{
					{Class: "crash", Count: 2},
					{Class: "hang", Count: 1},
				},
			}},
		}
		if err := c.Send(profile); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, srv, 2)
	fa := srv.Aggregate().Funcs["malloc"]
	if fa == nil {
		t.Fatal("malloc missing from aggregate")
	}
	if got := fa.ContainedBy[gen.ClassCrash]; got != 4 {
		t.Errorf("crash contained = %d, want 4", got)
	}
	if got := fa.ContainedBy[gen.ClassHang]; got != 2 {
		t.Errorf("hang contained = %d, want 2", got)
	}
}
