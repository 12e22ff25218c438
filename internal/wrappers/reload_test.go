package wrappers

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"healers/internal/gen"
	"healers/internal/xmlrep"
)

// stampedDoc builds a valid policy document at the given revision whose
// single rule maps every failure to action.
func stampedDoc(revision int, action string) *xmlrep.PolicyDoc {
	doc := &xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Func: "*", Class: "*", Action: action}},
	}
	doc.Stamp(revision)
	return doc
}

func TestApplyDocHotSwap(t *testing.T) {
	e := DefaultPolicy()
	if got := e.Decide("malloc", gen.ClassCrash).Action; got != gen.ActionDeny {
		t.Fatalf("default decision = %v, want deny", got)
	}
	if err := e.ApplyDoc(stampedDoc(1, "retry")); err != nil {
		t.Fatalf("ApplyDoc: %v", err)
	}
	if got := e.Decide("malloc", gen.ClassCrash).Action; got != gen.ActionRetry {
		t.Errorf("post-reload decision = %v, want retry", got)
	}
	if e.Revision() != 1 || e.Reloads() != 1 || e.RejectedReloads() != 0 {
		t.Errorf("revision/reloads/rejected = %d/%d/%d, want 1/1/0",
			e.Revision(), e.Reloads(), e.RejectedReloads())
	}
}

// TestApplyDocRejections is the reload-rejection table: every corrupted,
// stale, or unstamped document must be refused, leave the previous rules
// in force, and bump the rejected counter.
func TestApplyDocRejections(t *testing.T) {
	corrupted := stampedDoc(5, "retry")
	corrupted.Checksum = strings.Repeat("0", 64)
	unknownAction := stampedDoc(5, "retry")
	unknownAction.Rules[0].Action = "explode"
	xmlrep.Seal(unknownAction)
	unknownClass := stampedDoc(5, "retry")
	unknownClass.Rules[0].Class = "meltdown"
	xmlrep.Seal(unknownClass)
	negRetries := stampedDoc(5, "retry")
	negRetries.Rules[0].Retries = -1
	xmlrep.Seal(negRetries)
	unstamped := stampedDoc(5, "retry")
	unstamped.Checksum = ""

	tests := []struct {
		name string
		doc  *xmlrep.PolicyDoc
		want string
	}{
		{"corrupted checksum", corrupted, "checksum"},
		{"unknown action", unknownAction, "action"},
		{"unknown class", unknownClass, "class"},
		{"negative retries", negRetries, "negative"},
		{"unstamped", unstamped, "unstamped"},
		{"stale revision", stampedDoc(2, "retry"), "stale"},
		{"same revision", stampedDoc(3, "retry"), "stale"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := DefaultPolicy()
			if err := e.ApplyDoc(stampedDoc(3, "substitute")); err != nil {
				t.Fatalf("baseline ApplyDoc: %v", err)
			}
			rejectedBefore := e.RejectedReloads()
			err := e.ApplyDoc(tt.doc)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("ApplyDoc error = %v, want substring %q", err, tt.want)
			}
			if got := e.Decide("x", gen.ClassCrash).Action; got != gen.ActionSubstitute {
				t.Errorf("rejected reload changed the live rules: decision = %v", got)
			}
			if e.Revision() != 3 {
				t.Errorf("rejected reload changed the revision: %d", e.Revision())
			}
			if e.RejectedReloads() != rejectedBefore+1 {
				t.Errorf("rejected counter = %d, want %d", e.RejectedReloads(), rejectedBefore+1)
			}
		})
	}
}

func TestApplyXMLMalformed(t *testing.T) {
	e := DefaultPolicy()
	if err := e.ApplyXML([]byte("<healers-policy><rule")); err == nil {
		t.Fatal("malformed XML accepted")
	}
	if e.RejectedReloads() != 1 {
		t.Errorf("rejected counter = %d, want 1", e.RejectedReloads())
	}
}

// fuzzProbes are the (function, class) pairs whose decisions
// FuzzPolicyApply compares: functions the running policy names, one it
// does not, and the empty name, under every failure class.
var fuzzProbes = [...]string{"malloc", "strcpy", "memcpy", ""}

// decisions records the engine's decision for every fuzzProbes pair.
func decisions(e *PolicyEngine) (d [len(fuzzProbes) * gen.NumFailureClasses]gen.ContainDecision) {
	for i, fn := range fuzzProbes {
		for c := range gen.NumFailureClasses {
			d[i*gen.NumFailureClasses+c] = e.Decide(fn, gen.FailureClass(c))
		}
	}
	return d
}

// FuzzPolicyApply hot-reloads arbitrary bytes into an engine running a
// stamped revision-1 policy. Nothing may panic; a rejected reload leaves
// the revision and every decision unchanged (the very rule set) and bumps
// RejectedReloads by exactly 1; an accepted one raises the revision to
// the document's and must have passed xmlrep.Unmarshal and Validate.
func FuzzPolicyApply(f *testing.F) {
	running := &xmlrep.PolicyDoc{Rules: []xmlrep.PolicyRuleXML{
		{Func: "malloc", Class: "crash", Action: "substitute", Value: 7},
		{Func: "strcpy", Action: "retry", Retries: 2, BackoffMS: 5, BreakerThreshold: 1},
		{Func: "*", Class: "hang", Action: "escalate"},
	}}
	running.Stamp(1)
	newer := &xmlrep.PolicyDoc{BreakerThreshold: 3, BreakerWindowMS: 100, Rules: []xmlrep.PolicyRuleXML{
		{Func: "memcpy", Class: "*", Action: "substitute", Value: -1},
		{Action: "deny"},
	}}
	newer.Stamp(2)
	corrupted := stampedDoc(4, "retry")
	corrupted.Checksum = strings.Repeat("0", 64)
	unstamped := stampedDoc(4, "retry")
	unstamped.Checksum = ""
	unknownAction := stampedDoc(4, "retry")
	unknownAction.Rules[0].Action = "explode"
	xmlrep.Seal(unknownAction)
	for _, doc := range []any{
		running, newer, stampedDoc(9, "deny"), stampedDoc(0, "retry"), stampedDoc(-1, "retry"),
		corrupted, unstamped, unknownAction, &xmlrep.PolicyAck{OK: true, Revision: 2},
	} {
		f.Add(xmlrep.MustMarshal(doc))
	}
	f.Add([]byte("<healers-policy><rule"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := PolicyFromDoc(running)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
		valid := err == nil && doc.Validate() == nil
		before, rejected, reloads := decisions(e), e.RejectedReloads(), e.Reloads()
		if err := e.ApplyXML(data); err != nil {
			if e.Revision() != 1 || e.RejectedReloads() != rejected+1 || e.Reloads() != reloads {
				t.Fatalf("rejected reload (%v) left revision %d, rejected %d, reloads %d; want 1, %d, %d",
					err, e.Revision(), e.RejectedReloads(), e.Reloads(), rejected+1, reloads)
			}
			if decisions(e) != before {
				t.Fatalf("rejected reload (%v) changed a decision", err)
			}
			return
		}
		if !valid {
			t.Fatalf("reload accepted a document that Unmarshal or Validate rejects:\n%q", data)
		}
		if e.Revision() <= 1 || e.Revision() != doc.Revision || e.Reloads() != reloads+1 || e.RejectedReloads() != rejected {
			t.Fatalf("accepted reload of revision %d left revision %d, reloads %d, rejected %d",
				doc.Revision, e.Revision(), e.Reloads(), e.RejectedReloads())
		}
	})
}

// TestReloadKeepsBreakerState: a hot reload must not grant amnesty — a
// function the breaker already condemned stays condemned under the new
// rules.
func TestReloadKeepsBreakerState(t *testing.T) {
	e := NewPolicyEngine(nil, BreakerConfig{Threshold: 2})
	e.RecordFailure("malloc", gen.ClassCrash)
	if !e.RecordFailure("malloc", gen.ClassCrash) {
		t.Fatal("breaker did not trip at threshold")
	}
	if err := e.ApplyDoc(stampedDoc(1, "retry")); err != nil {
		t.Fatalf("ApplyDoc: %v", err)
	}
	if !e.Tripped("malloc") {
		t.Error("reload forgave a tripped breaker")
	}
}

// TestPerRuleBreakerThreshold: a rule-level override must trip the
// breaker ahead of the engine-wide threshold — the escalation ladder's
// one-strike rung.
func TestPerRuleBreakerThreshold(t *testing.T) {
	doc := &xmlrep.PolicyDoc{
		BreakerThreshold: 100,
		Rules: []xmlrep.PolicyRuleXML{
			{Func: "malloc", Class: "*", Action: "deny", BreakerThreshold: 1},
			{Func: "*", Class: "*", Action: "deny"},
		},
	}
	e, err := PolicyFromDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !e.RecordFailure("malloc", gen.ClassCrash) {
		t.Error("one-strike rule did not trip on the first failure")
	}
	if e.RecordFailure("free", gen.ClassCrash) {
		t.Error("engine-wide threshold (100) tripped on the first failure")
	}
}

// TestHotReloadRace hammers the engine from eight goroutines mixing
// Decide, RecordFailure, and Tripped while another goroutine swaps rule
// sets as fast as it can. Run under -race (the tier-1 gate does) this
// is the proof that reload atomicity holds: no torn rule tables, no
// locked/lock-free interleaving hazards.
func TestHotReloadRace(t *testing.T) {
	e := DefaultPolicy()
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	actions := []string{"retry", "deny", "substitute"}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rev := 1; !stopFlag.Load(); rev++ {
			if err := e.ApplyDoc(stampedDoc(rev, actions[rev%len(actions)])); err != nil {
				t.Errorf("ApplyDoc rev %d: %v", rev, err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn := fmt.Sprintf("fn%d", g)
			for i := 0; i < 5000; i++ {
				d := e.Decide(fn, gen.FailureClass(i%gen.NumFailureClasses))
				// Whatever generation we read, the decision must be one
				// of the three published actions or the default deny.
				switch d.Action {
				case gen.ActionDeny, gen.ActionRetry, gen.ActionSubstitute:
				default:
					t.Errorf("torn decision: %v", d.Action)
					return
				}
				e.RecordFailure(fn, gen.ClassCrash)
				e.Tripped(fn)
			}
		}(g)
	}
	// Let the hammer run, then stop the swapper — but never before it
	// has published at least one generation, or a heavily loaded test
	// machine could end the race without any reload to race against.
	for deadline := time.Now().Add(10 * time.Second); e.Reloads() == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	stopFlag.Store(true)
	wg.Wait()
	if e.Reloads() == 0 {
		t.Error("swapper never reloaded")
	}
}

// TestSubscribe drives a subscription through a closure source, the
// shape healers-profile -policy-from polls the control plane with. The
// source hands out one scripted reply per poll, so each event can be
// tied to the reply that caused it.
func TestSubscribe(t *testing.T) {
	type reply struct {
		doc *xmlrep.PolicyDoc
		err error
	}
	script := make(chan reply)
	src := func() (*xmlrep.PolicyDoc, error) {
		r := <-script // zero reply (nothing new) once script is closed
		return r.doc, r.err
	}
	e := DefaultPolicy()
	events := make(chan ReloadEvent, 8)
	stop := e.Subscribe(src, time.Millisecond, func(ev ReloadEvent) { events <- ev })
	next := func() ReloadEvent {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("no reload event")
			return ReloadEvent{}
		}
	}

	script <- reply{doc: stampedDoc(1, "retry")}
	if ev := next(); !ev.Applied || ev.Revision != 1 || ev.Err != nil {
		t.Fatalf("newer revision: event %+v, want applied revision 1", ev)
	}
	// A revision that is not newer is skipped without an event: the
	// next event belongs to the reply after it.
	script <- reply{doc: stampedDoc(1, "deny")}
	script <- reply{err: errors.New("control plane unreachable")}
	if ev := next(); ev.Applied || ev.Revision != 1 || ev.Err == nil || !strings.Contains(ev.Err.Error(), "unreachable") {
		t.Fatalf("source error: event %+v, want the source's error at revision 1", ev)
	}
	if got := e.Decide("x", gen.ClassCrash).Action; got != gen.ActionRetry {
		t.Errorf("skipped revision changed the rules: decision = %v, want retry", got)
	}
	unstamped := stampedDoc(2, "deny")
	unstamped.Checksum = ""
	script <- reply{doc: unstamped}
	if ev := next(); ev.Applied || ev.Revision != 1 || ev.Err == nil || !strings.Contains(ev.Err.Error(), "unstamped") {
		t.Fatalf("unstamped document: event %+v, want an ApplyDoc rejection at revision 1", ev)
	}
	script <- reply{doc: stampedDoc(2, "deny")}
	if ev := next(); !ev.Applied || ev.Revision != 2 {
		t.Fatalf("newer revision: event %+v, want applied revision 2", ev)
	}
	if got := e.Decide("x", gen.ClassCrash).Action; got != gen.ActionDeny {
		t.Errorf("decision after revision 2 = %v, want deny", got)
	}

	close(script)
	stop()
	stop() // a second stop is a no-op
	select {
	case ev := <-events:
		t.Errorf("event after the last reply: %+v", ev)
	default:
	}
}
