package wrappers

import (
	"fmt"
	"os"
	"path/filepath"
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

func TestFilePolicySource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.xml")
	src := FilePolicySource(path)

	// Missing file: not there yet, not an error.
	if doc, err := src(); doc != nil || err != nil {
		t.Fatalf("missing file: doc=%v err=%v", doc, err)
	}

	doc1 := stampedDoc(1, "retry")
	data, err := xmlrep.Marshal(doc1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := src()
	if err != nil || got == nil || got.Revision != 1 {
		t.Fatalf("first read: doc=%v err=%v", got, err)
	}
	// Unchanged content: silent.
	if got, err := src(); got != nil || err != nil {
		t.Fatalf("unchanged file reread: doc=%v err=%v", got, err)
	}
	// Corrupted write: reported once, then silent until it changes.
	if err := os.WriteFile(path, []byte("<healers-policy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := src(); err == nil {
		t.Fatal("corrupted file not reported")
	}
	if _, err := src(); err != nil {
		t.Fatalf("corrupted file reported twice: %v", err)
	}
}

// TestSubscribeFileWatch wires a file source to the engine and checks
// the full watch path: initial load, a newer revision, and a stale file
// rewrite that must be skipped silently.
func TestSubscribeFileWatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.xml")
	write := func(doc *xmlrep.PolicyDoc) {
		data, err := xmlrep.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(stampedDoc(1, "retry"))

	e := DefaultPolicy()
	events := make(chan ReloadEvent, 16)
	stop := e.Subscribe(FilePolicySource(path), time.Millisecond, func(ev ReloadEvent) {
		events <- ev
	})
	defer stop()

	waitRevision := func(rev int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for e.Revision() != rev {
			if time.Now().After(deadline) {
				t.Fatalf("engine never reached revision %d (at %d)", rev, e.Revision())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitRevision(1)
	write(stampedDoc(2, "deny"))
	waitRevision(2)

	// A stale rewrite must not roll the engine back.
	write(stampedDoc(1, "retry"))
	time.Sleep(20 * time.Millisecond)
	if e.Revision() != 2 {
		t.Errorf("stale file rewrite rolled the engine back to %d", e.Revision())
	}
	stop()
	stop() // idempotent

	applied := 0
	for {
		select {
		case ev := <-events:
			if ev.Applied {
				applied++
			}
		default:
			if applied != 2 {
				t.Errorf("applied events = %d, want 2", applied)
			}
			return
		}
	}
}
