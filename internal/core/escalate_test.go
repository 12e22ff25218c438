package core

import (
	"path/filepath"
	"testing"

	"healers/internal/collect"
	"healers/internal/gen"
	"healers/internal/inject"
	"healers/internal/xmlrep"
)

// aggWith builds a fleet aggregate with one function's call count and
// per-class containment counters.
func aggWith(fn string, calls uint64, byClass map[gen.FailureClass]uint64) *collect.FleetAggregate {
	fa := &collect.FuncAggregate{FuncCounters: xmlrep.FuncCounters{Calls: calls}}
	for c, n := range byClass {
		fa.ContainedBy[c] = n
	}
	return &collect.FleetAggregate{Funcs: map[string]*collect.FuncAggregate{fn: fa}}
}

func TestEscalatePolicyClimbsRetryToDeny(t *testing.T) {
	cur := &xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Func: "*", Class: "*", Action: "retry", Retries: 1}},
	}
	cur.Stamp(1)
	agg := aggWith("malloc", 100, map[gen.FailureClass]uint64{gen.ClassCrash: 10})

	next, escs := EscalatePolicy(agg, cur, EscalationConfig{})
	if next == nil || len(escs) != 1 {
		t.Fatalf("EscalatePolicy = %v, %v; want one escalation", next, escs)
	}
	esc := escs[0]
	if esc.Func != "malloc" || esc.Class != "crash" || esc.From != "retry" || esc.To != "deny" {
		t.Errorf("escalation = %+v, want malloc/crash retry -> deny", esc)
	}
	if esc.Rate != 0.1 || esc.Contained != 10 || esc.Calls != 100 {
		t.Errorf("evidence = %+v, want 10/100 (10%%)", esc)
	}
	if next.Revision != 2 {
		t.Errorf("revision = %d, want 2", next.Revision)
	}
	if err := next.Validate(); err != nil {
		t.Errorf("escalated document does not validate: %v", err)
	}
	// The specific rule is prepended: first-match beats the wildcard.
	if r := next.Rules[0]; r.Func != "malloc" || r.Class != "crash" || r.Action != "deny" {
		t.Errorf("rules[0] = %+v, want the specific malloc/crash deny", r)
	}
	if len(next.Rules) != 2 {
		t.Errorf("rule count = %d, want 2 (specific + original wildcard)", len(next.Rules))
	}
}

// TestEscalatePolicyLadderTop walks the whole ladder: retry -> deny ->
// deny+breaker -> no further change.
func TestEscalatePolicyLadderTop(t *testing.T) {
	cur := &xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Func: "*", Class: "*", Action: "retry"}},
	}
	cur.Stamp(1)
	agg := aggWith("free", 100, map[gen.FailureClass]uint64{gen.ClassHang: 50})

	// Rung 1: retry -> deny.
	doc2, escs := EscalatePolicy(agg, cur, EscalationConfig{})
	if doc2 == nil || escs[0].To != "deny" {
		t.Fatalf("rung 1 = %v, want deny", escs)
	}
	// Rung 2: deny -> deny+breaker(1), climbing the same specific rule
	// in place rather than stacking a shadowed duplicate.
	doc3, escs := EscalatePolicy(agg, doc2, EscalationConfig{})
	if doc3 == nil || escs[0].To != "deny+breaker(1)" {
		t.Fatalf("rung 2 = %v, want deny+breaker(1)", escs)
	}
	if escs[0].From != "deny" {
		t.Errorf("rung 2 from = %q, want deny", escs[0].From)
	}
	if len(doc3.Rules) != len(doc2.Rules) {
		t.Errorf("rung 2 stacked a duplicate rule: %d vs %d", len(doc3.Rules), len(doc2.Rules))
	}
	if doc3.Revision != 3 {
		t.Errorf("revision = %d, want 3", doc3.Revision)
	}
	// Top rung: nothing left to tighten.
	if doc4, escs := EscalatePolicy(agg, doc3, EscalationConfig{}); doc4 != nil || escs != nil {
		t.Errorf("top rung escalated anyway: %v, %v", doc4, escs)
	}
}

func TestEscalatePolicyThresholds(t *testing.T) {
	cfg := EscalationConfig{FaultRate: 0.05, MinCalls: 16}
	tests := []struct {
		name      string
		calls     uint64
		contained uint64
		want      bool
	}{
		{"below rate", 100, 4, false},
		{"at rate", 100, 5, true},
		{"below evidence floor", 10, 9, false},
		{"at evidence floor", 16, 1, true}, // 1/16 = 6.25% >= 5%
		{"zero contained", 100, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			agg := aggWith("open", tt.calls, map[gen.FailureClass]uint64{gen.ClassCrash: tt.contained})
			doc, _ := EscalatePolicy(agg, nil, cfg)
			if got := doc != nil; got != tt.want {
				t.Errorf("escalated = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestEscalatePolicyNilCurrent escalates against no policy at all: the
// implicit default is deny, so the first rung installs the tightened
// breaker.
func TestEscalatePolicyNilCurrent(t *testing.T) {
	agg := aggWith("close", 100, map[gen.FailureClass]uint64{gen.ClassOOM: 20})
	doc, escs := EscalatePolicy(agg, nil, EscalationConfig{TightenedBreaker: 3})
	if doc == nil || len(escs) != 1 {
		t.Fatalf("EscalatePolicy = %v, %v", doc, escs)
	}
	if escs[0].From != "deny (default)" || escs[0].To != "deny+breaker(3)" {
		t.Errorf("escalation = %+v, want deny (default) -> deny+breaker(3)", escs[0])
	}
	if doc.Revision != 1 {
		t.Errorf("revision = %d, want 1 (base had none)", doc.Revision)
	}
}

// TestEscalatePolicyDeterministic: two passes over the same aggregate
// must stamp byte-identical documents — sorted iteration, reproducible
// checksums.
func TestEscalatePolicyDeterministic(t *testing.T) {
	agg := &collect.FleetAggregate{Funcs: map[string]*collect.FuncAggregate{}}
	for _, fn := range []string{"zeta", "alpha", "mid"} {
		fa := &collect.FuncAggregate{FuncCounters: xmlrep.FuncCounters{Calls: 100}}
		fa.ContainedBy[gen.ClassCrash] = 30
		fa.ContainedBy[gen.ClassHang] = 20
		agg.Funcs[fn] = fa
	}
	a, _ := EscalatePolicy(agg, nil, EscalationConfig{})
	b, _ := EscalatePolicy(agg, nil, EscalationConfig{})
	if a == nil || b == nil {
		t.Fatal("no escalation")
	}
	da, err := xmlrep.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := xmlrep.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Errorf("repeated passes disagree:\n%s\nvs\n%s", da, db)
	}
	if a.Checksum != b.Checksum {
		t.Errorf("checksums disagree: %s vs %s", a.Checksum, b.Checksum)
	}
}

// TestReprobeFunction re-derives one function through a warm cache: the
// target is probed fresh while the rest of the library stays cached.
func TestReprobeFunction(t *testing.T) {
	tk, err := NewToolkit()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := inject.OpenCache(filepath.Join(t.TempDir(), "cache.xml"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache for the target.
	if _, err := tk.InjectFunction("libc.so.6", "strlen", inject.WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d after warmup, want 1", cache.Len())
	}
	fr, err := tk.ReprobeFunction("libc.so.6", "strlen", cache)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Name != "strlen" || fr.Probes == 0 {
		t.Errorf("reprobe report = %+v, want fresh strlen probes", fr)
	}
	if cache.Len() != 1 {
		t.Errorf("cache len = %d after reprobe, want 1 (refreshed entry)", cache.Len())
	}
	if err := cache.Save(); err != nil {
		t.Errorf("cache save: %v", err)
	}
}
