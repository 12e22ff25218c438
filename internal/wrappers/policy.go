package wrappers

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"healers/internal/cval"
	"healers/internal/gen"
	"healers/internal/xmlrep"
)

// PolicyEngine implements gen.ContainPolicy: a rule table mapping
// (function, failure class) to a recovery action, plus a per-function
// circuit breaker. The engine is shared by every wrapped function of a
// containment wrapper library and, like gen.State, may be consulted from
// concurrent probe processes.
//
// The rule table is hot-swappable: ApplyDoc atomically replaces the
// whole rule set (rules, breaker parameters, revision) in one pointer
// store, so a running process picks up a new recovery policy without a
// restart and no Decide call ever observes a half-applied table. Decide
// is therefore lock-free; only the breaker's failure records sit behind
// a mutex. Breaker trip state survives a reload on purpose — a new rule
// set does not forgive a function the breaker already condemned.
type PolicyEngine struct {
	// live is the current immutable rule set; swapped wholesale on
	// reload, never mutated in place.
	live atomic.Pointer[ruleSet]

	// mu guards the breaker failure records.
	mu    sync.Mutex
	state map[string]*breakerState

	reloads  atomic.Uint64
	rejected atomic.Uint64

	// now is the clock, injectable for window tests.
	now func() time.Time
}

// ruleSet is one immutable generation of the engine's configuration.
// Reloads build a fresh ruleSet and publish it with a single atomic
// store; readers load the pointer once per decision and work on a
// consistent snapshot.
type ruleSet struct {
	rules    []PolicyRule
	breaker  BreakerConfig
	revision int
}

// PolicyRule is one recovery rule; the first rule matching both Func and
// Class wins. An empty or "*" Func/Class matches anything.
type PolicyRule struct {
	Func     string
	Class    string
	Decision gen.ContainDecision
	// BreakerThreshold, when > 0, overrides the engine-level breaker
	// threshold for failures matched by this rule — the escalation
	// ladder's last rung (a one-strike breaker for a single function).
	BreakerThreshold int
}

// matches reports whether the rule applies to (fn, class).
func (r *PolicyRule) matches(fn string, class gen.FailureClass) bool {
	if r.Func != "" && r.Func != "*" && r.Func != fn {
		return false
	}
	if r.Class != "" && r.Class != "*" && r.Class != class.String() {
		return false
	}
	return true
}

// BreakerConfig parametrizes the circuit breaker: a function reaching
// Threshold contained failures within Window flips to always-deny.
// Threshold <= 0 disables the breaker.
type BreakerConfig struct {
	Threshold int
	Window    time.Duration
}

// Circuit-breaker defaults: trip after 8 contained failures within a
// minute. The window keeps one failure burst from condemning a function
// forever on long-running processes with rare sporadic faults.
const (
	DefaultBreakerThreshold = 8
	DefaultBreakerWindow    = time.Minute
)

// breakerState is one function's failure record.
type breakerState struct {
	failures []time.Time
	tripped  bool
}

// NewPolicyEngine builds an engine from a rule table and breaker
// configuration. A zero-valued BreakerConfig gets the defaults; rules
// may be nil (every failure is denied with its class errno). The
// engine starts at revision 0: any stamped policy document revision
// hot-reloads over it.
func NewPolicyEngine(rules []PolicyRule, breaker BreakerConfig) *PolicyEngine {
	if breaker.Threshold == 0 {
		breaker.Threshold = DefaultBreakerThreshold
	}
	if breaker.Window <= 0 {
		breaker.Window = DefaultBreakerWindow
	}
	e := &PolicyEngine{
		state: make(map[string]*breakerState),
		now:   time.Now,
	}
	e.live.Store(&ruleSet{rules: rules, breaker: breaker})
	return e
}

// DefaultPolicy is the containment wrapper's stock policy: deny every
// failure with its class errno, default breaker.
func DefaultPolicy() *PolicyEngine { return NewPolicyEngine(nil, BreakerConfig{}) }

// SoakPolicy is the recovery policy a sustained-chaos soak installs:
// every failure is denied with its class errno — the daemon's own
// retry loop replays the request — and the circuit breaker is disabled
// (Threshold < 0), because condemning a hot function for transient
// *injected* faults would turn sustained chaos into a permanent denial
// of service.
func SoakPolicy() *PolicyEngine { return NewPolicyEngine(nil, BreakerConfig{Threshold: -1}) }

// Decide implements gen.ContainPolicy. It is lock-free: one atomic load
// of the current rule set, then a scan of an immutable table.
func (e *PolicyEngine) Decide(fn string, class gen.FailureClass) gen.ContainDecision {
	rs := e.live.Load()
	for i := range rs.rules {
		if rs.rules[i].matches(fn, class) {
			return rs.rules[i].Decision
		}
	}
	return gen.ContainDecision{Action: gen.ActionDeny}
}

// RecordFailure implements gen.ContainPolicy: it notes one contained
// failure of fn and reports the trip transition. The effective breaker
// threshold is the first matching rule's override when it has one, else
// the rule set's engine-level threshold.
func (e *PolicyEngine) RecordFailure(fn string, class gen.FailureClass) bool {
	rs := e.live.Load()
	threshold := rs.breaker.Threshold
	for i := range rs.rules {
		if rs.rules[i].matches(fn, class) {
			if rs.rules[i].BreakerThreshold > 0 {
				threshold = rs.rules[i].BreakerThreshold
			}
			break
		}
	}
	if threshold <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	bs := e.state[fn]
	if bs == nil {
		bs = &breakerState{}
		e.state[fn] = bs
	}
	if bs.tripped {
		return false
	}
	now := e.now()
	cutoff := now.Add(-rs.breaker.Window)
	kept := bs.failures[:0]
	for _, t := range bs.failures {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	bs.failures = append(kept, now)
	if len(bs.failures) >= threshold {
		bs.tripped = true
		bs.failures = nil
		return true
	}
	return false
}

// Tripped implements gen.ContainPolicy.
func (e *PolicyEngine) Tripped(fn string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	bs := e.state[fn]
	return bs != nil && bs.tripped
}

// Revision reports the policy-document revision the engine currently
// runs (0 until a stamped document has been loaded or applied).
func (e *PolicyEngine) Revision() int { return e.live.Load().revision }

// Reloads reports how many rule-set hot swaps ApplyDoc has performed.
func (e *PolicyEngine) Reloads() uint64 { return e.reloads.Load() }

// RejectedReloads reports how many ApplyDoc attempts were refused
// (corrupted, malformed, unstamped, or stale documents); each left the
// previous rules in force.
func (e *PolicyEngine) RejectedReloads() uint64 { return e.rejected.Load() }

// ApplyDoc hot-swaps the engine's rule set to a stamped policy document.
// The document must validate (see xmlrep.PolicyDoc.Validate), must carry
// a checksum (an unstamped document cannot prove its integrity), and its
// revision must be strictly greater than the engine's — a replayed or
// stale revision is refused. On any rejection the previous rules stay in
// force and RejectedReloads is bumped; on success the swap is one atomic
// pointer store and Reloads is bumped. Concurrent Decide/RecordFailure
// calls see either the old or the new rule set, never a mix.
func (e *PolicyEngine) ApplyDoc(doc *xmlrep.PolicyDoc) error {
	rs, err := compileRuleSet(doc)
	if err != nil {
		e.rejected.Add(1)
		return err
	}
	if doc.Checksum == "" {
		e.rejected.Add(1)
		return fmt.Errorf("wrappers: policy reload: document is unstamped (no checksum); refusing to hot-load")
	}
	// Publish with a CAS loop so two concurrent ApplyDoc calls cannot
	// both install the same revision, and a newer revision racing an
	// older one cannot be overwritten by it.
	for {
		cur := e.live.Load()
		if doc.Revision <= cur.revision {
			e.rejected.Add(1)
			return fmt.Errorf("wrappers: policy reload: stale revision %d (running %d)", doc.Revision, cur.revision)
		}
		if e.live.CompareAndSwap(cur, rs) {
			e.reloads.Add(1)
			return nil
		}
	}
}

// ApplyXML unmarshals a policy document and hot-swaps it in (see
// ApplyDoc for the acceptance rules).
func (e *PolicyEngine) ApplyXML(data []byte) error {
	doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
	if err != nil {
		e.rejected.Add(1)
		return fmt.Errorf("wrappers: policy reload: %w", err)
	}
	return e.ApplyDoc(doc)
}

// compileRuleSet validates a policy document and compiles it into an
// immutable ruleSet — the shared back end of PolicyFromDoc (initial
// load) and ApplyDoc (hot reload).
func compileRuleSet(doc *xmlrep.PolicyDoc) (*ruleSet, error) {
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("wrappers: policy: %w", err)
	}
	rules := make([]PolicyRule, 0, len(doc.Rules))
	for _, rx := range doc.Rules {
		action, _ := gen.ContainActionByName(rx.Action) // Validate vetted the name
		d := gen.ContainDecision{
			Action:  action,
			Retries: rx.Retries,
			Backoff: time.Duration(rx.BackoffMS) * time.Millisecond,
		}
		if action == gen.ActionRetry && d.Retries <= 0 {
			d.Retries = 1
		}
		if action == gen.ActionSubstitute {
			v := cval.Int(rx.Value)
			d.Substitute = &v
		}
		rules = append(rules, PolicyRule{
			Func:             rx.Func,
			Class:            rx.Class,
			Decision:         d,
			BreakerThreshold: rx.BreakerThreshold,
		})
	}
	breaker := BreakerConfig{
		Threshold: doc.BreakerThreshold,
		Window:    time.Duration(doc.BreakerWindowMS) * time.Millisecond,
	}
	if breaker.Threshold == 0 {
		breaker.Threshold = DefaultBreakerThreshold
	}
	if breaker.Window <= 0 {
		breaker.Window = DefaultBreakerWindow
	}
	return &ruleSet{rules: rules, breaker: breaker, revision: doc.Revision}, nil
}

// PolicyFromDoc builds the engine a policy XML document describes. Unlike
// ApplyDoc it accepts unstamped (revision 0, no checksum) documents —
// the initial load of a local file needs no replay protection — but a
// present checksum must still match.
func PolicyFromDoc(doc *xmlrep.PolicyDoc) (*PolicyEngine, error) {
	rs, err := compileRuleSet(doc)
	if err != nil {
		return nil, err
	}
	e := &PolicyEngine{
		state: make(map[string]*breakerState),
		now:   time.Now,
	}
	e.live.Store(rs)
	return e, nil
}
