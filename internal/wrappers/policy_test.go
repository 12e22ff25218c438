package wrappers

import (
	"testing"
	"time"

	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
	"healers/internal/xmlrep"
)

func TestPolicyRuleMatching(t *testing.T) {
	retry := gen.ContainDecision{Action: gen.ActionRetry, Retries: 2}
	deny := gen.ContainDecision{Action: gen.ActionDeny}
	escalate := gen.ContainDecision{Action: gen.ActionEscalate}
	e := NewPolicyEngine([]PolicyRule{
		{Func: "read", Class: "hang", Decision: retry},
		{Func: "malloc", Decision: escalate},
		{Class: "crash", Decision: deny},
	}, BreakerConfig{})

	if d := e.Decide("read", gen.ClassHang); d.Action != gen.ActionRetry || d.Retries != 2 {
		t.Errorf("read/hang = %v", d)
	}
	// malloc matches any class via the func-only rule.
	if d := e.Decide("malloc", gen.ClassOOM); d.Action != gen.ActionEscalate {
		t.Errorf("malloc/oom = %v", d)
	}
	if d := e.Decide("strlen", gen.ClassCrash); d.Action != gen.ActionDeny {
		t.Errorf("strlen/crash = %v", d)
	}
	// No rule matches: the default is deny.
	if d := e.Decide("strlen", gen.ClassHang); d.Action != gen.ActionDeny {
		t.Errorf("unmatched = %v, want default deny", d)
	}
}

func TestBreakerTripsWithinWindow(t *testing.T) {
	e := NewPolicyEngine(nil, BreakerConfig{Threshold: 3, Window: time.Minute})
	clock := time.Unix(1000, 0)
	e.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		if e.RecordFailure("strcpy", gen.ClassCrash) {
			t.Fatalf("breaker tripped after %d failures", i+1)
		}
	}
	if !e.RecordFailure("strcpy", gen.ClassCrash) {
		t.Fatal("third failure in window did not trip")
	}
	if !e.Tripped("strcpy") {
		t.Error("Tripped = false after trip")
	}
	// The trip transition reports once; later failures don't re-trip.
	if e.RecordFailure("strcpy", gen.ClassCrash) {
		t.Error("tripped breaker reported a second trip")
	}
	// Other functions are unaffected.
	if e.Tripped("strlen") {
		t.Error("unrelated function tripped")
	}
}

func TestBreakerWindowExpiresOldFailures(t *testing.T) {
	e := NewPolicyEngine(nil, BreakerConfig{Threshold: 3, Window: time.Minute})
	clock := time.Unix(1000, 0)
	e.now = func() time.Time { return clock }

	e.RecordFailure("f", gen.ClassCrash)
	e.RecordFailure("f", gen.ClassCrash)
	// Two stale failures age out of the window; two fresh ones are not
	// enough to trip.
	clock = clock.Add(2 * time.Minute)
	if e.RecordFailure("f", gen.ClassCrash) {
		t.Fatal("tripped although earlier failures left the window")
	}
	if e.RecordFailure("f", gen.ClassCrash) {
		t.Fatal("two in-window failures tripped a threshold of 3")
	}
	if !e.RecordFailure("f", gen.ClassCrash) {
		t.Fatal("three in-window failures did not trip")
	}
}

func TestBreakerDisabled(t *testing.T) {
	e := NewPolicyEngine(nil, BreakerConfig{Threshold: -1})
	for i := 0; i < 100; i++ {
		if e.RecordFailure("f", gen.ClassCrash) {
			t.Fatal("disabled breaker tripped")
		}
	}
	if e.Tripped("f") {
		t.Error("disabled breaker reports tripped")
	}
}

func TestPolicyFromDoc(t *testing.T) {
	doc := &xmlrep.PolicyDoc{
		BreakerThreshold: 2,
		BreakerWindowMS:  500,
		Rules: []xmlrep.PolicyRuleXML{
			{Func: "read", Class: "hang", Action: "retry", Retries: 3, BackoffMS: 10},
			{Func: "rand", Action: "substitute", Value: 4},
			{Class: "crash", Action: "deny"},
			{Action: "escalate"},
		},
	}
	e, err := PolicyFromDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Decide("read", gen.ClassHang); d.Action != gen.ActionRetry || d.Retries != 3 || d.Backoff != 10*time.Millisecond {
		t.Errorf("read/hang = %+v", d)
	}
	d := e.Decide("rand", gen.ClassAbort)
	if d.Action != gen.ActionSubstitute || d.Substitute == nil || d.Substitute.Int32() != 4 {
		t.Errorf("rand substitute = %+v", d)
	}
	if d := e.Decide("anything", gen.ClassOOM); d.Action != gen.ActionEscalate {
		t.Errorf("fallthrough = %+v", d)
	}
	// The document's breaker parameters are in force.
	clock := time.Unix(0, 0)
	e.now = func() time.Time { return clock }
	e.RecordFailure("f", gen.ClassCrash)
	if !e.RecordFailure("f", gen.ClassCrash) {
		t.Error("documented threshold of 2 did not trip")
	}
}

func TestPolicyFromDocRejectsGarbage(t *testing.T) {
	if _, err := PolicyFromDoc(&xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Action: "explode"}},
	}); err == nil {
		t.Error("unknown action accepted")
	}
	if _, err := PolicyFromDoc(&xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Class: "meltdown", Action: "deny"}},
	}); err == nil {
		t.Error("unknown class accepted")
	}
	// A retry rule without a count still retries at least once.
	e, err := PolicyFromDoc(&xmlrep.PolicyDoc{
		Rules: []xmlrep.PolicyRuleXML{{Action: "retry"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Decide("f", gen.ClassCrash); d.Retries != 1 {
		t.Errorf("defaulted retries = %d, want 1", d.Retries)
	}
}

func TestPolicyDocRoundTrip(t *testing.T) {
	doc := xmlrep.NewPolicyDoc(4, 250, []xmlrep.PolicyRuleXML{
		{Func: "read", Class: "hang", Action: "retry", Retries: 2},
		{Action: "deny"},
	})
	data, err := xmlrep.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := xmlrep.Kind(data); err != nil || k != xmlrep.KindPolicy {
		t.Fatalf("Kind = %v, %v; want policy", k, err)
	}
	back, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
	if err != nil {
		t.Fatal(err)
	}
	if back.BreakerThreshold != 4 || back.BreakerWindowMS != 250 || len(back.Rules) != 2 {
		t.Errorf("round trip = %+v", back)
	}
	if back.Rules[0].Func != "read" || back.Rules[0].Retries != 2 {
		t.Errorf("rule 0 = %+v", back.Rules[0])
	}
	if _, err := PolicyFromDoc(back); err != nil {
		t.Errorf("parsed doc rejected: %v", err)
	}
}

func TestContainmentWrapperEndToEnd(t *testing.T) {
	lc := libc(t)
	wrapper, st, err := Containment(lc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)

	// A healthy call is transparent.
	s, _ := env.Img.StaticString("hello")
	if v, f := call("strlen", cval.Ptr(s)); f != nil || v.Uint32() != 5 {
		t.Fatalf("strlen = %v, %v", v, f)
	}
	// A crashing call is contained, not fatal.
	env.Errno = 0
	v, f := call("strlen", cval.Ptr(0))
	if f != nil {
		t.Fatalf("contained strlen faulted: %v", f)
	}
	if v.Int32() != -1 || env.Errno != cval.EFAULT {
		t.Errorf("contained strlen = %d, errno %d; want -1/EFAULT", v.Int32(), env.Errno)
	}
	idx := st.Index("strlen")
	if st.Funcs[idx].Contained != 1 {
		t.Errorf("Contained = %d, want 1", st.Funcs[idx].Contained)
	}
	// The default breaker eventually flips strlen to upfront deny.
	for i := 0; i < DefaultBreakerThreshold; i++ {
		call("strlen", cval.Ptr(0))
	}
	if st.Funcs[idx].BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", st.Funcs[idx].BreakerTrips)
	}
	env.Errno = 0
	call("strlen", cval.Ptr(0))
	if env.Errno != cval.EDenied {
		t.Errorf("post-trip errno = %d, want EDenied", env.Errno)
	}
}

func TestContainmentWithArgCheckDeniesFirst(t *testing.T) {
	lc := libc(t)
	api := StrongestAPI([]*ctypes.Prototype{lc.Proto("strlen")})
	wrapper, st, err := Containment(lc, api, nil, []string{"strlen"})
	if err != nil {
		t.Fatal(err)
	}
	env, call := loadWith(t, wrapper)
	env.Errno = 0
	v, f := call("strlen", cval.Ptr(0))
	if f != nil {
		t.Fatalf("checked call faulted: %v", f)
	}
	// The argument check vetoes before the call: EDenied, not EFAULT,
	// and nothing to contain.
	if v.Int32() != -1 || env.Errno != cval.EDenied {
		t.Errorf("ret=%d errno=%d, want -1/EDenied", v.Int32(), env.Errno)
	}
	idx := st.Index("strlen")
	if st.Funcs[idx].Contained != 0 || st.Funcs[idx].Denied != 1 {
		t.Errorf("contained=%d denied=%d, want 0/1", st.Funcs[idx].Contained, st.Funcs[idx].Denied)
	}
}
