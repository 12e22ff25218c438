package wrappers

import (
	"time"

	"healers/internal/xmlrep"
)

// PolicySource yields the latest candidate policy document for a
// subscribed engine, or (nil, nil) when nothing newer is available —
// the poll-quietly contract that keeps an idle subscription free of
// spurious reload attempts. healers-profile -policy-from implements it
// as a closure over collect.FetchPolicy (a control-plane fetch over the
// wire).
type PolicySource func() (*xmlrep.PolicyDoc, error)

// ReloadEvent reports one subscription poll that did something: a
// successful hot swap (Applied true, Revision the new revision) or a
// failure (Err set — source error or ApplyDoc rejection).
type ReloadEvent struct {
	Revision int
	Applied  bool
	Err      error
}

// Subscribe polls src every interval and hot-swaps newer policy
// documents into the engine. Documents whose revision is not greater
// than the engine's are skipped silently (the steady state of an idle
// poll); anything else goes through ApplyDoc and its acceptance rules.
// onEvent, when non-nil, observes every swap and every failure. The
// returned stop function cancels the subscription and waits for the
// poll goroutine to exit; it is idempotent.
func (e *PolicyEngine) Subscribe(src PolicySource, interval time.Duration, onEvent func(ReloadEvent)) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			e.pollOnce(src, onEvent)
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(quit)
			<-done
		}
	}
}

// pollOnce runs one subscription tick: fetch, skip-if-not-newer, apply.
func (e *PolicyEngine) pollOnce(src PolicySource, onEvent func(ReloadEvent)) {
	doc, err := src()
	if err != nil {
		if onEvent != nil {
			onEvent(ReloadEvent{Revision: e.Revision(), Err: err})
		}
		return
	}
	if doc == nil || doc.Revision <= e.Revision() {
		return
	}
	if err := e.ApplyDoc(doc); err != nil {
		if onEvent != nil {
			onEvent(ReloadEvent{Revision: e.Revision(), Err: err})
		}
		return
	}
	if onEvent != nil {
		onEvent(ReloadEvent{Revision: doc.Revision, Applied: true})
	}
}
