// Control plane: the collection server doubles as the distribution
// point for recovery-policy documents. Containment processes poll it
// with healers-policy-request frames and hot-reload whatever newer
// revision it serves; operators (and the -derive loop) push stamped
// healers-policy documents at it and get a healers-policy-ack back.
// Both exchanges ride the ordinary collect framing via WithHandler, so
// the collector stays one process, one port, one wire protocol.

package collect

import (
	"fmt"
	"sync"

	"healers/internal/xmlrep"
)

// ControlPlane holds the collector's current recovery-policy document
// and answers the policy wire exchanges. Register its Handler on a
// Server (collect.Serve(addr, collect.WithHandler(cp.Handler()))) to
// turn that server into a policy distribution point; SetPolicy is also
// called directly by the adaptive-derivation loop when it escalates.
type ControlPlane struct {
	mu    sync.Mutex
	doc   *xmlrep.PolicyDoc
	data  []byte // marshalled form of doc, served verbatim to requesters
	stats ControlStats
}

// ControlStats are the control plane's counters: the current policy
// revision, push outcomes, and how many policy documents it has served
// to polling subscribers.
type ControlStats struct {
	// Revision is the current policy revision (0 = no policy loaded).
	Revision int
	// Pushes counts accepted policy-document pushes (SetPolicy
	// successes, wire and local alike).
	Pushes uint64
	// Rejected counts refused pushes: malformed, unstamped, corrupted,
	// or stale-revision documents. Each left the previous policy in
	// force.
	Rejected uint64
	// Served counts full policy documents sent to requesters whose
	// revision was behind.
	Served uint64
	// NotModified counts requests answered with an already-current ack
	// instead of a document — the steady state of an idle fleet poll.
	NotModified uint64
	// Escalations counts rules tightened by the adaptive-derivation
	// loop (NoteEscalations).
	Escalations uint64
}

// NewControlPlane returns an empty control plane: no policy loaded,
// requesters are told revision 0 until SetPolicy succeeds.
func NewControlPlane() *ControlPlane {
	return &ControlPlane{}
}

// SetPolicy validates and adopts a policy document as the current
// revision. The document must validate structurally, must be stamped
// (revision >= 1 and a matching checksum), and must be strictly newer
// than the current revision; otherwise the previous policy stays in
// force and the rejection is counted. The adopted document is treated
// as immutable — callers must not mutate it afterwards.
func (cp *ControlPlane) SetPolicy(doc *xmlrep.PolicyDoc) error {
	reject := func(err error) error {
		cp.mu.Lock()
		cp.stats.Rejected++
		cp.mu.Unlock()
		return err
	}
	if err := doc.Validate(); err != nil {
		return reject(fmt.Errorf("collect: control plane: %w", err))
	}
	if doc.Revision < 1 || doc.Checksum == "" {
		return reject(fmt.Errorf("collect: control plane: document is unstamped (revision %d); stamp it first", doc.Revision))
	}
	data, err := xmlrep.Marshal(doc)
	if err != nil {
		return reject(fmt.Errorf("collect: control plane: %w", err))
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cur := cp.stats.Revision; doc.Revision <= cur {
		cp.stats.Rejected++
		return fmt.Errorf("collect: control plane: stale revision %d (serving %d)", doc.Revision, cur)
	}
	cp.doc = doc
	cp.data = data
	cp.stats.Revision = doc.Revision
	cp.stats.Pushes++
	return nil
}

// Policy returns the current policy document and its revision (nil, 0
// when none is loaded). The document is shared and must be treated as
// read-only.
func (cp *ControlPlane) Policy() (*xmlrep.PolicyDoc, int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.doc, cp.stats.Revision
}

// Stats snapshots the control plane's counters.
func (cp *ControlPlane) Stats() ControlStats {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.stats
}

// NoteEscalations counts n escalation decisions made by an adaptive
// derivation pass, for /metrics.
func (cp *ControlPlane) NoteEscalations(n int) {
	cp.mu.Lock()
	cp.stats.Escalations += uint64(n)
	cp.mu.Unlock()
}

// Handler returns the table of the policy exchanges; register it with
// collect.WithHandler. It answers two kinds — KindPolicy (a push: adopt
// or refuse, reply with a PolicyAck) and KindPolicyRequest (a poll:
// reply with the full document when the requester is behind, an
// already-current ack otherwise). Policy pushers must use Client.Call
// (the exchange has a response frame); a fire-and-forget Send would
// leave the ack unread on the socket.
func (cp *ControlPlane) Handler() Handler {
	return Handler{xmlrep.KindPolicy: cp.handlePush, xmlrep.KindPolicyRequest: cp.handleRequest}
}

// handlePush adopts or refuses a pushed policy document and renders the
// ack either way.
func (cp *ControlPlane) handlePush(_ string, data []byte) []byte {
	ack := xmlrep.PolicyAck{OK: true}
	doc, err := xmlrep.Unmarshal[xmlrep.PolicyDoc](data)
	if err == nil {
		err = cp.SetPolicy(doc)
	} else {
		cp.mu.Lock()
		cp.stats.Rejected++
		cp.mu.Unlock()
	}
	if err != nil {
		ack.OK = false
		ack.Reason = err.Error()
	}
	cp.mu.Lock()
	ack.Revision = cp.stats.Revision
	cp.mu.Unlock()
	return xmlrep.MustMarshal(&ack)
}

// handleRequest serves the current document to a requester that is
// behind, or an ack telling it it is current.
func (cp *ControlPlane) handleRequest(_ string, data []byte) []byte {
	req, err := xmlrep.Unmarshal[xmlrep.PolicyRequest](data)
	if err != nil {
		return xmlrep.MustMarshal(&xmlrep.PolicyAck{OK: false, Reason: "malformed policy request"})
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.doc == nil || req.HaveRevision >= cp.stats.Revision {
		cp.stats.NotModified++
		return xmlrep.MustMarshal(&xmlrep.PolicyAck{OK: true, Revision: cp.stats.Revision})
	}
	cp.stats.Served++
	return cp.data
}

// FetchPolicy asks a control plane for a policy document newer than
// haveRev, identifying as client. It returns (nil, nil) when the
// control plane's policy is not newer (the ack answer), the document
// when it is, and an error for transport failures, refusals, or
// unparseable answers. Wrap it in a closure to make a
// wrappers.PolicySource:
//
//	engine.Subscribe(func() (*xmlrep.PolicyDoc, error) {
//		return collect.FetchPolicy(c, "worker-3", engine.Revision())
//	}, interval, nil)
func FetchPolicy(c *Client, client string, haveRev int) (*xmlrep.PolicyDoc, error) {
	resp, err := c.Call(&xmlrep.PolicyRequest{Client: client, HaveRevision: haveRev})
	if err != nil {
		return nil, err
	}
	kind, err := xmlrep.Kind(resp)
	if err != nil {
		return nil, fmt.Errorf("collect: policy fetch: %w", err)
	}
	switch kind {
	case xmlrep.KindPolicy:
		return xmlrep.Unmarshal[xmlrep.PolicyDoc](resp)
	case xmlrep.KindPolicyAck:
		ack, err := xmlrep.Unmarshal[xmlrep.PolicyAck](resp)
		if err != nil {
			return nil, err
		}
		if !ack.OK {
			return nil, fmt.Errorf("collect: policy fetch refused: %s", ack.Reason)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("collect: policy fetch: unexpected %s answer", kind)
	}
}

// PushPolicy uploads a stamped policy document to a control plane at
// addr in a one-shot connection and returns its ack. A transport-level
// success with ack.OK false means the control plane refused the
// document (the ack's Reason says why) — the caller decides whether
// that is fatal.
func PushPolicy(addr string, doc *xmlrep.PolicyDoc) (*xmlrep.PolicyAck, error) {
	c := &Client{Addr: addr}
	defer c.Close()
	resp, err := c.Call(doc)
	if err != nil {
		return nil, err
	}
	ack, err := xmlrep.Unmarshal[xmlrep.PolicyAck](resp)
	if err != nil {
		return nil, fmt.Errorf("collect: policy push: unexpected answer: %w", err)
	}
	return ack, nil
}
