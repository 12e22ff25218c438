// Package xmlrep defines the self-describing XML documents the HEALERS
// toolkit exchanges (§2.3: "the gathered information sent to the server is
// in form of a self-describing XML document"):
//
//   - Declaration files: every function of a library with its prototype
//     (demo §3.1 "create a XML-style declaration file that describes the
//     prototype of each function in the library");
//   - Robust-API files: the fault-injection-derived weakest robust types;
//   - Profile logs: the profiling wrapper's call counts, execution times
//     and errno distributions (demo §3.3, Fig. 5), shipped to the central
//     collection server.
//
// Every document carries enough metadata for the server to "extract from
// the document which functions were wrapped and what kind of information
// was collected" without out-of-band knowledge.
package xmlrep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"
	"unicode/utf8"

	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
)

// DocKind discriminates document types for the collection server.
type DocKind string

// The document kinds.
const (
	KindDeclarations  DocKind = "declarations"
	KindRobustAPI     DocKind = "robust-api"
	KindProfile       DocKind = "profile"
	KindCampaignCache DocKind = "campaign-cache"
	KindPolicy        DocKind = "policy"
	// KindSequenceReport is a temporal fault-sequence campaign's result:
	// one victim scenario replayed under scripted fault combinations
	// across consecutive calls, each run classified against the golden
	// run's committed-state digest.
	KindSequenceReport DocKind = "sequence-report"
	// Control-plane kinds: a containment process asks the collector for a
	// newer recovery policy (KindPolicyRequest) and the collector answers
	// with either a full policy document or a not-modified/refusal ack
	// (KindPolicyAck). Operator pushes of new policy revisions reuse
	// KindPolicy and are answered with a KindPolicyAck.
	KindPolicyRequest DocKind = "policy-request"
	KindPolicyAck     DocKind = "policy-ack"
	// Distributed-campaign kinds: the coordinator/worker exchange of a
	// sharded fault-injection sweep rides the collect framing as
	// ordinary self-describing documents.
	KindWorkRequest DocKind = "work-request"
	KindWorkLease   DocKind = "work-lease"
	KindWorkResult  DocKind = "work-result"
	KindHeartbeat   DocKind = "heartbeat"
	KindWorkAck     DocKind = "work-ack"
	// Registry kinds: the shared campaign-cache registry's get/put/has
	// exchanges. A client asks for entries by content-hash key
	// (KindRegistryGet, answered with KindRegistryAnswer) and pushes
	// freshly derived entries back (KindRegistryPut, answered with
	// KindRegistryAck), turning every runner's local probing into a
	// fleet-wide amortized cost.
	KindRegistryGet    DocKind = "registry-get"
	KindRegistryPut    DocKind = "registry-put"
	KindRegistryAnswer DocKind = "registry-answer"
	KindRegistryAck    DocKind = "registry-ack"
)

// ParamDecl is one parameter in a declaration file.
type ParamDecl struct {
	Name string `xml:"name,attr,omitempty"`
	Type string `xml:"type,attr"`
	Role string `xml:"role,attr,omitempty"`
}

// FuncDecl is one function's prototype.
type FuncDecl struct {
	Name     string      `xml:"name,attr"`
	Returns  string      `xml:"returns,attr"`
	Variadic bool        `xml:"variadic,attr,omitempty"`
	Header   string      `xml:"header,attr,omitempty"`
	Params   []ParamDecl `xml:"param"`
}

// Declarations is the library declaration file.
type Declarations struct {
	XMLName   xml.Name   `xml:"healers-declarations"`
	Library   string     `xml:"library,attr"`
	Generated string     `xml:"generated,attr,omitempty"`
	Funcs     []FuncDecl `xml:"function"`
}

// NewDeclarations builds a declaration document from prototypes.
func NewDeclarations(library string, protos []*ctypes.Prototype) *Declarations {
	d := &Declarations{Library: library, Generated: timestamp()}
	for _, p := range protos {
		fd := FuncDecl{
			Name:     p.Name,
			Returns:  p.Ret.String(),
			Variadic: p.Variadic,
			Header:   p.Header,
		}
		for _, prm := range p.Params {
			fd.Params = append(fd.Params, ParamDecl{
				Name: prm.Name,
				Type: prm.Type.String(),
				Role: prm.Role.String(),
			})
		}
		d.Funcs = append(d.Funcs, fd)
	}
	return d
}

// RobustParamXML is one derived robust parameter type.
type RobustParamXML struct {
	Name  string `xml:"name,attr,omitempty"`
	Chain string `xml:"chain,attr"`
	Level string `xml:"level,attr"`
}

// RobustFuncXML is one function's derived robust API. Failures is the
// campaign's robustness-failure count for the function; it is optional
// (absent == 0) and only emitted by baseline documents, where the CI
// regression gate uses it to detect functions that gained failures.
type RobustFuncXML struct {
	Name     string           `xml:"name,attr"`
	Failures int              `xml:"failures,attr,omitempty"`
	Params   []RobustParamXML `xml:"param"`
}

// RobustAPIDoc is the robust-API file of Figure 2's output stage.
type RobustAPIDoc struct {
	XMLName   xml.Name        `xml:"healers-robust-api"`
	Library   string          `xml:"library,attr"`
	Generated string          `xml:"generated,attr,omitempty"`
	Funcs     []RobustFuncXML `xml:"function"`
}

// NewRobustAPIDoc converts a derived robust API to its document form.
func NewRobustAPIDoc(library string, api ctypes.RobustAPI) *RobustAPIDoc {
	doc := &RobustAPIDoc{Library: library, Generated: timestamp()}
	for _, fn := range api.Funcs() {
		fx := RobustFuncXML{Name: fn}
		for _, p := range api[fn] {
			fx.Params = append(fx.Params, RobustParamXML{Name: p.Name, Chain: p.Chain, Level: p.LevelName})
		}
		doc.Funcs = append(doc.Funcs, fx)
	}
	return doc
}

// API reconstructs the in-memory robust API from the document.
func (doc *RobustAPIDoc) API() (ctypes.RobustAPI, error) {
	api := make(ctypes.RobustAPI, len(doc.Funcs))
	for _, fx := range doc.Funcs {
		params := make([]ctypes.RobustParam, len(fx.Params))
		for i, p := range fx.Params {
			chain, ok := ctypes.ChainByName(p.Chain)
			if !ok {
				return nil, fmt.Errorf("xmlrep: unknown chain %q in %s", p.Chain, fx.Name)
			}
			lvl := chain.LevelIndex(p.Level)
			if lvl < 0 {
				if p.Level == "uncontainable" {
					lvl = len(chain.Levels)
				} else {
					return nil, fmt.Errorf("xmlrep: unknown level %q of chain %q in %s", p.Level, p.Chain, fx.Name)
				}
			}
			params[i] = ctypes.RobustParam{Name: p.Name, Chain: p.Chain, Level: lvl, LevelName: p.Level}
		}
		api[fx.Name] = params
	}
	return api, nil
}

// CacheProbeXML is one recorded probe call in a campaign-cache entry:
// everything the engine needs to reconstruct an inject.ProbeResult without
// re-running the probe process, fault detail included.
type CacheProbeXML struct {
	Param   int    `xml:"param,attr"`
	Probe   string `xml:"probe,attr"`
	Sat     int    `xml:"sat,attr"`
	Outcome string `xml:"outcome,attr"`
	// Fault fields reconstruct the cmem.Fault of crash/abort/hang
	// outcomes; FaultKind == 0 means the probe did not fault.
	FaultKind   int    `xml:"fault_kind,attr,omitempty"`
	FaultAddr   uint64 `xml:"fault_addr,attr,omitempty"`
	FaultOp     string `xml:"fault_op,attr,omitempty"`
	FaultDetail string `xml:"fault_detail,attr,omitempty"`
}

// CacheFuncXML is one function's cached campaign outcome. Key is the
// content hash of (prototype, probe-hierarchy version, injector config)
// that addressed the entry; Config repeats the injector-config component
// so entries for different configurations (plain vs wrapper-preloaded
// sweeps) of the same function can coexist in one file.
type CacheFuncXML struct {
	Name             string           `xml:"name,attr"`
	Key              string           `xml:"key,attr"`
	Config           string           `xml:"config,attr"`
	Probes           int              `xml:"probes,attr"`
	Failures         int              `xml:"failures,attr"`
	NeedsContainment bool             `xml:"needs_containment,attr,omitempty"`
	Params           []RobustParamXML `xml:"param"`
	Results          []CacheProbeXML  `xml:"probe"`
}

// CampaignCacheDoc is the persistent fault-injection campaign cache: one
// entry per (function, injector config) holding the full per-probe record
// and the derived robust types. Hierarchy is the probe-hierarchy content
// hash the entries were derived under — a reader whose hierarchy differs
// must discard the whole document. Checksum is the Seal envelope; a
// mismatch marks the file corrupted (e.g. a truncated checkpoint) and it
// must be discarded rather than trusted.
type CampaignCacheDoc struct {
	XMLName   xml.Name       `xml:"healers-campaign-cache"`
	Hierarchy string         `xml:"hierarchy,attr"`
	Checksum  string         `xml:"checksum,attr,omitempty"`
	Generated string         `xml:"generated,attr,omitempty"`
	Funcs     []CacheFuncXML `xml:"function"`
}

// SeqStepXML is one scripted fault of a sequence run: at the Call-th
// intercepted library call, a fault of class Class fires. Func labels
// the call position with the function name the golden run observed
// there, so reports stay readable without replaying the scenario.
type SeqStepXML struct {
	Call  uint64 `xml:"call,attr"`
	Class string `xml:"class,attr"`
	Func  string `xml:"func,attr,omitempty"`
}

// SeqRunXML is one fault-combination run of a sequence campaign: the
// scripted steps, how the victim ended, and whether its committed state
// diverged from the golden run's digest.
type SeqRunXML struct {
	Steps   []SeqStepXML `xml:"step"`
	Outcome string       `xml:"outcome,attr"`
	Exit    int32        `xml:"exit,attr,omitempty"`
	// Diverged means the run's journal-diff digest differs from the
	// golden run's — set for every silent-corruption outcome, and also
	// recorded (without reclassifying) when a faulting run additionally
	// damaged state.
	Diverged bool `xml:"diverged,attr,omitempty"`
	// Fault fields carry the terminating fault of crash/abort/hang runs.
	FaultKind   int    `xml:"fault_kind,attr,omitempty"`
	FaultOp     string `xml:"fault_op,attr,omitempty"`
	FaultDetail string `xml:"fault_detail,attr,omitempty"`
}

// SequenceReportDoc is a temporal fault-sequence campaign's result
// document: the scenario identity, the golden run's call count and
// committed-state digest, and one entry per fault-combination run.
// Checksum is the Seal envelope, stamped by Stamp.
type SequenceReportDoc struct {
	XMLName      xml.Name    `xml:"healers-sequence-report"`
	Scenario     string      `xml:"scenario,attr"`
	App          string      `xml:"app,attr"`
	Calls        uint64      `xml:"calls,attr"`
	GoldenDigest string      `xml:"golden_digest,attr"`
	Checksum     string      `xml:"checksum,attr,omitempty"`
	Generated    string      `xml:"generated,attr,omitempty"`
	Runs         []SeqRunXML `xml:"run"`
}

// Stamp sets the Generated timestamp and seals the document; call it
// after filling the runs and before marshalling.
func (d *SequenceReportDoc) Stamp() {
	d.Generated = timestamp()
	Seal(d)
}

// ---------------------------------------------------------------------
// Distributed campaign wire documents. A coordinator plans a library
// sweep, shards its function list, and leases shards to worker processes
// over the collect framing; workers stream per-function results back and
// heartbeat long shards. Every exchange is a worker-initiated
// request/response pair, so the coordinator needs no reverse channel.

// WorkRequest asks the coordinator for a shard lease. Hierarchy is the
// worker's probe-hierarchy version; the coordinator refuses a worker
// whose hierarchy differs from its own (mismatched binaries would derive
// incomparable results).
type WorkRequest struct {
	XMLName   xml.Name `xml:"healers-work-request"`
	Worker    string   `xml:"worker,attr"`
	Hierarchy string   `xml:"hierarchy,attr"`
}

// WorkLease is the coordinator's answer to a WorkRequest: a shard of
// function names plus everything the worker needs to reproduce the
// coordinator's campaign configuration exactly (library, stdin seed,
// preload stack). Config is the coordinator's injector-config hash; the
// worker must derive the same hash from the replayed configuration or
// abort, which pins both processes to identical probe semantics.
//
// Done means the sweep is complete and the worker should exit. An empty
// Funcs list with Done unset means "no shard available right now, poll
// again in RetryMS" (all shards are leased to live workers).
type WorkLease struct {
	XMLName xml.Name `xml:"healers-work-lease"`
	// Shard and Attempt identify the lease; a re-issued shard carries a
	// higher attempt so stale results remain attributable.
	Shard   int `xml:"shard,attr"`
	Attempt int `xml:"attempt,attr"`
	// Library, Stdin and Preloads replay the campaign configuration.
	Library  string   `xml:"library,attr,omitempty"`
	Stdin    string   `xml:"stdin,attr,omitempty"`
	Preloads []string `xml:"preload,omitempty"`
	// Config and Hierarchy pin the configuration content hashes.
	Config    string `xml:"config,attr,omitempty"`
	Hierarchy string `xml:"hierarchy,attr,omitempty"`
	// LeaseMS is how long the coordinator holds the shard for this
	// worker without hearing a heartbeat or result before re-leasing.
	LeaseMS int `xml:"lease_ms,attr,omitempty"`
	// RetryMS tells an idle worker when to ask again.
	RetryMS  int      `xml:"retry_ms,attr,omitempty"`
	Done     bool     `xml:"done,attr,omitempty"`
	Funcs    []string `xml:"func"`
	Checksum string   `xml:"checksum,attr,omitempty"`
}

// WorkFuncXML is one completed function in a work-result document: the
// campaign-cache entry (key, config, per-probe record, verdicts) plus the
// worker-side wall time the coordinator's throughput stats attribute to
// the worker.
type WorkFuncXML struct {
	CacheFuncXML
	WallNS int64 `xml:"wall_ns,attr,omitempty"`
}

// WorkResult streams completed functions back to the coordinator: one
// document per finished function (so a crashed worker loses at most the
// function in flight). Entries are full cache entries, which is what lets
// the coordinator fold them into its persistent campaign cache via the
// ordinary merge path. Config must match the coordinator's; the per-entry
// Key dedups replayed results after a re-lease.
type WorkResult struct {
	XMLName xml.Name `xml:"healers-work-result"`
	Worker  string   `xml:"worker,attr"`
	Shard   int      `xml:"shard,attr"`
	Attempt int      `xml:"attempt,attr"`
	Config  string   `xml:"config,attr"`
	// CachedLocal marks results the worker served from its own local
	// cache rather than probing (counted, not timed).
	CachedLocal bool          `xml:"cached_local,attr,omitempty"`
	Funcs       []WorkFuncXML `xml:"function"`
	Checksum    string        `xml:"checksum,attr,omitempty"`
}

// Heartbeat extends a shard lease while a worker grinds through a slow
// function, so the coordinator does not re-lease work that is still
// progressing.
type Heartbeat struct {
	XMLName xml.Name `xml:"healers-heartbeat"`
	Worker  string   `xml:"worker,attr"`
	Shard   int      `xml:"shard,attr"`
	Attempt int      `xml:"attempt,attr"`
	// DoneFuncs reports shard progress, for operator visibility.
	DoneFuncs int `xml:"done_funcs,attr,omitempty"`
}

// WorkAck is the coordinator's response to results and heartbeats. OK
// false carries a Reason the worker must treat as fatal (configuration
// or hierarchy skew — retrying cannot help).
type WorkAck struct {
	XMLName xml.Name `xml:"healers-work-ack"`
	OK      bool     `xml:"ok,attr"`
	Reason  string   `xml:"reason,attr,omitempty"`
	// Accepted counts the result entries the coordinator merged (the
	// rest were duplicates it already had).
	Accepted int `xml:"accepted,attr,omitempty"`
}

// ---------------------------------------------------------------------
// Registry wire documents. A campaign-cache registry is a shared,
// content-addressed store of cache entries: any runner can ask for
// entries by their sha256(prototype, probe-hierarchy version, injector
// config) key and push the entries it derived locally. Both exchanges
// are client-initiated request/response pairs over the collect framing,
// so one collector port serves ingest, coordination, policy, and the
// registry at once.

// RegistryGet asks a registry for cache entries by key.
type RegistryGet struct {
	XMLName  xml.Name `xml:"healers-registry-get"`
	Client   string   `xml:"client,attr,omitempty"`
	Keys     []string `xml:"key"`
	Checksum string   `xml:"checksum,attr,omitempty"`
}

// RegistryEntryXML is one served registry entry: the cache entry plus
// the registry-stamped per-entry integrity hash, Checksum of the entry. A
// client must recompute Sum and discard mismatching entries — the worst
// case is always "probe again", never "trust a corrupted entry".
type RegistryEntryXML struct {
	CacheFuncXML
	Sum string `xml:"sum,attr,omitempty"`
}

// RegistryAnswer is the registry's response to a get: the entries it
// holds for the requested keys, those keys under Found, and the keys it
// does not hold under Missing.
type RegistryAnswer struct {
	XMLName  xml.Name           `xml:"healers-registry-answer"`
	Funcs    []RegistryEntryXML `xml:"function"`
	Found    []string           `xml:"found"`
	Missing  []string           `xml:"missing"`
	Checksum string             `xml:"checksum,attr,omitempty"`
}

// RegistryPut pushes freshly derived cache entries to a registry.
// Hierarchy is the pusher's probe-hierarchy version, recorded with the
// stored entries for diagnostics (the keys already pin it — entries
// derived under different hierarchies never collide).
type RegistryPut struct {
	XMLName   xml.Name       `xml:"healers-registry-put"`
	Client    string         `xml:"client,attr,omitempty"`
	Hierarchy string         `xml:"hierarchy,attr,omitempty"`
	Funcs     []CacheFuncXML `xml:"function"`
	Checksum  string         `xml:"checksum,attr,omitempty"`
}

// RegistryAck answers a put: how many entries the registry stored
// (Stored) and how many it already held (Known). OK false carries the
// Reason the whole put was refused (corrupted frame, registry disabled).
type RegistryAck struct {
	XMLName xml.Name `xml:"healers-registry-ack"`
	OK      bool     `xml:"ok,attr"`
	Reason  string   `xml:"reason,attr,omitempty"`
	Stored  int      `xml:"stored,attr,omitempty"`
	Known   int      `xml:"known,attr,omitempty"`
}

// PolicyRuleXML is one recovery rule of a policy document: what the
// containment wrapper does when Func fails with a Class failure. Func
// and Class may be "*" (or empty) to match anything; the first matching
// rule in document order wins.
type PolicyRuleXML struct {
	Func  string `xml:"func,attr,omitempty"`
	Class string `xml:"class,attr,omitempty"`
	// Action is deny, retry, substitute, or escalate.
	Action string `xml:"action,attr"`
	// Retries and BackoffMS parametrize retry.
	Retries   int `xml:"retries,attr,omitempty"`
	BackoffMS int `xml:"backoff_ms,attr,omitempty"`
	// Value is the substitute action's return value.
	Value int64 `xml:"value,attr,omitempty"`
	// BreakerThreshold, when > 0, overrides the document-level breaker
	// threshold for calls matched by this rule — the escalation ladder's
	// last rung tightens a single function to a one-strike breaker
	// without condemning the rest of the library.
	BreakerThreshold int `xml:"breaker_threshold,attr,omitempty"`
}

// PolicyDoc configures the containment wrapper's recovery policy engine:
// the rule table plus the circuit-breaker parameters (a function whose
// contained failures reach BreakerThreshold within BreakerWindowMS flips
// to always-deny).
//
// Revision and Checksum make the document a control-plane artifact: a
// running engine only hot-reloads a document whose Revision is strictly
// greater than the one it runs, and whose Seal envelope verifies — a
// truncated, tampered, or hand-edited-but-unstamped document is rejected
// and the old rules stay in force. Revision 0 marks an unstamped document
// (initial-load only, never hot-reloadable).
type PolicyDoc struct {
	XMLName          xml.Name        `xml:"healers-policy"`
	Generated        string          `xml:"generated,attr,omitempty"`
	Revision         int             `xml:"revision,attr,omitempty"`
	Checksum         string          `xml:"checksum,attr,omitempty"`
	BreakerThreshold int             `xml:"breaker_threshold,attr,omitempty"`
	BreakerWindowMS  int             `xml:"breaker_window_ms,attr,omitempty"`
	Rules            []PolicyRuleXML `xml:"rule"`
}

// NewPolicyDoc stamps a policy document for serialization. The result is
// unversioned (Revision 0); call Stamp to make it hot-reloadable.
func NewPolicyDoc(threshold, windowMS int, rules []PolicyRuleXML) *PolicyDoc {
	return &PolicyDoc{
		Generated:        timestamp(),
		BreakerThreshold: threshold,
		BreakerWindowMS:  windowMS,
		Rules:            rules,
	}
}

// Stamp versions the document for hot-reload: it sets Revision and
// seals the final content. Call it last, after every rule edit.
func (d *PolicyDoc) Stamp(revision int) {
	d.Revision = revision
	Seal(d)
}

// Validate checks the document's structural integrity: every rule's
// action and failure-class name must be known, retry/breaker parameters
// non-negative, and — when the document is stamped — the checksum must
// match its content. It does not enforce a revision floor; staleness is
// the reloading engine's call, because only the engine knows what it
// currently runs.
func (d *PolicyDoc) Validate() error {
	if d.Revision < 0 {
		return fmt.Errorf("xmlrep: policy: negative revision %d", d.Revision)
	}
	if d.Checksum != "" && Verify(d) != nil {
		return fmt.Errorf("xmlrep: policy: checksum mismatch (document corrupted or edited without restamping)")
	}
	for i, r := range d.Rules {
		if _, ok := gen.ContainActionByName(r.Action); !ok {
			return fmt.Errorf("xmlrep: policy rule %d: unknown action %q", i, r.Action)
		}
		if r.Class != "" && r.Class != "*" {
			known := false
			for c := gen.FailureClass(0); int(c) < gen.NumFailureClasses; c++ {
				if c.String() == r.Class {
					known = true
					break
				}
			}
			if !known {
				return fmt.Errorf("xmlrep: policy rule %d: unknown failure class %q", i, r.Class)
			}
		}
		if r.Retries < 0 || r.BackoffMS < 0 || r.BreakerThreshold < 0 {
			return fmt.Errorf("xmlrep: policy rule %d: negative retry/backoff/breaker parameter", i)
		}
	}
	return nil
}

// PolicyRequest asks a control plane for the current recovery policy.
// HaveRevision is the requester's running revision; a control plane whose
// policy is not newer answers with a PolicyAck instead of re-sending the
// document, so idle polls stay one small frame each way.
type PolicyRequest struct {
	XMLName      xml.Name `xml:"healers-policy-request"`
	Client       string   `xml:"client,attr,omitempty"`
	HaveRevision int      `xml:"have_revision,attr,omitempty"`
}

// PolicyAck is the control plane's answer to a policy push or an
// already-current policy request. OK false carries the Reason the push
// was rejected (stale revision, checksum mismatch, malformed rules);
// Revision reports the control plane's current policy revision either
// way.
type PolicyAck struct {
	XMLName  xml.Name `xml:"healers-policy-ack"`
	OK       bool     `xml:"ok,attr"`
	Reason   string   `xml:"reason,attr,omitempty"`
	Revision int      `xml:"revision,attr,omitempty"`
}

// ErrnoCount is one errno histogram bucket.
type ErrnoCount struct {
	Errno string `xml:"errno,attr"`
	Count uint64 `xml:"count,attr"`
}

// ClassCount is one failure-class containment bucket of a function
// profile: Count faults of class Class (crash, hang, abort, oom) were
// caught and virtualized for the function. Only non-zero classes are
// serialized, so pre-containment documents and readers are unaffected —
// the per-class split is what lets the collector escalate recovery
// policy per (function, failure class) instead of per function.
type ClassCount struct {
	Class string `xml:"class,attr"`
	Count uint64 `xml:"count,attr"`
}

// HistBucketXML is one log2 latency histogram bucket: Count calls whose
// duration d satisfies 2^Bucket ns <= d < 2^(Bucket+1) ns. Only non-empty
// buckets are serialized, so documents stay compact and pre-observability
// readers — which never look for the element — are unaffected.
type HistBucketXML struct {
	Bucket int    `xml:"log2,attr"`
	Count  uint64 `xml:"count,attr"`
}

// LatencyXML is the optional <latency> element of a function profile,
// wrapping the sparse histogram buckets. It is a pointer field on
// FuncProfile so an absent element marshals to nothing at all — the
// nested-tag shorthand (`latency>bucket`) would emit an empty parent.
type LatencyXML struct {
	Buckets []HistBucketXML `xml:"bucket"`
}

// TraceEntryXML is one entry of the trace micro-generator's call ring in
// a profile document: the ring's own entry type, attribute tags and all.
type TraceEntryXML = gen.TraceEntry

// TraceXML is the optional <trace> element of a profile log, wrapping the
// recorded call ring (see LatencyXML for why it is a wrapper struct).
type TraceXML struct {
	Calls []TraceEntryXML `xml:"call"`
}

// FuncCounters are a wrapped function's scalar counters: the wrapper
// state's own per-function record, shared by the profile document and
// the collector's fleet aggregate.
type FuncCounters = gen.FuncCounters

// FuncProfile is one wrapped function's statistics in a profile log.
// Its counters' attributes follow name in FuncCounters' field order. The
// optional elements (ContainedBy, Latency) are absent from documents
// that predate them, and readers that predate them ignore them.
type FuncProfile struct {
	Name string `xml:"name,attr"`
	FuncCounters
	// ContainedBy splits Contained per failure class (empty when the
	// function never contained a fault, so old documents stay
	// byte-identical).
	ContainedBy []ClassCount `xml:"contained-class"`
	Errnos      []ErrnoCount `xml:"error"`
	Latency     *LatencyXML  `xml:"latency"`
}

// LatencyDense expands the sparse serialized latency buckets into a dense
// gen.HistBuckets-length histogram ready for element-wise merging and
// quantile queries; it returns nil when the document carries no latency
// data (a pre-observability profile).
func (f *FuncProfile) LatencyDense() []uint64 {
	if f.Latency == nil || len(f.Latency.Buckets) == 0 {
		return nil
	}
	h := make([]uint64, gen.HistBuckets)
	for _, b := range f.Latency.Buckets {
		if b.Bucket >= 0 && b.Bucket < gen.HistBuckets {
			h[b.Bucket] += b.Count
		}
	}
	return h
}

// ProfileLog is the profiling wrapper's end-of-run document (Fig. 5),
// extended with the optional observability elements: per-function latency
// histograms and the bounded call-trace ring.
type ProfileLog struct {
	XMLName   xml.Name      `xml:"healers-profile"`
	Host      string        `xml:"host,attr"`
	App       string        `xml:"app,attr"`
	Wrapper   string        `xml:"wrapper,attr"`
	Generated string        `xml:"generated,attr,omitempty"`
	Funcs     []FuncProfile `xml:"function"`
	Global    []ErrnoCount  `xml:"global-error"`
	Trace     *TraceXML     `xml:"trace"`
	Overflows uint64        `xml:"overflows,attr,omitempty"`
}

// TraceEntries returns the document's recorded call ring, oldest first;
// nil when the document carries no trace element.
func (l *ProfileLog) TraceEntries() []TraceEntryXML {
	if l.Trace == nil {
		return nil
	}
	return l.Trace.Calls
}

// NewProfileLog snapshots a wrapper State into its document form. The
// State must be quiesced (no concurrent probe processes mutating it), so
// the counters it reads form one consistent snapshot.
func NewProfileLog(host, app string, st *gen.State) *ProfileLog {
	log := &ProfileLog{
		Host:      host,
		App:       app,
		Wrapper:   st.Soname,
		Generated: timestamp(),
		Overflows: st.Overflows,
	}
	names := st.FuncNames()
	if len(names) > 0 {
		log.Funcs = make([]FuncProfile, 0, len(names))
	}
	for i, name := range names {
		fp := FuncProfile{Name: name, FuncCounters: st.Funcs[i]}
		for c, cnt := range st.ContainedByClass[i] {
			if cnt > 0 {
				fp.ContainedBy = append(fp.ContainedBy, ClassCount{
					Class: gen.FailureClass(c).String(),
					Count: cnt,
				})
			}
		}
		for e, cnt := range st.FuncErrno[i] {
			if cnt > 0 {
				fp.Errnos = append(fp.Errnos, ErrnoCount{Errno: errnoLabel(int32(e)), Count: cnt})
			}
		}
		for b, cnt := range st.ExecHist[i] {
			if cnt > 0 {
				if fp.Latency == nil {
					fp.Latency = &LatencyXML{}
				}
				fp.Latency.Buckets = append(fp.Latency.Buckets, HistBucketXML{Bucket: b, Count: cnt})
			}
		}
		log.Funcs = append(log.Funcs, fp)
	}
	for e, cnt := range st.GlobalErrno {
		if cnt > 0 {
			log.Global = append(log.Global, ErrnoCount{Errno: errnoLabel(int32(e)), Count: cnt})
		}
	}
	// An empty ring leaves the optional <trace> element out.
	if ring := st.Trace(); len(ring) > 0 {
		log.Trace = &TraceXML{Calls: ring}
	}
	return log
}

// TotalCalls sums the per-function call counts.
func (l *ProfileLog) TotalCalls() uint64 {
	var n uint64
	for _, f := range l.Funcs {
		n += f.Calls
	}
	return n
}

func errnoLabel(e int32) string {
	if e == cval.MaxErrno {
		return "OTHER"
	}
	return cval.ErrnoName(e)
}

// Marshal renders any of the package's documents with the standard XML
// header and two-space indentation, ending in a newline: the bytes of
// xml.Header + xml.MarshalIndent(doc, "", "  ") + "\n". Profile
// documents, every profiling run's output, go through encodeProfile;
// every other kind through encoding/xml. The caller owns the result.
func Marshal(doc any) ([]byte, error) {
	var b []byte
	if p, ok := doc.(*ProfileLog); ok && p != nil {
		b = encodeProfile(p)
	} else {
		// MarshalIndent's encoder, writing after the header.
		var buf bytes.Buffer
		buf.WriteString(xml.Header)
		enc := xml.NewEncoder(&buf)
		enc.Indent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return nil, fmt.Errorf("xmlrep: marshal: %w", err)
		}
		if err := enc.Close(); err != nil {
			return nil, fmt.Errorf("xmlrep: marshal: %w", err)
		}
		buf.WriteByte('\n')
		b = buf.Bytes()
	}
	// A caller may keep the document (a Spooler queues it and budgets it
	// by length), so it gets no more spare capacity than a copy has.
	if cap(b)-len(b) > len(b)/8 {
		b = append([]byte(nil), b...)
	}
	return b, nil
}

// WriteFileAtomic replaces the file at path with data, giving it mode
// perm. It writes a temporary file in path's directory and renames it
// over path, so a concurrent reader, or a writer that dies mid-write,
// leaves the old file or the new one, never a torn document; the
// temporary file is removed when any step fails.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// MustMarshal is Marshal for documents that cannot fail to marshal — a
// handler's fixed-shape response frames. An error is a programming bug.
func MustMarshal(doc any) []byte {
	data, err := Marshal(doc)
	if err != nil {
		panic(err)
	}
	return data
}

// Checksum is the one integrity hash of every checksummed document: the
// hex sha256 of doc's xml.Marshal with its Checksum and Generated fields
// cleared, so the value is reproducible from a parsed document and
// independent of when it was stamped. Hashing the marshalled form covers
// every serialized field, and XML quoting keeps field boundaries
// unambiguous. doc points at one of the package's document structs, or
// at a CacheFuncXML (the registry's per-entry integrity unit).
func Checksum(doc any) string {
	v := reflect.ValueOf(doc).Elem()
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	for _, name := range [...]string{"Checksum", "Generated"} {
		if f := c.Elem().FieldByName(name); f.IsValid() {
			f.SetString("")
		}
	}
	// Encoding straight into the hash is xml.Marshal without the buffer.
	h := sha256.New()
	if err := xml.NewEncoder(h).Encode(c.Interface()); err != nil {
		// The document structs hold only strings, integers, bools and
		// slices of them, which always marshal.
		panic(fmt.Sprintf("xmlrep: checksum: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Seal stamps doc's Checksum field with Checksum(doc). Call it last,
// after every other field is final.
func Seal(doc any) {
	reflect.ValueOf(doc).Elem().FieldByName("Checksum").SetString(Checksum(doc))
}

// Verify checks doc's stored Checksum against its content. A missing
// checksum fails too; a caller for which the checksum is optional tests
// for an empty Checksum first.
func Verify(doc any) error {
	switch stored := reflect.ValueOf(doc).Elem().FieldByName("Checksum").String(); stored {
	case "":
		return errors.New("xmlrep: document has no checksum")
	case Checksum(doc):
		return nil
	default:
		return errors.New("xmlrep: checksum mismatch")
	}
}

// kinds maps each registered root element to its document kind: a kind
// is its root element with the "healers-" prefix removed.
var kinds = func() map[string]DocKind {
	m := make(map[string]DocKind)
	for _, k := range []DocKind{
		KindDeclarations, KindRobustAPI, KindProfile, KindCampaignCache, KindPolicy,
		KindSequenceReport, KindPolicyRequest, KindPolicyAck,
		KindWorkRequest, KindWorkLease, KindWorkResult, KindHeartbeat, KindWorkAck,
		KindRegistryGet, KindRegistryPut, KindRegistryAnswer, KindRegistryAck,
	} {
		m["healers-"+string(k)] = k
	}
	return m
}()

// Kind sniffs a marshalled document's kind from its root element. A
// document that starts the way Marshal writes one (an optional XML
// declaration, whitespace, then a plain start tag) is read from the
// bytes; anything else, such as a comment, a DOCTYPE, a byte-order mark
// or a prefixed name, goes through encoding/xml. Both paths agree on
// every input (FuzzKind).
func Kind(data []byte) (DocKind, error) {
	if root, ok := rootName(data); ok {
		return kindOf(root)
	}
	return decodeKind(data)
}

// kindOf maps a root element's local name to its kind.
func kindOf(root string) (DocKind, error) {
	if k, ok := kinds[root]; ok {
		return k, nil
	}
	return "", fmt.Errorf("xmlrep: unknown document root %q", root)
}

// decodeKind is Kind through encoding/xml: the first start element's
// local name.
func decodeKind(data []byte) (DocKind, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("xmlrep: sniffing document kind: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			return kindOf(se.Name.Local)
		}
	}
}

// xmlDecl is the declaration Marshal writes, without its newline.
const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>`

// rootName reads the root element's name from a document that starts
// with an optional xmlDecl, whitespace, and a complete start tag whose
// names are unprefixed ASCII and whose attribute values are printable
// ASCII without entities. encoding/xml reads every such start to the
// same name without an error; for any other start, ok is false.
func rootName(data []byte) (root string, ok bool) {
	p := xmlScan(bytes.TrimPrefix(data, []byte(xmlDecl)))
	p.space()
	if !p.byte('<') {
		return "", false
	}
	name, ok := p.name()
	if !ok {
		return "", false
	}
	for {
		p.space()
		switch {
		case p.byte('>'):
			return string(name), true
		case p.byte('/'):
			return string(name), p.byte('>')
		}
		if _, ok := p.name(); !ok {
			return "", false
		}
		p.space()
		if !p.byte('=') {
			return "", false
		}
		p.space()
		if !p.attrValue() {
			return "", false
		}
	}
}

// xmlScan is the unread rest of a document for rootName.
type xmlScan []byte

// byte consumes c if it comes next.
func (p *xmlScan) byte(c byte) bool {
	if len(*p) == 0 || (*p)[0] != c {
		return false
	}
	*p = (*p)[1:]
	return true
}

// space consumes XML whitespace.
func (p *xmlScan) space() {
	*p = bytes.TrimLeft(*p, " \t\r\n")
}

// name consumes an unprefixed ASCII name. It fails on a name that
// encoding/xml would read differently: one with a colon, a non-ASCII
// byte, or a first byte that cannot start a name.
func (p *xmlScan) name() ([]byte, bool) {
	s := *p
	n := 0
	for n < len(s) && (isLetter(s[n]) || n > 0 && ('0' <= s[n] && s[n] <= '9' || s[n] == '.' || s[n] == '-')) {
		n++
	}
	if n == 0 || n < len(s) && (s[n] == ':' || s[n] >= utf8.RuneSelf) {
		return nil, false
	}
	*p = s[n:]
	return s[:n], true
}

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

// attrValue consumes a quoted attribute value of printable ASCII, tabs
// and line breaks, with no '<' or '&'.
func (p *xmlScan) attrValue() bool {
	s := *p
	if len(s) == 0 || s[0] != '"' && s[0] != '\'' {
		return false
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == s[0]:
			*p = s[i+1:]
			return true
		case c == '<' || c == '&' || c > '~' || c < ' ' && c != '\t' && c != '\n' && c != '\r':
			return false
		}
	}
	return false
}

// Unmarshal parses a document of the expected type. Profile documents,
// the collector's bulk ingest, go through decodeProfile; every other kind
// through encoding/xml.
func Unmarshal[T any](data []byte) (*T, error) {
	var doc T
	var err error
	switch p := any(&doc).(type) {
	case *ProfileLog:
		err = decodeProfile(data, p, false)
	default:
		err = xml.Unmarshal(data, p)
	}
	if err != nil {
		return nil, fmt.Errorf("xmlrep: unmarshal: %w", err)
	}
	return &doc, nil
}

// timestamp renders the generation time; overridable for reproducible
// golden tests.
var now = time.Now

func timestamp() string { return now().UTC().Format(time.RFC3339) }
