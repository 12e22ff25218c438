// Package gen implements the HEALERS flexible wrapper-generator
// architecture (§2.3, Fig. 3): wrapper functionality is decomposed into
// micro-generators, each contributing a fragment of prefix code and a
// fragment of postfix code. Micro-generators compose in declaration
// order — prefixes run first-to-last, postfixes last-to-first, exactly the
// nesting visible in the paper's generated wctrans wrapper.
//
// Each micro-generator produces two artifacts kept in lockstep:
//
//   - C-like source text, so the toolkit can show the wrapper it built
//     (the paper's Figure 3), and
//   - a runtime hook pair, so the same wrapper actually executes inside
//     the simulated process.
package gen

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/simelf"
)

// CallCtx is the per-call state threaded through a wrapper's hooks. It
// lives for one call only: the generator takes a zeroed context from a
// pool when the call starts and returns it on every exit, so a hook must
// keep neither the context nor its Args slice after it returns.
type CallCtx struct {
	Env   *cval.Env
	Proto *ctypes.Prototype
	// Args are the caller's argument words (fixed params then varargs).
	Args []cval.Value
	// Ret is the original function's return value, valid in postfix
	// hooks (or the substitute value when the call was denied).
	Ret cval.Value
	// Denied is set by a checking prefix hook to veto the call to the
	// original function.
	Denied bool
	// DenyReason explains a veto for logs.
	DenyReason string
	// FuncIndex is the wrapped function's index in the wrapper state's
	// tables.
	FuncIndex int
	// Contain, set by a containment prefix hook, makes the generator
	// catch a fault raised by the original function instead of
	// propagating it: the fault lands in ContainedFault and the postfix
	// hooks still run, so a containment postfix can virtualize it into
	// an errno return. A caught fault no postfix consumes propagates
	// after the postfix loop — containment never silently swallows.
	Contain bool
	// ContainedFault holds the caught fault while postfix hooks run; a
	// consuming hook clears it after deciding the recovery action.
	ContainedFault *cmem.Fault
	// invoke re-runs the original function with the original arguments;
	// set by the generator just before the real call so a containment
	// postfix can implement retry-with-backoff.
	invoke func() (cval.Value, *cmem.Fault)
	// containArmed notes that the containment prefix armed the write
	// journal (skipped for vetoed calls).
	containArmed bool
	// escalated marks a fault the recovery policy re-raised on purpose,
	// so later postfix hooks don't try to consume it.
	escalated bool
	// watchdogStack holds each watchdog micro-generator's saved outer
	// fuel budget across the call — a stack, pushed in prefix order and
	// popped in (reverse) postfix order, so nested watchdogs restore
	// their budgets in the right order instead of clobbering one shared
	// slot.
	watchdogStack []watchdogFrame
	// start is the exectime micro-generator's timestamp.
	start time.Time
	// traceStart is the trace micro-generator's timestamp, kept separate
	// from start so either micro-generator composes without the other.
	traceStart time.Time
	// errnoCollect/errnoFunc/errnoTrace are the errno snapshots the
	// collect-errors, func-errors, and trace micro-generators take in
	// their prefixes — fixed fields rather than a map so arming a
	// snapshot costs a word store, not an allocation per call.
	errnoCollect int32
	errnoFunc    int32
	errnoTrace   int32
}

// Hook is one runtime action; returning a fault terminates the process
// (the security wrapper's response to a detected overflow).
type Hook func(ctx *CallCtx) *cmem.Fault

// MicroGenerator produces one feature's code fragments and hooks.
type MicroGenerator interface {
	// Name identifies the micro-generator ("call counter", "caller"...).
	Name() string
	// PrefixSource renders the C-like prefix fragment lines.
	PrefixSource(proto *ctypes.Prototype) []string
	// PostfixSource renders the C-like postfix fragment lines.
	PostfixSource(proto *ctypes.Prototype) []string
	// PrefixHook returns the runtime prefix action, or nil.
	PrefixHook(proto *ctypes.Prototype, st *State) Hook
	// PostfixHook returns the runtime postfix action, or nil.
	PostfixHook(proto *ctypes.Prototype, st *State) Hook
}

// FuncCounters are a wrapped function's scalar counters, declared once
// for the wrapper state that captures them, the profile document that
// ships them and the collector's fleet aggregate. The attribute tags are
// the profile document's: every counter after ExecNS is omitted from a
// document while it is zero, so documents from before it existed parse
// with it at zero, readers that predate it ignore it, and idle documents
// stay byte-identical to theirs.
type FuncCounters struct {
	// Calls is the call count; ExecNS the time spent in the function,
	// nanoseconds.
	Calls  uint64 `xml:"calls,attr"`
	ExecNS int64  `xml:"exec_ns,attr"`
	// Denied counts calls vetoed by a checking micro-generator, Passed
	// calls that cleared every installed check, Substituted calls routed
	// through a bounded substitution (BuildLibrarySubst).
	Denied      uint64 `xml:"denied,attr,omitempty"`
	Passed      uint64 `xml:"passed,attr,omitempty"`
	Substituted uint64 `xml:"substituted,attr,omitempty"`
	// Contained counts faults caught and virtualized by the containment
	// wrapper, Retried its policy-issued retry attempts, BreakerTrips
	// its circuit-breaker trips (a function flipped to always-deny after
	// repeated contained failures).
	Contained    uint64 `xml:"contained,attr,omitempty"`
	Retried      uint64 `xml:"retried,attr,omitempty"`
	BreakerTrips uint64 `xml:"breaker_trips,attr,omitempty"`
	// SilentCorrupt counts runs where the function's call completed with
	// a success status but the journal diff showed committed state
	// diverging from the golden run — damage no errno-based counter
	// above can see.
	SilentCorrupt uint64 `xml:"silent_corruption,attr,omitempty"`
}

// Add adds o's counters to c.
func (c *FuncCounters) Add(o FuncCounters) {
	c.Calls += o.Calls
	c.ExecNS += o.ExecNS
	c.Denied += o.Denied
	c.Passed += o.Passed
	c.Substituted += o.Substituted
	c.Contained += o.Contained
	c.Retried += o.Retried
	c.BreakerTrips += o.BreakerTrips
	c.SilentCorrupt += o.SilentCorrupt
}

// State is the mutable statistics store shared by every wrapped function
// of one generated wrapper library — the arrays the paper's generated code
// indexes (call_counter_num_calls[1206] and friends). One State belongs to
// one wrapper library instance.
//
// Capture writes the exported fields directly: every counter mutation is
// one atomic add into the slot the paper's wrapper bumps, with no lock on
// the hot path, so concurrent simulated processes sharing a preloaded
// wrapper library (a parallel campaign) never lose an increment. Readers
// that need a consistent snapshot — "histogram bucket sum == call count"
// — read after capture has quiesced; TotalCalls and ContainmentTotals
// load atomically and may run at any time. Direct field writes are safe
// for fabricating profiles on an idle State.
type State struct {
	// Soname names the wrapper library this state belongs to.
	Soname string

	// mu guards the index tables and DenyLog. The counter hot path does
	// not take it.
	mu sync.Mutex

	funcIndex map[string]int
	funcNames []string

	// Funcs holds each wrapped function's scalar counters, by function
	// index: the record the profile document and the collector's fleet
	// aggregate carry too. In a wrapper with no checking
	// micro-generators every completed call counts as Passed.
	Funcs []FuncCounters
	// ExecHist holds one log2 latency histogram per function index
	// (HistBuckets buckets, see HistBucket); once capture quiesces, the
	// bucket sum equals the number of calls the exectime micro-generator
	// timed to completion.
	ExecHist [][]uint64
	// FuncErrno histograms errno changes per function.
	FuncErrno [][]uint64
	// GlobalErrno histograms errno changes across all functions.
	GlobalErrno []uint64
	// ContainedByClass splits Funcs[i].Contained per failure class: one
	// NumFailureClasses-length histogram per function index, indexed by
	// FailureClass. The per-class grain is what adaptive re-derivation
	// escalates on (a function that keeps hanging warrants a different
	// rule than one that keeps crashing).
	ContainedByClass [][]uint64
	// Overflows counts canary/bound violations detected.
	Overflows uint64
	// DenyLog records human-readable veto reasons (bounded).
	DenyLog []string

	// traceMu guards the trace ring separately from mu: trace entries
	// need a total order (the ring's whole point), so their capture
	// stays serialized, but on a lock the counter path never touches.
	traceMu sync.Mutex
	// trace is the trace micro-generator's bounded ring of recent
	// calls, traceCap records of backing store once armed; a record
	// keeps a call's values and is rendered into a TraceEntry only when
	// the ring is read. traceHead is the next write slot and traceLen
	// the live record count; traceSeq is the global call sequence,
	// strictly monotonic for the State's lifetime — Reset drops the
	// records but never rewinds it, so Seq values from before and after
	// a Reset remain comparable.
	trace     []traceRecord
	traceCap  int
	traceHead int
	traceLen  int
	traceSeq  uint64

	// OnExit, when set, runs once when a wrapped process calls exit()
	// with the exit-flush micro-generator installed — the paper's "just
	// before the application terminates, the collection code is called
	// to send the gathered information to a central server". The core
	// layer installs an XML-upload hook here; gen itself stays free of
	// transport dependencies.
	OnExit func(env *cval.Env, st *State)
}

// NewState creates an empty state for a wrapper library.
func NewState(soname string) *State {
	return &State{
		Soname:      soname,
		funcIndex:   make(map[string]int),
		GlobalErrno: make([]uint64, cval.MaxErrno+1),
	}
}

// Reset zeroes every counter while keeping the function index table, so
// one generated wrapper library can profile several runs independently.
// The trace ring is emptied but stays armed, and traceSeq keeps counting:
// post-Reset entries continue the global sequence. Concurrent writers are
// not stopped; an increment in flight during Reset may survive it, so
// run-exact assertions must quiesce capture first. Most slots of a run's
// counters are zero, so each is loaded first and stored only when it is
// not: a Reset writes the cache lines the run wrote, not every slot.
func (st *State) Reset() {
	st.mu.Lock()
	for i := range st.Funcs {
		f := &st.Funcs[i]
		clearSlot(&f.Calls)
		if atomic.LoadInt64(&f.ExecNS) != 0 {
			atomic.StoreInt64(&f.ExecNS, 0)
		}
		clearSlot(&f.Denied)
		clearSlot(&f.Passed)
		clearSlot(&f.Substituted)
		clearSlot(&f.Contained)
		clearSlot(&f.Retried)
		clearSlot(&f.BreakerTrips)
		clearSlot(&f.SilentCorrupt)
		zero(st.ContainedByClass[i])
		zero(st.ExecHist[i])
		zero(st.FuncErrno[i])
	}
	zero(st.GlobalErrno)
	clearSlot(&st.Overflows)
	st.DenyLog = nil
	st.mu.Unlock()

	st.traceMu.Lock()
	st.traceHead = 0
	st.traceLen = 0
	st.traceMu.Unlock()
}

// clearSlot atomically zeroes a counter that is not zero.
func clearSlot(p *uint64) {
	if atomic.LoadUint64(p) != 0 {
		atomic.StoreUint64(p, 0)
	}
}

// zero atomically clears every slot of a histogram.
func zero(h []uint64) {
	for j := range h {
		clearSlot(&h[j])
	}
}

// Sync is a no-op: capture writes the exported fields directly, so they
// are always current.
//
// Deprecated: there is nothing to merge; read the fields once capture
// has quiesced.
func (st *State) Sync() {}

// Index returns the stable index for a function name, allocating on first
// use. Allocation grows the counter tables and must therefore not race
// with capture — which it cannot in practice: a wrapper library indexes
// all its symbols at build time, before any process can call it.
func (st *State) Index(name string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if i, ok := st.funcIndex[name]; ok {
		return i
	}
	i := len(st.funcNames)
	st.funcIndex[name] = i
	st.funcNames = append(st.funcNames, name)
	st.Funcs = append(st.Funcs, FuncCounters{})
	st.ExecHist = append(st.ExecHist, make([]uint64, HistBuckets))
	st.FuncErrno = append(st.FuncErrno, make([]uint64, cval.MaxErrno+1))
	st.ContainedByClass = append(st.ContainedByClass, make([]uint64, NumFailureClasses))
	return i
}

// FuncNames returns the wrapped function names in index order.
func (st *State) FuncNames() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.funcNames...)
}

// TotalCalls sums the call counters.
func (st *State) TotalCalls() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n uint64
	for i := range st.Funcs {
		n += atomic.LoadUint64(&st.Funcs[i].Calls)
	}
	return n
}

// ContainmentTotals sums the recovery layer's counters across every
// wrapped function: faults contained, retries issued, breaker trips.
func (st *State) ContainmentTotals() (contained, retried, trips uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.Funcs {
		f := &st.Funcs[i]
		contained += atomic.LoadUint64(&f.Contained)
		retried += atomic.LoadUint64(&f.Retried)
		trips += atomic.LoadUint64(&f.BreakerTrips)
	}
	return contained, retried, trips
}

// AddCall bumps a function's call counter — one atomic add, no lock.
// Exported so bounded substitutions (wrappers/subst.go), which bypass the
// micro-generator composition, account their calls through the same
// path.
func (st *State) AddCall(idx int) {
	atomic.AddUint64(&st.Funcs[idx].Calls, 1)
}

// addExecSample accumulates time spent in a wrapped function and bumps
// its latency histogram bucket.
func (st *State) addExecSample(idx int, d time.Duration) {
	atomic.AddInt64(&st.Funcs[idx].ExecNS, int64(d))
	atomic.AddUint64(&st.ExecHist[idx][HistBucket(d)], 1)
}

// addGlobalErrno bumps the cross-function errno histogram.
func (st *State) addGlobalErrno(slot int) {
	atomic.AddUint64(&st.GlobalErrno[slot], 1)
}

// addFuncErrno bumps one function's errno histogram.
func (st *State) addFuncErrno(idx, slot int) {
	atomic.AddUint64(&st.FuncErrno[idx][slot], 1)
}

// addOverflow counts a detected canary/bound violation.
func (st *State) addOverflow() {
	atomic.AddUint64(&st.Overflows, 1)
}

// DenyLogCap bounds the DenyLog so a pathological workload cannot grow
// the veto record without limit; Funcs[i].Denied keeps exact totals.
const DenyLogCap = 1000

// NoteDeny records a veto: an atomic add on the counter, the
// human-readable reason to the locked DenyLog. Denies are rare (each one
// is a blocked attack or injected fault), so the log's lock is off the
// common path by construction. Exported so bounded substitutions share
// the one implementation (and its cap) instead of reimplementing it.
func (st *State) NoteDeny(idx int, reason string) {
	atomic.AddUint64(&st.Funcs[idx].Denied, 1)
	st.mu.Lock()
	if len(st.DenyLog) < DenyLogCap {
		st.DenyLog = append(st.DenyLog, reason)
	}
	st.mu.Unlock()
}

// NoteSilentCorruption counts a silent corruption attributed to the
// function at idx: its call completed with a success status while the
// journal diff showed committed state diverging from the golden run.
// Exported because the detector lives outside the wrapper — the
// sequence campaign compares digests across whole processes and reports
// the verdict back into the wrapper's state.
func (st *State) NoteSilentCorruption(idx int) {
	atomic.AddUint64(&st.Funcs[idx].SilentCorrupt, 1)
}

// noteContained counts a fault caught and virtualized for a function,
// in both the per-function total and its failure-class bucket.
func (st *State) noteContained(idx int, class FailureClass) {
	atomic.AddUint64(&st.Funcs[idx].Contained, 1)
	if c := int(class); c >= 0 && c < NumFailureClasses {
		atomic.AddUint64(&st.ContainedByClass[idx][c], 1)
	}
}

// SetTraceCap arms the trace ring; the largest capacity requested by any
// trace micro-generator sharing this state wins. Growing re-linearizes
// the live entries oldest-first into the larger backing store.
func (st *State) SetTraceCap(n int) {
	if n <= 0 {
		return
	}
	st.traceMu.Lock()
	if n > st.traceCap {
		live := st.traceSnapshot()
		st.trace = make([]traceRecord, n)
		copy(st.trace, live)
		st.traceCap = n
		st.traceHead = len(live) % n
		st.traceLen = len(live)
	}
	st.traceMu.Unlock()
}

// nextTraceSlot assigns the next sequence number to the ring's write
// slot and returns the slot, overwriting the oldest record once the ring
// is full; nil while the ring is disarmed. Caller holds traceMu.
func (st *State) nextTraceSlot() *traceRecord {
	if st.traceCap == 0 {
		return nil
	}
	st.traceSeq++
	r := &st.trace[st.traceHead]
	r.seq = st.traceSeq
	st.traceHead = (st.traceHead + 1) % st.traceCap
	if st.traceLen < st.traceCap {
		st.traceLen++
	}
	return r
}

// traceCall records one call of the trace micro-generator in the bounded
// ring, overwriting the oldest record once the ring is full, and assigns
// its sequence number: strictly monotonic for the State's lifetime,
// surviving Reset. fn carries the function's name, and the first
// traceMaxArgs+1 argument words are copied, the last of them only to
// mark the truncation. A no-op until SetTraceCap arms the ring.
func (st *State) traceCall(fn *TraceEntry, args []cval.Value, dur time.Duration, outcome traceOutcome, errno int32) {
	st.traceMu.Lock()
	if r := st.nextTraceSlot(); r != nil {
		r.entry, r.dur, r.outcome, r.errno = fn, dur, outcome, errno
		r.nargs = uint8(copy(r.args[:], args))
	}
	st.traceMu.Unlock()
}

// Trace snapshots the trace ring, oldest entry first, rendering each
// record's arguments and outcome straight from its ring slot. Entries
// are in strictly increasing Seq order; the oldest retained entry is the
// one traceCap calls behind the newest.
func (st *State) Trace() []TraceEntry {
	st.traceMu.Lock()
	defer st.traceMu.Unlock()
	if st.traceLen == 0 {
		return nil
	}
	out := make([]TraceEntry, st.traceLen)
	start := st.traceHead - st.traceLen + st.traceCap
	for i := range out {
		out[i] = st.trace[(start+i)%st.traceCap].render()
	}
	return out
}

// traceSnapshot copies the live records out of the ring, oldest first.
// Caller holds traceMu.
func (st *State) traceSnapshot() []traceRecord {
	if st.traceLen == 0 {
		return nil
	}
	start := st.traceHead - st.traceLen
	if start < 0 {
		start += st.traceCap
	}
	out := make([]traceRecord, st.traceLen)
	n := copy(out, st.trace[start:min(start+st.traceLen, st.traceCap)])
	copy(out[n:], st.trace)
	return out
}

// errnoSlot clamps an errno to the histogram range, like the MAX_ERRNO
// guard in the paper's Figure 3 code.
func errnoSlot(e int32) int {
	if e < 0 || e >= cval.MaxErrno {
		return cval.MaxErrno
	}
	return int(e)
}

// Generator composes micro-generators into wrapper functions and wrapper
// libraries.
type Generator struct {
	micros []MicroGenerator
}

// NewGenerator builds a generator from an ordered micro-generator list.
// The caller micro-generator (MGCaller) must be present exactly once; it
// marks where the original function is invoked.
func NewGenerator(micros ...MicroGenerator) (*Generator, error) {
	callers := 0
	for _, m := range micros {
		if _, ok := m.(*callerGen); ok {
			callers++
		}
	}
	if callers != 1 {
		return nil, fmt.Errorf("gen: generator needs exactly one caller micro-generator, got %d", callers)
	}
	return &Generator{micros: micros}, nil
}

// MustGenerator is NewGenerator that panics on misconfiguration; for
// package-level canonical wrapper definitions.
func MustGenerator(micros ...MicroGenerator) *Generator {
	g, err := NewGenerator(micros...)
	if err != nil {
		panic(err)
	}
	return g
}

// Build compiles the wrapper for one prototype. next is a cell resolved at
// link time (RTLD_NEXT); st accumulates statistics.
func (g *Generator) Build(proto *ctypes.Prototype, next *cval.CFunc, st *State) cval.CFunc {
	return g.build(proto, func() cval.CFunc { return *next }, st)
}

// build compiles the wrapper with a caller-supplied RTLD_NEXT resolver;
// resolve is invoked on every call, so the cell behind it may be rebound
// by later loads (and may be an atomic cell when loads run concurrently).
func (g *Generator) build(proto *ctypes.Prototype, resolve func() cval.CFunc, st *State) cval.CFunc {
	idx := st.Index(proto.Name)
	type hookPair struct {
		pre, post Hook
		isCaller  bool
	}
	pairs := make([]hookPair, len(g.micros))
	for i, m := range g.micros {
		_, isCaller := m.(*callerGen)
		pairs[i] = hookPair{
			pre:      m.PrefixHook(proto, st),
			post:     m.PostfixHook(proto, st),
			isCaller: isCaller,
		}
	}
	// call runs the hooks and the original function for one call.
	call := func(ctx *CallCtx) (cval.Value, *cmem.Fault) {
		for _, p := range pairs {
			if p.pre == nil {
				continue
			}
			if f := p.pre(ctx); f != nil {
				return 0, f
			}
		}
		if !ctx.Denied {
			fn := resolve()
			if fn == nil {
				return 0, &cmem.Fault{Kind: cmem.FaultAbort, Op: "wrapper", Detail: fmt.Sprintf("RTLD_NEXT for %s unresolved", proto.Name)}
			}
			env, args := ctx.Env, ctx.Args
			if ctx.Contain {
				// Only a containment postfix ever re-invokes; skip the
				// closure allocation on the uncontained fast path. The
				// closure holds the call's values, not ctx.
				ctx.invoke = func() (cval.Value, *cmem.Fault) { return fn(env, args) }
			}
			ret, fault := fn(env, args)
			switch {
			case fault != nil && !ctx.Contain:
				return 0, fault
			case fault != nil:
				// A containment prefix opted in: hold the fault and let
				// the postfix hooks run so one of them can virtualize it.
				ctx.ContainedFault = fault
			default:
				ctx.Ret = ret
			}
		}
		for i := len(pairs) - 1; i >= 0; i-- {
			if pairs[i].post == nil || pairs[i].isCaller {
				continue
			}
			if f := pairs[i].post(ctx); f != nil {
				return 0, f
			}
		}
		if ctx.ContainedFault != nil {
			// Caught but not consumed — a containment micro-generator
			// armed Contain yet no postfix virtualized the fault.
			// Propagate rather than silently swallow it.
			return 0, ctx.ContainedFault
		}
		// Outcome accounting: a call that was not vetoed and did not
		// fault cleared every installed check (NoteDeny covered the
		// veto case inside the checking hook).
		if !ctx.Denied {
			atomic.AddUint64(&st.Funcs[idx].Passed, 1)
		}
		return ctx.Ret, nil
	}
	return func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		ctx := callCtxPool.Get().(*CallCtx)
		ctx.Env, ctx.Proto, ctx.Args, ctx.FuncIndex = env, proto, args, idx
		ret, f := call(ctx)
		ctx.release()
		return ret, f
	}
}

// callCtxPool holds zeroed call contexts for reuse: a wrapped call's
// bookkeeping then allocates nothing. A call made from inside a wrapped
// call (a comparator qsort invokes) takes a context of its own.
var callCtxPool = sync.Pool{New: func() any { return new(CallCtx) }}

// release zeroes ctx, keeping the watchdog stack's storage, and returns
// it to the pool.
func (ctx *CallCtx) release() {
	*ctx = CallCtx{watchdogStack: ctx.watchdogStack[:0]}
	callCtxPool.Put(ctx)
}

// Subst builds a replacement implementation for one wrapped symbol at
// link time, with access to the RTLD_NEXT resolver — how HEALERS rewrites
// an uncontainable call into a bounded equivalent (sprintf into snprintf
// with the destination's actual capacity).
type Subst func(next simelf.NextFunc, st *State) (cval.CFunc, error)

// nextCell is an atomically rebindable RTLD_NEXT slot. A wrapper library
// object is registered once in a simelf.System but loaded by every
// process that maps it; a parallel campaign loads it from many probe
// processes at once, so the link-time write and the call-time read must
// not race. Identical search orders resolve to identical targets, so
// concurrent rebinding is value-idempotent.
type nextCell struct {
	fn atomic.Pointer[cval.CFunc]
}

func (c *nextCell) load() cval.CFunc {
	if p := c.fn.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *nextCell) store(fn cval.CFunc) { c.fn.Store(&fn) }

// BuildLibrarySubst generates a complete interposing wrapper library
// exporting a wrapper for every given prototype. The library's OnLoad
// hook resolves each symbol's RTLD_NEXT target; loading the library
// without a definition of some wrapped symbol further down the search
// order is a link error. A symbol named in subst is exported as the
// substitute implementation instead of the micro-generator composition;
// subst may be nil.
func (g *Generator) BuildLibrarySubst(soname string, protos []*ctypes.Prototype, st *State, subst map[string]Subst) *simelf.Library {
	lib := simelf.NewLibrary(soname)
	sorted := append([]*ctypes.Prototype(nil), protos...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	cells := make(map[string]*nextCell, len(sorted))
	substCells := make(map[string]*nextCell)
	for _, proto := range sorted {
		if builder, ok := subst[proto.Name]; ok && builder != nil {
			cell := new(nextCell)
			substCells[proto.Name] = cell
			idx := st.Index(proto.Name)
			// Trampoline: the real implementation lands in the cell
			// at link time.
			lib.ExportWithProto(proto, func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
				fn := cell.load()
				if fn == nil {
					return 0, &cmem.Fault{Kind: cmem.FaultAbort, Op: "wrapper", Detail: "substitute unresolved"}
				}
				atomic.AddUint64(&st.Funcs[idx].Substituted, 1)
				return fn(env, args)
			})
			continue
		}
		cell := new(nextCell)
		cells[proto.Name] = cell
		lib.ExportWithProto(proto, g.build(proto, cell.load, st))
	}
	lib.OnLoad = func(next simelf.NextFunc) error {
		for name, cell := range cells {
			fn, ok := next(name)
			if !ok {
				return fmt.Errorf("gen: %s: no next definition of %s", soname, name)
			}
			cell.store(fn)
		}
		for name, cell := range substCells {
			fn, err := subst[name](next, st)
			if err != nil {
				return fmt.Errorf("gen: %s: building substitute for %s: %w", soname, name, err)
			}
			cell.store(fn)
		}
		return nil
	}
	return lib
}
