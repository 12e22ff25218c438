package gen

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
)

// argNames renders a1..aN for a prototype, the naming the paper's
// generated code uses.
func argNames(proto *ctypes.Prototype) []string {
	names := make([]string, len(proto.Params))
	for i := range proto.Params {
		names[i] = fmt.Sprintf("a%d", i+1)
	}
	return names
}

// ---------------------------------------------------------------------
// prototype

// prototypeGen opens the wrapper function and returns the result — the
// outermost micro-generator in Figure 3.
type prototypeGen struct{}

// MGPrototype renders the wrapper's signature and final return.
func MGPrototype() MicroGenerator { return prototypeGen{} }

func (prototypeGen) Name() string { return "prototype" }

func (prototypeGen) PrefixSource(proto *ctypes.Prototype) []string {
	params := make([]string, len(proto.Params))
	for i, p := range proto.Params {
		params[i] = fmt.Sprintf("%s a%d", p.Type, i+1)
	}
	sig := strings.Join(params, ", ")
	if proto.Variadic {
		if sig != "" {
			sig += ", "
		}
		sig += "..."
	}
	if sig == "" {
		sig = "void"
	}
	lines := []string{fmt.Sprintf("%s %s(%s)", proto.Ret, proto.Name, sig), "{"}
	if !proto.Ret.IsVoid() {
		lines = append(lines, fmt.Sprintf("    %s ret;", proto.Ret))
	}
	return lines
}

func (prototypeGen) PostfixSource(proto *ctypes.Prototype) []string {
	if proto.Ret.IsVoid() {
		return []string{"    return;", "}"}
	}
	return []string{"    return ret;", "}"}
}

func (prototypeGen) PrefixHook(*ctypes.Prototype, *State) Hook  { return nil }
func (prototypeGen) PostfixHook(*ctypes.Prototype, *State) Hook { return nil }

// ---------------------------------------------------------------------
// caller

// callerGen invokes the original function via the RTLD_NEXT pointer. The
// runtime call is performed by the Generator itself at this position.
type callerGen struct{}

// MGCaller renders the call to the original function.
func MGCaller() MicroGenerator { return &callerGen{} }

func (*callerGen) Name() string { return "caller" }

func (*callerGen) PrefixSource(*ctypes.Prototype) []string { return nil }

func (*callerGen) PostfixSource(proto *ctypes.Prototype) []string {
	call := fmt.Sprintf("(*addr_%s)(%s);", proto.Name, strings.Join(argNames(proto), ", "))
	if proto.Ret.IsVoid() {
		return []string{"    " + call}
	}
	return []string{fmt.Sprintf("    ret = %s", call)}
}

func (*callerGen) PrefixHook(*ctypes.Prototype, *State) Hook  { return nil }
func (*callerGen) PostfixHook(*ctypes.Prototype, *State) Hook { return nil }

// ---------------------------------------------------------------------
// call counter

type callCounterGen struct{}

// MGCallCounter counts invocations per wrapped function.
func MGCallCounter() MicroGenerator { return callCounterGen{} }

func (callCounterGen) Name() string { return "call counter" }

func (callCounterGen) PrefixSource(proto *ctypes.Prototype) []string {
	return []string{fmt.Sprintf("    ++call_counter_num_calls[%s];", fnIndexMacro(proto))}
}
func (callCounterGen) PostfixSource(*ctypes.Prototype) []string { return nil }

func (callCounterGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		st.AddCall(ctx.FuncIndex)
		return nil
	}
}
func (callCounterGen) PostfixHook(*ctypes.Prototype, *State) Hook { return nil }

// fnIndexMacro renders the per-function index constant used in generated
// array subscripts.
func fnIndexMacro(proto *ctypes.Prototype) string {
	return "NO_" + strings.ToUpper(proto.Name)
}

// ---------------------------------------------------------------------
// function exectime

type exectimeGen struct{}

// MGExectime measures time spent in the original function (the paper uses
// rdtsc; the simulation uses the monotonic clock). Besides the running
// total of Figure 3 it buckets every sample into the function's log2
// latency histogram, from which p50/p90/p99/max are derivable without
// keeping raw samples (HistQuantileNS).
func MGExectime() MicroGenerator { return exectimeGen{} }

func (exectimeGen) Name() string { return "function exectime" }

func (exectimeGen) PrefixSource(*ctypes.Prototype) []string {
	return []string{
		"    unsigned long long exectime_start;",
		"    unsigned long long exectime_end;",
		"    rdtsc(exectime_start);",
	}
}

func (exectimeGen) PostfixSource(proto *ctypes.Prototype) []string {
	return []string{
		"    rdtsc(exectime_end);",
		fmt.Sprintf("    exectime[%s] += exectime_end - exectime_start;", fnIndexMacro(proto)),
		fmt.Sprintf("    ++exectime_hist[%s][healers_log2(exectime_end - exectime_start)];", fnIndexMacro(proto)),
	}
}

func (exectimeGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		ctx.start = time.Now()
		return nil
	}
}

func (exectimeGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		st.addExecSample(ctx.FuncIndex, time.Since(ctx.start))
		return nil
	}
}

// ---------------------------------------------------------------------
// errno collectors

type collectErrorsGen struct{}

// MGCollectErrors histograms errno changes across all wrapped functions.
func MGCollectErrors() MicroGenerator { return collectErrorsGen{} }

func (collectErrorsGen) Name() string { return "collect errors" }

func (collectErrorsGen) PrefixSource(*ctypes.Prototype) []string {
	return []string{"    int collect_errors_err = errno;"}
}

func (collectErrorsGen) PostfixSource(*ctypes.Prototype) []string {
	return []string{
		"    if (collect_errors_err != errno)",
		"        if (errno < 0 || errno >= MAX_ERRNO)",
		"            ++collect_errors_cnter[MAX_ERRNO];",
		"        else",
		"            ++collect_errors_cnter[errno];",
	}
}

func (collectErrorsGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		ctx.errnoCollect = ctx.Env.Errno
		return nil
	}
}

func (collectErrorsGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		if ctx.Env.Errno != ctx.errnoCollect {
			st.addGlobalErrno(errnoSlot(ctx.Env.Errno))
		}
		return nil
	}
}

type funcErrorsGen struct{}

// MGFuncErrors histograms errno changes per wrapped function.
func MGFuncErrors() MicroGenerator { return funcErrorsGen{} }

func (funcErrorsGen) Name() string { return "func errors" }

func (funcErrorsGen) PrefixSource(*ctypes.Prototype) []string {
	return []string{"    int func_error_err = errno;"}
}

func (funcErrorsGen) PostfixSource(proto *ctypes.Prototype) []string {
	return []string{
		"    if (func_error_err != errno)",
		"        if (errno < 0 || errno >= MAX_ERRNO)",
		fmt.Sprintf("            ++func_error_cnter[%s][MAX_ERRNO];", fnIndexMacro(proto)),
		"        else",
		fmt.Sprintf("            ++func_error_cnter[%s][errno];", fnIndexMacro(proto)),
	}
}

func (funcErrorsGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		ctx.errnoFunc = ctx.Env.Errno
		return nil
	}
}

func (funcErrorsGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		if ctx.Env.Errno != ctx.errnoFunc {
			st.addFuncErrno(ctx.FuncIndex, errnoSlot(ctx.Env.Errno))
		}
		return nil
	}
}

// ---------------------------------------------------------------------
// argument checks (robustness wrapper)

type argCheckGen struct {
	api ctypes.RobustAPI
}

// MGArgCheck validates every argument against the robust API derived by
// the fault-injection campaign; a violating call is denied with errno
// EDenied and an error return value instead of reaching the brittle
// implementation.
func MGArgCheck(api ctypes.RobustAPI) MicroGenerator { return &argCheckGen{api: api} }

func (*argCheckGen) Name() string { return "arg check" }

func (g *argCheckGen) PrefixSource(proto *ctypes.Prototype) []string {
	rules := g.api[proto.Name]
	var lines []string
	for i, r := range rules {
		if r.LevelName == "any" {
			continue
		}
		lines = append(lines,
			fmt.Sprintf("    if (!healers_check_%s(a%d, %s)) {", r.LevelName, i+1, "HEALERS_NEED("+proto.Name+")"),
			"        errno = EHEALERS_DENIED;",
			"        return HEALERS_ERRVAL;",
			"    }")
	}
	return lines
}

func (*argCheckGen) PostfixSource(*ctypes.Prototype) []string { return nil }

// denyValue picks the substitute return value for a denied call: NULL for
// pointer returns, -1 for integers.
func denyValue(proto *ctypes.Prototype) cval.Value {
	if proto.Ret.IsPointer() {
		return cval.Ptr(0)
	}
	return cval.Int(-1)
}

func (g *argCheckGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	rules := g.api[proto.Name]
	type check struct {
		param int
		level ctypes.Level
	}
	var checks []check
	for i, r := range rules {
		chain, ok := ctypes.ChainByName(r.Chain)
		if !ok || r.Level <= 0 {
			continue
		}
		lvl := r.Level
		if lvl >= len(chain.Levels) {
			// "uncontainable": enforce the strongest available level;
			// full protection additionally needs the containment
			// micro-generators or a bounded substitution.
			lvl = len(chain.Levels) - 1
		}
		// Levels are ordered weak to strong but their predicates are
		// not individually cumulative (writable_sized does not imply
		// NUL-terminated); enforce every rung up to the derived one.
		for k := 1; k <= lvl; k++ {
			checks = append(checks, check{param: i, level: chain.Levels[k]})
		}
	}
	// Copy-style functions: write destinations whose source range is
	// identifiable get an overlap check — overlapping src/dst is
	// undefined behaviour in C (strcpy can self-propagate without
	// bound), so the wrapper denies it unless the function documents
	// overlap as legal (memmove's overlap_ok annotation).
	type overlapPair struct{ dst, src int }
	var overlaps []overlapPair
	for i, p := range proto.Params {
		if p.OverlapOK || (p.Role != ctypes.RoleOutBuf && p.Role != ctypes.RoleInOutBuf) {
			continue
		}
		switch {
		case p.SrcStr >= 0:
			overlaps = append(overlaps, overlapPair{dst: i, src: p.SrcStr})
		case p.LenBy >= 0:
			for j, q := range proto.Params {
				if j != i && q.Role == ctypes.RoleInBuf && q.LenBy == p.LenBy {
					overlaps = append(overlaps, overlapPair{dst: i, src: j})
				}
			}
		}
	}
	if len(checks) == 0 && len(overlaps) == 0 {
		return nil
	}
	return func(ctx *CallCtx) *cmem.Fault {
		deny := func(reason string) {
			ctx.Denied = true
			ctx.DenyReason = reason
			ctx.Env.Errno = cval.EDenied
			ctx.Ret = denyValue(ctx.Proto)
			st.NoteDeny(ctx.FuncIndex, reason)
		}
		for _, c := range checks {
			var v cval.Value
			if c.param < len(ctx.Args) {
				v = ctx.Args[c.param]
			}
			need := ctypes.NeedFor(ctx.Env, ctx.Proto, c.param, ctx.Args)
			if !c.level.Check(ctx.Env, v, need) {
				deny(fmt.Sprintf("%s: arg %d fails %s", ctx.Proto.Name, c.param+1, c.level.Name))
				return nil
			}
		}
		for _, ov := range overlaps {
			if ov.dst >= len(ctx.Args) || ov.src >= len(ctx.Args) {
				continue
			}
			dst, src := ctx.Args[ov.dst].Addr(), ctx.Args[ov.src].Addr()
			dn := ctypes.NeedFor(ctx.Env, ctx.Proto, ov.dst, ctx.Args).Bytes
			sn := ctypes.NeedFor(ctx.Env, ctx.Proto, ov.src, ctx.Args).Bytes
			if dn == 0 {
				dn = 1
			}
			if sn == 0 {
				sn = dn
			}
			if dst < src+cmem.Addr(sn) && src < dst+cmem.Addr(dn) {
				deny(fmt.Sprintf("%s: overlapping source and destination", ctx.Proto.Name))
				return nil
			}
		}
		return nil
	}
}

func (*argCheckGen) PostfixHook(*ctypes.Prototype, *State) Hook { return nil }

// ---------------------------------------------------------------------
// heap integrity (security wrapper, detection)

type heapCheckGen struct{}

// MGHeapCheck verifies heap canaries and mirrored chunk headers on entry
// and exit of every intercepted call; a violation terminates the process —
// the fault-containment defence of the §3.4 demo. It also switches canary
// placement on for all future allocations of the process.
func MGHeapCheck() MicroGenerator { return heapCheckGen{} }

func (heapCheckGen) Name() string { return "heap check" }

func (heapCheckGen) PrefixSource(*ctypes.Prototype) []string {
	return []string{
		"    healers_heap_enable_canaries();",
		"    if (healers_heap_check() != 0)",
		"        healers_terminate(\"heap smashed (pre)\");",
	}
}

func (heapCheckGen) PostfixSource(*ctypes.Prototype) []string {
	return []string{
		"    if (healers_heap_check() != 0)",
		"        healers_terminate(\"heap smashed (post)\");",
	}
}

func (heapCheckGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		heap := ctx.Env.Img.Heap
		if !heap.CanariesEnabled() {
			heap.SetCanaries(true)
			// Frames pushed from here on get stack canaries too —
			// the StackGuard-style defence of the paper's reference
			// [1] (Baratloo, Singh & Tsai).
			ctx.Env.Img.Stack.SetGuards(true)
		}
		if f := heap.CheckIntegrity(); f != nil {
			st.addOverflow()
			return f
		}
		if f := ctx.Env.Img.Stack.CheckGuards(); f != nil {
			st.addOverflow()
			return f
		}
		return nil
	}
}

func (heapCheckGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		if f := ctx.Env.Img.Heap.CheckIntegrity(); f != nil {
			st.addOverflow()
			return f
		}
		// A library call that wrote through a stack buffer (read into
		// a local, gets into a local) is detected here, before the
		// caller can return through the smashed frame.
		if f := ctx.Env.Img.Stack.CheckGuards(); f != nil {
			st.addOverflow()
			return f
		}
		return nil
	}
}

// ---------------------------------------------------------------------
// bound checks (security wrapper, prevention)

type boundCheckGen struct{}

// MGBoundCheck prevents heap buffer overflows before they happen: for
// every output-buffer argument whose required size is computable from the
// call (strcpy's dst needs strlen(src)+1), it verifies the destination's
// heap chunk has room. A violating call terminates the process instead of
// smashing the heap.
func MGBoundCheck() MicroGenerator { return boundCheckGen{} }

func (boundCheckGen) Name() string { return "bound check" }

func (boundCheckGen) PrefixSource(proto *ctypes.Prototype) []string {
	var lines []string
	for i, p := range proto.Params {
		if p.Role != ctypes.RoleOutBuf && p.Role != ctypes.RoleInOutBuf {
			continue
		}
		lines = append(lines,
			fmt.Sprintf("    if (healers_chunk_room(a%d) < HEALERS_NEED(%s))", i+1, proto.Name),
			"        healers_terminate(\"buffer overflow prevented\");")
	}
	return lines
}

func (boundCheckGen) PostfixSource(*ctypes.Prototype) []string { return nil }

func (boundCheckGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	var params []int
	for i, p := range proto.Params {
		if p.Role == ctypes.RoleOutBuf || p.Role == ctypes.RoleInOutBuf {
			params = append(params, i)
		}
	}
	if len(params) == 0 {
		return nil
	}
	return func(ctx *CallCtx) *cmem.Fault {
		for _, i := range params {
			if i >= len(ctx.Args) {
				continue
			}
			dst := ctx.Args[i].Addr()
			need := ctypes.NeedFor(ctx.Env, ctx.Proto, i, ctx.Args)
			if need.Bytes == 0 || dst.IsNull() {
				continue
			}
			base, size, ok := ctx.Env.Img.Heap.ChunkRange(dst)
			if !ok {
				continue // not a heap buffer; canaries cover the rest
			}
			room := uint32(base) + size - uint32(dst)
			if dst < base || uint32(dst) > uint32(base)+size {
				room = 0
			}
			if need.Bytes > room {
				st.addOverflow()
				return &cmem.Fault{
					Kind: cmem.FaultOverflow, Addr: dst, Op: ctx.Proto.Name,
					Detail: fmt.Sprintf("write of %d bytes into %d-byte chunk prevented", need.Bytes, room),
				}
			}
		}
		return nil
	}
}

func (boundCheckGen) PostfixHook(*ctypes.Prototype, *State) Hook { return nil }

// ---------------------------------------------------------------------
// format-string checks (security wrapper)

type fmtCheckGen struct{}

// MGFmtCheck denies calls whose format-string argument contains the %n
// directive or is not a valid string — the format-string-attack defence.
func MGFmtCheck() MicroGenerator { return fmtCheckGen{} }

func (fmtCheckGen) Name() string { return "fmt check" }

func (fmtCheckGen) PrefixSource(proto *ctypes.Prototype) []string {
	var lines []string
	for i, p := range proto.Params {
		if p.Role != ctypes.RoleFmt {
			continue
		}
		lines = append(lines,
			fmt.Sprintf("    if (!healers_check_fmt_no_percent_n(a%d)) {", i+1),
			"        errno = EHEALERS_DENIED;",
			"        return HEALERS_ERRVAL;",
			"    }")
	}
	return lines
}

func (fmtCheckGen) PostfixSource(*ctypes.Prototype) []string { return nil }

func (fmtCheckGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	var params []int
	for i, p := range proto.Params {
		if p.Role == ctypes.RoleFmt {
			params = append(params, i)
		}
	}
	if len(params) == 0 {
		return nil
	}
	strongest := ctypes.ChainFmt.Levels[ctypes.ChainFmt.Strongest()]
	return func(ctx *CallCtx) *cmem.Fault {
		for _, i := range params {
			var v cval.Value
			if i < len(ctx.Args) {
				v = ctx.Args[i]
			}
			if !strongest.Check(ctx.Env, v, ctypes.Need{}) {
				ctx.Denied = true
				ctx.DenyReason = fmt.Sprintf("%s: format string rejected", ctx.Proto.Name)
				ctx.Env.Errno = cval.EDenied
				ctx.Ret = denyValue(ctx.Proto)
				st.NoteDeny(ctx.FuncIndex, ctx.DenyReason)
				return nil
			}
		}
		return nil
	}
}

func (fmtCheckGen) PostfixHook(*ctypes.Prototype, *State) Hook { return nil }

// ---------------------------------------------------------------------
// trace ring

type traceGen struct {
	capacity int
}

// MGTrace keeps a bounded ring of the most recent intercepted calls —
// function name, arguments, duration, and outcome ("ok", "denied", or
// "errno=<name>") — for post-mortem inspection (healers-profile -trace).
// The ring holds the given number of entries; when several trace
// micro-generators share one wrapper state the largest capacity wins.
// Entries never leave the process unless the profile document serializes
// them, so a call costs one ring slot write: the slot keeps the argument
// words and errno, and they are rendered into text only when the ring is
// read (State.Trace).
func MGTrace(capacity int) MicroGenerator { return &traceGen{capacity: capacity} }

func (*traceGen) Name() string { return "trace" }

func (g *traceGen) PrefixSource(*ctypes.Prototype) []string {
	return []string{
		"    unsigned long long trace_start;",
		"    int trace_err = errno;",
		"    rdtsc(trace_start);",
	}
}

func (g *traceGen) PostfixSource(proto *ctypes.Prototype) []string {
	return []string{
		"    unsigned long long trace_end;",
		"    rdtsc(trace_end);",
		fmt.Sprintf("    healers_trace_record(%s, trace_end - trace_start, trace_err);", fnIndexMacro(proto)),
	}
}

// traceMaxArgs caps how many argument words one trace entry renders.
const traceMaxArgs = 8

// appendArgs appends a call's argument words to b as a trace entry
// renders them: at most traceMaxArgs of them, then "..." when there are
// more.
func appendArgs(b []byte, args []cval.Value) []byte {
	for i, v := range args {
		if i > 0 {
			b = append(b, ", "...)
		}
		if i == traceMaxArgs {
			return append(b, "..."...)
		}
		b = append(b, "0x"...)
		b = strconv.AppendUint(b, uint64(v), 16)
	}
	return b
}

// traceOutcome is how a traced call ended.
type traceOutcome uint8

const (
	outcomeOK traceOutcome = iota
	outcomeDenied
	outcomeErrno
)

// traceRecord is one slot of the trace ring (104 bytes): what a call
// left for State.Trace to render, not the rendered text. entry holds the
// function's name; args holds the first nargs argument words, of which a
// (traceMaxArgs+1)th only marks the truncation.
type traceRecord struct {
	seq     uint64
	dur     time.Duration
	entry   *TraceEntry
	args    [traceMaxArgs + 1]cval.Value
	nargs   uint8
	outcome traceOutcome
	errno   int32
}

// render builds the record's TraceEntry.
func (r *traceRecord) render() TraceEntry {
	e := *r.entry
	e.Seq = r.seq
	var buf [64]byte
	e.Args = string(appendArgs(buf[:0], r.args[:r.nargs]))
	e.DurNS = r.dur.Nanoseconds()
	switch r.outcome {
	case outcomeDenied:
		e.Outcome = "denied"
	case outcomeErrno:
		e.Outcome = "errno=" + cval.ErrnoName(r.errno)
	default:
		e.Outcome = "ok"
	}
	return e
}

func (g *traceGen) PrefixHook(proto *ctypes.Prototype, st *State) Hook {
	st.SetTraceCap(g.capacity)
	return func(ctx *CallCtx) *cmem.Fault {
		ctx.traceStart = time.Now()
		ctx.errnoTrace = ctx.Env.Errno
		return nil
	}
}

func (g *traceGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	fn := &TraceEntry{Func: proto.Name}
	return func(ctx *CallCtx) *cmem.Fault {
		outcome := outcomeOK
		switch {
		case ctx.Denied:
			outcome = outcomeDenied
		case ctx.Env.Errno != ctx.errnoTrace:
			outcome = outcomeErrno
		}
		st.traceCall(fn, ctx.Args, time.Since(ctx.traceStart), outcome, ctx.Env.Errno)
		return nil
	}
}

// ---------------------------------------------------------------------
// exit flush (profiling wrapper)

type exitFlushGen struct{}

// MGExitFlush fires the wrapper state's OnExit hook when the wrapped
// process terminates voluntarily — the collection trigger of §2.3.
func MGExitFlush() MicroGenerator { return exitFlushGen{} }

func (exitFlushGen) Name() string { return "exit flush" }

func (exitFlushGen) PrefixSource(*ctypes.Prototype) []string { return nil }

func (exitFlushGen) PostfixSource(proto *ctypes.Prototype) []string {
	if proto.Name != "exit" {
		return nil
	}
	return []string{"    healers_flush_collected_data();"}
}

func (exitFlushGen) PrefixHook(*ctypes.Prototype, *State) Hook { return nil }

func (exitFlushGen) PostfixHook(proto *ctypes.Prototype, st *State) Hook {
	return func(ctx *CallCtx) *cmem.Fault {
		if !ctx.Env.Exited || st.OnExit == nil {
			return nil
		}
		// Latch per process: stacked exit paths flush once.
		if _, done := ctx.Env.Statics["healers_flushed"]; done {
			return nil
		}
		ctx.Env.Statics["healers_flushed"] = true
		st.OnExit(ctx.Env, st)
		return nil
	}
}
