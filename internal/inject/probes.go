// Package inject implements the HEALERS automated fault-injection engine
// (§2.2, Fig. 2): it probes every function of a shared library with a
// hierarchy of argument values, observes which probes crash a fresh
// simulated process, and derives the *weakest robust argument type* for
// each parameter — the robust API that the wrapper generator then
// enforces.
//
// The method follows Ballista (Koopman & DeVale) as adapted by Fetzer &
// Xiao: single-fault sweeps attribute crashes to one parameter at a time
// (every other parameter holds a known-good "golden" value), and the
// per-parameter search walks the robustness lattice from the declared C
// type toward stronger types until conforming probes stop crashing.
package inject

import (
	"fmt"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
)

// Probe is one test value for a parameter, materialized fresh in each
// probe process.
type Probe struct {
	// Name identifies the probe in reports ("null", "unmapped", ...).
	Name string
	// Golden marks the known-good value used for non-injected
	// parameters during single-fault sweeps.
	Golden bool
	// Make materializes the value in the probe process's environment.
	Make func(env *cval.Env) (cval.Value, error)
}

// probeRegion is scratch space probes carve values from: a dedicated
// mapping whose following page is guaranteed unmapped, so "ends at a
// cliff" values are constructible.
const (
	cliffBase  cmem.Addr = 0x00a00000 // one page of 'A's, next page unmapped
	digitCliff cmem.Addr = 0x00a80000 // one page of '1's, next page unmapped
	roCliff    cmem.Addr = 0x00b00000 // read-only page, next unmapped
)

// prepareProbeRegions maps the cliff regions in a probe environment.
func prepareProbeRegions(env *cval.Env) error {
	sp := env.Img.Space
	if f := sp.Map(cliffBase, cmem.PageSize, cmem.ProtRW); f != nil {
		return fmt.Errorf("inject: mapping cliff region: %w", f)
	}
	// Fill with 'A's: readable, writable, and decidedly unterminated.
	if f := sp.Fill(cliffBase, cmem.PageSize, 'A'); f != nil {
		return fmt.Errorf("inject: filling cliff region: %w", f)
	}
	if f := sp.Map(digitCliff, cmem.PageSize, cmem.ProtRW); f != nil {
		return fmt.Errorf("inject: mapping digit cliff: %w", f)
	}
	if f := sp.Fill(digitCliff, cmem.PageSize, '1'); f != nil {
		return fmt.Errorf("inject: filling digit cliff: %w", f)
	}
	if f := sp.Map(roCliff, cmem.PageSize, cmem.ProtRead); f != nil {
		return fmt.Errorf("inject: mapping ro cliff: %w", f)
	}
	return nil
}

// digitCliffEnd returns a digit-filled unterminated region of n bytes.
func digitCliffEnd(n uint32) cmem.Addr { return digitCliff + cmem.PageSize - cmem.Addr(n) }

// cliffEnd returns an address n bytes before the cliff (the unmapped
// page), i.e. a valid region of exactly n bytes.
func cliffEnd(n uint32) cmem.Addr { return cliffBase + cmem.PageSize - cmem.Addr(n) }

func mkPtr(a cmem.Addr) func(*cval.Env) (cval.Value, error) {
	return func(*cval.Env) (cval.Value, error) { return cval.Ptr(a), nil }
}

func mkInt(v int64) func(*cval.Env) (cval.Value, error) {
	return func(*cval.Env) (cval.Value, error) { return cval.Int(v), nil }
}

func mkString(s string) func(*cval.Env) (cval.Value, error) {
	return func(env *cval.Env) (cval.Value, error) {
		a, f := env.Img.StaticString(s)
		if f != nil {
			return 0, fmt.Errorf("inject: materializing string: %w", f)
		}
		return cval.Ptr(a), nil
	}
}

func mkHeapBuf(n uint32, fill string) func(*cval.Env) (cval.Value, error) {
	return func(env *cval.Env) (cval.Value, error) {
		p := env.Img.Heap.Malloc(n)
		if p.IsNull() {
			return 0, fmt.Errorf("inject: probe malloc(%d) failed", n)
		}
		if f := env.Img.Space.WriteCString(p, fill); f != nil {
			return 0, fmt.Errorf("inject: filling probe buffer: %w", f)
		}
		return cval.Ptr(p), nil
	}
}

// goldenBufSize is the size of known-good buffers; golden size values stay
// comfortably below it.
const (
	goldenBufSize = 4096
	goldenLen     = 16
)

// pointerProbes are shared by every pointer-shaped chain.
func pointerProbes() []Probe {
	return []Probe{
		{Name: "null", Make: mkPtr(0)},
		{Name: "unmapped", Make: mkPtr(0xdeadbee0)},
		{Name: "text_ptr", Make: mkPtr(cval.TextBase)}, // code address, not data
	}
}

// ProbesFor returns the probe catalog for parameter i of proto, golden
// probe included (exactly one probe is Golden).
func ProbesFor(p ctypes.Param) []Probe {
	chain := ctypes.ChainFor(p)
	switch chain {
	case ctypes.ChainInStr:
		return append(pointerProbes(),
			Probe{Name: "unterminated", Make: mkPtr(cliffEnd(64))},
			// Digit-filled unterminated memory catches parsers (atoi,
			// strtol) that stop scanning at the first non-digit and
			// would otherwise look robust against letter-filled junk.
			Probe{Name: "unterminated_digits", Make: mkPtr(digitCliffEnd(64))},
			Probe{Name: "empty_str", Make: mkString("")},
			Probe{Name: "valid_str", Golden: true, Make: mkString("golden value")},
		)
	case ctypes.ChainFmt:
		return append(pointerProbes(),
			Probe{Name: "unterminated", Make: mkPtr(cliffEnd(64))},
			Probe{Name: "percent_n", Make: mkString("x%nx")},
			Probe{Name: "plain_fmt", Golden: true, Make: mkString("v=%d.")},
		)
	case ctypes.ChainInBuf:
		return append(pointerProbes(),
			Probe{Name: "short_buf", Make: mkPtr(cliffEnd(4))},
			Probe{Name: "big_buf", Golden: true, Make: mkHeapBuf(goldenBufSize, "golden value")},
		)
	case ctypes.ChainOutBuf:
		return append(pointerProbes(),
			Probe{Name: "rodata", Make: mkPtr(roCliff)},
			Probe{Name: "short_buf", Make: mkPtr(cliffEnd(4))},
			Probe{Name: "big_buf", Golden: true, Make: mkHeapBuf(goldenBufSize, "golden value")},
		)
	case ctypes.ChainInOutBuf:
		return append(pointerProbes(),
			Probe{Name: "unterminated", Make: mkPtr(cliffEnd(64))},
			Probe{Name: "short_str", Make: func(env *cval.Env) (cval.Value, error) {
				// Terminated string with almost no room behind it.
				a := cliffEnd(8)
				if f := env.Img.Space.WriteCString(a, "abcd"); f != nil {
					return 0, fmt.Errorf("inject: short_str: %w", f)
				}
				return cval.Ptr(a), nil
			}},
			Probe{Name: "big_str", Golden: true, Make: mkHeapBuf(goldenBufSize, "golden value")},
		)
	case ctypes.ChainSize:
		return []Probe{
			{Name: "zero", Make: mkInt(0)},
			{Name: "huge", Make: mkInt(0xffffffff)},
			{Name: "large_sane", Make: mkInt(0x00100000)},
			{Name: "modest", Golden: true, Make: mkInt(goldenLen)},
		}
	case ctypes.ChainFd:
		return []Probe{
			{Name: "negative_fd", Make: mkInt(-1)},
			{Name: "wild_fd", Make: mkInt(4097)},
			{Name: "stdout_fd", Golden: true, Make: mkInt(1)},
		}
	case ctypes.ChainFuncPtr:
		return []Probe{
			{Name: "null", Make: mkPtr(0)},
			{Name: "data_ptr", Make: mkPtr(cliffBase)},
			{Name: "byte_cmp_fn", Golden: true, Make: func(env *cval.Env) (cval.Value, error) {
				// A real comparator dereferences its arguments; the
				// golden one must too, so that qsort/bsearch over
				// absurd element counts fault on the wild element
				// instead of iterating forever over untouched memory.
				a := env.RegisterText("probe_byte_cmp", func(e *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
					if len(args) < 2 {
						return cval.Int(0), nil
					}
					x, f := e.Img.Space.ReadByteAt(args[0].Addr())
					if f != nil {
						return 0, f
					}
					y, f := e.Img.Space.ReadByteAt(args[1].Addr())
					if f != nil {
						return 0, f
					}
					return cval.Int(int64(int32(x) - int32(y))), nil
				})
				return cval.Ptr(a), nil
			}},
		}
	case ctypes.ChainHeapPtr:
		return []Probe{
			{Name: "null", Make: mkPtr(0)},
			{Name: "unmapped", Make: mkPtr(0xdeadbee0)},
			{Name: "stack_ptr", Make: mkPtr(cliffBase)},
			{Name: "interior_ptr", Make: func(env *cval.Env) (cval.Value, error) {
				p := env.Img.Heap.Malloc(64)
				if p.IsNull() {
					return 0, fmt.Errorf("inject: interior_ptr malloc failed")
				}
				return cval.Ptr(p + 8), nil
			}},
			{Name: "live_chunk", Golden: true, Make: mkHeapBuf(64, "x")},
		}
	case ctypes.ChainPtrOut:
		return []Probe{
			{Name: "unmapped", Make: mkPtr(0xdeadbee0)},
			{Name: "rodata", Make: mkPtr(roCliff)},
			{Name: "misaligned", Make: mkPtr(cliffBase + 1)}, // SIGBUS on wide store
			{Name: "null", Make: mkPtr(0)},                   // NULL is documented-legal for out params
			{Name: "valid_out", Golden: true, Make: mkHeapBuf(16, "")},
		}
	default: // ChainScalar
		return []Probe{
			{Name: "int_min", Make: mkInt(-0x80000000)},
			{Name: "minus_one", Make: mkInt(-1)},
			{Name: "large", Make: mkInt(0x7fffffff)},
			{Name: "zero", Golden: true, Make: mkInt('A')},
		}
	}
}

// GoldenProbe returns the golden probe for a parameter.
func GoldenProbe(p ctypes.Param) Probe {
	for _, pr := range ProbesFor(p) {
		if pr.Golden {
			return pr
		}
	}
	// Every catalog above has a golden entry; reaching here is a bug.
	panic(fmt.Sprintf("inject: no golden probe for chain %s", ctypes.ChainFor(p).Name))
}
