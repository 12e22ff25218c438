package cmem

import (
	"fmt"
	"strconv"
	"strings"
)

// Chaos is the deterministic runtime fault injector behind chaos mode:
// armed on a simulated process, it makes C-library calls fail
// probabilistically with simulated hardware faults. Where the
// fault-injection campaign (internal/inject) probes one argument at a
// time in fresh processes, chaos mode attacks a *running* workload — the
// adversary the containment wrapper exists to survive.
//
// The generator is a seeded xorshift64*, so a (seed, rate) pair replays
// the exact same fault sequence: tests assert on specific injected-fault
// counts and the -chaos CLI scenario is reproducible.
//
// Chaos is not synchronized: it belongs to one simulated process (via
// cval.Env), which is single-threaded.
type Chaos struct {
	state uint64
	// threshold is the probability cutoff in 1/2^32 units: a draw's low
	// 32 bits below it fire. Held as uint64 so rate 1.0 (2^32, every
	// draw fires) is representable.
	threshold uint64

	// Calls counts rolls; Injected counts faults produced (including
	// silent corruptions); Corrupted counts silent corruptions alone.
	Calls     uint64
	Injected  uint64
	Corrupted uint64

	// scripted switches Roll from probabilistic draws to the script:
	// faults fire at exact 1-based call indices. An empty script makes
	// the injector a pure call counter — the golden-run mode.
	scripted bool
	script   map[uint64]ScriptedFault

	// corruptPending is set when a Silent scripted fault's call index is
	// reached: the shim lets the call run, then corrupts committed state.
	corruptPending bool

	// TraceOps, when set before the run, records the op name of every
	// roll in Ops — the call-index→function mapping a golden run exports
	// so sequence reports can label fault positions.
	TraceOps bool
	Ops      []string
}

// ScriptedFault schedules one fault in a scripted chaos scenario: at the
// Call-th intercepted call (1-based), inject a fault of the given Kind —
// or, when Silent is set, let the call succeed and flip one byte of its
// committed state afterwards (the silent-corruption probe).
type ScriptedFault struct {
	Call   uint64
	Kind   FaultKind
	Silent bool
}

// NewScriptedChaos builds a chaos injector that replays the given fault
// script instead of drawing probabilistically. With an empty script it
// injects nothing and just counts calls (and, with TraceOps, records
// op names) — the golden-run configuration.
func NewScriptedChaos(faults []ScriptedFault) *Chaos {
	c := &Chaos{scripted: true}
	if len(faults) > 0 {
		c.script = make(map[uint64]ScriptedFault, len(faults))
		for _, f := range faults {
			c.script[f.Call] = f
		}
	}
	return c
}

// CorruptPending reports — and clears — the pending silent-corruption
// flag set when a Silent scripted fault's call index was reached.
func (c *Chaos) CorruptPending() bool {
	p := c.corruptPending
	c.corruptPending = false
	return p
}

// NoteCorrupted records that a pending silent corruption was actually
// applied to the victim's state.
func (c *Chaos) NoteCorrupted() {
	c.Corrupted++
	c.Injected++
}

// NewChaos builds a chaos injector firing with probability rate (clamped
// to [0,1]) and the given seed. A zero seed is folded to a fixed
// constant so the xorshift state never sticks at zero.
func NewChaos(rate float64, seed uint64) *Chaos {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Chaos{state: seed, threshold: uint64(rate * (1 << 32))}
}

// ParseChaos parses a "RATE" or "RATE:SEED" specification (the
// HEALERS_CHAOS environment-variable format), e.g. "0.05" or
// "0.02:1234". An empty spec means chaos stays disarmed: (nil, nil). A
// malformed spec — unparseable or NaN rate, a rate outside [2^-32, 1],
// trailing garbage after the seed — is an error, never a silently mis-armed
// injector. A seedless spec uses seed 0, which NewChaos folds to its
// fixed constant, so HEALERS_CHAOS=0.05 and NewChaos(0.05, 0) replay
// the identical fault sequence.
func ParseChaos(spec string) (*Chaos, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	rateStr, seedStr, hasSeed := strings.Cut(spec, ":")
	rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
	if err != nil {
		return nil, fmt.Errorf("cmem: chaos spec %q: bad rate: %w", spec, err)
	}
	// Written so that NaN fails it too. A rate below 2^-32 would arm an
	// injector that never fires, which "0" already refuses to do.
	if !(rate >= 1.0/(1<<32) && rate <= 1) {
		return nil, fmt.Errorf("cmem: chaos spec %q: rate must be in [2^-32, 1]", spec)
	}
	var seed uint64
	if hasSeed {
		seed, err = strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cmem: chaos spec %q: bad seed: %w", spec, err)
		}
	}
	return NewChaos(rate, seed), nil
}

// Spec renders the injector back into the ParseChaos format.
func (c *Chaos) Spec() string {
	return fmt.Sprintf("%g", float64(c.threshold)/(1<<32))
}

// next advances the xorshift64* generator.
func (c *Chaos) next() uint64 {
	x := c.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.state = x
	return x * 0x2545f4914f6cdd1d
}

// chaosKinds is the fault mix: mostly wild-pointer crashes, with aborts,
// allocation failures, and hangs represented — the failure classes the
// recovery policy distinguishes.
var chaosKinds = [8]FaultKind{
	FaultSegv, FaultSegv, FaultSegv, FaultSegv,
	FaultBus, FaultAbort, FaultOOM, FaultHang,
}

// Roll draws once for a call into op; on a hit it returns the injected
// fault, whose kind is chosen deterministically from the same draw. In
// scripted mode no draw happens: the script alone decides which call
// indices fault.
func (c *Chaos) Roll(op string) *Fault {
	c.Calls++
	if c.TraceOps {
		c.Ops = append(c.Ops, op)
	}
	if c.scripted {
		sf, ok := c.script[c.Calls]
		if !ok {
			return nil
		}
		if sf.Silent {
			c.corruptPending = true
			return nil
		}
		c.Injected++
		return &Fault{
			Kind:   sf.Kind,
			Op:     op,
			Detail: fmt.Sprintf("chaos: scripted %s at call #%d", sf.Kind, c.Calls),
		}
	}
	draw := c.next()
	if draw&0xffffffff >= c.threshold {
		return nil
	}
	c.Injected++
	kind := chaosKinds[(draw>>32)&7]
	return &Fault{
		Kind:   kind,
		Op:     op,
		Detail: fmt.Sprintf("chaos: injected %s (fault #%d)", kind, c.Injected),
	}
}
