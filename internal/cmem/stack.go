package cmem

import "fmt"

// Stack manages the simulated call stack: a downward-growing region with
// explicit frames. Each frame reserves a slot for a saved return address
// (so stack-smashing attacks have something to aim at) and, when guards are
// enabled, a canary between the locals and that slot — the StackGuard
// layout that HEALERS' companion defence (libsafe-style) verifies.
type Stack struct {
	sp     *Space
	bottom Addr // lowest mapped address
	cur    Addr // current stack pointer (grows down)

	frames []stackFrame
	guards bool
	secret uint64
}

type stackFrame struct {
	base   Addr // stack pointer on entry (frame occupies [cur, base))
	retsl  Addr // address of the saved-return-address slot
	canary Addr // address of the canary word, 0 when unguarded
}

// newStack returns a stack over the already mapped [top-size, top).
func newStack(sp *Space, top Addr, size uint32) *Stack {
	return &Stack{
		sp:     sp,
		bottom: top - Addr(size),
		cur:    top,
		secret: 0xb5ad4eceda1ce2a9,
	}
}

// SetGuards toggles canary placement for future frames.
func (s *Stack) SetGuards(on bool) { s.guards = on }

func (s *Stack) canaryValue(a Addr) uint64 {
	return s.secret ^ uint64(a)<<1 ^ 0x00ff00ff00ff00ff
}

// PushFrame enters a new frame with localBytes of local storage and
// returns the base address of the locals (lowest address). retAddr is the
// simulated return address stored in the frame's return slot. Layout, from
// high to low addresses: [ret slot 8][canary 8 if guarded][locals].
// A contiguous overflow of the locals therefore clobbers the canary before
// the return slot, just like a real downward stack on x86.
func (s *Stack) PushFrame(localBytes uint32, retAddr uint64) (Addr, *Fault) {
	need := round8(localBytes) + chunkAlign /*ret slot*/
	if s.guards {
		need += canarySize
	}
	if Addr(need) > s.cur-s.bottom {
		return 0, segv("push", s.bottom, "stack overflow")
	}
	base := s.cur
	ret := base - 8
	if f := s.sp.WriteU64(ret, retAddr); f != nil {
		return 0, f
	}
	can := Addr(0)
	lo := ret
	if s.guards {
		can = ret - canarySize
		if f := s.sp.WriteU64(can, s.canaryValue(can)); f != nil {
			return 0, f
		}
		lo = can
	}
	locals := lo - Addr(round8(localBytes))
	s.cur = locals
	s.frames = append(s.frames, stackFrame{base: base, retsl: ret, canary: can})
	return locals, nil
}

// PopFrame leaves the innermost frame, verifying its canary when guarded,
// and returns the (possibly attacker-overwritten) saved return address.
func (s *Stack) PopFrame() (uint64, *Fault) {
	if len(s.frames) == 0 {
		return 0, abort("pop", s.cur, "pop on empty stack")
	}
	fr := s.frames[len(s.frames)-1]
	if fr.canary != 0 {
		got, f := s.sp.ReadU64(fr.canary)
		if f != nil {
			return 0, f
		}
		if got != s.canaryValue(fr.canary) {
			return 0, overflow("popframe", fr.canary, "stack canary clobbered")
		}
	}
	ret, f := s.sp.ReadU64(fr.retsl)
	if f != nil {
		return 0, f
	}
	s.frames = s.frames[:len(s.frames)-1]
	s.cur = fr.base
	return ret, nil
}

// CheckGuards verifies every live guarded frame's canary without popping.
func (s *Stack) CheckGuards() *Fault {
	for i := len(s.frames) - 1; i >= 0; i-- {
		fr := s.frames[i]
		if fr.canary == 0 {
			continue
		}
		got, f := s.sp.ReadU64(fr.canary)
		if f != nil {
			return f
		}
		if got != s.canaryValue(fr.canary) {
			return overflow("stackcheck", fr.canary,
				fmt.Sprintf("stack canary clobbered in frame %d", i))
		}
	}
	return nil
}
