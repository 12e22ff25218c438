package cmem

import "testing"

// stackSize is the test stack's size: 64 pages ending at StackTop.
const stackSize = 64 * PageSize

func newTestStack(t *testing.T, size uint32) (*Space, *Stack) {
	t.Helper()
	sp := NewSpace()
	if f := sp.Map(StackTop-Addr(size), size, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	return sp, newStack(sp, StackTop, size)
}

func TestStackPushPop(t *testing.T) {
	sp, st := newTestStack(t, stackSize)
	locals, f := st.PushFrame(64, 0x401000)
	if f != nil {
		t.Fatalf("PushFrame: %v", f)
	}
	if locals < StackTop-stackSize || locals+64 > StackTop {
		t.Errorf("locals %s outside the stack region", locals)
	}
	if f := sp.Write(locals, make([]byte, 64)); f != nil {
		t.Errorf("write to locals: %v", f)
	}
	ret, f := st.PopFrame()
	if f != nil {
		t.Fatalf("PopFrame: %v", f)
	}
	if ret != 0x401000 {
		t.Errorf("return address = %#x, want 0x401000", ret)
	}
	// The pop restored the stack pointer: the same frame lands at the
	// same address again.
	if again, _ := st.PushFrame(64, 0); again != locals {
		t.Errorf("frame after pop at %s, want %s", again, locals)
	}
}

func TestStackNesting(t *testing.T) {
	_, st := newTestStack(t, stackSize)
	var rets []uint64
	for i := uint64(1); i <= 10; i++ {
		if _, f := st.PushFrame(32, 0x400000+i); f != nil {
			t.Fatalf("push %d: %v", i, f)
		}
		rets = append(rets, 0x400000+i)
	}
	for i := 9; i >= 0; i-- {
		ret, f := st.PopFrame()
		if f != nil {
			t.Fatalf("pop %d: %v", i, f)
		}
		if ret != rets[i] {
			t.Errorf("pop %d = %#x, want %#x", i, ret, rets[i])
		}
	}
	if _, f := st.PopFrame(); f == nil || f.Kind != FaultAbort {
		t.Errorf("pop past the 10 pushed frames: fault = %v, want SIGABRT", f)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	_, st := newTestStack(t, PageSize)
	if _, f := st.PushFrame(2*PageSize, 0); f == nil || f.Kind != FaultSegv {
		t.Errorf("oversized frame: fault = %v, want SIGSEGV", f)
	}
}

func TestPopEmptyAborts(t *testing.T) {
	_, st := newTestStack(t, stackSize)
	if _, f := st.PopFrame(); f == nil || f.Kind != FaultAbort {
		t.Errorf("pop on empty: fault = %v, want SIGABRT", f)
	}
}

// fill returns n bytes of 0x41, an attacker's overflow payload.
func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0x41
	}
	return b
}

// TestStackSmashDetectedByGuard checks the guarded layout, from high to
// low addresses [ret slot 8][canary 8][locals]: the canary sits between
// the locals and the return slot, so a contiguous overflow hits it first.
func TestStackSmashDetectedByGuard(t *testing.T) {
	sp, st := newTestStack(t, stackSize)
	st.SetGuards(true)
	locals, f := st.PushFrame(16, 0x400123)
	if f != nil {
		t.Fatalf("PushFrame: %v", f)
	}
	// The return slot is the word above the canary: rewriting it alone
	// leaves the guard intact and redirects the return.
	if f := sp.WriteU64(locals+24, 0xbad00bad); f != nil {
		t.Fatalf("ret overwrite: %v", f)
	}
	if f := st.CheckGuards(); f != nil {
		t.Fatalf("CheckGuards with the canary intact: %v", f)
	}
	if ret, f := st.PopFrame(); f != nil || ret != 0xbad00bad {
		t.Fatalf("PopFrame = %#x, %v; want 0xbad00bad", ret, f)
	}

	locals, f = st.PushFrame(16, 0x400123)
	if f != nil {
		t.Fatalf("PushFrame: %v", f)
	}
	// Filling the locals exactly leaves the canary intact.
	if f := sp.Write(locals, fill(16)); f != nil {
		t.Fatalf("locals write: %v", f)
	}
	if f := st.CheckGuards(); f != nil {
		t.Fatalf("pre-smash CheckGuards: %v", f)
	}
	// Simulated strcpy overflow: write past the 16-byte local buffer all
	// the way over the return slot.
	if f := sp.Write(locals, fill(32)); f != nil {
		t.Fatalf("overflow write: %v", f)
	}
	if f := st.CheckGuards(); f == nil || f.Kind != FaultOverflow {
		t.Errorf("CheckGuards after smash: fault = %v, want OVERFLOW", f)
	}
	if _, f := st.PopFrame(); f == nil || f.Kind != FaultOverflow {
		t.Errorf("PopFrame after smash: fault = %v, want OVERFLOW", f)
	}
}

func TestStackSmashUndetectedWithoutGuard(t *testing.T) {
	sp, st := newTestStack(t, stackSize)
	locals, f := st.PushFrame(16, 0x400123)
	if f != nil {
		t.Fatalf("PushFrame: %v", f)
	}
	// Unguarded, the return slot sits right above the locals. Overflow
	// straight over it; the attacker's value is returned — the
	// undefended stack-smash baseline.
	if f := sp.Write(locals, fill(16)); f != nil {
		t.Fatalf("overflow write: %v", f)
	}
	if f := sp.WriteU64(locals+16, 0xbad00bad); f != nil {
		t.Fatalf("ret overwrite: %v", f)
	}
	if f := st.CheckGuards(); f != nil {
		t.Errorf("unguarded frame reported a smash: %v", f)
	}
	ret, f := st.PopFrame()
	if f != nil {
		t.Fatalf("PopFrame: %v", f)
	}
	if ret != 0xbad00bad {
		t.Errorf("hijacked return = %#x, want 0xbad00bad", ret)
	}
}

func TestImageLayout(t *testing.T) {
	im := NewImage()
	p := im.Heap.Malloc(16)
	if p < HeapBase || p >= HeapLimit {
		t.Errorf("heap pointer %s outside heap segment", p)
	}
	a, f := im.StaticAlloc(100)
	if f != nil {
		t.Fatalf("StaticAlloc: %v", f)
	}
	if a < DataBase || a >= DataBase+dataSegSize {
		t.Errorf("static alloc %s outside data segment", a)
	}
	s, f := im.StaticString("hello")
	if f != nil {
		t.Fatalf("StaticString: %v", f)
	}
	got, f := im.CString(s)
	if f != nil || got != "hello" {
		t.Errorf("CString = %q, %v", got, f)
	}
	// Static strings must be writable (they model globals).
	if f := im.Space.WriteByteAt(s, 'H'); f != nil {
		t.Errorf("write to static string: %v", f)
	}
}

func TestLiteralStringReadOnly(t *testing.T) {
	im := NewImage()
	a, f := im.LiteralString("const")
	if f != nil {
		t.Fatalf("LiteralString: %v", f)
	}
	got, f := im.CString(a)
	if f != nil || got != "const" {
		t.Fatalf("CString = %q, %v", got, f)
	}
	if f := im.Space.WriteByteAt(a, 'X'); f == nil || f.Kind != FaultProt {
		t.Errorf("write to literal: fault = %v, want prot fault", f)
	}
	// A second literal on the same page must not disturb the first.
	b, f := im.LiteralString("second")
	if f != nil {
		t.Fatalf("second LiteralString: %v", f)
	}
	got, f = im.CString(a)
	if f != nil || got != "const" {
		t.Errorf("first literal after second placement = %q, %v", got, f)
	}
	got, f = im.CString(b)
	if f != nil || got != "second" {
		t.Errorf("second literal = %q, %v", got, f)
	}
}
