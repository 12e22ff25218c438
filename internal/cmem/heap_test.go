package cmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestHeap(t *testing.T) (*Space, *Heap) {
	t.Helper()
	sp := NewSpace()
	return sp, NewHeap(sp, HeapBase, HeapLimit)
}

func TestMallocBasics(t *testing.T) {
	sp, h := newTestHeap(t)
	p := h.Malloc(100)
	if p.IsNull() {
		t.Fatal("Malloc(100) returned NULL")
	}
	if uint32(p)%8 != 0 {
		t.Errorf("Malloc returned unaligned pointer %s", p)
	}
	if !sp.Mapped(p, 100, ProtRW) {
		t.Error("allocation is not mapped RW")
	}
	if base, sz, ok := h.ChunkRange(p + 99); !ok || base != p || sz != 100 {
		t.Errorf("ChunkRange = %s,%d,%v; want %s,100,true", base, sz, ok, p)
	}
	// The user area must be writable end to end.
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = byte(i)
	}
	if f := sp.Write(p, buf); f != nil {
		t.Fatalf("write into allocation: %v", f)
	}
}

func TestMallocJunkFill(t *testing.T) {
	sp, h := newTestHeap(t)
	p := h.Malloc(16)
	for i := Addr(0); i < 16; i++ {
		b, f := sp.ReadByteAt(p + i)
		if f != nil {
			t.Fatalf("read: %v", f)
		}
		if b != mallocFill {
			t.Fatalf("byte %d = %#x, want junk fill %#x", i, b, mallocFill)
		}
	}
}

func TestMallocZeroUniquePointers(t *testing.T) {
	_, h := newTestHeap(t)
	p := h.Malloc(0)
	q := h.Malloc(0)
	if p.IsNull() || q.IsNull() {
		t.Fatal("malloc(0) returned NULL")
	}
	if p == q {
		t.Error("malloc(0) returned the same pointer twice while both live")
	}
	if f := h.Free(p); f != nil {
		t.Errorf("free: %v", f)
	}
	if f := h.Free(q); f != nil {
		t.Errorf("free: %v", f)
	}
}

func TestFreeNullNoop(t *testing.T) {
	_, h := newTestHeap(t)
	if f := h.Free(0); f != nil {
		t.Errorf("free(NULL) = %v, want nil", f)
	}
}

func TestDoubleFreeAborts(t *testing.T) {
	_, h := newTestHeap(t)
	p := h.Malloc(32)
	if f := h.Free(p); f != nil {
		t.Fatalf("first free: %v", f)
	}
	if f := h.Free(p); f == nil || f.Kind != FaultAbort {
		t.Errorf("double free: fault = %v, want SIGABRT", f)
	}
}

func TestInvalidFreeAborts(t *testing.T) {
	_, h := newTestHeap(t)
	p := h.Malloc(32)
	if f := h.Free(p + 8); f == nil || f.Kind != FaultAbort {
		t.Errorf("free of interior pointer: fault = %v, want SIGABRT", f)
	}
	if f := h.Free(0xdead0000); f == nil || f.Kind != FaultAbort {
		t.Errorf("free of wild pointer: fault = %v, want SIGABRT", f)
	}
}

func TestReuseAfterFree(t *testing.T) {
	_, h := newTestHeap(t)
	p := h.Malloc(64)
	if f := h.Free(p); f != nil {
		t.Fatalf("free: %v", f)
	}
	q := h.Malloc(64)
	if q != p {
		t.Errorf("expected first-fit reuse: got %s, freed %s", q, p)
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	_, h := newTestHeap(t)
	a := h.Malloc(256)
	b := h.Malloc(256)
	c := h.Malloc(256)
	if a.IsNull() || b.IsNull() || c.IsNull() {
		t.Fatal("setup mallocs failed")
	}
	// Free the middle, then both neighbours; the three chunks must
	// coalesce into one big free chunk that can satisfy a larger
	// request at the original base.
	if f := h.Free(b); f != nil {
		t.Fatalf("free b: %v", f)
	}
	if f := h.Free(a); f != nil {
		t.Fatalf("free a: %v", f)
	}
	if f := h.Free(c); f != nil {
		t.Fatalf("free c: %v", f)
	}
	big := h.Malloc(700)
	if big != a {
		t.Errorf("coalesced alloc = %s, want %s (reuse of merged span)", big, a)
	}
	// Splitting: a small request should carve the front and a second
	// small request should land right after it.
	if f := h.Free(big); f != nil {
		t.Fatalf("free big: %v", f)
	}
	s1 := h.Malloc(16)
	s2 := h.Malloc(16)
	if s1 != a {
		t.Errorf("small alloc = %s, want front of merged span %s", s1, a)
	}
	if s2 <= s1 || uint32(s2-s1) > 64 {
		t.Errorf("second small alloc %s not adjacent to first %s", s2, s1)
	}
}

func TestCalloc_LikeZeroing(t *testing.T) {
	// The heap itself only junk-fills; zeroing is the libc calloc's job.
	// This test pins the junk-fill so clib's calloc test can rely on it.
	sp, h := newTestHeap(t)
	p := h.Malloc(8)
	v, f := sp.ReadU64(p)
	if f != nil {
		t.Fatalf("read: %v", f)
	}
	if v == 0 {
		t.Error("fresh malloc memory reads as zero; junk fill missing")
	}
}

func TestHeapExhaustionReturnsNull(t *testing.T) {
	sp := NewSpace()
	h := NewHeap(sp, HeapBase, HeapBase+2*PageSize)
	var live []Addr
	for {
		p := h.Malloc(1024)
		if p.IsNull() {
			break
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		t.Fatal("no allocation succeeded at all")
	}
	if got := h.Stats().FailedAlloc; got != 1 {
		t.Errorf("FailedAlloc = %d, want 1", got)
	}
	// Freeing returns capacity.
	for _, p := range live {
		if f := h.Free(p); f != nil {
			t.Fatalf("free: %v", f)
		}
	}
	if p := h.Malloc(1024); p.IsNull() {
		t.Error("allocation after freeing everything still fails")
	}
}

func TestMallocHugeReturnsNull(t *testing.T) {
	_, h := newTestHeap(t)
	if p := h.Malloc(0xffffffff); !p.IsNull() {
		t.Errorf("Malloc(4GiB-1) = %s, want NULL", p)
	}
}

func TestReallocGrowPreservesData(t *testing.T) {
	sp, h := newTestHeap(t)
	p := h.Malloc(16)
	if f := sp.Write(p, []byte("0123456789abcdef")); f != nil {
		t.Fatalf("write: %v", f)
	}
	// Force a move by allocating a blocker right after.
	blocker := h.Malloc(16)
	q, f := h.Realloc(p, 4096)
	if f != nil {
		t.Fatalf("realloc: %v", f)
	}
	if q == p {
		t.Error("expected realloc to move (blocker prevents in-place growth)")
	}
	got := make([]byte, 16)
	if f := sp.Read(q, got); f != nil {
		t.Fatalf("read: %v", f)
	}
	if string(got) != "0123456789abcdef" {
		t.Errorf("data after realloc = %q", got)
	}
	if h.InUse(p) {
		t.Error("old pointer still live after moving realloc")
	}
	_ = blocker
}

func TestReallocShrinkInPlace(t *testing.T) {
	_, h := newTestHeap(t)
	p := h.Malloc(1024)
	q, f := h.Realloc(p, 10)
	if f != nil {
		t.Fatalf("realloc: %v", f)
	}
	if q != p {
		t.Errorf("shrinking realloc moved from %s to %s", p, q)
	}
	if _, sz, _ := h.ChunkRange(q); sz != 10 {
		t.Errorf("chunk size after shrink = %d, want 10", sz)
	}
}

func TestReallocNullAndZero(t *testing.T) {
	_, h := newTestHeap(t)
	p, f := h.Realloc(0, 64)
	if f != nil || p.IsNull() {
		t.Fatalf("realloc(NULL, 64) = %s, %v", p, f)
	}
	q, f := h.Realloc(p, 0)
	if f != nil || !q.IsNull() {
		t.Fatalf("realloc(p, 0) = %s, %v; want NULL, nil", q, f)
	}
	if h.InUse(p) {
		t.Error("realloc(p,0) did not free p")
	}
	if _, f := h.Realloc(0xdead0000, 8); f == nil || f.Kind != FaultAbort {
		t.Errorf("realloc of wild pointer: fault = %v, want SIGABRT", f)
	}
}

func TestCanaryDetectsOverflow(t *testing.T) {
	sp := NewSpace()
	h := NewHeap(sp, HeapBase, HeapLimit)
	h.SetCanaries(true)
	p := h.Malloc(16)
	// Integrity is clean before the smash.
	if f := h.CheckIntegrity(); f != nil {
		t.Fatalf("pre-smash CheckIntegrity: %v", f)
	}
	// Overflow: write one byte past the (rounded) user area, into the
	// canary.
	if f := sp.WriteByteAt(p+16, 0x41); f != nil {
		t.Fatalf("smash write: %v", f)
	}
	f := h.CheckIntegrity()
	if f == nil || f.Kind != FaultOverflow {
		t.Fatalf("CheckIntegrity after smash: fault = %v, want OVERFLOW", f)
	}
	// Free must also detect it.
	if f := h.Free(p); f == nil || f.Kind != FaultOverflow {
		t.Errorf("Free after smash: fault = %v, want OVERFLOW", f)
	}
}

func TestCanaryOffNoDetection(t *testing.T) {
	sp := NewSpace()
	h := NewHeap(sp, HeapBase, HeapLimit)
	p := h.Malloc(16)
	q := h.Malloc(16)
	// Without canaries an overflow from p silently corrupts q —
	// the paper's undefended baseline.
	if f := sp.WriteByteAt(p+16, 0x41); f != nil {
		// Without a canary the byte after p's user area is the next
		// chunk's header; skip far enough to hit q's user data.
		t.Fatalf("smash write: %v", f)
	}
	if f := h.CheckIntegrity(); f == nil {
		// Writing at p+16 without canaries actually hits the next
		// chunk header, which IS detected by the mirrored-header
		// check. That is correct dlmalloc-like behaviour.
		t.Log("header smash detected by mirrored-header check (expected)")
	}
	_ = q
}

func TestHeaderSmashDetected(t *testing.T) {
	sp := NewSpace()
	h := NewHeap(sp, HeapBase, HeapLimit)
	p := h.Malloc(16)
	q := h.Malloc(16)
	// Clobber q's mirrored header (it sits right after p's chunk).
	if f := sp.WriteU32(q-chunkHeader, 0xffffffff); f != nil {
		t.Fatalf("header smash: %v", f)
	}
	if f := h.CheckIntegrity(); f == nil || f.Kind != FaultOverflow {
		t.Errorf("CheckIntegrity after header smash: fault = %v, want OVERFLOW", f)
	}
	_ = p
}

func TestChunkRange(t *testing.T) {
	_, h := newTestHeap(t)
	p := h.Malloc(100)
	base, size, ok := h.ChunkRange(p + 50)
	if !ok || base != p || size != 100 {
		t.Errorf("ChunkRange(p+50) = %s,%d,%v; want %s,100,true", base, size, ok, p)
	}
	if _, _, ok := h.ChunkRange(0x0badf00d); ok {
		t.Error("ChunkRange of wild address reported ok")
	}
	if f := h.Free(p); f != nil {
		t.Fatalf("free: %v", f)
	}
	if _, _, ok := h.ChunkRange(p); ok {
		t.Error("ChunkRange of freed chunk reported ok")
	}
}

func TestHeapStats(t *testing.T) {
	_, h := newTestHeap(t)
	p := h.Malloc(10)
	q := h.Malloc(20)
	if f := h.Free(p); f != nil {
		t.Fatalf("free: %v", f)
	}
	if _, f := h.Realloc(q, 30); f != nil {
		t.Fatalf("realloc: %v", f)
	}
	st := h.Stats()
	if st.Mallocs != 3 { // p, q, and realloc's internal malloc
		t.Errorf("Mallocs = %d, want 3", st.Mallocs)
	}
	if st.Frees != 2 {
		t.Errorf("Frees = %d, want 2", st.Frees)
	}
	if st.Reallocs != 1 {
		t.Errorf("Reallocs = %d, want 1", st.Reallocs)
	}
	if st.InUseChunks != 1 {
		t.Errorf("InUseChunks = %d, want 1", st.InUseChunks)
	}
	if st.InUseBytes != 30 {
		t.Errorf("InUseBytes = %d, want 30", st.InUseBytes)
	}
}

// Property: random malloc/free interleavings never produce overlapping live
// allocations and Free of a live pointer never faults.
func TestPropertyAllocatorNoOverlap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := NewSpace()
		h := NewHeap(sp, HeapBase, HeapLimit)
		h.SetCanaries(seed%2 == 0)
		type span struct {
			a Addr
			n uint32
		}
		var live []span
		for op := 0; op < 200; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if f := h.Free(live[i].a); f != nil {
					t.Logf("seed %d: free faulted: %v", seed, f)
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			n := uint32(rng.Intn(512))
			p := h.Malloc(n)
			if p.IsNull() {
				continue
			}
			eff := n
			if eff == 0 {
				eff = 1
			}
			for _, s := range live {
				se := s.n
				if se == 0 {
					se = 1
				}
				if p < s.a+Addr(se) && s.a < p+Addr(eff) {
					t.Logf("seed %d: overlap %s+%d with %s+%d", seed, p, n, s.a, s.n)
					return false
				}
			}
			live = append(live, span{p, n})
		}
		return h.CheckIntegrity() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: data written into one allocation is never altered by unrelated
// malloc/free traffic.
func TestPropertyAllocationIsolation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := NewSpace()
		h := NewHeap(sp, HeapBase, HeapLimit)
		keep := h.Malloc(64)
		pattern := make([]byte, 64)
		rng.Read(pattern)
		if f := sp.Write(keep, pattern); f != nil {
			return false
		}
		var live []Addr
		for op := 0; op < 100; op++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				if f := h.Free(live[i]); f != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else if p := h.Malloc(uint32(rng.Intn(256))); !p.IsNull() {
				live = append(live, p)
			}
		}
		got := make([]byte, 64)
		if f := sp.Read(keep, got); f != nil {
			return false
		}
		for i := range pattern {
			if got[i] != pattern[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReallocWithCanaries(t *testing.T) {
	sp := NewSpace()
	h := NewHeap(sp, HeapBase, HeapLimit)
	h.SetCanaries(true)
	p := h.Malloc(64)
	if f := sp.WriteCString(p, "keep me"); f != nil {
		t.Fatal(f)
	}
	// Shrink in place keeps the canary valid.
	q, f := h.Realloc(p, 16)
	if f != nil || q != p {
		t.Fatalf("shrink: %s, %v", q, f)
	}
	if f := h.CheckIntegrity(); f != nil {
		t.Fatalf("integrity after shrink: %v", f)
	}
	// Grow moves and re-canaries; data survives.
	blocker := h.Malloc(8)
	r, f := h.Realloc(q, 512)
	if f != nil || r.IsNull() {
		t.Fatalf("grow: %s, %v", r, f)
	}
	if f := h.CheckIntegrity(); f != nil {
		t.Fatalf("integrity after grow: %v", f)
	}
	s, f2 := sp.ReadCString(r, 64)
	if f2 != nil || s != "keep me" {
		t.Errorf("data after canaried realloc = %q, %v", s, f2)
	}
	// A smash of the grown chunk is still caught.
	if f := sp.WriteByteAt(r+512, 0x41); f != nil {
		t.Fatal(f)
	}
	if f := h.CheckIntegrity(); f == nil || f.Kind != FaultOverflow {
		t.Errorf("smash after realloc: fault = %v, want OVERFLOW", f)
	}
	_ = blocker
}

func TestFuelBudget(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	if sp.Fuel() != -1 {
		t.Fatalf("default fuel = %d, want unlimited", sp.Fuel())
	}
	sp.SetFuel(4)
	for i := 0; i < 4; i++ {
		if _, f := sp.ReadByteAt(0x1000); f != nil {
			t.Fatalf("read %d within budget: %v", i, f)
		}
	}
	if _, f := sp.ReadByteAt(0x1000); f == nil || f.Kind != FaultHang {
		t.Errorf("read past budget: fault = %v, want HANG", f)
	}
	if f := sp.WriteByteAt(0x1000, 1); f == nil || f.Kind != FaultHang {
		t.Errorf("write past budget: fault = %v, want HANG", f)
	}
	sp.SetFuel(-1)
	if _, f := sp.ReadByteAt(0x1000); f != nil {
		t.Errorf("read after disarm: %v", f)
	}
}

// TestReallocShrinkThenFree pins that an in-place shrink keeps the chunk's
// canary decision: a chunk allocated without a canary must not be
// canary-checked after shrinking (its slack past the new request used to
// be mistaken for a canary, failing the later free), and a canaried chunk
// keeps its canary checked.
func TestReallocShrinkThenFree(t *testing.T) {
	for _, canaries := range []bool{false, true} {
		sp := NewSpace()
		h := NewHeap(sp, HeapBase, HeapLimit)
		h.SetCanaries(canaries)
		p := h.Malloc(16)
		q, f := h.Realloc(p, 8)
		if f != nil || q != p {
			t.Fatalf("canaries=%v: shrink = %s, %v; want in place", canaries, q, f)
		}
		if f := h.CheckIntegrity(); f != nil {
			t.Fatalf("canaries=%v: integrity after shrink: %v", canaries, f)
		}
		if canaries {
			// The canary still guards the chunk: smash it and free.
			r := h.Malloc(16)
			if _, f := h.Realloc(r, 8); f != nil {
				t.Fatal(f)
			}
			if f := sp.WriteByteAt(r+16, 0x41); f != nil {
				t.Fatal(f)
			}
			if f := h.Free(r); f == nil || f.Kind != FaultOverflow {
				t.Errorf("free of smashed shrunk chunk: fault = %v, want OVERFLOW", f)
			}
		}
		if f := h.Free(q); f != nil {
			t.Errorf("canaries=%v: free after shrink: %v", canaries, f)
		}
	}
}
