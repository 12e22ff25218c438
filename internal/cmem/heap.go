package cmem

import "fmt"

// heap chunk layout in simulated memory:
//
//	chunk base:  +0  size   (uint32, whole chunk including header)
//	             +4  magic  (uint32, chunkMagic when in use, freeMagic when free)
//	user data:   +8  ... requested bytes, rounded up to 8 ...
//	canary:      last 8 bytes of the chunk when canaries are enabled
//
// The allocator keeps an authoritative Go-side chunk list (a corrupted
// application cannot confuse the allocator itself), but it mirrors the
// header into simulated memory so that header-smashing attacks are visible
// to integrity checks, exactly like the fault-containment wrappers of
// Fetzer & Xiao (SRDS 2001) observed real dlmalloc headers.
const (
	chunkHeader = 8
	chunkAlign  = 8
	chunkMagic  = 0x48454150 // "HEAP"
	freeMagic   = 0x46524545 // "FREE"
	canarySize  = 8
	minChunk    = chunkHeader + chunkAlign
	// mallocFill is the deterministic junk pattern written into fresh
	// allocations; C malloc returns garbage, and a recognizable pattern
	// makes use-of-uninitialized bugs visible in tests. The pages a fill
	// covers whole become uniform pages of it, so junk-filling a large
	// block allocates no page data.
	mallocFill = 0xcd
)

// chunk is the allocator's Go-side record of one region of the heap.
type chunk struct {
	base Addr // address of the header
	size uint32
	used bool
	// req is the size the application asked for; the usable tail beyond
	// req (alignment padding) is still inside the chunk.
	req uint32
	// canary records whether Malloc placed a trailing canary; an in-place
	// Realloc keeps the chunk and with it this decision.
	canary bool

	prev, next *chunk // address-ordered neighbours
}

// user returns the address handed to the application.
func (c *chunk) user() Addr { return c.base + chunkHeader }

// canaryAddr returns the address of the chunk's trailing canary.
func (c *chunk) canaryAddr() Addr { return c.base + Addr(c.size) - canarySize }

// HeapStats summarizes allocator activity for profiling reports.
type HeapStats struct {
	Mallocs     uint64
	Frees       uint64
	Reallocs    uint64
	BytesAlloc  uint64 // cumulative bytes requested
	InUseBytes  uint64 // currently requested bytes
	InUseChunks int
	BrkBytes    uint32 // total heap span obtained from the space
	FailedAlloc uint64 // allocations that returned NULL
}

// Heap is a first-fit boundary-tag allocator over a Space region. The zero
// value is not usable; construct with NewHeap.
type Heap struct {
	sp    *Space
	base  Addr
	limit Addr
	brk   Addr // end of the chunk arena (page-mapped up to brkMapped)

	head     *chunk // address-ordered chunk list
	tail     *chunk
	byUser   map[Addr]*chunk // user addr -> in-use chunk
	canaries bool
	secret   uint64

	stats HeapStats
}

// NewHeap creates a heap managing [base, limit) of sp. Canaries are
// disabled by default; enable them with SetCanaries (the security wrapper
// does so when installed).
func NewHeap(sp *Space, base, limit Addr) *Heap {
	return &Heap{
		sp:     sp,
		base:   base,
		limit:  limit,
		brk:    base,
		byUser: make(map[Addr]*chunk),
		// A fixed odd secret keeps runs reproducible; the defence
		// does not rely on secrecy in the simulation, only on the
		// attacker's overflow being oblivious.
		secret: 0x9e3779b97f4a7c15,
	}
}

// SetCanaries toggles canary placement for future allocations. Existing
// chunks keep whatever guard they were born with (chunk.canary — chunks
// allocated without canaries are never canary-checked).
func (h *Heap) SetCanaries(on bool) { h.canaries = on }

// CanariesEnabled reports whether new allocations receive canaries.
func (h *Heap) CanariesEnabled() bool { return h.canaries }

// canaryValue derives the guard word for a chunk.
func (h *Heap) canaryValue(base Addr) uint64 {
	v := h.secret ^ (uint64(base) * 0x100000001b3)
	if v == 0 {
		v = h.secret
	}
	return v
}

func round8(n uint32) uint32 { return (n + chunkAlign - 1) &^ (chunkAlign - 1) }

// chunkSpan computes the whole-chunk size for a request of n bytes under
// the current canary setting.
func (h *Heap) chunkSpan(n uint32) uint32 {
	sz := chunkHeader + round8(n)
	if n == 0 {
		sz = chunkHeader + chunkAlign // malloc(0) returns a unique pointer
	}
	if h.canaries {
		sz += canarySize
	}
	return sz
}

// grow extends the arena so that at least need more bytes exist past brk.
// Returns false on exhaustion (C malloc returns NULL then).
func (h *Heap) grow(need uint32) bool {
	end := h.brk + Addr(need)
	if end < h.brk || end > h.limit {
		return false
	}
	// Map any pages in [brk, end) that are not yet mapped.
	firstUnmapped := h.brk
	if off := uint32(firstUnmapped) & pageMask; off != 0 {
		firstUnmapped += Addr(PageSize - off)
	}
	if end > firstUnmapped {
		span := uint32(end - firstUnmapped)
		span = (span + pageMask) &^ uint32(pageMask)
		if f := h.sp.Map(firstUnmapped, span, ProtRW); f != nil {
			return false
		}
		h.stats.BrkBytes += span
	}
	h.brk = end
	return true
}

// exemptFuel runs fn with the access budget disarmed: the allocator's own
// bookkeeping writes are below the instrumentation boundary and must not
// count against a probe's fuel (a real malloc's metadata writes are not
// what a probe timeout measures).
func (h *Heap) exemptFuel(fn func() *Fault) *Fault {
	saved := h.sp.fuel
	h.sp.fuel = -1
	f := fn()
	h.sp.fuel = saved
	return f
}

// writeHeader mirrors the chunk header into simulated memory.
func (h *Heap) writeHeader(c *chunk) {
	magic := uint32(freeMagic)
	if c.used {
		magic = chunkMagic
	}
	// The arena is always mapped RW; ignore impossible faults loudly.
	f := h.exemptFuel(func() *Fault {
		if f := h.sp.WriteU32(c.base, c.size); f != nil {
			return f
		}
		return h.sp.WriteU32(c.base+4, magic)
	})
	if f != nil {
		panic(fmt.Sprintf("cmem: heap arena unmapped at %s: %v", c.base, f))
	}
}

// Malloc allocates n bytes and returns the user pointer, or 0 (NULL) on
// exhaustion — C semantics, no fault.
func (h *Heap) Malloc(n uint32) Addr {
	span := h.chunkSpan(n)
	if span < n { // overflow of the size arithmetic: C would return NULL
		h.stats.FailedAlloc++
		return 0
	}
	c := h.findFit(span)
	if c == nil {
		c = h.extend(span)
		if c == nil {
			h.stats.FailedAlloc++
			return 0
		}
	} else {
		h.split(c, span)
	}
	c.used = true
	c.req = n
	// A chunk gets a canary iff its span has room for one past the
	// rounded request: chunkSpan added it, or a reused free chunk had
	// that much slack.
	c.canary = c.size >= chunkHeader+round8(max32(n, 1))+canarySize
	h.writeHeader(c)
	h.byUser[c.user()] = c
	// Junk-fill the user area and place the canary, fuel-exempt.
	f := h.exemptFuel(func() *Fault {
		if f := h.sp.Fill(c.user(), round8(max32(n, 1)), mallocFill); f != nil {
			return f
		}
		if c.canary {
			return h.sp.WriteU64(c.canaryAddr(), h.canaryValue(c.base))
		}
		return nil
	})
	if f != nil {
		panic(fmt.Sprintf("cmem: heap arena unmapped: %v", f))
	}
	h.stats.Mallocs++
	h.stats.BytesAlloc += uint64(n)
	h.stats.InUseBytes += uint64(n)
	h.stats.InUseChunks++
	return c.user()
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// findFit returns the first free chunk with size >= span.
func (h *Heap) findFit(span uint32) *chunk {
	for c := h.head; c != nil; c = c.next {
		if !c.used && c.size >= span {
			return c
		}
	}
	return nil
}

// split carves span bytes off the front of free chunk c, leaving any
// remainder as a new free chunk.
func (h *Heap) split(c *chunk, span uint32) {
	if c.size >= span+minChunk {
		rest := &chunk{
			base: c.base + Addr(span),
			size: c.size - span,
			prev: c,
			next: c.next,
		}
		if c.next != nil {
			c.next.prev = rest
		} else {
			h.tail = rest
		}
		c.next = rest
		c.size = span
		h.writeHeader(rest)
	}
}

// extend appends a fresh chunk of exactly span bytes at brk.
func (h *Heap) extend(span uint32) *chunk {
	base := h.brk
	if !h.grow(span) {
		return nil
	}
	c := &chunk{base: base, size: span, prev: h.tail}
	if h.tail != nil {
		h.tail.next = c
	} else {
		h.head = c
	}
	h.tail = c
	return c
}

// Free releases the allocation at user address p. free(NULL) is a no-op.
// Freeing a pointer that is not a live allocation — including a double
// free — is a SIGABRT, matching glibc's "invalid pointer" abort. When the
// chunk carries a canary it is verified first; a clobbered canary is a
// FaultOverflow (this is the detection point of the security wrapper's
// heap-smash defence).
func (h *Heap) Free(p Addr) *Fault {
	if p.IsNull() {
		return nil
	}
	c, ok := h.byUser[p]
	if !ok {
		return abort("free", p, "invalid or double free")
	}
	if f := h.checkChunk(c); f != nil {
		return f
	}
	delete(h.byUser, p)
	c.used = false
	h.stats.Frees++
	h.stats.InUseBytes -= uint64(c.req)
	h.stats.InUseChunks--
	c.req = 0
	h.coalesce(c)
	return nil
}

// coalesce merges c with free neighbours.
func (h *Heap) coalesce(c *chunk) {
	if n := c.next; n != nil && !n.used && n.base == c.base+Addr(c.size) {
		c.size += n.size
		c.next = n.next
		if n.next != nil {
			n.next.prev = c
		} else {
			h.tail = c
		}
	}
	if p := c.prev; p != nil && !p.used && c.base == p.base+Addr(p.size) {
		p.size += c.size
		p.next = c.next
		if c.next != nil {
			c.next.prev = p
		} else {
			h.tail = p
		}
		c = p
	}
	h.writeHeader(c)
}

// Realloc resizes the allocation at p to n bytes, C semantics:
// realloc(NULL, n) is malloc(n); realloc(p, 0) frees and returns NULL;
// an invalid p aborts.
func (h *Heap) Realloc(p Addr, n uint32) (Addr, *Fault) {
	if p.IsNull() {
		return h.Malloc(n), nil
	}
	if n == 0 {
		if f := h.Free(p); f != nil {
			return 0, f
		}
		return 0, nil
	}
	c, ok := h.byUser[p]
	if !ok {
		return 0, abort("realloc", p, "invalid pointer")
	}
	if f := h.checkChunk(c); f != nil {
		return 0, f
	}
	h.stats.Reallocs++
	if round8(n)+chunkHeader <= c.size && (!c.canary || round8(n)+chunkHeader+canarySize <= c.size) {
		// Shrink in place.
		h.stats.InUseBytes += uint64(n) - uint64(c.req)
		c.req = n
		return p, nil
	}
	q := h.Malloc(n)
	if q.IsNull() {
		return 0, nil // original block untouched, C semantics
	}
	ncopy := c.req
	if n < ncopy {
		ncopy = n
	}
	buf := make([]byte, ncopy)
	if f := h.sp.Read(p, buf); f != nil {
		return 0, f
	}
	if f := h.sp.Write(q, buf); f != nil {
		return 0, f
	}
	if f := h.Free(p); f != nil {
		return 0, f
	}
	return q, nil
}

// ChunkRange returns the [user, user+req) extent of the live allocation
// that contains address a, if any. The security wrapper uses it to decide
// whether a write of a given length can stay inside its buffer.
func (h *Heap) ChunkRange(a Addr) (base Addr, size uint32, ok bool) {
	for c := h.head; c != nil; c = c.next {
		if !c.used {
			continue
		}
		if a >= c.user() && a < c.user()+Addr(round8(max32(c.req, 1))) {
			return c.user(), c.req, true
		}
	}
	return 0, 0, false
}

// checkChunk verifies one chunk's simulated-memory header and canary.
func (h *Heap) checkChunk(c *chunk) *Fault {
	sz, f := h.sp.ReadU32(c.base)
	if f != nil {
		return f
	}
	magic, f := h.sp.ReadU32(c.base + 4)
	if f != nil {
		return f
	}
	wantMagic := uint32(freeMagic)
	if c.used {
		wantMagic = chunkMagic
	}
	if sz != c.size || magic != wantMagic {
		return overflow("heapcheck", c.base,
			fmt.Sprintf("chunk header smashed (size %d!=%d or magic %#x!=%#x)", sz, c.size, magic, wantMagic))
	}
	if c.used && c.canary {
		got, f := h.sp.ReadU64(c.canaryAddr())
		if f != nil {
			return f
		}
		if got != h.canaryValue(c.base) {
			return overflow("heapcheck", c.user(),
				fmt.Sprintf("canary clobbered on chunk %s (req %d bytes)", c.user(), c.req))
		}
	}
	return nil
}

// CheckIntegrity walks every chunk verifying mirrored headers and canaries.
// It is the hook the security wrapper calls on intercepted entry points.
func (h *Heap) CheckIntegrity() *Fault {
	for c := h.head; c != nil; c = c.next {
		if f := h.checkChunk(c); f != nil {
			return f
		}
	}
	return nil
}

// Stats returns a snapshot of allocator statistics.
func (h *Heap) Stats() HeapStats { return h.stats }

// InUse reports whether p is a live user pointer.
func (h *Heap) InUse(p Addr) bool {
	_, ok := h.byUser[p]
	return ok
}
