package cmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Addr is a simulated 32-bit virtual address. The zero value is the NULL
// pointer, which is never mapped.
type Addr uint32

// String renders the address in the usual hexadecimal form.
func (a Addr) String() string { return fmt.Sprintf("0x%08x", uint32(a)) }

// IsNull reports whether the address is the NULL pointer.
func (a Addr) IsNull() bool { return a == 0 }

// PageSize is the granularity of the simulated MMU.
const PageSize = 4096

// pageShift and pageMask derive from PageSize.
const (
	pageShift = 12
	pageMask  = PageSize - 1
)

// Prot is a page protection bit set.
type Prot uint8

const (
	// ProtRead allows loads from the page.
	ProtRead Prot = 1 << iota
	// ProtWrite allows stores to the page.
	ProtWrite
)

// ProtRW is the common read+write protection.
const ProtRW = ProtRead | ProtWrite

// String renders the protection like "r-", "rw", or "--".
func (p Prot) String() string {
	var b strings.Builder
	if p&ProtRead != 0 {
		b.WriteByte('r')
	} else {
		b.WriteByte('-')
	}
	if p&ProtWrite != 0 {
		b.WriteByte('w')
	} else {
		b.WriteByte('-')
	}
	return b.String()
}

// page is one slot of the page table. The backing bytes are allocated
// lazily: a page whose data is nil is uniform and reads as PageSize copies
// of fill. A freshly mapped page is uniform zeros, and a Fill that covers a
// whole page makes it uniform again, so creating a process image (the
// fault injector makes thousands) and junk-filling or clearing large
// allocations cost page table slots, not megabytes. The first store that
// covers less than the whole page allocates data, filled with fill.
type page struct {
	data   *[PageSize]byte
	fill   byte
	prot   Prot
	mapped bool
}

// at returns the byte at offset off of the page.
func (pg *page) at(off uint32) byte {
	if pg.data == nil {
		return pg.fill
	}
	return pg.data[off]
}

// materialize gives a uniform page its data, filled with its fill byte.
// The caller owns the page's slot (see Space.own).
func (pg *page) materialize() {
	if pg.data == nil {
		pg.data = new([PageSize]byte)
		memset(pg.data[:], pg.fill)
	}
}

// memset sets every byte of b to v.
func memset(b []byte, v byte) {
	if v == 0 {
		clear(b)
		return
	}
	if len(b) == 0 {
		return
	}
	// Set one byte, then double the filled prefix with copy.
	b[0] = v
	for m := 1; m < len(b); m *= 2 {
		copy(b[m:], b[:m])
	}
}

// The page table splits a 20-bit page number into a root index and a leaf
// index. A leaf covers 2 MiB of address space in 8 KiB of table, so the
// canonical image (rodata, data, stack, heap and the injector's cliffs)
// touches six leaves and its table is smaller than a map of its pages.
const (
	leafBits  = 9
	leafPages = 1 << leafBits
	leafMask  = leafPages - 1
	rootLen   = 1 << (32 - pageShift - leafBits)
)

// leaf is one second-level block of the page table.
type leaf [leafPages]page

// Layout constants for the canonical process image. They match the
// 32-bit Unix convention closely enough that diagnostic output is familiar.
const (
	// DataBase is where the simulated data segment (string literals,
	// globals of loaded libraries) begins.
	DataBase Addr = 0x08000000
	// HeapBase is where the heap begins; it grows upward.
	HeapBase Addr = 0x10000000
	// HeapLimit caps heap growth.
	HeapLimit Addr = 0x40000000
	// StackTop is the highest stack address; the stack grows downward.
	StackTop Addr = 0xc0000000
	// DefaultStackSize is the default stack reservation.
	DefaultStackSize = 1 << 20
)

// Space is a sparse simulated address space. The zero value is not usable;
// construct with NewSpace. Space is not safe for concurrent use: each
// simulated process owns exactly one and simulated execution is sequential,
// matching a single-threaded probe child.
//
// Bulk accesses (Read, Write, Fill, CStrLen, ReadCString and the wide
// loads and stores) work one page span at a time but behave exactly like
// the equivalent sequence of ReadByteAt/WriteByteAt calls: the same fuel,
// the same load/store counts, the same journal entries, and the same fault
// at the same byte (DESIGN.md §3, "The cmem access contract").
type Space struct {
	root   [rootLen]*leaf
	npages int

	// shared marks, one bit per root slot, the leaves this space shares
	// with its template: they are copied by own before any change.
	// template is the frozen space they belong to, held so that it lives
	// as long as some clone does (see image.go).
	shared   [rootLen / 8]byte
	template *Space

	// loads/stores count accesses, for the profiling demo's statistics.
	loads  uint64
	stores uint64

	// fuel, when non-negative, is decremented on every access; hitting
	// zero raises FaultHang. Negative means unlimited (the default).
	fuel int64

	// journal holds byte pre-images recorded while a write journal is
	// armed; journalMarks are the nesting boundaries (see journal.go).
	journal      []journalEntry
	journalMarks []int
	journalArmed bool
}

// NewSpace returns an empty address space with no mappings (every access
// faults until Map is called).
func NewSpace() *Space {
	return &Space{fuel: -1}
}

// SetFuel arms (n >= 0) or disarms (n < 0) the access budget. The fault
// injector arms it per probe so that an argument combination that makes a
// function loop forever is observed as a hang instead of wedging the
// campaign — the simulation's equivalent of a probe-child timeout.
func (s *Space) SetFuel(n int64) { s.fuel = n }

// Fuel returns the remaining access budget (negative = unlimited).
func (s *Space) Fuel() int64 { return s.fuel }

// burn consumes one access of fuel.
func (s *Space) burn(op string, a Addr) *Fault {
	if s.fuel < 0 {
		return nil
	}
	if s.fuel == 0 {
		return hang(op, a)
	}
	s.fuel--
	return nil
}

// hang builds the fuel-exhaustion fault.
func hang(op string, a Addr) *Fault {
	return &Fault{Kind: FaultHang, Addr: a, Op: op, Detail: "access budget exhausted"}
}

// pageOf returns the page containing a, or nil if unmapped.
func (s *Space) pageOf(a Addr) *page {
	pn := a >> pageShift
	l := s.root[pn>>leafBits]
	if l == nil || !l[pn&leafMask].mapped {
		return nil
	}
	return &l[pn&leafMask]
}

// own returns the slot of a's page for a change to it: data allocation,
// fill, protection, mapping, unmapping, rollback or corruption. A leaf
// shared with the template is copied first, and a missing leaf is
// allocated. Every change to a page slot goes through own, so a frozen
// template never changes; stores into a page's existing data need not,
// because a template holds no page data.
func (s *Space) own(a Addr) *page {
	pn := a >> pageShift
	i := pn >> leafBits
	l := s.root[i]
	if l == nil {
		l = new(leaf)
		s.root[i] = l
	} else if bit := byte(1) << (i & 7); s.shared[i>>3]&bit != 0 {
		c := *l
		l = &c
		s.root[i] = l
		s.shared[i>>3] &^= bit
	}
	return &l[pn&leafMask]
}

// freeze makes s a template: every leaf becomes shared, so that neither
// s nor any clone of it can change them. A template may hold uniform
// pages but no page data, which clones would otherwise share.
func (s *Space) freeze() {
	for i, l := range s.root {
		if l == nil {
			continue
		}
		for j := range l {
			if l[j].data != nil {
				panic("cmem: freezing a space that holds page data")
			}
		}
		s.shared[i>>3] |= 1 << (i & 7)
	}
}

// clone returns a new space with the mappings and contents of the frozen
// space t, sharing its leaves until they change. The clone starts with no
// fuel limit, no counts and no journal, like NewSpace.
func (t *Space) clone() *Space {
	return &Space{root: t.root, npages: t.npages, shared: t.shared, template: t, fuel: -1}
}

// pageRange returns the first and last page numbers of [base, base+size);
// size must be non-zero.
func pageRange(base Addr, size uint32) (first, last Addr) {
	return base >> pageShift, (base + Addr(size) - 1) >> pageShift
}

// Map maps [base, base+size) with the given protection. Partial pages are
// rounded out to page boundaries. Mapping over an existing mapping is an
// abort fault (the simulated loader never does it; doing so indicates a
// toolkit bug worth surfacing loudly).
func (s *Space) Map(base Addr, size uint32, p Prot) *Fault {
	if size == 0 {
		return nil
	}
	if base+Addr(size)-1 < base {
		return abort("map", base, "mapping wraps address space")
	}
	first, last := pageRange(base, size)
	for pn := first; pn <= last; pn++ {
		if s.pageOf(pn<<pageShift) != nil {
			return abort("map", pn<<pageShift, "page already mapped")
		}
	}
	for pn := first; pn <= last; pn++ {
		*s.own(pn << pageShift) = page{prot: p, mapped: true}
	}
	s.npages += int(last-first) + 1
	return nil
}

// Protect changes the protection of every page covered by [base,
// base+size). Unmapped pages fault.
func (s *Space) Protect(base Addr, size uint32, p Prot) *Fault {
	if size == 0 {
		return nil
	}
	first, last := pageRange(base, size)
	for pn := first; pn <= last; pn++ {
		if s.pageOf(pn<<pageShift) == nil {
			return segv("mprotect", pn<<pageShift, "page not mapped")
		}
		s.own(pn << pageShift).prot = p
	}
	return nil
}

// Mapped reports whether every byte of [a, a+size) is mapped with at least
// the given protection. A zero size is trivially true.
func (s *Space) Mapped(a Addr, size uint32, want Prot) bool {
	if size == 0 {
		return true
	}
	if a+Addr(size)-1 < a {
		return false
	}
	first, last := pageRange(a, size)
	for pn := first; pn <= last; pn++ {
		pg := s.pageOf(pn << pageShift)
		if pg == nil || pg.prot&want != want {
			return false
		}
	}
	return true
}

// MappedLen returns the number of contiguous bytes mapped with the given
// protection starting at a, capped at max. It lets callers (for example the
// robustness wrapper's string validation) probe how far a buffer extends
// without faulting.
func (s *Space) MappedLen(a Addr, want Prot, max uint32) uint32 {
	var n uint32
	for n < max {
		pg := s.pageOf(a + Addr(n))
		if pg == nil || pg.prot&want != want {
			return n
		}
		// Skip to the end of this page in one step.
		n += spanLen(a+Addr(n), uint64(max-n))
	}
	return n
}

// spanLen returns how many of the n bytes starting at a lie on a's page.
func spanLen(a Addr, n uint64) uint32 {
	l := PageSize - uint32(a)&pageMask
	if n < uint64(l) {
		return uint32(n)
	}
	return l
}

// lookup returns the page holding a when it grants want. Otherwise the
// byte at a faults: it is charged one access of fuel, as ReadByteAt and
// WriteByteAt charge it, and lookup returns the fault that byte raises.
func (s *Space) lookup(op string, a Addr, want Prot) (*page, *Fault) {
	pg := s.pageOf(a)
	if pg != nil && pg.prot&want != 0 {
		return pg, nil
	}
	if f := s.burn(op, a); f != nil {
		return nil, f
	}
	if pg == nil {
		return nil, segv(op, a, "")
	}
	return nil, prot(op, a, "")
}

// charge debits the fuel for n accesses starting at a, all on one
// permitted page. It returns how many go through; when the budget runs out
// first, the next byte raises the hang.
func (s *Space) charge(op string, a Addr, n uint32) (uint32, *Fault) {
	if s.fuel < 0 {
		return n, nil
	}
	if s.fuel < int64(n) {
		k := uint32(s.fuel)
		s.fuel = 0
		return k, hang(op, a+Addr(k))
	}
	s.fuel -= int64(n)
	return n, nil
}

// recordStores records n stores at a on page pg: their pre-images when
// a journal is armed, and the store count.
func (s *Space) recordStores(pg *page, a Addr, n uint32) {
	if s.journalArmed {
		off := uint32(a) & pageMask
		s.journal = slices.Grow(s.journal, int(n))
		for i := range n {
			s.journal = append(s.journal, journalEntry{addr: a + Addr(i), old: pg.at(off + i)})
		}
	}
	s.stores += uint64(n)
}

// store prepares n bytes at a on page pg for writing: it records them
// with recordStores and returns the backing bytes to write, allocating
// the page's data if it is uniform.
func (s *Space) store(pg *page, a Addr, n uint32) []byte {
	if n == 0 {
		return nil
	}
	s.recordStores(pg, a, n)
	if pg.data == nil {
		pg = s.own(a)
		pg.materialize()
	}
	off := uint32(a) & pageMask
	return pg.data[off : off+n]
}

// ReadByteAt loads one byte.
func (s *Space) ReadByteAt(a Addr) (byte, *Fault) {
	if f := s.burn("read1", a); f != nil {
		return 0, f
	}
	pg := s.pageOf(a)
	if pg == nil {
		return 0, segv("read1", a, "")
	}
	if pg.prot&ProtRead == 0 {
		return 0, prot("read1", a, "")
	}
	s.loads++
	return pg.at(uint32(a) & pageMask), nil
}

// WriteByteAt stores one byte.
func (s *Space) WriteByteAt(a Addr, v byte) *Fault {
	if f := s.burn("write1", a); f != nil {
		return f
	}
	pg := s.pageOf(a)
	if pg == nil {
		return segv("write1", a, "")
	}
	if pg.prot&ProtWrite == 0 {
		return prot("write1", a, "")
	}
	if s.journalArmed {
		s.journalWrite(pg, a)
	}
	s.stores++
	if pg.data == nil {
		pg = s.own(a)
		pg.materialize()
	}
	pg.data[a&pageMask] = v
	return nil
}

// Read copies len(dst) bytes starting at a into dst. On a fault, the bytes
// before the faulting one have been copied.
func (s *Space) Read(a Addr, dst []byte) *Fault {
	for len(dst) > 0 {
		pg, f := s.lookup("read1", a, ProtRead)
		if f != nil {
			return f
		}
		n, f := s.charge("read1", a, spanLen(a, uint64(len(dst))))
		s.loads += uint64(n)
		if pg.data == nil {
			memset(dst[:n], pg.fill)
		} else {
			copy(dst[:n], pg.data[a&pageMask:])
		}
		if f != nil {
			return f
		}
		dst = dst[n:]
		a += Addr(n)
	}
	return nil
}

// Write copies src into the address space starting at a. On a fault, the
// bytes before the faulting one have been stored.
func (s *Space) Write(a Addr, src []byte) *Fault {
	for len(src) > 0 {
		pg, f := s.lookup("write1", a, ProtWrite)
		if f != nil {
			return f
		}
		n, f := s.charge("write1", a, spanLen(a, uint64(len(src))))
		copy(s.store(pg, a, n), src)
		if f != nil {
			return f
		}
		src = src[n:]
		a += Addr(n)
	}
	return nil
}

// Fill stores n copies of v starting at a — memset's access pattern. On a
// fault, the bytes before the faulting one have been stored.
func (s *Space) Fill(a Addr, n uint32, v byte) *Fault {
	for n > 0 {
		pg, f := s.lookup("write1", a, ProtWrite)
		if f != nil {
			return f
		}
		k, f := s.charge("write1", a, spanLen(a, uint64(n)))
		if k == PageSize {
			// The span is the whole page: it becomes uniform.
			s.recordStores(pg, a, k)
			pg = s.own(a)
			pg.data, pg.fill = nil, v
		} else {
			memset(s.store(pg, a, k), v)
		}
		if f != nil {
			return f
		}
		n -= k
		a += Addr(k)
	}
	return nil
}

// NoStop is the stop argument of a Copy that ends only after n bytes.
const NoStop = -1

// Copy is the access contract's two-address loop, the one memcpy, strcpy
// and their kin run: for each i from 0 it loads src+i, then stores that
// byte at dst+i. It ends after n bytes, or after storing the byte stop
// when stop is not NoStop. It returns how many bytes it stored and
// whether it ended on the stop byte. On a fault, the bytes before the
// faulting access have been stored.
func (s *Space) Copy(dst, src Addr, n uint32, stop int) (uint32, bool, *Fault) {
	for i := range n {
		b, f := s.ReadByteAt(src + Addr(i))
		if f != nil {
			return i, false, f
		}
		if f := s.WriteByteAt(dst+Addr(i), b); f != nil {
			return i, false, f
		}
		if int(b) == stop {
			return i + 1, true, nil
		}
	}
	return n, false, nil
}

// ReadU32 loads a little-endian 32-bit value. Misaligned wide accesses
// are SIGBUS, matching strict-alignment hardware; the injector exercises
// this.
func (s *Space) ReadU32(a Addr) (uint32, *Fault) {
	if a&3 != 0 {
		return 0, &Fault{Kind: FaultBus, Addr: a, Op: "read4", Detail: "misaligned"}
	}
	var buf [4]byte
	if f := s.Read(a, buf[:]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// WriteU32 stores a little-endian 32-bit value.
func (s *Space) WriteU32(a Addr, v uint32) *Fault {
	if a&3 != 0 {
		return &Fault{Kind: FaultBus, Addr: a, Op: "write4", Detail: "misaligned"}
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return s.Write(a, buf[:])
}

// ReadU64 loads a little-endian 64-bit value.
func (s *Space) ReadU64(a Addr) (uint64, *Fault) {
	if a&7 != 0 {
		return 0, &Fault{Kind: FaultBus, Addr: a, Op: "read8", Detail: "misaligned"}
	}
	var buf [8]byte
	if f := s.Read(a, buf[:]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteU64 stores a little-endian 64-bit value.
func (s *Space) WriteU64(a Addr, v uint64) *Fault {
	if a&7 != 0 {
		return &Fault{Kind: FaultBus, Addr: a, Op: "write8", Detail: "misaligned"}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Write(a, buf[:])
}

// scanCString walks the string at a up to and including its NUL, reading
// at most max bytes, and appends the bytes before the NUL to out when out
// is non-nil. It returns the string's length; found is false when the max
// bytes held no NUL. When mapped is set, the walk also ends, with found
// false, at the first page that is not readable: that page raises no fault
// and costs no fuel.
func (s *Space) scanCString(a Addr, max uint32, out *strings.Builder, mapped bool) (n uint32, found bool, f *Fault) {
	for n < max {
		at := a + Addr(n)
		var pg *page
		if mapped {
			if pg = s.pageOf(at); pg == nil || pg.prot&ProtRead == 0 {
				return n, false, nil
			}
		} else if pg, f = s.lookup("read1", at, ProtRead); f != nil {
			return 0, false, f
		}
		l := spanLen(at, uint64(max-n))
		var b []byte
		nul := -1
		switch {
		case pg.data != nil:
			off := uint32(at) & pageMask
			b = pg.data[off : off+l]
			nul = bytes.IndexByte(b, 0)
		case pg.fill == 0:
			nul = 0
		case out != nil:
			b = bytes.Repeat([]byte{pg.fill}, int(l))
		}
		want := l
		if nul >= 0 {
			want = uint32(nul) + 1
		}
		k, f := s.charge("read1", at, want)
		s.loads += uint64(k)
		if f != nil {
			return 0, false, f
		}
		if nul >= 0 {
			if out != nil {
				out.Write(b[:nul])
			}
			return n + uint32(nul), true, nil
		}
		if out != nil {
			out.Write(b)
		}
		n += l
	}
	return n, false, nil
}

// ReadCString reads a NUL-terminated string starting at a, up to max bytes
// (excluding the NUL). Exceeding max without a NUL is reported as a SEGV at
// the first unread byte, modelling a runaway strlen walking off a mapping.
func (s *Space) ReadCString(a Addr, max uint32) (string, *Fault) {
	var b strings.Builder
	_, found, f := s.scanCString(a, max, &b, false)
	if f != nil {
		return "", f
	}
	if !found {
		return "", segv("readcstr", a+Addr(max), "no NUL within limit")
	}
	return b.String(), nil
}

// ReadMappedCString reads the NUL-terminated string at a, up to max bytes
// (excluding the NUL), in one pass that stops at the first page that is
// not readable. Such a page raises no fault and costs no fuel, and the
// string is then not found, as when max bytes hold no NUL. The pass is
// charged exactly what ReadCString(a, MappedLen(a, ProtRead, max))
// charges, so the only fault it returns is an exhausted access budget.
// It is how a check validates a string argument without faulting
// (DESIGN.md §3).
func (s *Space) ReadMappedCString(a Addr, max uint32) (str string, found bool, f *Fault) {
	var b strings.Builder
	if _, found, f = s.scanCString(a, max, &b, true); f != nil || !found {
		return "", false, f
	}
	return b.String(), true, nil
}

// MappedCStrLen is ReadMappedCString that returns the string's length and
// builds no string; the length is 0 when the string is not found.
func (s *Space) MappedCStrLen(a Addr, max uint32) (n uint32, found bool, f *Fault) {
	if n, found, f = s.scanCString(a, max, nil, true); f != nil || !found {
		return 0, false, f
	}
	return n, true, nil
}

// WriteCString stores s followed by a NUL terminator at a.
func (sp *Space) WriteCString(a Addr, s string) *Fault {
	if f := sp.Write(a, []byte(s)); f != nil {
		return f
	}
	return sp.WriteByteAt(a+Addr(len(s)), 0)
}

// CStrLen walks memory from a until a NUL byte, returning the length. It
// faults exactly where C strlen would. A uniform page of a nonzero fill
// holds no NUL, and a walk that finds none stops after math.MaxUint32
// bytes.
func (s *Space) CStrLen(a Addr) (uint32, *Fault) {
	n, _, f := s.scanCString(a, math.MaxUint32, nil, false)
	return n, f
}

// AccessCounts returns the cumulative (loads, stores) performed through the
// space, for profiling reports.
func (s *Space) AccessCounts() (loads, stores uint64) {
	return s.loads, s.stores
}

// PageCount returns the number of mapped pages.
func (s *Space) PageCount() int { return s.npages }
