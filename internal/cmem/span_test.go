package cmem

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refSpace is the byte-at-a-time reference model of Space: a map-backed
// page table whose bulk accesses are loops of single-byte loads and
// stores, each paying its own page lookup, fuel, count and journal entry.
// The span-based Space must be indistinguishable from it.
type refSpace struct {
	pages        map[Addr]*refPage
	loads        uint64
	stores       uint64
	fuel         int64
	journal      []journalEntry
	journalMarks []int
}

type refPage struct {
	data [PageSize]byte
	prot Prot
}

func newRefSpace() *refSpace { return &refSpace{pages: map[Addr]*refPage{}, fuel: -1} }

func (r *refSpace) Map(base Addr, size uint32, p Prot) *Fault {
	if size == 0 {
		return nil
	}
	if base+Addr(size)-1 < base {
		return abort("map", base, "mapping wraps address space")
	}
	first, last := base>>pageShift, (base+Addr(size)-1)>>pageShift
	for pn := first; pn <= last; pn++ {
		if r.pages[pn] != nil {
			return abort("map", pn<<pageShift, "page already mapped")
		}
	}
	for pn := first; pn <= last; pn++ {
		r.pages[pn] = &refPage{prot: p}
	}
	return nil
}

func (r *refSpace) Protect(base Addr, size uint32, p Prot) *Fault {
	if size == 0 {
		return nil
	}
	for pn := base >> pageShift; pn <= (base+Addr(size)-1)>>pageShift; pn++ {
		pg := r.pages[pn]
		if pg == nil {
			return segv("mprotect", pn<<pageShift, "page not mapped")
		}
		pg.prot = p
	}
	return nil
}

func (r *refSpace) burn(op string, a Addr) *Fault {
	if r.fuel < 0 {
		return nil
	}
	if r.fuel == 0 {
		return &Fault{Kind: FaultHang, Addr: a, Op: op, Detail: "access budget exhausted"}
	}
	r.fuel--
	return nil
}

func (r *refSpace) readByte(a Addr) (byte, *Fault) {
	if f := r.burn("read1", a); f != nil {
		return 0, f
	}
	pg := r.pages[a>>pageShift]
	if pg == nil {
		return 0, segv("read1", a, "")
	}
	if pg.prot&ProtRead == 0 {
		return 0, prot("read1", a, "")
	}
	r.loads++
	return pg.data[a&pageMask], nil
}

func (r *refSpace) writeByte(a Addr, v byte) *Fault {
	if f := r.burn("write1", a); f != nil {
		return f
	}
	pg := r.pages[a>>pageShift]
	if pg == nil {
		return segv("write1", a, "")
	}
	if pg.prot&ProtWrite == 0 {
		return prot("write1", a, "")
	}
	if len(r.journalMarks) > 0 {
		r.journal = append(r.journal, journalEntry{addr: a, old: pg.data[a&pageMask]})
	}
	r.stores++
	pg.data[a&pageMask] = v
	return nil
}

func (r *refSpace) Read(a Addr, dst []byte) *Fault {
	for i := range dst {
		b, f := r.readByte(a + Addr(i))
		if f != nil {
			return f
		}
		dst[i] = b
	}
	return nil
}

func (r *refSpace) Write(a Addr, src []byte) *Fault {
	for i, b := range src {
		if f := r.writeByte(a+Addr(i), b); f != nil {
			return f
		}
	}
	return nil
}

func (r *refSpace) Fill(a Addr, n uint32, v byte) *Fault {
	for i := uint32(0); i < n; i++ {
		if f := r.writeByte(a+Addr(i), v); f != nil {
			return f
		}
	}
	return nil
}

func (r *refSpace) CStrLen(a Addr) (uint32, *Fault) {
	for n := uint32(0); ; n++ {
		c, f := r.readByte(a + Addr(n))
		if f != nil {
			return 0, f
		}
		if c == 0 {
			return n, nil
		}
	}
}

func (r *refSpace) ReadCString(a Addr, max uint32) (string, *Fault) {
	var b strings.Builder
	for i := uint32(0); i < max; i++ {
		c, f := r.readByte(a + Addr(i))
		if f != nil {
			return "", f
		}
		if c == 0 {
			return b.String(), nil
		}
		b.WriteByte(c)
	}
	return "", segv("readcstr", a+Addr(max), "no NUL within limit")
}

// mappedLen is MappedLen(a, ProtRead, max): how many bytes from a lie on
// contiguous readable pages, capped at max.
func (r *refSpace) mappedLen(a Addr, max uint32) uint32 {
	var n uint32
	for n < max {
		pg := r.pages[(a+Addr(n))>>pageShift]
		if pg == nil || pg.prot&ProtRead == 0 {
			return n
		}
		n += min(PageSize-uint32(a+Addr(n))&pageMask, max-n)
	}
	return n
}

// readMappedCString is the reference for ReadMappedCString and
// MappedCStrLen: ReadCString bounded by the readable span. The span holds
// no unreadable byte, so the read either finds the NUL, runs out of fuel,
// or reaches the bound, which is no string and no fault.
func (r *refSpace) readMappedCString(a Addr, max uint32) (string, bool, *Fault) {
	s, f := r.ReadCString(a, r.mappedLen(a, max))
	switch {
	case f == nil:
		return s, true, nil
	case f.Kind == FaultHang:
		return "", false, f
	}
	return "", false, nil
}

// readWide and writeWide are ReadU32/64 and WriteU32/64: the
// alignment check, then little-endian bytes through Read or Write.
func (r *refSpace) readWide(a Addr, width int) (uint64, *Fault) {
	if a&Addr(width-1) != 0 {
		return 0, &Fault{Kind: FaultBus, Addr: a, Op: fmt.Sprintf("read%d", width), Detail: "misaligned"}
	}
	buf := make([]byte, width)
	if f := r.Read(a, buf); f != nil {
		return 0, f
	}
	var v uint64
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

func (r *refSpace) writeWide(a Addr, width int, v uint64) *Fault {
	if a&Addr(width-1) != 0 {
		return &Fault{Kind: FaultBus, Addr: a, Op: fmt.Sprintf("write%d", width), Detail: "misaligned"}
	}
	buf := make([]byte, width)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return r.Write(a, buf)
}

func (r *refSpace) Begin() { r.journalMarks = append(r.journalMarks, len(r.journal)) }

func (r *refSpace) Commit() {
	if len(r.journalMarks) == 0 {
		return
	}
	r.journalMarks = r.journalMarks[:len(r.journalMarks)-1]
	if len(r.journalMarks) == 0 {
		r.journal = r.journal[:0]
	}
}

func (r *refSpace) Rollback() {
	if len(r.journalMarks) == 0 {
		return
	}
	mark := r.journalMarks[len(r.journalMarks)-1]
	r.journalMarks = r.journalMarks[:len(r.journalMarks)-1]
	for i := len(r.journal) - 1; i >= mark; i-- {
		e := r.journal[i]
		if pg := r.pages[e.addr>>pageShift]; pg != nil {
			pg.data[e.addr&pageMask] = e.old
		}
	}
	r.journal = r.journal[:mark]
}

func (r *refSpace) JournalDiff() []JournalDiffEntry {
	if len(r.journalMarks) == 0 {
		return nil
	}
	first := map[Addr]byte{}
	for _, e := range r.journal[r.journalMarks[len(r.journalMarks)-1]:] {
		if _, seen := first[e.addr]; !seen {
			first[e.addr] = e.old
		}
	}
	diff := []JournalDiffEntry{}
	for a, old := range first {
		pg := r.pages[a>>pageShift]
		if pg == nil || pg.data[a&pageMask] == old {
			continue
		}
		diff = append(diff, JournalDiffEntry{Addr: a, Old: old, New: pg.data[a&pageMask]})
	}
	slices.SortFunc(diff, func(a, b JournalDiffEntry) int { return cmp.Compare(a.Addr, b.Addr) })
	return diff
}

// spanProgram decodes a byte string into operations on a Space and its
// reference model. Addresses are drawn near a few bases — ordinary low
// memory, a leaf boundary of the page table, the NULL page, and the top
// of the address space so that accesses wrap around to NULL.
type spanProgram struct {
	data []byte
}

func (p *spanProgram) u8() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

func (p *spanProgram) u16() uint16 { return uint16(p.u8()) | uint16(p.u8())<<8 }

var spanBases = [...]Addr{0x00010000, 0x001ff000, 0x00000000, 0xffffe000}

func (p *spanProgram) addr() Addr {
	base := spanBases[p.u8()%byte(len(spanBases))]
	return base + Addr(int16(p.u16())%(5*PageSize))
}

// length returns an access length of up to three pages; encodings from
// 0x8000 up give lengths below 64.
func (p *spanProgram) length() uint32 {
	n := uint32(p.u16())
	if n >= 0x8000 {
		return n % 64
	}
	return n % (3 * PageSize)
}

// forkRef returns a reference model with ref's pages and protections,
// every byte v, and no counts, fuel limit or journal: what a clone of a
// template built by templateOf(ref, v) holds.
func forkRef(ref *refSpace, v byte) *refSpace {
	r := newRefSpace()
	for pn, rp := range ref.pages {
		np := &refPage{prot: rp.prot}
		for i := range np.data {
			np.data[i] = v
		}
		r.pages[pn] = np
	}
	return r
}

// templateOf builds a frozen space with ref's mappings, every page a
// uniform page of v, through the public calls a process image uses:
// Map, then a whole-page Fill under a temporary write protection.
func templateOf(t *testing.T, ref *refSpace, v byte) *Space {
	t.Helper()
	tmpl := NewSpace()
	for pn, rp := range ref.pages {
		a := pn << pageShift
		if f := tmpl.Map(a, PageSize, ProtWrite); f != nil {
			t.Fatal(f)
		}
		if f := tmpl.Fill(a, PageSize, v); f != nil {
			t.Fatal(f)
		}
		if f := tmpl.Protect(a, PageSize, rp.prot); f != nil {
			t.Fatal(f)
		}
	}
	tmpl.freeze()
	return tmpl
}

// snapshot copies every leaf of a space, to check later that a template
// never changes.
func snapshot(sp *Space) map[int]leaf {
	leaves := map[int]leaf{}
	for i, l := range sp.root {
		if l != nil {
			leaves[i] = *l
		}
	}
	return leaves
}

// runSpanProgram executes data against both implementations and fails on
// the first divergence. Its Fork op replaces the space with a clone of a
// frozen template and keeps a second clone, with its own reference model,
// that the Switch op swaps in. The active space and the template are
// checked after every step: a change that reached a shared leaf changed
// the template, the only way one clone's ops can reach the other. The
// other clone is checked at the end.
func runSpanProgram(t *testing.T, data []byte) {
	t.Helper()
	sp, ref := NewSpace(), newRefSpace()
	sp2, ref2 := NewSpace(), newRefSpace()
	var tmpl *Space
	var frozen map[int]leaf
	p := &spanProgram{data: data}
	for step := 0; len(p.data) > 0 && step < 64; step++ {
		op := p.u8() % 20
		var what string
		var got, want any
		var gf, wf *Fault
		switch op {
		case 0, 1:
			a, n, pr := p.addr(), uint32(p.u16())%(4*PageSize)+1, Prot(p.u8()%4)
			what = fmt.Sprintf("Map(%s, %d, %s)", a, n, pr)
			gf, wf = sp.Map(a, n, pr), ref.Map(a, n, pr)
		case 2, 3:
			a, n, pr := p.addr(), uint32(p.u16())%(2*PageSize), Prot(p.u8()%4)
			what = fmt.Sprintf("Protect(%s, %d, %s)", a, n, pr)
			gf, wf = sp.Protect(a, n, pr), ref.Protect(a, n, pr)
		case 4:
			fuel := int64(int16(p.u16()))
			what = fmt.Sprintf("SetFuel(%d)", fuel)
			sp.SetFuel(fuel)
			ref.fuel = fuel
		case 5:
			what = "BeginJournal"
			sp.BeginJournal()
			ref.Begin()
		case 6:
			what = "CommitJournal"
			sp.CommitJournal()
			ref.Commit()
		case 7:
			what = "RollbackJournal"
			sp.RollbackJournal()
			ref.Rollback()
		case 8:
			a, n := p.addr(), p.length()
			what = fmt.Sprintf("Read(%s, %d)", a, n)
			g, w := make([]byte, n), make([]byte, n)
			gf, wf = sp.Read(a, g), ref.Read(a, w)
			got, want = g, w
		case 9:
			a, n, seed := p.addr(), p.length(), p.u8()
			src := make([]byte, n)
			for i := range src {
				// Sparse NULs give the string scans something to find.
				if v := byte(i*7) + seed; v%11 != 0 {
					src[i] = v
				}
			}
			what = fmt.Sprintf("Write(%s, %d bytes)", a, n)
			gf, wf = sp.Write(a, src), ref.Write(a, src)
		case 10:
			a, n, v := p.addr(), p.length(), p.u8()
			what = fmt.Sprintf("Fill(%s, %d, %#x)", a, n, v)
			gf, wf = sp.Fill(a, n, v), ref.Fill(a, n, v)
		case 11:
			a := p.addr()
			what = fmt.Sprintf("CStrLen(%s)", a)
			var gn, wn uint32
			gn, gf = sp.CStrLen(a)
			wn, wf = ref.CStrLen(a)
			got, want = gn, wn
		case 12:
			a, max := p.addr(), p.length()
			what = fmt.Sprintf("ReadCString(%s, %d)", a, max)
			var gs, ws string
			gs, gf = sp.ReadCString(a, max)
			ws, wf = ref.ReadCString(a, max)
			got, want = gs, ws
		case 13:
			a, width := p.addr(), 8>>(p.u8()%2)
			what = fmt.Sprintf("ReadU%d(%s)", 8*width, a)
			var gv uint64
			if width == 4 {
				var v uint32
				v, gf = sp.ReadU32(a)
				gv = uint64(v)
			} else {
				gv, gf = sp.ReadU64(a)
			}
			wv, f := ref.readWide(a, width)
			got, want, wf = gv, wv, f
		case 14:
			a, width := p.addr(), 8>>(p.u8()%2)
			v := uint64(p.u16())<<48 | uint64(p.u16())<<16 | uint64(p.u16())
			v &= 1<<(8*width) - 1
			what = fmt.Sprintf("WriteU%d(%s, %#x)", 8*width, a, v)
			if width == 4 {
				gf = sp.WriteU32(a, uint32(v))
			} else {
				gf = sp.WriteU64(a, v)
			}
			wf = ref.writeWide(a, width, v)
		case 15:
			a, v := p.addr(), p.u8()
			if v&1 == 0 {
				what = fmt.Sprintf("ReadByteAt(%s)", a)
				var gb, wb byte
				gb, gf = sp.ReadByteAt(a)
				wb, wf = ref.readByte(a)
				got, want = gb, wb
			} else {
				what = fmt.Sprintf("WriteByteAt(%s, %#x)", a, v)
				gf, wf = sp.WriteByteAt(a, v), ref.writeByte(a, v)
			}
		case 16:
			a, n, v := p.addr()&^pageMask, uint32(p.u8()%3+1)*PageSize, p.u8()
			if v == 0 {
				v = mallocFill
			}
			what = fmt.Sprintf("Fill(%s, %d, %#x)", a, n, v)
			gf, wf = sp.Fill(a, n, v), ref.Fill(a, n, v)
		case 17:
			v := p.u8()
			what = fmt.Sprintf("Fork(%#x)", v)
			tmpl = templateOf(t, ref, v)
			frozen = snapshot(tmpl)
			sp, sp2 = tmpl.clone(), tmpl.clone()
			ref, ref2 = forkRef(ref, v), forkRef(ref, v)
		case 18:
			what = "Switch"
			sp, sp2, ref, ref2 = sp2, sp, ref2, ref
		case 19:
			// Bit 0 picks the length-only form, bit 1 the 1 MiB bound
			// a string check uses.
			a, max, form := p.addr(), p.length(), p.u8()
			if form&2 != 0 {
				max = 1 << 20
			}
			ws, wfound, f := ref.readMappedCString(a, max)
			wf = f
			if form&1 != 0 {
				what = fmt.Sprintf("MappedCStrLen(%s, %d)", a, max)
				gn, gfound, f := sp.MappedCStrLen(a, max)
				gf = f
				got, want = [2]any{gn, gfound}, [2]any{uint32(len(ws)), wfound}
			} else {
				what = fmt.Sprintf("ReadMappedCString(%s, %d)", a, max)
				gs, gfound, f := sp.ReadMappedCString(a, max)
				gf = f
				got, want = [2]any{gs, gfound}, [2]any{ws, wfound}
			}
		}
		if (gf == nil) != (wf == nil) || gf != nil && *gf != *wf {
			t.Fatalf("step %d %s: fault %v, reference %v", step, what, gf, wf)
		}
		if !sameResult(got, want) {
			t.Fatalf("step %d %s: result %v, reference %v", step, what, got, want)
		}
		ctx := fmt.Sprintf("step %d %s", step, what)
		compareSpaces(t, ctx, sp, ref)
		if tmpl != nil && !maps.Equal(snapshot(tmpl), frozen) {
			t.Fatalf("%s: the template changed", ctx)
		}
	}
	compareSpaces(t, "end of program (other clone)", sp2, ref2)
}

// sameResult compares an operation's result with the reference's: a
// Read's bytes, or a comparable value.
func sameResult(got, want any) bool {
	if g, ok := got.([]byte); ok {
		return bytes.Equal(g, want.([]byte))
	}
	return got == want
}

// compareSpaces checks fuel, counts, page count, every mapped byte and
// the journal diff of sp against ref.
func compareSpaces(t *testing.T, ctx string, sp *Space, ref *refSpace) {
	t.Helper()
	if sp.Fuel() != ref.fuel {
		t.Fatalf("%s: fuel %d, reference %d", ctx, sp.Fuel(), ref.fuel)
	}
	if l, s := sp.AccessCounts(); l != ref.loads || s != ref.stores {
		t.Fatalf("%s: counts (%d, %d), reference (%d, %d)", ctx, l, s, ref.loads, ref.stores)
	}
	if sp.PageCount() != len(ref.pages) {
		t.Fatalf("%s: PageCount %d, reference %d", ctx, sp.PageCount(), len(ref.pages))
	}
	// Each page is compared in one array comparison; a uniform page
	// against uniform, which holds uniformFill in every byte.
	var uniform [PageSize]byte
	var uniformFill byte
	for pn, rp := range ref.pages {
		pg := sp.pageOf(pn << pageShift)
		if pg == nil || pg.prot != rp.prot {
			t.Fatalf("%s: page %s mapped as %v, reference %s", ctx, pn<<pageShift, pg, rp.prot)
		}
		got := pg.data
		if got == nil {
			if pg.fill != uniformFill {
				memset(uniform[:], pg.fill)
				uniformFill = pg.fill
			}
			got = &uniform
		}
		if *got != rp.data {
			i := 0
			for got[i] == rp.data[i] {
				i++
			}
			t.Fatalf("%s: byte %s = %#x, reference %#x", ctx, pn<<pageShift+Addr(i), got[i], rp.data[i])
		}
	}
	if got, want := sp.JournalDiff(), ref.JournalDiff(); len(got) != 0 || len(want) != 0 {
		if !slices.Equal(got, want) {
			t.Fatalf("%s: JournalDiff %v, reference %v", ctx, got, want)
		}
	}
}

// Encoders for hand-written programs; each mirrors one case of
// runSpanProgram's decoder.
func progU16(v uint16) []byte { return []byte{byte(v), byte(v >> 8)} }

func progAddr(base byte, off int16) []byte { return append([]byte{base}, progU16(uint16(off))...) }

func progOp(op byte, base byte, off int16, rest ...byte) []byte {
	return append(append([]byte{op}, progAddr(base, off)...), rest...)
}

func opMap(base byte, off int16, size uint16, p Prot) []byte {
	return progOp(0, base, off, append(progU16(size-1), byte(p))...)
}

func opProtect(base byte, off int16, size uint16, p Prot) []byte {
	return progOp(3, base, off, append(progU16(size), byte(p))...)
}

func opFuel(n int16) []byte { return append([]byte{4}, progU16(uint16(n))...) }

func opRead(base byte, off int16, n uint16) []byte { return progOp(8, base, off, progU16(n)...) }

func opWrite(base byte, off int16, n uint16, seed byte) []byte {
	return progOp(9, base, off, append(progU16(n), seed)...)
}

func opFill(base byte, off int16, n uint16, v byte) []byte {
	return progOp(10, base, off, append(progU16(n), v)...)
}

func opStrlen(base byte, off int16) []byte { return progOp(11, base, off) }

func opReadString(base byte, off int16, max uint16) []byte {
	return progOp(12, base, off, progU16(max)...)
}

// opMappedString encodes a ReadMappedCString (lenOnly false) or
// MappedCStrLen call; wide replaces max with the 1 MiB bound.
func opMappedString(base byte, off int16, max uint16, lenOnly, wide bool) []byte {
	var form byte
	if lenOnly {
		form |= 1
	}
	if wide {
		form |= 2
	}
	return progOp(19, base, off, append(progU16(max), form)...)
}

func opWrite64(base byte, off int16) []byte { return progOp(14, base, off, 2, 1, 2, 3, 4, 5, 6) }

func opFillPages(base byte, off int16, pages byte, v byte) []byte {
	return progOp(16, base, off, pages-1, v)
}

func opFork(v byte) []byte { return []byte{17, v} }

var (
	opBegin    = []byte{5}
	opCommit   = []byte{6}
	opRollback = []byte{7}
	opSwitch   = []byte{18}
)

func program(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// Base indexes into spanBases.
const (
	baseLow, baseLeafEdge, baseNull, baseTop byte = 0, 1, 2, 3
)

// spanCases are hand-written programs for the edges the span path must get
// right.
var spanCases = []struct {
	name string
	prog []byte
}{
	{"page-crossing", program(
		opMap(baseLow, 0, 3*PageSize, ProtRW),
		opFill(baseLow, 0xf00, 0x1200, 0xab),
		opRead(baseLow, 0xe00, 0x1400),
		opStrlen(baseLow, 0xf00),
		opReadString(baseLow, 0xf00, 0x2000),
	)},
	{"leaf-boundary", program(
		opMap(baseLeafEdge, 0, 2*PageSize, ProtRW),
		opWrite(baseLeafEdge, 0xff0, 0x40, 1),
		opFill(baseLeafEdge, 0x800, 0x1000, 'A'),
		opStrlen(baseLeafEdge, 0x800),
		opRead(baseLeafEdge, 0, 2*PageSize),
	)},
	{"wrap-to-null", program(
		opMap(baseTop, 0x1000, PageSize, ProtRW),
		opFill(baseTop, 0x1f00, 0x200, 'A'),
		opStrlen(baseTop, 0x1f00),
		opReadString(baseTop, 0x1f00, 0x400),
		opRead(baseTop, 0x1ff8, 0x10),
		opWrite64(baseTop, 0x1ff8),
	)},
	{"fuel-mid-span", program(
		opMap(baseLow, 0, 2*PageSize, ProtRW),
		opFuel(100),
		opFill(baseLow, 0, 0x100, 0x55),
		opFuel(-1),
		opFuel(10),
		opReadString(baseLow, 0x50, 0x100),
		opFuel(0),
		opRead(baseLow, 0, 0),
		opRead(baseLow, 0, 1),
		opFuel(3),
		opStrlen(baseLow, 0x1000),
		opFuel(5),
		opWrite64(baseLow, 0x10),
		opFuel(8), // exactly enough: the store completes, the next access hangs
		opWrite64(baseLow, 0x10),
		opRead(baseLow, 0x10, 1),
		opFuel(0x20),
		opFill(baseLow, 0xff0, 0x20, 3),
		opReadString(baseLow, 0, 0x10),
	)},
	{"fuel-at-unmapped-page", program(
		opMap(baseLow, 0, PageSize, ProtRW),
		opFuel(int16(PageSize)),
		opFill(baseLow, 0, 2*PageSize, 1),
		opFuel(int16(PageSize+1)),
		opFill(baseLow, 0, 2*PageSize, 2),
	)},
	{"protection", program(
		opMap(baseLow, 0, 2*PageSize, ProtRead),
		opFill(baseLow, 0x300, 0x10, 0x11),
		opWrite(baseLow, 0x1f00, 0x3000, 7),
		opProtect(baseLow, 0x1000, PageSize, ProtRW),
		opWrite(baseLow, 0xf00, 0x300, 7),
		opWrite(baseLow, 0x1f00, 0x300, 7),
		opProtect(baseLow, 0x1000, PageSize, 0),
		opRead(baseLow, 0xff0, 0x20),
		opStrlen(baseLow, 0xff0),
	)},
	{"journal", program(
		opMap(baseLow, 0, 2*PageSize, ProtRW),
		opBegin,
		opFill(baseLow, 0, 0x1100, 0x77),
		opBegin,
		opWrite(baseLow, 0x800, 0x1000, 3),
		opWrite64(baseLow, 0x808),
		opCommit,
		opRollback,
		opBegin,
		opFill(baseLow, 0xff8, 0x10, 0),
		opRollback,
	)},
	{"uniform-pages", program(
		opMap(baseLow, 0, 4*PageSize, ProtRW),
		opFillPages(baseLow, 0, 3, mallocFill),
		opWrite(baseLow, 0x1ff0, 0x20, 5),
		opFill(baseLow, 0x2800, 0x10, 0),
		opRead(baseLow, 0xff0, 0x2020),
		opStrlen(baseLow, 0x100),
		opReadString(baseLow, 0x100, 0x3000),
		opStrlen(baseLow, 0x2000),
		opFillPages(baseLow, 0x1000, 1, 0x41),
		opReadString(baseLow, 0x1ffc, 0x10),
		opBegin,
		opFillPages(baseLow, 0, 2, 0x11),
		opWrite64(baseLow, 0x1008),
		opRollback,
		opBegin,
		opWrite(baseLow, 0x3000, 0x10, 9),
		opFillPages(baseLow, 0x3000, 1, 0x22),
		opRollback,
		opRead(baseLow, 0, 4*PageSize),
	)},
	{"mapped-string", program(
		opMap(baseLow, 0, 2*PageSize, ProtRW),
		opMap(baseLow, 3*PageSize, PageSize, ProtRW),
		opFill(baseLow, 0xf00, 0x1100, 'x'),
		// The string runs into the unmapped page, then into an
		// unreadable one: no NUL, no fault, no fuel for either page.
		opMappedString(baseLow, 0xf00, 0, false, true),
		opMappedString(baseLow, 0xf00, 0, true, true),
		opProtect(baseLow, 0x1000, PageSize, ProtWrite),
		opMappedString(baseLow, 0xf00, 0, false, true),
		opProtect(baseLow, 0x1000, PageSize, ProtRW),
		opFill(baseLow, 0x1800, 1, 0),
		opMappedString(baseLow, 0xf00, 0, false, true),
		opMappedString(baseLow, 0xf00, 0x100, true, false),
		opMappedString(baseLow, 0xf00, 0x900, true, false),
		// Fuel that runs out in the middle of the string, and fuel
		// that runs out exactly at the unreadable page.
		opFuel(0x200),
		opMappedString(baseLow, 0xf00, 0, false, true),
		opFuel(0x100),
		opMappedString(baseLow, 0x1f00, 0, true, true),
		opFuel(-1),
		opMappedString(baseNull, 0, 0, true, true),
		opMappedString(baseTop, 0x1ff0, 0x20, false, false),
		// Clones of a frozen template: uniform pages of a nonzero fill
		// hold no NUL; a store gives one page a string.
		opFork(mallocFill),
		opMappedString(baseLow, 0x10, 0, false, true),
		opWrite(baseLow, 0x1ff0, 0x20, 1),
		opMappedString(baseLow, 0x1fe0, 0, false, true),
		opMappedString(baseLow, 0x1fe0, 0, true, true),
		opFuel(0x18),
		opMappedString(baseLow, 0x1fe0, 0, false, true),
		opSwitch,
		opMappedString(baseLow, 0x1fe0, 0x800, true, false),
		opFork(0),
		opMappedString(baseLow, 0x3000, 0, false, true),
	)},
	{"clones", program(
		opMap(baseLow, 0, 3*PageSize, ProtRW),
		opProtect(baseLow, 0x2000, PageSize, ProtRead),
		opMap(baseLeafEdge, 0, 2*PageSize, ProtRW),
		opFork(mallocFill),
		opWrite(baseLow, 0x10, 0x20, 3),
		opProtect(baseLow, 0x1000, PageSize, ProtRead),
		opStrlen(baseLow, 0x2000),
		opSwitch,
		opRead(baseLow, 0, 0x40),
		opFillPages(baseLeafEdge, 0, 1, 0),
		opBegin,
		opWrite(baseLow, 0x1ff0, 0x20, 1),
		opRollback,
		opSwitch,
		opMap(baseLeafEdge, 2*PageSize, PageSize, ProtRW),
		opStrlen(baseLeafEdge, 0x1000),
		opSwitch,
		opFork(0),
		opWrite64(baseLeafEdge, 0x1ff8),
		opSwitch,
		opRead(baseLeafEdge, 0x1ff8, 8),
	)},
}

func TestSpanAccessMatchesByteModel(t *testing.T) {
	for _, tc := range spanCases {
		t.Run(tc.name, func(t *testing.T) { runSpanProgram(t, tc.prog) })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		prog := make([]byte, 64+rng.Intn(256))
		rng.Read(prog)
		// Start most programs with a mapping near a random base so the
		// accesses have something to hit.
		prog = append([]byte{0, prog[0], prog[1], prog[2], prog[3], 0x40, 3}, prog...)
		t.Run(fmt.Sprintf("random-%d", i), func(t *testing.T) { runSpanProgram(t, prog) })
	}
}

// FuzzSpanAccess runs arbitrary programs against both implementations.
// Its seed corpus, testdata/fuzz/FuzzSpanAccess, holds the spanCases
// programs.
func FuzzSpanAccess(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runSpanProgram(t, data) })
}

// TestSpanFillJournalsEveryByte pins the journal entries a span store
// records: one pre-image per byte in address order, including on a page
// that was never stored to.
func TestSpanFillJournalsEveryByte(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x10000, 2*PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(0x10ffe, []byte{1, 2}); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal()
	if f := sp.Fill(0x10ffe, 4, 9); f != nil {
		t.Fatal(f)
	}
	want := []journalEntry{{0x10ffe, 1}, {0x10fff, 2}, {0x11000, 0}, {0x11001, 0}}
	if !slices.Equal(sp.journal, want) {
		t.Fatalf("journal = %v, want %v", sp.journal, want)
	}
	sp.RollbackJournal()
	got := make([]byte, 4)
	if f := sp.Read(0x10ffe, got); f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(got, []byte{1, 2, 0, 0}) {
		t.Fatalf("after rollback = %v", got)
	}
}
