package cmem

import (
	"fmt"
	"sync"
	"weak"
)

// Image bundles a complete simulated process memory image: address space,
// data segment allocator, heap, and stack. One Image backs one simulated
// process; the fault injector creates a fresh Image per probe, standing in
// for forking a probe child.
type Image struct {
	Space *Space
	Heap  *Heap
	Stack *Stack

	dataCur Addr // bump pointer inside the data segment
	dataEnd Addr
	roCur   Addr // bump pointer inside the read-only segment
	roEnd   Addr
}

// Segment sizing for the data/rodata bump allocators.
const (
	dataSegSize = 4 << 20
	roSegSize   = 1 << 20
	// RoBase is where the simulated read-only segment (string literals)
	// begins. Kept below DataBase.
	RoBase Addr = 0x04000000
)

// NewImage builds a canonical process image: a read-only literal segment, a
// writable data segment, an empty heap, and a stack of DefaultStackSize.
// Its space is a copy-on-write clone of the canonical template, so a new
// image costs a copy of the root table, like fork() a copy of the parent's
// page tables, not the 1 536 page slots of its mappings.
func NewImage() *Image {
	sp := canonicalSpace().clone()
	return &Image{
		Space:   sp,
		Heap:    NewHeap(sp, HeapBase, HeapLimit),
		Stack:   newStack(sp, StackTop, DefaultStackSize),
		dataCur: DataBase,
		dataEnd: DataBase + dataSegSize,
		roCur:   RoBase,
		roEnd:   RoBase + roSegSize,
	}
}

// canonical holds the frozen template every image's space is cloned from:
// the rodata, data and stack mappings, with no page data. It is held
// weakly, and each clone holds it strongly (Space.template), so it lives
// exactly as long as some process uses it and no canonical leaf stays
// resident once none does; the next NewImage then builds it again.
var canonical struct {
	mu sync.Mutex
	p  weak.Pointer[Space]
}

// canonicalSpace returns the canonical template, building it if it has
// been collected.
func canonicalSpace() *Space {
	canonical.mu.Lock()
	defer canonical.mu.Unlock()
	if t := canonical.p.Value(); t != nil {
		return t
	}
	t := NewSpace()
	for _, m := range []struct {
		base Addr
		size uint32
		p    Prot
	}{
		{RoBase, roSegSize, ProtRead},
		{DataBase, dataSegSize, ProtRW},
		{StackTop - DefaultStackSize, DefaultStackSize, ProtRW},
	} {
		if f := t.Map(m.base, m.size, m.p); f != nil {
			panic(fmt.Sprintf("cmem: fresh space rejected canonical map: %v", f))
		}
	}
	t.freeze()
	canonical.p = weak.Make(t)
	return t
}

// StaticAlloc reserves n bytes (8-aligned) in the writable data segment and
// returns the base address. The loader places library globals here.
func (im *Image) StaticAlloc(n uint32) (Addr, *Fault) {
	n = round8(max32(n, 1))
	if im.dataCur+Addr(n) > im.dataEnd {
		return 0, abort("static", im.dataCur, "data segment exhausted")
	}
	a := im.dataCur
	im.dataCur += Addr(n)
	return a, nil
}

// StaticString places s as a NUL-terminated writable string in the data
// segment and returns its address.
func (im *Image) StaticString(s string) (Addr, *Fault) {
	a, f := im.StaticAlloc(uint32(len(s)) + 1)
	if f != nil {
		return 0, f
	}
	if f := im.Space.WriteCString(a, s); f != nil {
		return 0, f
	}
	return a, nil
}

// LiteralString places s as a NUL-terminated *read-only* string (a C string
// literal) and returns its address. Writing through the returned pointer
// faults, which is exactly what several injector probes check.
func (im *Image) LiteralString(s string) (Addr, *Fault) {
	n := round8(uint32(len(s)) + 1)
	if im.roCur+Addr(n) > im.roEnd {
		return 0, abort("literal", im.roCur, "rodata segment exhausted")
	}
	a := im.roCur
	im.roCur += Addr(n)
	// Temporarily raise protection to seed the bytes.
	if f := im.Space.Protect(a&^Addr(pageMask), PageSize, ProtRW); f != nil {
		return 0, f
	}
	if f := im.Space.WriteCString(a, s); f != nil {
		return 0, f
	}
	if f := im.Space.Protect(a&^Addr(pageMask), PageSize, ProtRead); f != nil {
		return 0, f
	}
	return a, nil
}

// CString is shorthand for reading a NUL-terminated string with a sane
// upper bound for diagnostics.
func (im *Image) CString(a Addr) (string, *Fault) {
	return im.Space.ReadCString(a, 1<<20)
}
