package cmem

import (
	"maps"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// canonicalPages is the number of pages a fresh image maps.
const canonicalPages = (roSegSize + dataSegSize + DefaultStackSize) / PageSize

// TestImagesShareTemplate checks that images are copy-on-write clones of
// one canonical template: they share its leaves until a change, diverge
// independently after one, and never change the template.
func TestImagesShareTemplate(t *testing.T) {
	a, b := NewImage(), NewImage()
	tmpl := a.Space.template
	if tmpl == nil || b.Space.template != tmpl {
		t.Fatalf("images do not share one template: %p, %p", a.Space.template, b.Space.template)
	}
	frozen := snapshot(tmpl)
	if a.Space.root != tmpl.root || a.Space.PageCount() != canonicalPages {
		t.Fatalf("a fresh image copied leaves or lost pages (%d pages)", a.Space.PageCount())
	}

	// Every kind of change to a's shared leaves.
	lit, f := a.LiteralString("literal") // Protect and a store on rodata
	if f != nil {
		t.Fatal(f)
	}
	if f := a.Space.WriteU32(DataBase+16, 0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	if f := a.Space.Fill(StackTop-PageSize, PageSize, 0x5a); f != nil {
		t.Fatal(f)
	}
	a.Space.BeginJournal()
	if f := a.Space.WriteByteAt(DataBase+2*PageSize, 7); f != nil {
		t.Fatal(f)
	}
	if got, ok := a.Space.CorruptJournaledByte(); !ok || got != DataBase+2*PageSize {
		t.Fatalf("CorruptJournaledByte = %s, %v", got, ok)
	}
	a.Space.RollbackJournal()

	if s, f := a.CString(lit); f != nil || s != "literal" {
		t.Fatalf("a's literal = %q, %v", s, f)
	}
	if v, _ := a.Space.ReadByteAt(StackTop - 1); v != 0x5a {
		t.Fatalf("a's stack byte = %#x, want 0x5a", v)
	}
	if a.Space.PageCount() != canonicalPages || b.Space.PageCount() != canonicalPages {
		t.Fatalf("page counts %d, %d", a.Space.PageCount(), b.Space.PageCount())
	}

	// b still reads the untouched canonical image.
	for _, addr := range []Addr{lit, DataBase + 16, StackTop - 1, DataBase + 2*PageSize} {
		if v, f := b.Space.ReadByteAt(addr); f != nil || v != 0 {
			t.Fatalf("b's byte at %s = %#x, %v; want a zero", addr, v, f)
		}
	}
	if !b.Space.Mapped(RoBase, roSegSize, ProtRead) || b.Space.Mapped(RoBase, 1, ProtWrite) {
		t.Fatal("b's rodata protection changed")
	}
	if !maps.Equal(snapshot(tmpl), frozen) {
		t.Fatal("the template changed")
	}
}

// TestTemplateSharedAcrossGoroutines clones the template from several
// goroutines at once, as parallel sweep workers do; run it under -race.
func TestTemplateSharedAcrossGoroutines(t *testing.T) {
	keep := NewImage()
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			im := NewImage()
			if im.Space.template != keep.Space.template {
				t.Error("a worker's image has its own template")
			}
			if f := im.Space.WriteU32(DataBase+Addr(8*i), uint32(i)); f != nil {
				t.Error(f)
			}
		}()
	}
	wg.Wait()
	if v, f := keep.Space.ReadU32(DataBase); f != nil || v != 0 {
		t.Fatalf("a worker's store reached another image: %#x, %v", v, f)
	}
}

// TestTemplateNotResidentWithoutImages checks that the canonical template
// is collected once no image uses it, and rebuilt by the next NewImage.
func TestTemplateNotResidentWithoutImages(t *testing.T) {
	NewImage()
	for range 3 {
		runtime.GC()
	}
	canonical.mu.Lock()
	resident := canonical.p.Value() != nil
	canonical.mu.Unlock()
	if resident {
		t.Fatal("the canonical template outlived every image")
	}
	if im := NewImage(); im.Space.PageCount() != canonicalPages {
		t.Fatalf("rebuilt template maps %d pages, want %d", im.Space.PageCount(), canonicalPages)
	}
}

// TestWholePageFillIsUniform checks that a Fill covering whole pages
// allocates no page data while counting and journalling every byte, and
// that the first partial store materializes the fill.
func TestWholePageFillIsUniform(t *testing.T) {
	sp := NewSpace()
	if f := sp.Map(0x10000, 3*PageSize, ProtRW); f != nil {
		t.Fatal(f)
	}
	if f := sp.Write(0x11000, []byte{1}); f != nil {
		t.Fatal(f)
	}
	sp.BeginJournal()
	if f := sp.Fill(0x10800, 2*PageSize, mallocFill); f != nil {
		t.Fatal(f)
	}
	if _, stores := sp.AccessCounts(); stores != 1+2*PageSize || sp.JournalLen() != 2*PageSize {
		t.Fatalf("stores %d, journal %d", stores, sp.JournalLen())
	}
	if pg := sp.pageOf(0x11000); pg.data != nil || pg.fill != mallocFill {
		t.Fatalf("whole-page fill left data %v, fill %#x", pg.data != nil, pg.fill)
	}
	if pg := sp.pageOf(0x10000); pg.data == nil {
		t.Fatal("a partial fill left the page uniform")
	}
	if f := sp.WriteByteAt(0x11010, 2); f != nil {
		t.Fatal(f)
	}
	got := make([]byte, 3)
	if f := sp.Read(0x1100f, got); f != nil || !reflect.DeepEqual(got, []byte{mallocFill, 2, mallocFill}) {
		t.Fatalf("after a partial store: % x, %v", got, f)
	}
	sp.RollbackJournal()
	if v, _ := sp.ReadByteAt(0x11000); v != 1 {
		t.Fatalf("rollback restored %#x, want 1", v)
	}
}
