package cmem

import (
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	tests := []struct {
		a    Addr
		want string
	}{
		{0, "0x00000000"},
		{0xdeadbeef, "0xdeadbeef"},
		{HeapBase, "0x10000000"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("Addr(%#x).String() = %q, want %q", uint32(tt.a), got, tt.want)
		}
	}
}

func TestNullIsUnmapped(t *testing.T) {
	s := NewSpace()
	if _, f := s.ReadByteAt(0); f == nil || f.Kind != FaultSegv {
		t.Fatalf("read of NULL: fault = %v, want SIGSEGV", f)
	}
	if f := s.WriteByteAt(0, 1); f == nil || f.Kind != FaultSegv {
		t.Fatalf("write of NULL: fault = %v, want SIGSEGV", f)
	}
}

func TestMapReadWriteRoundTrip(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	want := []byte("hello, healers")
	if f := s.Write(0x1234, want); f != nil {
		t.Fatalf("Write: %v", f)
	}
	got := make([]byte, len(want))
	if f := s.Read(0x1234, got); f != nil {
		t.Fatalf("Read: %v", f)
	}
	if string(got) != string(want) {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	if f := s.Map(0x1000, PageSize, ProtRW); f == nil || f.Kind != FaultAbort {
		t.Errorf("overlapping Map: fault = %v, want SIGABRT", f)
	}
}

func TestMapRejectsWrap(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0xfffff000, 2*PageSize, ProtRW); f == nil {
		t.Error("Map wrapping the address space succeeded, want fault")
	}
}

func TestProtectionEnforced(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x2000, PageSize, ProtRead); f != nil {
		t.Fatalf("Map: %v", f)
	}
	if _, f := s.ReadByteAt(0x2000); f != nil {
		t.Errorf("read of r-- page faulted: %v", f)
	}
	if f := s.WriteByteAt(0x2000, 9); f == nil || f.Kind != FaultProt {
		t.Errorf("write to r-- page: fault = %v, want prot fault", f)
	}
	if f := s.Protect(0x2000, PageSize, ProtRW); f != nil {
		t.Fatalf("Protect: %v", f)
	}
	if f := s.WriteByteAt(0x2000, 9); f != nil {
		t.Errorf("write after Protect(rw) faulted: %v", f)
	}
}

func TestProtectUnmappedFaults(t *testing.T) {
	s := NewSpace()
	if f := s.Protect(0x5000, PageSize, ProtRW); f == nil || f.Kind != FaultSegv {
		t.Errorf("Protect of unmapped page: fault = %v, want SIGSEGV", f)
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, 2*PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	// A write straddling the page boundary.
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if f := s.Write(0x1ffc, data); f != nil {
		t.Fatalf("cross-page Write: %v", f)
	}
	got := make([]byte, 8)
	if f := s.Read(0x1ffc, got); f != nil {
		t.Fatalf("cross-page Read: %v", f)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestPartialWriteStopsAtUnmapped(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	// Writing 8 bytes starting 4 bytes before the end of the mapping
	// must fault at the first unmapped byte.
	f := s.Write(0x1ffc, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if f == nil || f.Kind != FaultSegv {
		t.Fatalf("fault = %v, want SIGSEGV", f)
	}
	if f.Addr != 0x2000 {
		t.Errorf("fault addr = %s, want 0x00002000", f.Addr)
	}
}

func TestWideAccessors(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	if f := s.WriteU32(0x1004, 0xdeadbeef); f != nil {
		t.Fatalf("WriteU32: %v", f)
	}
	if v, f := s.ReadU32(0x1004); f != nil || v != 0xdeadbeef {
		t.Errorf("ReadU32 = %#x, %v; want 0xdeadbeef", v, f)
	}
	if f := s.WriteU64(0x1008, 0x0123456789abcdef); f != nil {
		t.Fatalf("WriteU64: %v", f)
	}
	if v, f := s.ReadU64(0x1008); f != nil || v != 0x0123456789abcdef {
		t.Errorf("ReadU64 = %#x, %v; want 0x0123456789abcdef", v, f)
	}
	// Little-endian layout check.
	if b, _ := s.ReadByteAt(0x1004); b != 0xef {
		t.Errorf("low byte of u32 = %#x, want 0xef", b)
	}
}

func TestMisalignedWideAccessIsBus(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	tests := []struct {
		name string
		f    func() *Fault
	}{
		{"ReadU32", func() *Fault { _, f := s.ReadU32(0x1002); return f }},
		{"WriteU32", func() *Fault { return s.WriteU32(0x1002, 1) }},
		{"ReadU64", func() *Fault { _, f := s.ReadU64(0x1004); return f }},
		{"WriteU64", func() *Fault { return s.WriteU64(0x1004, 1) }},
	}
	for _, tt := range tests {
		if f := tt.f(); f == nil || f.Kind != FaultBus {
			t.Errorf("%s misaligned: fault = %v, want SIGBUS", tt.name, f)
		}
	}
}

func TestCStringRoundTrip(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	if f := s.WriteCString(0x1100, "robust API"); f != nil {
		t.Fatalf("WriteCString: %v", f)
	}
	got, f := s.ReadCString(0x1100, 64)
	if f != nil || got != "robust API" {
		t.Errorf("ReadCString = %q, %v", got, f)
	}
	n, f := s.CStrLen(0x1100)
	if f != nil || n != uint32(len("robust API")) {
		t.Errorf("CStrLen = %d, %v", n, f)
	}
}

func TestCStringUnterminated(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	for i := Addr(0x1000); i < 0x1000+PageSize; i++ {
		if f := s.WriteByteAt(i, 'x'); f != nil {
			t.Fatalf("fill: %v", f)
		}
	}
	// CStrLen should walk off the end of the mapping and SEGV —
	// exactly what a real strlen on an unterminated buffer does.
	if _, f := s.CStrLen(0x1000); f == nil || f.Kind != FaultSegv {
		t.Errorf("CStrLen on unterminated page: fault = %v, want SIGSEGV", f)
	}
	if _, f := s.ReadCString(0x1000, 16); f == nil {
		t.Error("ReadCString exceeded max without fault")
	}
}

func TestMappedAndMappedLen(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, 2*PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	if f := s.Map(0x4000, PageSize, ProtRead); f != nil {
		t.Fatalf("Map: %v", f)
	}
	tests := []struct {
		name string
		a    Addr
		n    uint32
		p    Prot
		want bool
	}{
		{"inside rw", 0x1800, 16, ProtRW, true},
		{"whole rw span", 0x1000, 2 * PageSize, ProtRW, true},
		{"past end", 0x2800, PageSize, ProtRW, false},
		{"ro read ok", 0x4000, 8, ProtRead, true},
		{"ro write no", 0x4000, 8, ProtWrite, false},
		{"zero size", 0x9000, 0, ProtRW, true},
		{"wraps", 0xfffffff0, 0x20, ProtRead, false},
	}
	for _, tt := range tests {
		if got := s.Mapped(tt.a, tt.n, tt.p); got != tt.want {
			t.Errorf("%s: Mapped(%s,%d,%s) = %v, want %v", tt.name, tt.a, tt.n, tt.p, got, tt.want)
		}
	}
	if n := s.MappedLen(0x1000, ProtRW, 4*PageSize); n != 2*PageSize {
		t.Errorf("MappedLen from rw base = %d, want %d", n, 2*PageSize)
	}
	if n := s.MappedLen(0x1800, ProtRW, 64); n != 64 {
		t.Errorf("MappedLen capped = %d, want 64", n)
	}
	if n := s.MappedLen(0x4000, ProtWrite, 64); n != 0 {
		t.Errorf("MappedLen write on ro = %d, want 0", n)
	}
}

func TestAccessCounts(t *testing.T) {
	s := NewSpace()
	if f := s.Map(0x1000, PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	if f := s.Write(0x1000, []byte{1, 2, 3}); f != nil {
		t.Fatalf("Write: %v", f)
	}
	var buf [2]byte
	if f := s.Read(0x1000, buf[:]); f != nil {
		t.Fatalf("Read: %v", f)
	}
	loads, stores := s.AccessCounts()
	if loads != 2 || stores != 3 {
		t.Errorf("AccessCounts = (%d,%d), want (2,3)", loads, stores)
	}
}

func TestFaultKindStrings(t *testing.T) {
	tests := []struct {
		k    FaultKind
		want string
	}{
		{FaultNone, "NONE"},
		{FaultSegv, "SIGSEGV"},
		{FaultBus, "SIGBUS"},
		{FaultProt, "SIGSEGV(prot)"},
		{FaultAbort, "SIGABRT"},
		{FaultOverflow, "OVERFLOW"},
		{FaultFPE, "SIGFPE"},
		{FaultOOM, "OOM"},
		{FaultKind(99), "FaultKind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestFaultError(t *testing.T) {
	f := segv("read1", 0x1234, "")
	if got := f.Error(); got != "SIGSEGV: read1 at 0x00001234" {
		t.Errorf("Error() = %q", got)
	}
	f = abort("free", 0x10, "double free")
	if got := f.Error(); got != "SIGABRT: free at 0x00000010: double free" {
		t.Errorf("Error() = %q", got)
	}
}

// Property: any byte sequence written within a mapping reads back intact
// regardless of offset.
func TestPropertyWriteReadIdentity(t *testing.T) {
	s := NewSpace()
	// uint16 offsets plus up to 8 pages of data need 24+ pages of room.
	if f := s.Map(0x10000, 32*PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	prop := func(off uint16, data []byte) bool {
		if len(data) > 8*PageSize {
			data = data[:8*PageSize]
		}
		a := Addr(0x10000 + uint32(off))
		if f := s.Write(a, data); f != nil {
			return false
		}
		got := make([]byte, len(data))
		if f := s.Read(a, got); f != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: 64-bit round trips preserve values at any aligned offset.
func TestPropertyU64Identity(t *testing.T) {
	s := NewSpace()
	// uint16 offsets reach 0xffff past the base; map 17 pages to cover
	// the full range plus the 8-byte access.
	if f := s.Map(0x10000, 17*PageSize, ProtRW); f != nil {
		t.Fatalf("Map: %v", f)
	}
	prop := func(off uint16, v uint64) bool {
		a := Addr(0x10000 + uint32(off)&^7)
		if f := s.WriteU64(a, v); f != nil {
			return false
		}
		got, f := s.ReadU64(a)
		return f == nil && got == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
