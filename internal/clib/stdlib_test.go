package clib

import (
	"math"
	"testing"

	"healers/internal/cmem"
	"healers/internal/cval"
)

func TestMallocFreeViaLibc(t *testing.T) {
	c := newCtx(t)
	p := c.call("malloc", cval.Uint(100))
	if p.IsNull() {
		t.Fatal("malloc returned NULL")
	}
	if base, sz, ok := c.env.Img.Heap.ChunkRange(p.Addr()); !ok || base != p.Addr() || sz != 100 {
		t.Errorf("ChunkRange = %s,%d,%v", base, sz, ok)
	}
	c.call("free", p)
	if c.env.Img.Heap.InUse(p.Addr()) {
		t.Error("chunk still live after free")
	}
	// Double free aborts — the injector sees SIGABRT.
	if _, f := c.tryCall("free", p); f == nil || f.Kind != cmem.FaultAbort {
		t.Errorf("double free: fault = %v, want SIGABRT", f)
	}
}

func TestCalloc(t *testing.T) {
	c := newCtx(t)
	p := c.call("calloc", cval.Uint(4), cval.Uint(8))
	if p.IsNull() {
		t.Fatal("calloc returned NULL")
	}
	for i := cmem.Addr(0); i < 32; i++ {
		b, f := c.env.Img.Space.ReadByteAt(p.Addr() + i)
		if f != nil {
			t.Fatalf("read: %v", f)
		}
		if b != 0 {
			t.Fatalf("calloc byte %d = %#x, want 0", i, b)
		}
	}
	// Multiplication overflow returns NULL, not a tiny allocation.
	q := c.call("calloc", cval.Uint(0x10000), cval.Uint(0x10000))
	if !q.IsNull() {
		t.Errorf("calloc overflow = %s, want NULL", q.Addr())
	}
	if c.env.Errno != cval.ENOMEM {
		t.Errorf("errno = %d, want ENOMEM", c.env.Errno)
	}
}

func TestReallocViaLibc(t *testing.T) {
	c := newCtx(t)
	p := c.call("malloc", cval.Uint(8))
	c.env.Img.Space.WriteCString(p.Addr(), "1234567")
	q := c.call("realloc", p, cval.Uint(64))
	if q.IsNull() {
		t.Fatal("realloc returned NULL")
	}
	if got := c.readStr(q); got != "1234567" {
		t.Errorf("data after realloc = %q", got)
	}
}

func TestAtoiFamily(t *testing.T) {
	c := newCtx(t)
	tests := []struct {
		s    string
		want int32
	}{
		{"0", 0},
		{"42", 42},
		{"-17", -17},
		{"+99", 99},
		{"   123", 123},
		{"12abc", 12},
		{"abc", 0},
		{"", 0},
		{"2147483647", math.MaxInt32},
	}
	for _, tt := range tests {
		if got := c.call("atoi", c.str(tt.s)).Int32(); got != tt.want {
			t.Errorf("atoi(%q) = %d, want %d", tt.s, got, tt.want)
		}
	}
	if _, f := c.tryCall("atoi", cval.Ptr(0)); f == nil {
		t.Error("atoi(NULL) did not fault")
	}
	if got := c.call("atoll", c.str("9999999999")).Int(); got != 9999999999 {
		t.Errorf("atoll = %d", got)
	}
}

func TestAtof(t *testing.T) {
	c := newCtx(t)
	tests := []struct {
		s    string
		want float64
	}{
		{"0", 0},
		{"3.5", 3.5},
		{"-2.25", -2.25},
		{"1e3", 1000},
		{"2.5e-2", 0.025},
	}
	for _, tt := range tests {
		bits := uint64(c.call("atof", c.str(tt.s)))
		got := math.Float64frombits(bits)
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("atof(%q) = %g, want %g", tt.s, got, tt.want)
		}
	}
}

func TestStrtol(t *testing.T) {
	c := newCtx(t)
	endp := c.buf(8)
	s := c.str("  -0x1A rest")
	got := c.call("strtol", s, endp, cval.Int(0)).Int32()
	if got != -26 {
		t.Errorf("strtol = %d, want -26", got)
	}
	end, _ := c.env.Img.Space.ReadU32(endp.Addr())
	if cmem.Addr(end) != s.Addr()+7 {
		t.Errorf("endptr = %#x, want %s", end, s.Addr()+7)
	}
	// Base 8 from leading 0.
	if got := c.call("strtol", c.str("017"), cval.Ptr(0), cval.Int(0)).Int32(); got != 15 {
		t.Errorf("strtol octal = %d, want 15", got)
	}
	// Explicit base 16 without prefix.
	if got := c.call("strtol", c.str("ff"), cval.Ptr(0), cval.Int(16)).Int32(); got != 255 {
		t.Errorf("strtol base16 = %d, want 255", got)
	}
	// Invalid base sets EINVAL.
	c.env.Errno = 0
	c.call("strtol", c.str("5"), cval.Ptr(0), cval.Int(1))
	if c.env.Errno != cval.EINVAL {
		t.Errorf("errno = %d, want EINVAL", c.env.Errno)
	}
	// Overflow clamps with ERANGE.
	c.env.Errno = 0
	if got := c.call("strtol", c.str("99999999999"), cval.Ptr(0), cval.Int(10)).Int32(); got != math.MaxInt32 {
		t.Errorf("strtol overflow = %d, want INT_MAX", got)
	}
	if c.env.Errno != cval.ERANGE {
		t.Errorf("errno = %d, want ERANGE", c.env.Errno)
	}
	// No digits: endptr points back at nptr.
	s2 := c.str("xyz")
	c.call("strtol", s2, endp, cval.Int(10))
	end, _ = c.env.Img.Space.ReadU32(endp.Addr())
	if cmem.Addr(end) != s2.Addr() {
		t.Errorf("no-digit endptr = %#x, want %s", end, s2.Addr())
	}
	// Writing through a wild endptr faults — the ptr_out hazard.
	if _, f := c.tryCall("strtol", c.str("5"), cval.Ptr(0xdeadbee0), cval.Int(10)); f == nil {
		t.Error("strtol with wild endptr did not fault")
	}
}

func TestStrtoul(t *testing.T) {
	c := newCtx(t)
	if got := c.call("strtoul", c.str("4294967295"), cval.Ptr(0), cval.Int(10)).Uint32(); got != math.MaxUint32 {
		t.Errorf("strtoul max = %d", got)
	}
	// Negation wraps in unsigned arithmetic.
	if got := c.call("strtoul", c.str("-1"), cval.Ptr(0), cval.Int(10)).Uint32(); got != math.MaxUint32 {
		t.Errorf("strtoul(-1) = %d, want UINT_MAX", got)
	}
}

func TestAbsFamily(t *testing.T) {
	c := newCtx(t)
	tests := []struct {
		in   int64
		want int64
	}{
		{5, 5}, {-5, 5}, {0, 0}, {math.MinInt32, math.MinInt32},
	}
	for _, tt := range tests {
		if got := int64(c.call("abs", cval.Int(tt.in)).Int32()); got != tt.want {
			t.Errorf("abs(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
	if got := c.call("llabs", cval.Int(-(1 << 40))).Int(); got != 1<<40 {
		t.Errorf("llabs = %d", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	c := newCtx(t)
	c.call("srand", cval.Uint(7))
	a := c.call("rand").Int32()
	b := c.call("rand").Int32()
	c.call("srand", cval.Uint(7))
	if got := c.call("rand").Int32(); got != a {
		t.Errorf("rand after re-seed = %d, want %d", got, a)
	}
	if got := c.call("rand").Int32(); got != b {
		t.Errorf("second rand = %d, want %d", got, b)
	}
	if a < 0 || b < 0 {
		t.Error("rand returned negative")
	}
}

func TestQsortAndBsearch(t *testing.T) {
	c := newCtx(t)
	// An array of 8 uint32 values, sorted via a registered comparator.
	base := c.buf(32)
	vals := []uint32{42, 7, 99, 1, 56, 7, 0, 13}
	for i, v := range vals {
		c.env.Img.Space.WriteU32(base.Addr()+cmem.Addr(i*4), v)
	}
	cmp := c.env.RegisterText("cmp_u32", func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		a, f := env.Img.Space.ReadU32(args[0].Addr())
		if f != nil {
			return 0, f
		}
		b, f := env.Img.Space.ReadU32(args[1].Addr())
		if f != nil {
			return 0, f
		}
		return cval.Int(int64(int32(a)) - int64(int32(b))), nil
	})
	c.call("qsort", base, cval.Uint(8), cval.Uint(4), cval.Ptr(cmp))
	want := []uint32{0, 1, 7, 7, 13, 42, 56, 99}
	for i, w := range want {
		got, _ := c.env.Img.Space.ReadU32(base.Addr() + cmem.Addr(i*4))
		if got != w {
			t.Errorf("sorted[%d] = %d, want %d", i, got, w)
		}
	}
	// bsearch finds present and rejects absent keys.
	key := c.buf(4)
	c.env.Img.Space.WriteU32(key.Addr(), 13)
	got := c.call("bsearch", key, base, cval.Uint(8), cval.Uint(4), cval.Ptr(cmp))
	if got.IsNull() {
		t.Fatal("bsearch did not find 13")
	}
	v, _ := c.env.Img.Space.ReadU32(got.Addr())
	if v != 13 {
		t.Errorf("bsearch found %d", v)
	}
	c.env.Img.Space.WriteU32(key.Addr(), 1000)
	if got := c.call("bsearch", key, base, cval.Uint(8), cval.Uint(4), cval.Ptr(cmp)); !got.IsNull() {
		t.Error("bsearch found absent key")
	}
	// qsort with a garbage comparator is a SIGSEGV — the func_ptr chain.
	if _, f := c.tryCall("qsort", base, cval.Uint(8), cval.Uint(4), cval.Ptr(0x123)); f == nil || f.Kind != cmem.FaultSegv {
		t.Errorf("qsort with wild comparator: fault = %v, want SIGSEGV", f)
	}
}

func TestExitRunsAtexitHandlers(t *testing.T) {
	c := newCtx(t)
	var order []string
	h1 := c.env.RegisterText("h1", func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		order = append(order, "h1")
		return 0, nil
	})
	h2 := c.env.RegisterText("h2", func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		order = append(order, "h2")
		return 0, nil
	})
	c.call("atexit", cval.Ptr(h1))
	c.call("atexit", cval.Ptr(h2))
	c.call("exit", cval.Int(5))
	if !c.env.Exited || c.env.Status != 5 {
		t.Fatalf("Exited=%v Status=%d", c.env.Exited, c.env.Status)
	}
	if len(order) != 2 || order[0] != "h2" || order[1] != "h1" {
		t.Errorf("atexit order = %v, want [h2 h1] (reverse registration)", order)
	}
}

func TestAbort(t *testing.T) {
	c := newCtx(t)
	if _, f := c.tryCall("abort"); f == nil || f.Kind != cmem.FaultAbort {
		t.Errorf("abort: fault = %v, want SIGABRT", f)
	}
}

func TestGetenvSetenv(t *testing.T) {
	c := newCtx(t)
	if got := c.call("getenv", c.str("HOME")); !got.IsNull() {
		t.Error("getenv unset should be NULL")
	}
	if got := c.call("setenv", c.str("HOME"), c.str("/root"), cval.Int(1)).Int32(); got != 0 {
		t.Errorf("setenv = %d", got)
	}
	v := c.call("getenv", c.str("HOME"))
	if c.readStr(v) != "/root" {
		t.Errorf("getenv = %q", c.readStr(v))
	}
	// overwrite=0 keeps the old value.
	c.call("setenv", c.str("HOME"), c.str("/other"), cval.Int(0))
	if got := c.readStr(c.call("getenv", c.str("HOME"))); got != "/root" {
		t.Errorf("after no-overwrite setenv = %q", got)
	}
	// Empty name is EINVAL.
	c.env.Errno = 0
	if got := c.call("setenv", c.str(""), c.str("x"), cval.Int(1)).Int32(); got != -1 || c.env.Errno != cval.EINVAL {
		t.Errorf("setenv empty name = %d errno %d", got, c.env.Errno)
	}
	c.call("unsetenv", c.str("HOME"))
	if got := c.call("getenv", c.str("HOME")); !got.IsNull() {
		t.Error("getenv after unsetenv should be NULL")
	}
}

func TestSystemRecordsShell(t *testing.T) {
	c := newCtx(t)
	if c.env.ShellSpawned {
		t.Fatal("fresh env claims shell spawned")
	}
	c.call("system", c.str("/bin/sh"))
	if !c.env.ShellSpawned {
		t.Error("system did not record shell spawn")
	}
}

func TestAtolAndLabs(t *testing.T) {
	c := newCtx(t)
	if got := c.call("atol", c.str("-31337")).Int32(); got != -31337 {
		t.Errorf("atol = %d", got)
	}
	if got := c.call("labs", cval.Int(-9)).Int32(); got != 9 {
		t.Errorf("labs = %d", got)
	}
}

func TestStrtoulEdgeCases(t *testing.T) {
	c := newCtx(t)
	// Hex with prefix under base 0.
	if got := c.call("strtoul", c.str("0x1f"), cval.Ptr(0), cval.Int(0)).Uint32(); got != 31 {
		t.Errorf("strtoul 0x1f = %d", got)
	}
	// Overflow clamps with ERANGE.
	c.env.Errno = 0
	if got := c.call("strtoul", c.str("99999999999"), cval.Ptr(0), cval.Int(10)).Uint32(); got != math.MaxUint32 {
		t.Errorf("strtoul overflow = %d", got)
	}
	if c.env.Errno != cval.ERANGE {
		t.Errorf("errno = %d, want ERANGE", c.env.Errno)
	}
	// Invalid base.
	c.env.Errno = 0
	c.call("strtoul", c.str("1"), cval.Ptr(0), cval.Int(99))
	if c.env.Errno != cval.EINVAL {
		t.Errorf("errno = %d, want EINVAL", c.env.Errno)
	}
	// endptr write.
	endp := c.buf(8)
	s := c.str("42;")
	c.call("strtoul", s, endp, cval.Int(10))
	end, _ := c.env.Img.Space.ReadU32(endp.Addr())
	if cmem.Addr(end) != s.Addr()+2 {
		t.Errorf("endptr = %#x", end)
	}
}

func TestAsLibraryExportsEverything(t *testing.T) {
	reg := MustRegistry()
	lib := reg.AsLibrary()
	if lib.Soname != LibcSoname {
		t.Errorf("soname = %q", lib.Soname)
	}
	if lib.NumSymbols() != reg.Len() {
		t.Errorf("library exports %d of %d functions", lib.NumSymbols(), reg.Len())
	}
	for _, n := range reg.Names() {
		if lib.Proto(n) == nil {
			t.Errorf("%s exported without prototype", n)
		}
	}
}
