package clib

import (
	"fmt"
	"hash/fnv"
	"testing"

	"healers/internal/cmem"
	"healers/internal/cval"
)

// The arena the access-exactness table runs in, above the heap limit and
// below the stack:
//
//	arena+0x0000  read-write, lowercase pattern ("cat:" at +0x100)
//	arena+0x1000  read-write, mixed-case pattern (s1 at +0x100, s2 at
//	              +0x200, "0123456789" at +0xff0, ending 6 bytes
//	              before the read-only page)
//	arena+0x2000  read-only, mixed-case pattern: no NUL up to the hole
//	arena+0x3000  unmapped
//	arena+0x4000  read-write, mixed-case pattern, two pages
//	arena+0x6000  unmapped
//
// Every pattern byte depends only on its page offset, so runs at the same
// offset of two pages compare equal (case-folded across the lowercase
// page) until one of them reaches a page that faults.
const arena cmem.Addr = 0x50000000

const (
	pLower  = arena
	pMixed  = arena + 0x1000
	pRO     = arena + 0x2000
	pMixed2 = arena + 0x4000
	s1      = pMixed + 0x100 // "Hello, World"
	s2      = pMixed + 0x200 // "hello, worlD!"
	catDst  = pLower + 0x100 // "cat:"
	edgeDst = pMixed + 0xff0 // "0123456789"
	noNul   = pRO + 0xff0    // 16 readable bytes, no NUL, then the hole
)

func lowerPattern(off int) byte { return 'a' + byte(off%26) }

func mixedPattern(off int) byte {
	if off%2 == 0 {
		return 'A' + byte(off%26)
	}
	return lowerPattern(off)
}

// newArenaEnv maps and fills the arena in a fresh environment.
func newArenaEnv(t *testing.T) *cval.Env {
	t.Helper()
	env := cval.NewEnv()
	sp := env.Img.Space
	pages := []struct {
		base    cmem.Addr
		size    uint32
		pattern func(int) byte
	}{
		{pLower, cmem.PageSize, lowerPattern},
		{pMixed, cmem.PageSize, mixedPattern},
		{pRO, cmem.PageSize, mixedPattern},
		{pMixed2, 2 * cmem.PageSize, mixedPattern},
	}
	for _, pg := range pages {
		if f := sp.Map(pg.base, pg.size, cmem.ProtRW); f != nil {
			t.Fatal(f)
		}
		b := make([]byte, pg.size)
		for i := range b {
			b[i] = pg.pattern(i % cmem.PageSize)
		}
		if f := sp.Write(pg.base, b); f != nil {
			t.Fatal(f)
		}
	}
	for a, s := range map[cmem.Addr]string{s1: "Hello, World", s2: "hello, worlD!", catDst: "cat:", edgeDst: "0123456789"} {
		if f := sp.WriteCString(a, s); f != nil {
			t.Fatal(f)
		}
	}
	if f := sp.Protect(pRO, cmem.PageSize, cmem.ProtRead); f != nil {
		t.Fatal(f)
	}
	return env
}

// arenaDigest hashes every mapped arena byte.
func arenaDigest(t *testing.T, sp *cmem.Space) uint32 {
	t.Helper()
	h := fnv.New32a()
	for _, r := range [][2]cmem.Addr{{pLower, pRO + cmem.PageSize}, {pMixed2, pMixed2 + 2*cmem.PageSize}} {
		b := make([]byte, r[1]-r[0])
		if f := sp.Read(r[0], b); f != nil {
			t.Fatal(f)
		}
		h.Write(b)
	}
	return h.Sum32()
}

// TestCopyCompareAccessExact pins, for every libc body that copies or
// compares two ranges, the observable effect of its access loop: the
// return value, the fault (kind, op and address), the fuel left, the
// load, store and journal counts, and a digest of the resulting memory.
// Each case runs in a fresh arena under an armed journal. The expected
// lines were recorded from the byte-at-a-time loops each body had before
// it went through Space.Copy or the shared compare loop.
func TestCopyCompareAccessExact(t *testing.T) {
	p, u, c := cval.Ptr, cval.Uint, func(b byte) cval.Value { return cval.Int(int64(b)) }
	cases := []struct {
		name string
		fn   string
		fuel int64
		args []cval.Value
		want string
	}{
		{"ok", "strcpy", -1, []cval.Value{p(catDst), p(s1)}, "ret=0x50000100 fault=- fuel=-1 loads=13 stores=13 journal=13 mem=0f8d3e1a"},
		{"src-fault", "strcpy", -1, []cval.Value{p(catDst), p(noNul)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=16 stores=16 journal=16 mem=62c6287b"},
		{"dst-fault", "strcpy", -1, []cval.Value{p(edgeDst + 10), p(s1)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=7 stores=6 journal=6 mem=b5aa5cea"},
		{"fuel", "strcpy", 11, []cval.Value{p(catDst), p(s1)}, "ret=0x0 fault=HANG/write1@0x50000105 fuel=0 loads=6 stores=5 journal=5 mem=04f9105e"},

		{"ok", "stpcpy", -1, []cval.Value{p(catDst), p(s1)}, "ret=0x5000010c fault=- fuel=-1 loads=13 stores=13 journal=13 mem=0f8d3e1a"},
		{"src-fault", "stpcpy", -1, []cval.Value{p(catDst), p(noNul)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=16 stores=16 journal=16 mem=62c6287b"},
		{"dst-fault", "stpcpy", -1, []cval.Value{p(edgeDst + 10), p(s1)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=7 stores=6 journal=6 mem=b5aa5cea"},
		{"fuel", "stpcpy", 11, []cval.Value{p(catDst), p(s1)}, "ret=0x0 fault=HANG/write1@0x50000105 fuel=0 loads=6 stores=5 journal=5 mem=04f9105e"},

		{"ok", "strcat", -1, []cval.Value{p(catDst), p(s1)}, "ret=0x50000100 fault=- fuel=-1 loads=18 stores=13 journal=13 mem=bf68a254"},
		{"src-fault", "strcat", -1, []cval.Value{p(catDst), p(noNul)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=21 stores=16 journal=16 mem=cb7a7a0d"},
		{"dst-fault", "strcat", -1, []cval.Value{p(edgeDst), p(s1)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=18 stores=6 journal=6 mem=b5aa5cea"},
		{"fuel", "strcat", 16, []cval.Value{p(catDst), p(s1)}, "ret=0x0 fault=HANG/write1@0x50000109 fuel=0 loads=11 stores=5 journal=5 mem=c03cbacc"},

		{"ok", "strncat", -1, []cval.Value{p(catDst), p(s1), u(20)}, "ret=0x50000100 fault=- fuel=-1 loads=18 stores=13 journal=13 mem=bf68a254"},
		{"short", "strncat", -1, []cval.Value{p(catDst), p(s1), u(5)}, "ret=0x50000100 fault=- fuel=-1 loads=10 stores=6 journal=6 mem=e29fa276"},
		{"n0", "strncat", -1, []cval.Value{p(catDst), p(s1), u(0)}, "ret=0x50000100 fault=- fuel=-1 loads=5 stores=1 journal=1 mem=f90fd504"},
		{"src-fault", "strncat", -1, []cval.Value{p(catDst), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=21 stores=16 journal=16 mem=cb7a7a0d"},
		{"dst-fault", "strncat", -1, []cval.Value{p(edgeDst), p(s1), u(20)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=18 stores=6 journal=6 mem=b5aa5cea"},
		{"nul-dst-fault", "strncat", -1, []cval.Value{p(edgeDst), p(s1), u(6)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=17 stores=6 journal=6 mem=b5aa5cea"},
		{"fuel", "strncat", 16, []cval.Value{p(catDst), p(s1), u(20)}, "ret=0x0 fault=HANG/write1@0x50000109 fuel=0 loads=11 stores=5 journal=5 mem=c03cbacc"},

		{"ok", "strncpy", -1, []cval.Value{p(catDst), p(s1), u(20)}, "ret=0x50000100 fault=- fuel=-1 loads=13 stores=20 journal=20 mem=d91d6c13"},
		{"short", "strncpy", -1, []cval.Value{p(catDst), p(s1), u(5)}, "ret=0x50000100 fault=- fuel=-1 loads=5 stores=5 journal=5 mem=04f9105e"},
		{"n0", "strncpy", -1, []cval.Value{p(catDst), p(s1), u(0)}, "ret=0x50000100 fault=- fuel=-1 loads=0 stores=0 journal=0 mem=f90fd504"},
		{"src-fault", "strncpy", -1, []cval.Value{p(catDst), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=16 stores=16 journal=16 mem=62c6287b"},
		{"dst-fault", "strncpy", -1, []cval.Value{p(edgeDst + 10), p(s1), u(20)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=7 stores=6 journal=6 mem=b5aa5cea"},
		{"pad-fault", "strncpy", -1, []cval.Value{p(edgeDst), p(s1), u(20)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=13 stores=16 journal=16 mem=ac073719"},
		{"fuel", "strncpy", 11, []cval.Value{p(catDst), p(s1), u(20)}, "ret=0x0 fault=HANG/write1@0x50000105 fuel=0 loads=6 stores=5 journal=5 mem=04f9105e"},
		{"pad-fuel", "strncpy", 28, []cval.Value{p(catDst), p(s1), u(20)}, "ret=0x0 fault=HANG/write1@0x5000010f fuel=0 loads=13 stores=15 journal=15 mem=1f1329ff"},

		{"ok", "memcpy", -1, []cval.Value{p(catDst), p(s1), u(20)}, "ret=0x50000100 fault=- fuel=-1 loads=20 stores=20 journal=20 mem=b70984ba"},
		{"n0", "memcpy", -1, []cval.Value{p(catDst), p(s1), u(0)}, "ret=0x50000100 fault=- fuel=-1 loads=0 stores=0 journal=0 mem=f90fd504"},
		{"src-fault", "memcpy", -1, []cval.Value{p(catDst), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=16 stores=16 journal=16 mem=62c6287b"},
		{"dst-fault", "memcpy", -1, []cval.Value{p(edgeDst + 10), p(s1), u(20)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=7 stores=6 journal=6 mem=b5aa5cea"},
		{"fuel", "memcpy", 11, []cval.Value{p(catDst), p(s1), u(20)}, "ret=0x0 fault=HANG/write1@0x50000105 fuel=0 loads=6 stores=5 journal=5 mem=04f9105e"},

		{"up-overlap", "memmove", -1, []cval.Value{p(s1), p(s1 + 4), u(9)}, "ret=0x50001100 fault=- fuel=-1 loads=9 stores=9 journal=9 mem=ce1ed06d"},
		{"down-overlap", "memmove", -1, []cval.Value{p(s1 + 4), p(s1), u(9)}, "ret=0x50001104 fault=- fuel=-1 loads=9 stores=9 journal=9 mem=0974ae25"},
		{"same", "memmove", -1, []cval.Value{p(s1), p(s1), u(9)}, "ret=0x50001100 fault=- fuel=-1 loads=0 stores=0 journal=0 mem=f90fd504"},
		{"up-src-fault", "memmove", -1, []cval.Value{p(catDst), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=16 stores=16 journal=16 mem=62c6287b"},
		{"down-src-fault", "memmove", -1, []cval.Value{p(pMixed2 + 0xff0), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x5000300f fuel=-1 loads=0 stores=0 journal=0 mem=f90fd504"},
		{"up-dst-fault", "memmove", -1, []cval.Value{p(edgeDst + 10), p(pMixed2), u(20)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=7 stores=6 journal=6 mem=db1ad849"},
		{"down-dst-fault", "memmove", -1, []cval.Value{p(edgeDst), p(s1), u(32)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x5000200f fuel=-1 loads=1 stores=0 journal=0 mem=f90fd504"},
		{"up-fuel", "memmove", 11, []cval.Value{p(s1), p(s1 + 4), u(9)}, "ret=0x0 fault=HANG/write1@0x50001105 fuel=0 loads=6 stores=5 journal=5 mem=36b8bcb5"},
		{"down-fuel", "memmove", 11, []cval.Value{p(s1 + 4), p(s1), u(9)}, "ret=0x0 fault=HANG/write1@0x50001107 fuel=0 loads=6 stores=5 journal=5 mem=46b0adbc"},

		{"stop", "memccpy", -1, []cval.Value{p(catDst), p(s1), c(','), u(20)}, "ret=0x50000106 fault=- fuel=-1 loads=6 stores=6 journal=6 mem=2b374664"},
		{"no-stop", "memccpy", -1, []cval.Value{p(catDst), p(s1), c('#'), u(8)}, "ret=0x0 fault=- fuel=-1 loads=8 stores=8 journal=8 mem=24a11272"},
		{"src-fault", "memccpy", -1, []cval.Value{p(catDst), p(noNul), c('#'), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=16 stores=16 journal=16 mem=62c6287b"},
		{"dst-fault", "memccpy", -1, []cval.Value{p(edgeDst + 10), p(s1), c('#'), u(20)}, "ret=0x0 fault=SIGSEGV(prot)/write1@0x50002000 fuel=-1 loads=7 stores=6 journal=6 mem=b5aa5cea"},
		{"fuel", "memccpy", 11, []cval.Value{p(catDst), p(s1), c(','), u(20)}, "ret=0x0 fault=HANG/write1@0x50000105 fuel=0 loads=6 stores=5 journal=5 mem=04f9105e"},

		{"differ", "strcmp", -1, []cval.Value{p(s1), p(s2)}, "ret=0xffffffffffffffe0 fault=- fuel=-1 loads=2 stores=0 journal=0 mem=f90fd504"},
		{"equal", "strcmp", -1, []cval.Value{p(s1), p(s1)}, "ret=0x0 fault=- fuel=-1 loads=26 stores=0 journal=0 mem=f90fd504"},
		{"a-fault", "strcmp", -1, []cval.Value{p(noNul), p(pMixed2 + 0xff0)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=32 stores=0 journal=0 mem=f90fd504"},
		{"b-fault", "strcmp", -1, []cval.Value{p(pMixed2 + 0xff0), p(noNul)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=33 stores=0 journal=0 mem=f90fd504"},
		{"fuel", "strcmp", 9, []cval.Value{p(s1), p(s1)}, "ret=0x0 fault=HANG/read1@0x50001104 fuel=0 loads=9 stores=0 journal=0 mem=f90fd504"},

		{"differ", "strncmp", -1, []cval.Value{p(s1 + 1), p(s2 + 1), u(20)}, "ret=0xffffffffffffffe0 fault=- fuel=-1 loads=14 stores=0 journal=0 mem=f90fd504"},
		{"prefix", "strncmp", -1, []cval.Value{p(s1 + 1), p(s2 + 1), u(5)}, "ret=0x0 fault=- fuel=-1 loads=10 stores=0 journal=0 mem=f90fd504"},
		{"n0", "strncmp", -1, []cval.Value{p(s1), p(s2), u(0)}, "ret=0x0 fault=- fuel=-1 loads=0 stores=0 journal=0 mem=f90fd504"},
		{"a-fault", "strncmp", -1, []cval.Value{p(noNul), p(pMixed2 + 0xff0), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=32 stores=0 journal=0 mem=f90fd504"},
		{"b-fault", "strncmp", -1, []cval.Value{p(pMixed2 + 0xff0), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=33 stores=0 journal=0 mem=f90fd504"},
		{"fuel", "strncmp", 9, []cval.Value{p(s1), p(s1), u(20)}, "ret=0x0 fault=HANG/read1@0x50001104 fuel=0 loads=9 stores=0 journal=0 mem=f90fd504"},

		{"differ", "memcmp", -1, []cval.Value{p(s1 + 1), p(s2 + 1), u(20)}, "ret=0xffffffffffffffe0 fault=- fuel=-1 loads=14 stores=0 journal=0 mem=f90fd504"},
		{"past-nul", "memcmp", -1, []cval.Value{p(s1), p(s1), u(20)}, "ret=0x0 fault=- fuel=-1 loads=40 stores=0 journal=0 mem=f90fd504"},
		{"n0", "memcmp", -1, []cval.Value{p(s1), p(s2), u(0)}, "ret=0x0 fault=- fuel=-1 loads=0 stores=0 journal=0 mem=f90fd504"},
		{"a-fault", "memcmp", -1, []cval.Value{p(noNul), p(pMixed2 + 0xff0), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=32 stores=0 journal=0 mem=f90fd504"},
		{"b-fault", "memcmp", -1, []cval.Value{p(pMixed2 + 0xff0), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=33 stores=0 journal=0 mem=f90fd504"},
		{"fuel", "memcmp", 9, []cval.Value{p(s1), p(s1), u(20)}, "ret=0x0 fault=HANG/read1@0x50001104 fuel=0 loads=9 stores=0 journal=0 mem=f90fd504"},

		{"differ", "strcasecmp", -1, []cval.Value{p(s1), p(s2)}, "ret=0xffffffffffffffdf fault=- fuel=-1 loads=26 stores=0 journal=0 mem=f90fd504"},
		{"equal", "strcasecmp", -1, []cval.Value{p(s2), p(s2)}, "ret=0x0 fault=- fuel=-1 loads=28 stores=0 journal=0 mem=f90fd504"},
		{"a-fault", "strcasecmp", -1, []cval.Value{p(noNul), p(pLower + 0xff0)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=32 stores=0 journal=0 mem=f90fd504"},
		{"b-fault", "strcasecmp", -1, []cval.Value{p(pLower + 0xff0), p(noNul)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=33 stores=0 journal=0 mem=f90fd504"},
		{"fuel", "strcasecmp", 9, []cval.Value{p(s1), p(s2)}, "ret=0x0 fault=HANG/read1@0x50001204 fuel=0 loads=9 stores=0 journal=0 mem=f90fd504"},

		{"differ", "strncasecmp", -1, []cval.Value{p(s1), p(s2), u(20)}, "ret=0xffffffffffffffdf fault=- fuel=-1 loads=26 stores=0 journal=0 mem=f90fd504"},
		{"prefix", "strncasecmp", -1, []cval.Value{p(s1), p(s2), u(12)}, "ret=0x0 fault=- fuel=-1 loads=24 stores=0 journal=0 mem=f90fd504"},
		{"n0", "strncasecmp", -1, []cval.Value{p(s1), p(s2), u(0)}, "ret=0x0 fault=- fuel=-1 loads=0 stores=0 journal=0 mem=f90fd504"},
		{"a-fault", "strncasecmp", -1, []cval.Value{p(noNul), p(pLower + 0xff0), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=32 stores=0 journal=0 mem=f90fd504"},
		{"b-fault", "strncasecmp", -1, []cval.Value{p(pLower + 0xff0), p(noNul), u(32)}, "ret=0x0 fault=SIGSEGV/read1@0x50003000 fuel=-1 loads=33 stores=0 journal=0 mem=f90fd504"},
		{"fuel", "strncasecmp", 9, []cval.Value{p(s1), p(s2), u(20)}, "ret=0x0 fault=HANG/read1@0x50001204 fuel=0 loads=9 stores=0 journal=0 mem=f90fd504"},
	}
	reg := MustRegistry()
	for _, tc := range cases {
		t.Run(tc.fn+"/"+tc.name, func(t *testing.T) {
			env := newArenaEnv(t)
			sp := env.Img.Space
			b, ok := reg.Lookup(tc.fn)
			if !ok {
				t.Fatalf("no such function %s", tc.fn)
			}
			loads0, stores0 := sp.AccessCounts()
			sp.BeginJournal()
			sp.SetFuel(tc.fuel)
			v, f := b.Fn(env, tc.args)
			fuel := sp.Fuel()
			loads, stores := sp.AccessCounts()
			sp.SetFuel(-1)
			fault := "-"
			if f != nil {
				fault = fmt.Sprintf("%v/%s@%s", f.Kind, f.Op, f.Addr)
			}
			got := fmt.Sprintf("ret=%#x fault=%s fuel=%d loads=%d stores=%d journal=%d mem=%08x",
				uint64(v), fault, fuel, loads-loads0, stores-stores0, sp.JournalLen(), arenaDigest(t, sp))
			if got != tc.want {
				t.Errorf("\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
