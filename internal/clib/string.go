package clib

import (
	"math"

	"healers/internal/cmem"
	"healers/internal/cval"
)

// The string.h family. Every function walks simulated memory exactly the
// way its C counterpart walks real memory — no bounds checks, no NULL
// checks — so that invalid arguments produce the authentic fault the
// HEALERS injector is designed to observe.

func init() {
	registerImpl("strlen", cStrlen)
	registerImpl("strcpy", cStrcpy)
	registerImpl("strncpy", cStrncpy)
	registerImpl("strcat", cStrcat)
	registerImpl("strncat", cStrncat)
	registerImpl("strcmp", cStrcmp)
	registerImpl("strncmp", cStrncmp)
	registerImpl("strchr", cStrchr)
	registerImpl("strrchr", cStrrchr)
	registerImpl("strstr", cStrstr)
	registerImpl("strdup", cStrdup)
	registerImpl("strndup", cStrndup)
	registerImpl("strspn", cStrspn)
	registerImpl("strcspn", cStrcspn)
	registerImpl("strpbrk", cStrpbrk)
	registerImpl("strtok", cStrtok)
	registerImpl("strerror", cStrerror)
	registerImpl("memcpy", cMemcpy)
	registerImpl("memmove", cMemmove)
	registerImpl("memset", cMemset)
	registerImpl("memcmp", cMemcmp)
	registerImpl("memchr", cMemchr)
	registerImpl("memfrob", cMemfrob)
}

func cStrlen(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	n, f := env.Img.Space.CStrLen(arg(args, 0).Addr())
	if f != nil {
		return 0, f
	}
	return cval.Uint(uint64(n)), nil
}

// cStrcpy copies up to and including the source's NUL. Its bound,
// math.MaxUint32 bytes, never ends a copy: that many bytes from any
// address cover the unmapped NULL page.
func cStrcpy(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	dst := arg(args, 0).Addr()
	if _, _, f := env.Img.Space.Copy(dst, arg(args, 1).Addr(), math.MaxUint32, 0); f != nil {
		return 0, f
	}
	return cval.Ptr(dst), nil
}

// cStrncpy copies up to n bytes and pads with NULs to exactly n.
func cStrncpy(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	dst, n := arg(args, 0).Addr(), arg(args, 2).Uint32()
	sp := env.Img.Space
	k, _, f := sp.Copy(dst, arg(args, 1).Addr(), n, 0)
	if f == nil {
		f = sp.Fill(dst+cmem.Addr(k), n-k, 0)
	}
	if f != nil {
		return 0, f
	}
	return cval.Ptr(dst), nil
}

func cStrcat(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return strcat(env, args, math.MaxUint32)
}

func cStrncat(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return strcat(env, args, arg(args, 2).Uint32())
}

// strcat appends at most n bytes of the source string to the
// destination string and terminates it. When the copy ends on the
// source's NUL it has stored the terminator; otherwise it is stored
// after the n bytes.
func strcat(env *cval.Env, args []cval.Value, n uint32) (cval.Value, *cmem.Fault) {
	dst := arg(args, 0).Addr()
	sp := env.Img.Space
	dlen, f := sp.CStrLen(dst)
	if f != nil {
		return 0, f
	}
	end := dst + cmem.Addr(dlen)
	k, nul, f := sp.Copy(end, arg(args, 1).Addr(), n, 0)
	if f == nil && !nul {
		f = sp.WriteByteAt(end+cmem.Addr(k), 0)
	}
	if f != nil {
		return 0, f
	}
	return cval.Ptr(dst), nil
}

// cmpMode selects what compare does besides comparing bytes.
type cmpMode uint8

const (
	cmpFold cmpMode = 1 << iota // compare the bytes lowercased
	cmpStr                      // a NUL in both strings ends the comparison
)

// compare is the one comparison loop of strcmp, strncmp, memcmp,
// strcasecmp and strncasecmp: for i below n it loads a+i, then b+i, and
// answers the difference of the first pair that differs.
func compare(env *cval.Env, args []cval.Value, n uint32, mode cmpMode) (cval.Value, *cmem.Fault) {
	a, b := arg(args, 0).Addr(), arg(args, 1).Addr()
	sp := env.Img.Space
	for i := range n {
		ca, f := sp.ReadByteAt(a + cmem.Addr(i))
		if f != nil {
			return 0, f
		}
		cb, f := sp.ReadByteAt(b + cmem.Addr(i))
		if f != nil {
			return 0, f
		}
		if mode&cmpFold != 0 {
			ca, cb = lowerByte(ca), lowerByte(cb)
		}
		if ca != cb {
			return cval.Int(int64(int32(ca) - int32(cb))), nil
		}
		if ca == 0 && mode&cmpStr != 0 {
			break
		}
	}
	return cval.Int(0), nil
}

func cStrcmp(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return compare(env, args, math.MaxUint32, cmpStr)
}

func cStrncmp(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return compare(env, args, arg(args, 2).Uint32(), cmpStr)
}

func cStrchr(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	c := arg(args, 1).Byte()
	sp := env.Img.Space
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(s + i)
		if f != nil {
			return 0, f
		}
		if b == c {
			return cval.Ptr(s + i), nil
		}
		if b == 0 {
			return cval.Ptr(0), nil
		}
	}
}

func cStrrchr(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	c := arg(args, 1).Byte()
	sp := env.Img.Space
	last := cval.Ptr(0)
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(s + i)
		if f != nil {
			return 0, f
		}
		if b == c {
			last = cval.Ptr(s + i)
		}
		if b == 0 {
			return last, nil
		}
	}
}

func cStrstr(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	hay, needle := arg(args, 0).Addr(), arg(args, 1).Addr()
	sp := env.Img.Space
	nlen, f := sp.CStrLen(needle)
	if f != nil {
		return 0, f
	}
	if nlen == 0 {
		return cval.Ptr(hay), nil
	}
	nb := make([]byte, nlen)
	if f := sp.Read(needle, nb); f != nil {
		return 0, f
	}
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(hay + i)
		if f != nil {
			return 0, f
		}
		if b == 0 {
			return cval.Ptr(0), nil
		}
		if b != nb[0] {
			continue
		}
		match := true
		for j := uint32(1); j < nlen; j++ {
			hb, f := sp.ReadByteAt(hay + i + cmem.Addr(j))
			if f != nil {
				return 0, f
			}
			if hb == 0 || hb != nb[j] {
				match = false
				break
			}
		}
		if match {
			return cval.Ptr(hay + i), nil
		}
	}
}

func cStrdup(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	sp := env.Img.Space
	n, f := sp.CStrLen(s)
	if f != nil {
		return 0, f
	}
	p := env.Img.Heap.Malloc(n + 1)
	if p.IsNull() {
		env.Errno = cval.ENOMEM
		return cval.Ptr(0), nil
	}
	buf := make([]byte, n+1)
	if f := sp.Read(s, buf); f != nil {
		return 0, f
	}
	if f := sp.Write(p, buf); f != nil {
		return 0, f
	}
	return cval.Ptr(p), nil
}

func cStrndup(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	n := arg(args, 1).Uint32()
	sp := env.Img.Space
	var l uint32
	for l < n {
		b, f := sp.ReadByteAt(s + cmem.Addr(l))
		if f != nil {
			return 0, f
		}
		if b == 0 {
			break
		}
		l++
	}
	p := env.Img.Heap.Malloc(l + 1)
	if p.IsNull() {
		env.Errno = cval.ENOMEM
		return cval.Ptr(0), nil
	}
	buf := make([]byte, l)
	if f := sp.Read(s, buf); f != nil {
		return 0, f
	}
	if f := sp.Write(p, buf); f != nil {
		return 0, f
	}
	if f := sp.WriteByteAt(p+cmem.Addr(l), 0); f != nil {
		return 0, f
	}
	return cval.Ptr(p), nil
}

// readCSet reads a NUL-terminated byte set (for strspn/strcspn/strpbrk).
func readCSet(env *cval.Env, a cmem.Addr) (map[byte]bool, *cmem.Fault) {
	set := make(map[byte]bool)
	sp := env.Img.Space
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(a + i)
		if f != nil {
			return nil, f
		}
		if b == 0 {
			return set, nil
		}
		set[b] = true
	}
}

func cStrspn(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	set, f := readCSet(env, arg(args, 1).Addr())
	if f != nil {
		return 0, f
	}
	sp := env.Img.Space
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(s + i)
		if f != nil {
			return 0, f
		}
		if b == 0 || !set[b] {
			return cval.Uint(uint64(i)), nil
		}
	}
}

func cStrcspn(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	set, f := readCSet(env, arg(args, 1).Addr())
	if f != nil {
		return 0, f
	}
	sp := env.Img.Space
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(s + i)
		if f != nil {
			return 0, f
		}
		if b == 0 || set[b] {
			return cval.Uint(uint64(i)), nil
		}
	}
}

func cStrpbrk(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	set, f := readCSet(env, arg(args, 1).Addr())
	if f != nil {
		return 0, f
	}
	sp := env.Img.Space
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(s + i)
		if f != nil {
			return 0, f
		}
		if b == 0 {
			return cval.Ptr(0), nil
		}
		if set[b] {
			return cval.Ptr(s + i), nil
		}
	}
}

// strtok keeps its continuation pointer in Env.Statics; C keeps it in a
// static variable, and one Env is one process, so the mapping is faithful.
func cStrtok(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	if s.IsNull() {
		s, _ = env.Statics["strtok"].(cmem.Addr)
		if s.IsNull() {
			return cval.Ptr(0), nil
		}
	}
	set, f := readCSet(env, arg(args, 1).Addr())
	if f != nil {
		return 0, f
	}
	sp := env.Img.Space
	// Skip leading delimiters.
	for {
		b, f := sp.ReadByteAt(s)
		if f != nil {
			return 0, f
		}
		if b == 0 {
			env.Statics["strtok"] = cmem.Addr(0)
			return cval.Ptr(0), nil
		}
		if !set[b] {
			break
		}
		s++
	}
	tok := s
	for {
		b, f := sp.ReadByteAt(s)
		if f != nil {
			return 0, f
		}
		if b == 0 {
			env.Statics["strtok"] = cmem.Addr(0)
			return cval.Ptr(tok), nil
		}
		if set[b] {
			if f := sp.WriteByteAt(s, 0); f != nil {
				return 0, f
			}
			env.Statics["strtok"] = s + 1
			return cval.Ptr(tok), nil
		}
		s++
	}
}

// cStrerror materializes the message in the data segment; repeated calls
// for the same errno return the same pointer (like glibc's static table).
func cStrerror(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	e := arg(args, 0).Int32()
	cache, _ := env.Statics["strerror"].(map[int32]cmem.Addr)
	if cache == nil {
		cache = make(map[int32]cmem.Addr)
		env.Statics["strerror"] = cache
	}
	if a, ok := cache[e]; ok {
		return cval.Ptr(a), nil
	}
	a, f := env.Img.StaticString(cval.ErrnoName(e))
	if f != nil {
		return 0, f
	}
	cache[e] = a
	return cval.Ptr(a), nil
}

func cMemcpy(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	dst := arg(args, 0).Addr()
	if _, _, f := env.Img.Space.Copy(dst, arg(args, 1).Addr(), arg(args, 2).Uint32(), cmem.NoStop); f != nil {
		return 0, f
	}
	return cval.Ptr(dst), nil
}

// cMemmove copies ascending when the destination lies below the source
// and descending otherwise, so an overlapping source byte is loaded
// before it is overwritten.
func cMemmove(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	dst, src := arg(args, 0).Addr(), arg(args, 1).Addr()
	n := arg(args, 2).Uint32()
	sp := env.Img.Space
	switch {
	case dst == src || n == 0:
		// Nothing moves.
	case dst < src:
		if _, _, f := sp.Copy(dst, src, n, cmem.NoStop); f != nil {
			return 0, f
		}
	default:
		for i := n; i > 0; i-- {
			b, f := sp.ReadByteAt(src + cmem.Addr(i-1))
			if f != nil {
				return 0, f
			}
			if f := sp.WriteByteAt(dst+cmem.Addr(i-1), b); f != nil {
				return 0, f
			}
		}
	}
	return cval.Ptr(dst), nil
}

func cMemset(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	c := arg(args, 1).Byte()
	if f := env.Img.Space.Fill(s, arg(args, 2).Uint32(), c); f != nil {
		return 0, f
	}
	return cval.Ptr(s), nil
}

func cMemcmp(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return compare(env, args, arg(args, 2).Uint32(), 0)
}

func cMemchr(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	c := arg(args, 1).Byte()
	n := arg(args, 2).Uint32()
	sp := env.Img.Space
	for i := uint32(0); i < n; i++ {
		b, f := sp.ReadByteAt(s + cmem.Addr(i))
		if f != nil {
			return 0, f
		}
		if b == c {
			return cval.Ptr(s + cmem.Addr(i)), nil
		}
	}
	return cval.Ptr(0), nil
}

func cMemfrob(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	n := arg(args, 1).Uint32()
	sp := env.Img.Space
	for i := uint32(0); i < n; i++ {
		b, f := sp.ReadByteAt(s + cmem.Addr(i))
		if f != nil {
			return 0, f
		}
		if f := sp.WriteByteAt(s+cmem.Addr(i), b^42); f != nil {
			return 0, f
		}
	}
	return cval.Ptr(s), nil
}
