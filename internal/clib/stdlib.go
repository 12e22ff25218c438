package clib

import (
	"math"

	"healers/internal/cmem"
	"healers/internal/cval"
)

// The stdlib.h family: allocation, numeric conversion, sorting, process
// control, environment access.

func init() {
	registerImpl("malloc", cMalloc)
	registerImpl("calloc", cCalloc)
	registerImpl("realloc", cRealloc)
	registerImpl("free", cFree)
	registerImpl("atoi", cAtoi)
	registerImpl("atol", cAtol)
	registerImpl("atoll", cAtoll)
	registerImpl("atof", cAtof)
	registerImpl("strtol", cStrtol)
	registerImpl("strtoul", cStrtoul)
	registerImpl("abs", cAbs)
	registerImpl("labs", cLabs)
	registerImpl("llabs", cLlabs)
	registerImpl("rand", cRand)
	registerImpl("srand", cSrand)
	registerImpl("qsort", cQsort)
	registerImpl("bsearch", cBsearch)
	registerImpl("exit", cExit)
	registerImpl("abort", cAbort)
	registerImpl("getenv", cGetenv)
	registerImpl("setenv", cSetenv)
	registerImpl("unsetenv", cUnsetenv)
	registerImpl("atexit", cAtexit)
	registerImpl("system", cSystem)
}

func cMalloc(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	p := env.Img.Heap.Malloc(arg(args, 0).Uint32())
	if p.IsNull() {
		env.Errno = cval.ENOMEM
	}
	return cval.Ptr(p), nil
}

func cCalloc(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	nmemb, size := arg(args, 0).Uint32(), arg(args, 1).Uint32()
	if size != 0 && nmemb > 0xffffffff/size {
		// Multiplication overflow: modern calloc returns NULL.
		env.Errno = cval.ENOMEM
		return cval.Ptr(0), nil
	}
	total := nmemb * size
	p := env.Img.Heap.Malloc(total)
	if p.IsNull() {
		env.Errno = cval.ENOMEM
		return cval.Ptr(0), nil
	}
	if f := env.Img.Space.Fill(p, total, 0); f != nil {
		return 0, f
	}
	return cval.Ptr(p), nil
}

func cRealloc(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	p, f := env.Img.Heap.Realloc(arg(args, 0).Addr(), arg(args, 1).Uint32())
	if f != nil {
		return 0, f
	}
	if p.IsNull() && arg(args, 1).Uint32() != 0 {
		env.Errno = cval.ENOMEM
	}
	return cval.Ptr(p), nil
}

func cFree(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	if f := env.Img.Heap.Free(arg(args, 0).Addr()); f != nil {
		return 0, f
	}
	return 0, nil
}

// parseIntBody implements the shared strtol-style scan. It walks simulated
// memory character by character (faulting where C would), handling
// whitespace, sign, and base prefixes.
func parseIntBody(env *cval.Env, a cmem.Addr, base int) (val uint64, neg bool, end cmem.Addr, any bool, fault *cmem.Fault) {
	sp := env.Img.Space
	i := a
	for {
		b, f := sp.ReadByteAt(i)
		if f != nil {
			return 0, false, 0, false, f
		}
		if b != ' ' && b != '\t' && b != '\n' && b != '\v' && b != '\f' && b != '\r' {
			break
		}
		i++
	}
	b, f := sp.ReadByteAt(i)
	if f != nil {
		return 0, false, 0, false, f
	}
	if b == '+' || b == '-' {
		neg = b == '-'
		i++
	}
	if base == 0 || base == 16 {
		b0, f := sp.ReadByteAt(i)
		if f != nil {
			return 0, false, 0, false, f
		}
		if b0 == '0' {
			b1, f := sp.ReadByteAt(i + 1)
			if f != nil {
				return 0, false, 0, false, f
			}
			if b1 == 'x' || b1 == 'X' {
				// Only consume the prefix if a hex digit follows.
				b2, f := sp.ReadByteAt(i + 2)
				if f != nil {
					return 0, false, 0, false, f
				}
				if digitVal(b2) >= 0 && digitVal(b2) < 16 {
					base = 16
					i += 2
				} else if base == 0 {
					base = 8
				}
			} else if base == 0 {
				base = 8
			}
		} else if base == 0 {
			base = 10
		}
	}
	start := i
	for {
		b, f := sp.ReadByteAt(i)
		if f != nil {
			return 0, false, 0, false, f
		}
		d := digitVal(b)
		if d < 0 || d >= base {
			break
		}
		val = val*uint64(base) + uint64(d)
		if val > 1<<62 { // clamp so the accumulator cannot wrap;
			val = 1 << 62 // range checking is the caller's job
		}
		i++
	}
	return val, neg, i, i != start, nil
}

func digitVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'z':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'Z':
		return int(b-'A') + 10
	}
	return -1
}

func cAtoi(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	val, neg, _, _, f := parseIntBody(env, arg(args, 0).Addr(), 10)
	if f != nil {
		return 0, f
	}
	v := int64(val)
	if neg {
		v = -v
	}
	return cval.Int(int64(int32(v))), nil
}

func cAtol(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return cAtoi(env, args) // long is 32-bit in the simulated ABI
}

func cAtoll(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	val, neg, _, _, f := parseIntBody(env, arg(args, 0).Addr(), 10)
	if f != nil {
		return 0, f
	}
	v := int64(val)
	if neg {
		v = -v
	}
	return cval.Int(v), nil
}

func cAtof(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	sp := env.Img.Space
	a := arg(args, 0).Addr()
	// Read the number text, then parse in Go; reads fault authentically.
	var buf []byte
	for i := cmem.Addr(0); ; i++ {
		b, f := sp.ReadByteAt(a + i)
		if f != nil {
			return 0, f
		}
		if len(buf) == 0 && (b == ' ' || b == '\t') {
			continue
		}
		if b == '+' || b == '-' || b == '.' || b == 'e' || b == 'E' || (b >= '0' && b <= '9') {
			buf = append(buf, b)
			continue
		}
		break
	}
	v := parseFloat(string(buf))
	return cval.Uint(math.Float64bits(v)), nil
}

// parseFloat is a minimal strtod: sign, integer part, fraction, exponent.
func parseFloat(s string) float64 {
	var v float64
	i := 0
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + float64(s[i]-'0')
		i++
	}
	if i < len(s) && s[i] == '.' {
		i++
		scale := 0.1
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			v += float64(s[i]-'0') * scale
			scale /= 10
			i++
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		exp := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			exp = exp*10 + int(s[i]-'0')
			i++
		}
		if eneg {
			exp = -exp
		}
		v *= math.Pow(10, float64(exp))
	}
	if neg {
		v = -v
	}
	return v
}

func cStrtol(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	base := int(arg(args, 2).Int32())
	if base != 0 && (base < 2 || base > 36) {
		env.Errno = cval.EINVAL
		return cval.Int(0), nil
	}
	val, neg, end, any, f := parseIntBody(env, arg(args, 0).Addr(), base)
	if f != nil {
		return 0, f
	}
	endp := arg(args, 1).Addr()
	if !endp.IsNull() {
		out := end
		if !any {
			out = arg(args, 0).Addr()
		}
		// *endptr = out; writing through a bad endptr faults, which is
		// exactly the robustness hazard the ptr_out chain models.
		if f := env.Img.Space.WriteU32(endp, uint32(out)); f != nil {
			return 0, f
		}
	}
	v := int64(val)
	if neg {
		v = -v
	}
	if v > math.MaxInt32 {
		env.Errno = cval.ERANGE
		v = math.MaxInt32
	} else if v < math.MinInt32 {
		env.Errno = cval.ERANGE
		v = math.MinInt32
	}
	return cval.Int(v), nil
}

func cStrtoul(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	base := int(arg(args, 2).Int32())
	if base != 0 && (base < 2 || base > 36) {
		env.Errno = cval.EINVAL
		return cval.Int(0), nil
	}
	val, neg, end, any, f := parseIntBody(env, arg(args, 0).Addr(), base)
	if f != nil {
		return 0, f
	}
	endp := arg(args, 1).Addr()
	if !endp.IsNull() {
		out := end
		if !any {
			out = arg(args, 0).Addr()
		}
		if f := env.Img.Space.WriteU32(endp, uint32(out)); f != nil {
			return 0, f
		}
	}
	if val > math.MaxUint32 {
		env.Errno = cval.ERANGE
		val = math.MaxUint32
	}
	u := uint32(val)
	if neg {
		u = -u // strtoul negates in unsigned arithmetic
	}
	return cval.Uint(uint64(u)), nil
}

func cAbs(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	j := arg(args, 0).Int32()
	if j < 0 {
		j = -j // INT_MIN stays INT_MIN, authentic UB made deterministic
	}
	return cval.Int(int64(j)), nil
}

func cLabs(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return cAbs(env, args)
}

func cLlabs(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	j := arg(args, 0).Int()
	if j < 0 {
		j = -j
	}
	return cval.Int(j), nil
}

func cRand(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	// glibc's TYPE_0 linear congruential generator.
	env.RandState = (env.RandState*1103515245 + 12345) & 0x7fffffff
	return cval.Int(int64(env.RandState)), nil
}

func cSrand(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	env.RandState = uint64(arg(args, 0).Uint32())
	return 0, nil
}

func cQsort(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	base := arg(args, 0).Addr()
	nmemb := arg(args, 1).Uint32()
	size := arg(args, 2).Uint32()
	compar := arg(args, 3)
	if nmemb < 2 || size == 0 {
		return 0, nil
	}
	sp := env.Img.Space
	elem := func(i uint32) cmem.Addr { return base + cmem.Addr(i*size) }
	// Swap through page-sized scratch chunks: size is caller-controlled
	// and may be absurd (the injector passes 4 GB), so materializing a
	// whole element as a Go buffer is gigabytes of allocation per call —
	// the simulated reads fault long before such a buffer fills.
	const chunk = cmem.PageSize
	scratch := size
	if scratch > chunk {
		scratch = chunk
	}
	tmp := make([]byte, scratch)
	tmp2 := make([]byte, scratch)
	swap := func(a, b cmem.Addr) *cmem.Fault {
		for off := uint32(0); off < size; off += chunk {
			n := size - off
			if n > chunk {
				n = chunk
			}
			ac, bc := a+cmem.Addr(off), b+cmem.Addr(off)
			if f := sp.Read(ac, tmp[:n]); f != nil {
				return f
			}
			if f := sp.Read(bc, tmp2[:n]); f != nil {
				return f
			}
			if f := sp.Write(ac, tmp2[:n]); f != nil {
				return f
			}
			if f := sp.Write(bc, tmp[:n]); f != nil {
				return f
			}
		}
		return nil
	}
	// Insertion sort: quadratic but calls the comparator the way C does,
	// and the injector only needs the memory behaviour to be authentic.
	// Every comparator call gets the same argument array, refilled: a
	// callee keeps no argument slice past its return.
	cargs := make([]cval.Value, 2)
	for i := uint32(1); i < nmemb; i++ {
		j := i
		for j > 0 {
			cargs[0], cargs[1] = cval.Ptr(elem(j-1)), cval.Ptr(elem(j))
			r, f := env.CallIndirect(compar, cargs)
			if f != nil {
				return 0, f
			}
			if r.Int32() <= 0 {
				break
			}
			if f := swap(elem(j-1), elem(j)); f != nil {
				return 0, f
			}
			j--
		}
	}
	return 0, nil
}

func cBsearch(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	key := arg(args, 0)
	base := arg(args, 1).Addr()
	nmemb := arg(args, 2).Uint32()
	size := arg(args, 3).Uint32()
	compar := arg(args, 4)
	lo, hi := uint32(0), nmemb
	cargs := make([]cval.Value, 2) // refilled for every comparator call, as in cQsort
	for lo < hi {
		mid := lo + (hi-lo)/2
		p := base + cmem.Addr(mid*size)
		cargs[0], cargs[1] = key, cval.Ptr(p)
		r, f := env.CallIndirect(compar, cargs)
		if f != nil {
			return 0, f
		}
		switch {
		case r.Int32() == 0:
			return cval.Ptr(p), nil
		case r.Int32() < 0:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return cval.Ptr(0), nil
}

func cExit(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	// Run atexit handlers in reverse registration order, then latch.
	handlers, _ := env.Statics["atexit"].([]cval.Value)
	for i := len(handlers) - 1; i >= 0; i-- {
		if _, f := env.CallIndirect(handlers[i], nil); f != nil {
			return 0, f
		}
	}
	env.Exit(arg(args, 0).Int32())
	return 0, nil
}

func cAbort(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return 0, &cmem.Fault{Kind: cmem.FaultAbort, Op: "abort", Detail: "abort() called"}
}

func cGetenv(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	name, f := env.Img.Space.ReadCString(arg(args, 0).Addr(), 1<<16)
	if f != nil {
		return 0, f
	}
	a, f := env.Getenv(name)
	if f != nil {
		return 0, f
	}
	return cval.Ptr(a), nil
}

func cSetenv(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	sp := env.Img.Space
	name, f := sp.ReadCString(arg(args, 0).Addr(), 1<<16)
	if f != nil {
		return 0, f
	}
	value, f := sp.ReadCString(arg(args, 1).Addr(), 1<<16)
	if f != nil {
		return 0, f
	}
	if name == "" {
		env.Errno = cval.EINVAL
		return cval.Int(-1), nil
	}
	overwrite := arg(args, 2).Int32()
	if overwrite == 0 {
		if a, _ := env.Getenv(name); !a.IsNull() {
			return cval.Int(0), nil
		}
	}
	env.Setenv(name, value)
	return cval.Int(0), nil
}

func cUnsetenv(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	name, f := env.Img.Space.ReadCString(arg(args, 0).Addr(), 1<<16)
	if f != nil {
		return 0, f
	}
	env.Unsetenv(name)
	return cval.Int(0), nil
}

func cAtexit(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	handlers, _ := env.Statics["atexit"].([]cval.Value)
	env.Statics["atexit"] = append(handlers, arg(args, 0))
	return cval.Int(0), nil
}

// cSystem is the simulated system(3): it does not run a real shell; it
// records the attempt. A root-privileged process "successfully" spawning a
// shell is the attacker's win condition in the §3.4 demo.
func cSystem(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	cmd, f := env.Img.Space.ReadCString(arg(args, 0).Addr(), 1<<16)
	if f != nil {
		return 0, f
	}
	env.ShellSpawned = true
	env.Stdout.WriteString("[system] exec: " + cmd + "\n")
	return cval.Int(0), nil
}
