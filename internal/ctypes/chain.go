package ctypes

import (
	"healers/internal/cmem"
	"healers/internal/cval"
)

// Need carries the call-contextual requirements a check predicate may
// consult: how many bytes the callee will actually read or write through
// the pointer, derived at call time from the other arguments.
type Need struct {
	// Bytes is the number of bytes the callee touches through this
	// pointer; 0 means "at least one byte / unknown".
	Bytes uint32
}

// CheckFunc is a run-time validity predicate for one lattice level. It
// must never fault: it inspects mappings via non-faulting queries only,
// which is what lets the robustness wrapper validate arguments *before*
// the C function walks into them.
type CheckFunc func(env *cval.Env, v cval.Value, need Need) bool

// Level is one rung of a robustness chain.
type Level struct {
	// Name is the level's identifier in robust-API files, e.g.
	// "writable_sized".
	Name string
	// Desc is the human explanation used in reports.
	Desc string
	// Check validates a value at this level.
	Check CheckFunc
}

// Chain is an ordered hierarchy of argument types for one parameter
// shape. Levels[0] is the weakest (the declared C type, accepts
// anything); each later level is strictly stronger. The injector's search
// walks from weak to strong until probes stop crashing the function.
type Chain struct {
	Name   string
	Levels []Level
}

// LevelIndex returns the index of the named level, or -1.
func (c *Chain) LevelIndex(name string) int {
	for i, l := range c.Levels {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// Strongest returns the index of the strongest level.
func (c *Chain) Strongest() int { return len(c.Levels) - 1 }

// checkAlways accepts anything (the declared C type).
func checkAlways(*cval.Env, cval.Value, Need) bool { return true }

// checkNonNull rejects the NULL pointer only.
func checkNonNull(_ *cval.Env, v cval.Value, _ Need) bool { return !v.IsNull() }

func needBytes(need Need) uint32 {
	if need.Bytes == 0 {
		return 1
	}
	return need.Bytes
}

// checkReadable requires at least one readable byte at the pointer — the
// intermediate "points into readable memory" rung, deliberately weaker
// than the sized checks below so the injector can tell them apart.
func checkReadable(env *cval.Env, v cval.Value, _ Need) bool {
	if v.IsNull() {
		return false
	}
	return env.Img.Space.Mapped(v.Addr(), 1, cmem.ProtRead)
}

// checkReadableSized requires the full needed span to be readable.
func checkReadableSized(env *cval.Env, v cval.Value, need Need) bool {
	if v.IsNull() {
		return false
	}
	return env.Img.Space.Mapped(v.Addr(), needBytes(need), cmem.ProtRead)
}

// checkWritable requires at least one writable byte at the pointer.
func checkWritable(env *cval.Env, v cval.Value, _ Need) bool {
	if v.IsNull() {
		return false
	}
	return env.Img.Space.Mapped(v.Addr(), 1, cmem.ProtRead|cmem.ProtWrite)
}

// checkWritableSized requires the full needed span to be writable — the
// paper's "pointer to a writable buffer with enough space" for strcpy's
// first argument.
func checkWritableSized(env *cval.Env, v cval.Value, need Need) bool {
	if v.IsNull() {
		return false
	}
	return env.Img.Space.Mapped(v.Addr(), needBytes(need), cmem.ProtRead|cmem.ProtWrite)
}

// maxScan bounds the non-faulting NUL scan; a "string" longer than this is
// treated as unterminated. 1 MiB matches the wrapper generation default in
// the companion paper.
const maxScan = 1 << 20

// CStringLen returns the length of the NUL-terminated string at a using
// only non-faulting queries, and whether a terminator was found within the
// readable span. It builds no string.
func CStringLen(env *cval.Env, a cmem.Addr) (uint32, bool) {
	n, found, f := env.Img.Space.MappedCStrLen(a, maxScan)
	return n, found && f == nil
}

// cString reads the NUL-terminated string at a in one pass that stops at
// the first unreadable page without faulting, so only an exhausted access
// budget can fault; a fault or a span without a NUL reads as no string.
func cString(env *cval.Env, a cmem.Addr) (string, bool) {
	s, found, f := env.Img.Space.ReadMappedCString(a, maxScan)
	return s, found && f == nil
}

// checkCString requires a readable NUL-terminated string.
func checkCString(env *cval.Env, v cval.Value, _ Need) bool {
	if v.IsNull() {
		return false
	}
	_, ok := CStringLen(env, v.Addr())
	return ok
}

// checkFmt requires a readable format string free of the %n directive
// (the classic format-string attack vector the security wrapper rejects).
func checkFmt(env *cval.Env, v cval.Value, _ Need) bool {
	if v.IsNull() {
		return false
	}
	s, ok := cString(env, v.Addr())
	if !ok {
		return false
	}
	end := len(s) // where the directive scan stops: the NUL or a %n's 'n'
	prev := byte(0)
	for i := 0; i < len(s); i++ {
		b := s[i]
		if prev == '%' && b == 'n' {
			end = i
			break
		}
		if prev == '%' && b == '%' {
			b = 0 // %% escapes; don't let the second % start a directive
		}
		prev = b
	}
	// The directive scan reads the string a second time, up to where it
	// stops, and is charged for it; a fault on that read (an exhausted
	// access budget) passes the check. The bytes land in a fixed scratch
	// buffer, a chunk at a time: the charge does not depend on the split.
	var scratch [256]byte
	a := v.Addr()
	for left := uint32(end + 1); left > 0; {
		n := min(left, uint32(len(scratch)))
		if env.Img.Space.Read(a, scratch[:n]) != nil {
			return true
		}
		a += cmem.Addr(n)
		left -= n
	}
	return end == len(s)
}

// checkFd requires a plausibly valid descriptor: 0..2 or an open simulated
// fd.
func checkFd(env *cval.Env, v cval.Value, _ Need) bool {
	fd := v.Int32()
	if fd >= 0 && fd <= 2 {
		return true
	}
	_, ok := env.File(fd)
	return ok
}

// checkNonNeg requires a non-negative integer.
func checkNonNeg(_ *cval.Env, v cval.Value, _ Need) bool { return v.Int32() >= 0 }

// checkFuncPtr requires the value to be a registered text address.
func checkFuncPtr(env *cval.Env, v cval.Value, _ Need) bool {
	_, ok := env.LookupText(v.Addr())
	return ok
}

// checkSaneSize rejects absurd sizes that would make the callee walk the
// whole address space (n > half the address space is never a real
// request; it is an unsigned wrap of a negative value).
func checkSaneSize(_ *cval.Env, v cval.Value, _ Need) bool {
	return v.Uint32() < 0x80000000
}

// The canonical chains. Chains are shared immutable values.
var (
	// ChainInStr: const char* the callee reads as a string.
	ChainInStr = &Chain{
		Name: "in_str",
		Levels: []Level{
			{Name: "any", Desc: "any char* (declared type)", Check: checkAlways},
			{Name: "nonnull", Desc: "non-NULL pointer", Check: checkNonNull},
			{Name: "readable", Desc: "points into readable memory", Check: checkReadable},
			{Name: "cstring", Desc: "readable NUL-terminated string", Check: checkCString},
		},
	}
	// ChainInBuf: const void* read with an explicit length.
	ChainInBuf = &Chain{
		Name: "in_buf",
		Levels: []Level{
			{Name: "any", Desc: "any pointer (declared type)", Check: checkAlways},
			{Name: "nonnull", Desc: "non-NULL pointer", Check: checkNonNull},
			{Name: "readable_sized", Desc: "readable for the full length", Check: checkReadableSized},
		},
	}
	// ChainOutBuf: pointer the callee writes.
	ChainOutBuf = &Chain{
		Name: "out_buf",
		Levels: []Level{
			{Name: "any", Desc: "any pointer (declared type)", Check: checkAlways},
			{Name: "nonnull", Desc: "non-NULL pointer", Check: checkNonNull},
			{Name: "writable", Desc: "points into writable memory", Check: checkWritable},
			{Name: "writable_sized", Desc: "writable buffer with enough space for the operation", Check: checkWritableSized},
		},
	}
	// ChainInOutBuf: read-modify-write string buffers (strcat dst).
	ChainInOutBuf = &Chain{
		Name: "inout_buf",
		Levels: []Level{
			{Name: "any", Desc: "any pointer (declared type)", Check: checkAlways},
			{Name: "nonnull", Desc: "non-NULL pointer", Check: checkNonNull},
			{Name: "cstring_writable", Desc: "writable NUL-terminated string", Check: func(env *cval.Env, v cval.Value, need Need) bool {
				return checkCString(env, v, need) && checkWritable(env, v, need)
			}},
			{Name: "writable_sized", Desc: "writable with enough space for the appended data", Check: checkWritableSized},
		},
	}
	// ChainFmt: printf-style format strings.
	ChainFmt = &Chain{
		Name: "fmt",
		Levels: []Level{
			{Name: "any", Desc: "any char* (declared type)", Check: checkAlways},
			{Name: "nonnull", Desc: "non-NULL pointer", Check: checkNonNull},
			{Name: "cstring", Desc: "readable NUL-terminated string", Check: checkCString},
			{Name: "fmt_no_percent_n", Desc: "format string without %n", Check: checkFmt},
		},
	}
	// ChainSize: size_t parameters. The strongest level is relational:
	// the count must fit the buffer it bounds (need.Bytes carries that
	// buffer's mapped span; 0 means the relation is unknown).
	ChainSize = &Chain{
		Name: "size",
		Levels: []Level{
			{Name: "any", Desc: "any size_t (declared type)", Check: checkAlways},
			{Name: "sane", Desc: "below 2 GiB (not a wrapped negative)", Check: checkSaneSize},
			{Name: "bounded", Desc: "no larger than the buffer it sizes", Check: func(env *cval.Env, v cval.Value, need Need) bool {
				if !checkSaneSize(env, v, need) {
					return false
				}
				if need.Bytes == 0 {
					return true
				}
				return v.Uint32() <= need.Bytes
			}},
		},
	}
	// ChainFd: file descriptors.
	ChainFd = &Chain{
		Name: "fd",
		Levels: []Level{
			{Name: "any", Desc: "any int (declared type)", Check: checkAlways},
			{Name: "nonneg", Desc: "non-negative", Check: checkNonNeg},
			{Name: "open_fd", Desc: "open file descriptor", Check: checkFd},
		},
	}
	// ChainFuncPtr: callback pointers.
	ChainFuncPtr = &Chain{
		Name: "func_ptr",
		Levels: []Level{
			{Name: "any", Desc: "any pointer (declared type)", Check: checkAlways},
			{Name: "nonnull", Desc: "non-NULL pointer", Check: checkNonNull},
			{Name: "code_ptr", Desc: "points at a function entry point", Check: checkFuncPtr},
		},
	}
	// ChainScalar: plain integers; nothing to get wrong at the memory
	// level, so the chain is a single rung.
	ChainScalar = &Chain{
		Name: "scalar",
		Levels: []Level{
			{Name: "any", Desc: "any scalar (declared type)", Check: checkAlways},
		},
	}
	// ChainHeapPtr: free/realloc arguments. NULL is legal; anything else
	// must be a live allocation returned by malloc. This is the check
	// that stops double frees and wild frees.
	ChainHeapPtr = &Chain{
		Name: "heap_ptr",
		Levels: []Level{
			{Name: "any", Desc: "any pointer (declared type)", Check: checkAlways},
			{Name: "null_or_chunk", Desc: "NULL or a live malloc chunk", Check: func(env *cval.Env, v cval.Value, _ Need) bool {
				return v.IsNull() || env.Img.Heap.InUse(v.Addr())
			}},
		},
	}
	// ChainPtrOut: pointer to scalar out-parameter; NULL is usually a
	// documented "don't care" (strtol endptr), so NULL stays legal but
	// non-NULL values must be writable.
	ChainPtrOut = &Chain{
		Name: "ptr_out",
		Levels: []Level{
			{Name: "any", Desc: "any pointer (declared type)", Check: checkAlways},
			{Name: "null_or_writable", Desc: "NULL, or writable and word-aligned", Check: func(env *cval.Env, v cval.Value, need Need) bool {
				// Out-parameters receive wide stores; misalignment is
				// a SIGBUS on strict hardware, so the robust type
				// demands alignment too.
				return v.IsNull() || (v.Addr()&3 == 0 && checkWritable(env, v, need))
			}},
		},
	}
)

// ChainFor selects the robustness chain for a parameter based on its role
// and type.
func ChainFor(p Param) *Chain {
	switch p.Role {
	case RoleInStr:
		return ChainInStr
	case RoleInBuf:
		return ChainInBuf
	case RoleOutBuf:
		return ChainOutBuf
	case RoleInOutBuf:
		return ChainInOutBuf
	case RoleFmt:
		return ChainFmt
	case RoleSize:
		return ChainSize
	case RoleFd:
		return ChainFd
	case RoleFuncPtr:
		return ChainFuncPtr
	case RolePtrOut:
		return ChainPtrOut
	case RoleHeapPtr:
		return ChainHeapPtr
	}
	if p.Type.IsPointer() {
		if p.Type.Kind == KindFuncPtr {
			return ChainFuncPtr
		}
		if p.Type.PointeeConst() {
			return ChainInBuf
		}
		return ChainOutBuf
	}
	return ChainScalar
}
