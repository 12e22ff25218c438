package wrappers

import (
	"fmt"

	"healers/internal/cmem"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
	"healers/internal/simelf"
)

// Bounded substitutions for the functions the fault injector flags as
// *uncontainable*: no argument check can make sprintf or gets safe,
// because nothing in their argument lists bounds the write. HEALERS'
// answer (companion paper, DSN 2002) is to rewrite the call into the
// bounded variant using the destination buffer's actual capacity:
//
//	sprintf(dst, fmt, ...)  ->  snprintf(dst, capacity(dst), fmt, ...)
//	gets(s)                 ->  fgets_fd(s, capacity(s), 0)
//
// capacity() is the byte-accurate heap-chunk room when dst is a live
// allocation, else the contiguous writable mapping span.

// maxCapScan bounds the capacity probe.
const maxCapScan = 1 << 20

// capacityOf computes how many bytes can safely be written at dst.
func capacityOf(env *cval.Env, dst cmem.Addr) uint32 {
	if base, size, ok := env.Img.Heap.ChunkRange(dst); ok {
		end := uint32(base) + size
		if uint32(dst) >= end {
			return 0
		}
		return end - uint32(dst)
	}
	return env.Img.Space.MappedLen(dst, cmem.ProtRead|cmem.ProtWrite, maxCapScan)
}

// denyInt denies a call with errno EDenied and -1.
func denyInt(env *cval.Env, st *gen.State, idx int, reason string) (cval.Value, *cmem.Fault) {
	env.Errno = cval.EDenied
	st.NoteDeny(idx, reason)
	return cval.Int(-1), nil
}

// substSprintf builds the bounded sprintf replacement.
func substSprintf(next simelf.NextFunc, st *gen.State) (cval.CFunc, error) {
	snprintf, ok := next("snprintf")
	if !ok {
		return nil, fmt.Errorf("wrappers: no snprintf below the wrapper")
	}
	idx := st.Index("sprintf")
	return func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		st.AddCall(idx)
		if len(args) < 2 {
			return denyInt(env, st, idx, "sprintf: too few arguments")
		}
		dst := args[0]
		capacity := capacityOf(env, dst.Addr())
		if capacity == 0 {
			return denyInt(env, st, idx, "sprintf: destination not writable")
		}
		// The substitution bypasses the arg-check micro-generator, so
		// it validates the format string itself: readable,
		// NUL-terminated, and free of %n.
		fmtOK := ctypes.ChainFmt.Levels[ctypes.ChainFmt.Strongest()]
		if !fmtOK.Check(env, args[1], ctypes.Need{}) {
			return denyInt(env, st, idx, "sprintf: format string rejected")
		}
		bounded := make([]cval.Value, 0, len(args)+1)
		bounded = append(bounded, dst, cval.Uint(uint64(capacity)))
		bounded = append(bounded, args[1:]...)
		return snprintf(env, bounded)
	}, nil
}

// substGets builds the bounded gets replacement.
func substGets(next simelf.NextFunc, st *gen.State) (cval.CFunc, error) {
	fgets, ok := next("fgets_fd")
	if !ok {
		return nil, fmt.Errorf("wrappers: no fgets_fd below the wrapper")
	}
	idx := st.Index("gets")
	return func(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
		st.AddCall(idx)
		if len(args) < 1 {
			env.Errno = cval.EDenied
			st.NoteDeny(idx, "gets: too few arguments")
			return cval.Ptr(0), nil
		}
		dst := args[0]
		capacity := capacityOf(env, dst.Addr())
		if capacity == 0 {
			env.Errno = cval.EDenied
			st.NoteDeny(idx, "gets: destination not writable")
			return cval.Ptr(0), nil
		}
		return fgets(env, []cval.Value{dst, cval.Int(int64(capacity)), cval.Int(0)})
	}, nil
}

// boundedSubstitutions is the substitution table the robustness wrapper
// installs for uncontainable functions.
func boundedSubstitutions() map[string]gen.Subst {
	return map[string]gen.Subst{
		"sprintf": substSprintf,
		"gets":    substGets,
	}
}
