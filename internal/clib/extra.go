package clib

import (
	"math"

	"healers/internal/cmem"
	"healers/internal/cval"
)

// Additional libc functions beyond the core set: case-insensitive string
// comparison, bounded copies, time, and process-identity calls. They
// widen the fault-injection campaign's surface and make the sample
// applications more realistic.

func init() {
	registerImpl("strcasecmp", cStrcasecmp)
	registerImpl("strncasecmp", cStrncasecmp)
	registerImpl("stpcpy", cStpcpy)
	registerImpl("strnlen", cStrnlen)
	registerImpl("memccpy", cMemccpy)
	registerImpl("strcoll", cStrcmp) // the simulated locale is "C"
	registerImpl("toascii", cToascii)
	registerImpl("putenv", cPutenv)
	registerImpl("sleep", cSleep)
	registerImpl("usleep", cUsleep)
	registerImpl("getppid", cGetppid)
	registerImpl("geteuid", cGetuid) // no setuid transitions simulated
	registerImpl("isatty", cIsatty)
	registerImpl("time", cTime)
	registerImpl("clock", cClock)
	registerImpl("perror", cPerror)
}

// extraH declares the additional functions; merged into Headers.
const extraH = `
/* extra.h — additional simulated C library functions */
int strcasecmp(const char *s1, const char *s2); /* @s1 in_str @s2 in_str */
int strncasecmp(const char *s1, const char *s2, size_t n); /* @s1 in_str @s2 in_str @n size */
char *stpcpy(char *dest, const char *src); /* @dest out_buf src=src nul @src in_str */
size_t strnlen(const char *s, size_t maxlen); /* @s in_buf len=maxlen @maxlen size */
void *memccpy(void *dest, const void *src, int c, size_t n); /* @dest out_buf len=n @src in_buf len=n @n size of=dest */
int strcoll(const char *s1, const char *s2); /* @s1 in_str @s2 in_str */
int toascii(int c);
int putenv(char *string); /* @string in_str */
unsigned int sleep(unsigned int seconds);
int usleep(unsigned int usec);
int getppid(void);
int geteuid(void);
int isatty(int fd); /* @fd fd */
time_t time(time_t *tloc); /* @tloc ptr_out */
clock_t clock(void);
void perror(const char *s); /* @s in_str */
`

func lowerByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 32
	}
	return b
}

func cStrcasecmp(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return compare(env, args, math.MaxUint32, cmpStr|cmpFold)
}

func cStrncasecmp(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return compare(env, args, arg(args, 2).Uint32(), cmpStr|cmpFold)
}

// cStpcpy is strcpy returning a pointer to the terminator.
func cStpcpy(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	dst := arg(args, 0).Addr()
	k, _, f := env.Img.Space.Copy(dst, arg(args, 1).Addr(), math.MaxUint32, 0)
	if f != nil {
		return 0, f
	}
	return cval.Ptr(dst + cmem.Addr(k) - 1), nil
}

func cStrnlen(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s := arg(args, 0).Addr()
	maxlen := arg(args, 1).Uint32()
	sp := env.Img.Space
	for i := uint32(0); i < maxlen; i++ {
		b, f := sp.ReadByteAt(s + cmem.Addr(i))
		if f != nil {
			return 0, f
		}
		if b == 0 {
			return cval.Uint(uint64(i)), nil
		}
	}
	return cval.Uint(uint64(maxlen)), nil
}

// cMemccpy copies up to n bytes, ending after the first byte c, and
// returns a pointer past that byte, or NULL when it held none.
func cMemccpy(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	dst := arg(args, 0).Addr()
	k, found, f := env.Img.Space.Copy(dst, arg(args, 1).Addr(), arg(args, 3).Uint32(), int(arg(args, 2).Byte()))
	if f != nil {
		return 0, f
	}
	if !found {
		return cval.Ptr(0), nil
	}
	return cval.Ptr(dst + cmem.Addr(k)), nil
}

func cToascii(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return cval.Int(int64(arg(args, 0).Int32() & 0x7f)), nil
}

// cPutenv parses "NAME=VALUE"; a string without '=' removes the variable,
// matching glibc.
func cPutenv(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s, f := env.Img.Space.ReadCString(arg(args, 0).Addr(), 1<<16)
	if f != nil {
		return 0, f
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '=' {
			env.Setenv(s[:i], s[i+1:])
			return cval.Int(0), nil
		}
	}
	env.Unsetenv(s)
	return cval.Int(0), nil
}

// simClock advances the process's virtual clock and returns it.
func simClock(env *cval.Env) uint64 {
	n, _ := env.Statics["clock"].(uint64)
	n++
	env.Statics["clock"] = n
	return n
}

func cSleep(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	// Virtual time: advance the clock by the requested seconds.
	n, _ := env.Statics["clock"].(uint64)
	env.Statics["clock"] = n + uint64(arg(args, 0).Uint32())*1000
	return cval.Int(0), nil
}

func cUsleep(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	simClock(env)
	return cval.Int(0), nil
}

func cGetppid(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return cval.Int(1), nil // everyone's parent is init in the simulation
}

func cIsatty(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	fd := arg(args, 0).Int32()
	if fd >= 0 && fd <= 2 {
		return cval.Int(1), nil
	}
	env.Errno = cval.ENOSYS
	if _, ok := env.File(fd); ok {
		env.Errno = 0
		return cval.Int(0), nil
	}
	env.Errno = cval.EBADF
	return cval.Int(0), nil
}

// simEpoch anchors the simulated wall clock (2003-06-22, the paper's
// conference week).
const simEpoch = 1056240000

func cTime(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	t := simEpoch + simClock(env)
	tloc := arg(args, 0).Addr()
	if !tloc.IsNull() {
		if f := env.Img.Space.WriteU32(tloc, uint32(t)); f != nil {
			return 0, f
		}
	}
	return cval.Uint(t), nil
}

func cClock(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	return cval.Uint(simClock(env) * 1000), nil
}

func cPerror(env *cval.Env, args []cval.Value) (cval.Value, *cmem.Fault) {
	s, f := env.Img.Space.ReadCString(arg(args, 0).Addr(), 1<<16)
	if f != nil {
		return 0, f
	}
	if s != "" {
		env.Stderr.WriteString(s)
		env.Stderr.WriteString(": ")
	}
	env.Stderr.WriteString(cval.ErrnoName(env.Errno))
	env.Stderr.WriteByte('\n')
	return 0, nil
}
