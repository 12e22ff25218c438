package cval

import (
	"bytes"

	"healers/internal/cmem"
)

// TextBase is the start of the simulated text segment: registered function
// entry points get addresses here, spaced TextStep apart, so that function
// pointers stored in simulated memory look like ordinary code addresses —
// and so that an attacker who knows the layout (as real attackers do) can
// aim an overflowed function pointer at a specific routine.
const (
	TextBase cmem.Addr = 0x00400000
	TextStep           = 16
)

// SimFile is one open file in the simulated fd table, backed by in-memory
// bytes.
type SimFile struct {
	Name   string
	Data   *bytes.Buffer
	Pos    int
	RdOnly bool
}

// Env is the call environment of one simulated process: memory image plus
// the ambient C runtime state (errno, environ, fd table, PRNG, exit
// latch). Exactly one Env exists per simulated process and simulated
// execution is single-threaded, so Env is not synchronized.
type Env struct {
	Img *cmem.Image
	// Errno is the thread-local errno of the simulated process.
	Errno int32
	// Stdin feeds gets()/read(0, ...); Stdout and Stderr accumulate
	// console output.
	Stdin  bytes.Buffer
	Stdout bytes.Buffer
	Stderr bytes.Buffer

	// Exited is set when the program called exit(); Status holds the
	// code. Execution layers check it between calls.
	Exited bool
	Status int32

	// RandState is the rand()/srand() LCG state.
	RandState uint64

	// Chaos, when non-nil, is the armed chaos-mode fault injector: the
	// C library rolls it on every call and fails probabilistically with
	// the drawn fault (proc.Start arms it from HEALERS_CHAOS). A plain
	// pointer keeps the disarmed hot path to one nil check.
	Chaos *cmem.Chaos

	// environ maps NAME -> value; addrCache materializes values into
	// the data segment lazily so getenv can hand out stable pointers.
	environ   map[string]string
	envAddr   map[string]cmem.Addr
	fdTable   map[int32]*SimFile
	nextFd    int32
	fs        map[string][]byte
	textFuncs map[cmem.Addr]NamedFunc
	nextText  cmem.Addr

	// Statics is scratch storage for simulated functions' static state
	// (strtok's continuation pointer, strerror's message cache, atexit
	// handlers). Keyed by function name; values are owned by the
	// registering function. Per-Env, like per-process statics.
	Statics map[string]any

	// Privileged marks a root process; the attack demo's shell spawn
	// checks it to decide whether the attacker got a *root* shell.
	Privileged bool
	// ShellSpawned records a (simulated) successful exec of a shell —
	// the attacker's win condition in the §3.4 demo.
	ShellSpawned bool
}

// NamedFunc is a function registered in the simulated text segment.
type NamedFunc struct {
	Name string
	Fn   CFunc
}

// NewEnv creates a fresh environment around a new memory image.
func NewEnv() *Env {
	return &Env{
		Img:       cmem.NewImage(),
		RandState: 1, // C's rand() seeds to 1
		environ:   make(map[string]string),
		envAddr:   make(map[string]cmem.Addr),
		fdTable:   make(map[int32]*SimFile),
		nextFd:    3,
		fs:        make(map[string][]byte),
		textFuncs: make(map[cmem.Addr]NamedFunc),
		nextText:  TextBase,
		Statics:   make(map[string]any),
	}
}

// Setenv sets an environment variable, invalidating any pointer previously
// handed out for it (C setenv has the same hazard).
func (e *Env) Setenv(name, value string) {
	e.environ[name] = value
	delete(e.envAddr, name)
}

// Unsetenv removes an environment variable.
func (e *Env) Unsetenv(name string) {
	delete(e.environ, name)
	delete(e.envAddr, name)
}

// Getenv returns the address of the NUL-terminated value of name, or the
// NULL address when unset. Repeated calls return the same pointer, like a
// real environ block.
func (e *Env) Getenv(name string) (cmem.Addr, *cmem.Fault) {
	v, ok := e.environ[name]
	if !ok {
		return 0, nil
	}
	if a, ok := e.envAddr[name]; ok {
		return a, nil
	}
	a, f := e.Img.StaticString(v)
	if f != nil {
		return 0, f
	}
	e.envAddr[name] = a
	return a, nil
}

// GetenvString returns an environment variable's value as a Go string —
// for toolkit components configured through the process environment
// (HEALERS_COLLECTOR), the way LD_PRELOAD-style tooling is configured.
func (e *Env) GetenvString(name string) (string, bool) {
	v, ok := e.environ[name]
	return v, ok
}

// PutFile seeds the simulated filesystem with a file.
func (e *Env) PutFile(name string, data []byte) {
	e.fs[name] = append([]byte(nil), data...)
}

// FileData returns a copy of a simulated file's current content.
func (e *Env) FileData(name string) ([]byte, bool) {
	d, ok := e.fs[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// RemoveFile deletes a file from the simulated filesystem.
func (e *Env) RemoveFile(name string) bool {
	if _, ok := e.fs[name]; !ok {
		e.Errno = ENOENT
		return false
	}
	delete(e.fs, name)
	return true
}

// RenameFile renames a file in the simulated filesystem.
func (e *Env) RenameFile(oldName, newName string) bool {
	d, ok := e.fs[oldName]
	if !ok {
		e.Errno = ENOENT
		return false
	}
	delete(e.fs, oldName)
	e.fs[newName] = d
	return true
}

// Open opens a simulated file and returns its fd, or -1 with errno set.
func (e *Env) Open(name string, readOnly, create bool) int32 {
	data, ok := e.fs[name]
	if !ok {
		if !create {
			e.Errno = ENOENT
			return -1
		}
		e.fs[name] = nil
		data = nil
	}
	fd := e.nextFd
	e.nextFd++
	e.fdTable[fd] = &SimFile{Name: name, Data: bytes.NewBuffer(append([]byte(nil), data...)), RdOnly: readOnly}
	return fd
}

// File returns the open file for fd.
func (e *Env) File(fd int32) (*SimFile, bool) {
	f, ok := e.fdTable[fd]
	return f, ok
}

// Close closes fd, writing its buffer back to the filesystem. Returns
// false with errno=EBADF for an unknown fd.
func (e *Env) Close(fd int32) bool {
	f, ok := e.fdTable[fd]
	if !ok {
		e.Errno = EBADF
		return false
	}
	if !f.RdOnly {
		e.fs[f.Name] = append([]byte(nil), f.Data.Bytes()...)
	}
	delete(e.fdTable, fd)
	return true
}

// OpenFdCount returns the number of open descriptors (excluding the
// implicit stdio streams).
func (e *Env) OpenFdCount() int { return len(e.fdTable) }

// RegisterText places fn in the simulated text segment and returns its
// entry address. The address is what the program stores into function
// pointers in simulated memory.
func (e *Env) RegisterText(name string, fn CFunc) cmem.Addr {
	a := e.nextText
	e.nextText += TextStep
	e.textFuncs[a] = NamedFunc{Name: name, Fn: fn}
	return a
}

// LookupText resolves a text address back to its function, if any.
func (e *Env) LookupText(a cmem.Addr) (NamedFunc, bool) {
	nf, ok := e.textFuncs[a]
	return nf, ok
}

// CallIndirect performs an indirect call through a function-pointer value
// read from simulated memory. Jumping to an address that is not a
// registered entry point is a SIGSEGV, exactly like executing a garbage
// code pointer.
func (e *Env) CallIndirect(target Value, args []Value) (Value, *cmem.Fault) {
	nf, ok := e.textFuncs[target.Addr()]
	if !ok {
		return 0, &cmem.Fault{Kind: cmem.FaultSegv, Addr: target.Addr(), Op: "call", Detail: "jump to non-code address"}
	}
	return nf.Fn(e, args)
}

// Exit latches a voluntary exit.
func (e *Env) Exit(status int32) {
	if !e.Exited {
		e.Exited = true
		e.Status = status
	}
}
