package cval

import (
	"testing"

	"healers/internal/cmem"
)

func TestValueConversions(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		i64  int64
		i32  int32
		u32  uint32
		addr cmem.Addr
	}{
		{"zero", Int(0), 0, 0, 0, 0},
		{"minus one", Int(-1), -1, -1, 0xffffffff, 0xffffffff},
		{"ptr", Ptr(0x10000040), 0x10000040, 0x10000040, 0x10000040, 0x10000040},
		{"big unsigned", Uint(0xfffffffe), -2, -2, 0xfffffffe, 0xfffffffe},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.name != "minus one" && tt.name != "big unsigned" {
				if got := tt.v.Int(); got != tt.i64 {
					t.Errorf("Int() = %d, want %d", got, tt.i64)
				}
			}
			if got := tt.v.Int32(); got != tt.i32 {
				t.Errorf("Int32() = %d, want %d", got, tt.i32)
			}
			if got := tt.v.Uint32(); got != tt.u32 {
				t.Errorf("Uint32() = %d, want %d", got, tt.u32)
			}
			if got := tt.v.Addr(); got != tt.addr {
				t.Errorf("Addr() = %s, want %s", got, tt.addr)
			}
		})
	}
	if !Ptr(0).IsNull() || Ptr(4).IsNull() {
		t.Error("IsNull misclassifies")
	}
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Error("Bool mapping wrong")
	}
	if Int(-1).Byte() != 0xff {
		t.Errorf("Byte() = %#x, want 0xff", Int(-1).Byte())
	}
}

func TestErrnoNames(t *testing.T) {
	tests := []struct {
		e    int32
		want string
	}{
		{EOK, "0"},
		{EINVAL, "EINVAL"},
		{ENOMEM, "ENOMEM"},
		{ERANGE, "ERANGE"},
		{EFAULT, "EFAULT"},
		{EBADF, "EBADF"},
		{ENOENT, "ENOENT"},
		{EDOM, "EDOM"},
		{999, "E?999"},
	}
	for _, tt := range tests {
		if got := ErrnoName(tt.e); got != tt.want {
			t.Errorf("ErrnoName(%d) = %q, want %q", tt.e, got, tt.want)
		}
	}
}

func TestEnvEnviron(t *testing.T) {
	env := NewEnv()
	if a, f := env.Getenv("PATH"); f != nil || a != 0 {
		t.Errorf("Getenv of unset = %s, %v; want NULL", a, f)
	}
	env.Setenv("PATH", "/usr/bin")
	a, f := env.Getenv("PATH")
	if f != nil || a == 0 {
		t.Fatalf("Getenv = %s, %v", a, f)
	}
	s, f := env.Img.CString(a)
	if f != nil || s != "/usr/bin" {
		t.Errorf("env value = %q, %v", s, f)
	}
	// Stable pointer across calls.
	b, _ := env.Getenv("PATH")
	if b != a {
		t.Errorf("Getenv returned different pointers %s then %s", a, b)
	}
	// Re-set invalidates the cache and yields the new value.
	env.Setenv("PATH", "/bin")
	c, _ := env.Getenv("PATH")
	s, _ = env.Img.CString(c)
	if s != "/bin" {
		t.Errorf("after Setenv, value = %q", s)
	}
	env.Unsetenv("PATH")
	if a, _ := env.Getenv("PATH"); a != 0 {
		t.Error("Getenv after Unsetenv returned non-NULL")
	}
	env.Setenv("B", "2")
	env.Setenv("A", "1")
	for name, want := range map[string]string{"A": "1", "B": "2"} {
		if v, ok := env.GetenvString(name); !ok || v != want {
			t.Errorf("GetenvString(%q) = %q, %v; want %q", name, v, ok, want)
		}
	}
	if v, ok := env.GetenvString("PATH"); ok {
		t.Errorf("GetenvString(PATH) after Unsetenv = %q", v)
	}
}

func TestEnvFiles(t *testing.T) {
	env := NewEnv()
	if fd := env.Open("missing.txt", true, false); fd != -1 {
		t.Errorf("Open missing = %d, want -1", fd)
	}
	if env.Errno != ENOENT {
		t.Errorf("errno = %d, want ENOENT", env.Errno)
	}
	env.PutFile("data.txt", []byte("hello"))
	fd := env.Open("data.txt", true, false)
	if fd < 3 {
		t.Fatalf("Open = %d", fd)
	}
	f, ok := env.File(fd)
	if !ok || f.Name != "data.txt" || f.Data.String() != "hello" {
		t.Fatalf("File(%d) = %+v, %v", fd, f, ok)
	}
	if env.OpenFdCount() != 1 {
		t.Errorf("OpenFdCount = %d", env.OpenFdCount())
	}
	if !env.Close(fd) {
		t.Error("Close failed")
	}
	if env.Close(fd) {
		t.Error("double Close succeeded")
	}
	if env.Errno != EBADF {
		t.Errorf("errno after bad close = %d, want EBADF", env.Errno)
	}
	// Writable file round-trips through Close.
	wfd := env.Open("out.txt", false, true)
	wf, _ := env.File(wfd)
	wf.Data.WriteString("output")
	env.Close(wfd)
	data, ok := env.FileData("out.txt")
	if !ok || string(data) != "output" {
		t.Errorf("FileData = %q, %v", data, ok)
	}
}

func TestTextRegistryAndIndirectCalls(t *testing.T) {
	env := NewEnv()
	called := false
	a := env.RegisterText("handler", func(e *Env, args []Value) (Value, *cmem.Fault) {
		called = true
		return Int(42), nil
	})
	if a < TextBase {
		t.Errorf("text address %s below TextBase", a)
	}
	nf, ok := env.LookupText(a)
	if !ok || nf.Name != "handler" {
		t.Fatalf("LookupText = %+v, %v", nf, ok)
	}
	v, f := env.CallIndirect(Ptr(a), nil)
	if f != nil || v.Int32() != 42 || !called {
		t.Errorf("CallIndirect = %v, %v (called=%v)", v, f, called)
	}
	// Jumping to garbage is a SEGV, the hijack-detection baseline.
	if _, f := env.CallIndirect(Ptr(0xdeadbeef), nil); f == nil || f.Kind != cmem.FaultSegv {
		t.Errorf("CallIndirect to garbage: fault = %v, want SIGSEGV", f)
	}
	// Distinct registrations get distinct addresses.
	b := env.RegisterText("other", func(e *Env, args []Value) (Value, *cmem.Fault) { return 0, nil })
	if b == a {
		t.Error("RegisterText reused an address")
	}
}

func TestEnvExitLatch(t *testing.T) {
	env := NewEnv()
	env.Exit(3)
	env.Exit(7) // first exit wins
	if !env.Exited || env.Status != 3 {
		t.Errorf("Exited=%v Status=%d, want true,3", env.Exited, env.Status)
	}
}

func TestValueString(t *testing.T) {
	if got := Ptr(0x1000).String(); got != "0x1000" {
		t.Errorf("String() = %q", got)
	}
}

func TestErrnoNamesFull(t *testing.T) {
	// Every named errno must round-trip to a symbolic name (not E?n).
	for _, e := range []int32{EPERM, ENOENT, EINTR, EIO, EBADF, ENOMEM, EACCES,
		EFAULT, EEXIST, EINVAL, ENFILE, EMFILE, ENOSPC, EDOM, ERANGE, ENOSYS, ENAMETOOLONG} {
		name := ErrnoName(e)
		if name == "" || name[0] == 'E' && len(name) > 1 && name[1] == '?' {
			t.Errorf("ErrnoName(%d) = %q", e, name)
		}
	}
}

func TestGetenvString(t *testing.T) {
	env := NewEnv()
	if _, ok := env.GetenvString("HEALERS_COLLECTOR"); ok {
		t.Error("unset variable reported present")
	}
	env.Setenv("HEALERS_COLLECTOR", "127.0.0.1:9")
	v, ok := env.GetenvString("HEALERS_COLLECTOR")
	if !ok || v != "127.0.0.1:9" {
		t.Errorf("GetenvString = %q, %v", v, ok)
	}
}

func TestRemoveRenameFile(t *testing.T) {
	env := NewEnv()
	if env.RemoveFile("ghost") {
		t.Error("RemoveFile of missing file succeeded")
	}
	if env.Errno != ENOENT {
		t.Errorf("errno = %d", env.Errno)
	}
	env.PutFile("a", []byte("x"))
	if !env.RenameFile("a", "b") {
		t.Error("RenameFile failed")
	}
	if env.RenameFile("a", "c") {
		t.Error("RenameFile of moved file succeeded")
	}
	if d, ok := env.FileData("b"); !ok || string(d) != "x" {
		t.Errorf("renamed data = %q, %v", d, ok)
	}
	if !env.RemoveFile("b") {
		t.Error("RemoveFile failed")
	}
}
