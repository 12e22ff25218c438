package ctypes

import "testing"

// The pointer types the tests build prototypes from.
var (
	charPtr      = PtrTo(Char)
	constCharPtr = PtrTo(&CType{Kind: KindChar, Const: true})
	voidPtr      = PtrTo(Void)
	constVoidPtr = PtrTo(&CType{Kind: KindVoid, Const: true})
)

func TestCTypeString(t *testing.T) {
	tests := []struct {
		t    *CType
		want string
	}{
		{Void, "void"},
		{Int, "int"},
		{SizeT, "size_t"},
		{charPtr, "char*"},
		{constCharPtr, "const char*"},
		{voidPtr, "void*"},
		{PtrTo(charPtr), "char**"},
		{FuncPtr, "void (*)()"},
		{&CType{Kind: KindInt, TypedefName: "wctrans_t"}, "wctrans_t"},
		{nil, "void"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCTypePredicates(t *testing.T) {
	if !charPtr.IsPointer() || !FuncPtr.IsPointer() || Int.IsPointer() {
		t.Error("IsPointer misclassifies")
	}
	if !Void.IsVoid() || Int.IsVoid() {
		t.Error("IsVoid misclassifies")
	}
	if !constCharPtr.PointeeConst() || charPtr.PointeeConst() || Int.PointeeConst() {
		t.Error("PointeeConst misclassifies")
	}
	var nilt *CType
	if nilt.IsPointer() || !nilt.IsVoid() {
		t.Error("nil CType predicates wrong")
	}
}

func TestPrototypeString(t *testing.T) {
	strcpy := &Prototype{
		Name: "strcpy",
		Ret:  charPtr,
		Params: []Param{
			NewParam("dest", charPtr, RoleOutBuf),
			NewParam("src", constCharPtr, RoleInStr),
		},
	}
	want := "char* strcpy(char* dest, const char* src)"
	if got := strcpy.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	noargs := &Prototype{Name: "rand", Ret: Int}
	if got := noargs.String(); got != "int rand(void)" {
		t.Errorf("String() = %q", got)
	}
	variadic := &Prototype{
		Name:     "printf",
		Ret:      Int,
		Params:   []Param{NewParam("format", constCharPtr, RoleFmt)},
		Variadic: true,
	}
	if got := variadic.String(); got != "int printf(const char* format, ...)" {
		t.Errorf("String() = %q", got)
	}
}

func TestRoleStrings(t *testing.T) {
	roles := map[Role]string{
		RoleNone: "none", RoleInStr: "in_str", RoleInBuf: "in_buf",
		RoleOutBuf: "out_buf", RoleInOutBuf: "inout_buf", RoleSize: "size",
		RoleFd: "fd", RoleFmt: "fmt", RoleFuncPtr: "func_ptr", RolePtrOut: "ptr_out",
	}
	for r, want := range roles {
		if got := r.String(); got != want {
			t.Errorf("Role(%d).String() = %q, want %q", int(r), got, want)
		}
	}
	if got := Role(99).String(); got != "Role(99)" {
		t.Errorf("unknown role = %q", got)
	}
}

func TestChainFor(t *testing.T) {
	tests := []struct {
		name string
		p    Param
		want *Chain
	}{
		{"in_str role", NewParam("s", constCharPtr, RoleInStr), ChainInStr},
		{"out_buf role", NewParam("d", charPtr, RoleOutBuf), ChainOutBuf},
		{"fmt role", NewParam("f", constCharPtr, RoleFmt), ChainFmt},
		{"size role", NewParam("n", SizeT, RoleSize), ChainSize},
		{"fd role", NewParam("fd", Int, RoleFd), ChainFd},
		{"func ptr role", NewParam("cmp", FuncPtr, RoleFuncPtr), ChainFuncPtr},
		{"ptr out role", NewParam("endp", PtrTo(charPtr), RolePtrOut), ChainPtrOut},
		{"in_buf role", NewParam("b", constVoidPtr, RoleInBuf), ChainInBuf},
		{"inout role", NewParam("d", charPtr, RoleInOutBuf), ChainInOutBuf},
		{"default const ptr", NewParam("p", constVoidPtr, RoleNone), ChainInBuf},
		{"default mut ptr", NewParam("p", voidPtr, RoleNone), ChainOutBuf},
		{"default scalar", NewParam("c", Int, RoleNone), ChainScalar},
		{"default funcptr type", NewParam("f", FuncPtr, RoleNone), ChainFuncPtr},
	}
	for _, tt := range tests {
		if got := ChainFor(tt.p); got != tt.want {
			t.Errorf("%s: ChainFor = %s, want %s", tt.name, got.Name, tt.want.Name)
		}
	}
}

func TestChainShapes(t *testing.T) {
	// Every chain starts with the accept-anything level and is strictly
	// ordered (weak to strong by construction).
	for _, c := range []*Chain{ChainInStr, ChainInBuf, ChainOutBuf, ChainInOutBuf, ChainFmt, ChainSize, ChainFd, ChainFuncPtr, ChainScalar, ChainPtrOut} {
		if len(c.Levels) == 0 {
			t.Fatalf("chain %s empty", c.Name)
		}
		if c.Levels[0].Name != "any" {
			t.Errorf("chain %s first level = %q, want any", c.Name, c.Levels[0].Name)
		}
		if c.Strongest() != len(c.Levels)-1 {
			t.Errorf("chain %s Strongest() = %d", c.Name, c.Strongest())
		}
		seen := map[string]bool{}
		for _, l := range c.Levels {
			if seen[l.Name] {
				t.Errorf("chain %s has duplicate level %q", c.Name, l.Name)
			}
			seen[l.Name] = true
			if l.Check == nil {
				t.Errorf("chain %s level %s has nil Check", c.Name, l.Name)
			}
		}
	}
	if ChainInStr.LevelIndex("cstring") != 3 {
		t.Errorf("LevelIndex(cstring) = %d, want 3", ChainInStr.LevelIndex("cstring"))
	}
	if ChainInStr.LevelIndex("nope") != -1 {
		t.Error("LevelIndex of unknown should be -1")
	}
}
