package cheader

import (
	"strings"
	"testing"

	"healers/internal/ctypes"
)

func mustParse(t *testing.T, src string) *ctypes.Prototype {
	t.Helper()
	p, err := ParsePrototype(src)
	if err != nil {
		t.Fatalf("ParsePrototype(%q): %v", src, err)
	}
	return p
}

func TestParseSimplePrototypes(t *testing.T) {
	tests := []struct {
		src      string
		wantName string
		wantStr  string
	}{
		{"size_t strlen(const char *s);", "strlen", "size_t strlen(const char* s)"},
		{"char *strcpy(char *dest, const char *src);", "strcpy", "char* strcpy(char* dest, const char* src)"},
		{"void *memcpy(void *dest, const void *src, size_t n);", "memcpy", "void* memcpy(void* dest, const void* src, size_t n)"},
		{"int abs(int j);", "abs", "int abs(int j)"},
		{"long labs(long j);", "labs", "long labs(long j)"},
		{"long long llabs(long long j);", "llabs", "long long llabs(long long j)"},
		{"int rand(void);", "rand", "int rand(void)"},
		{"void abort(void);", "abort", "void abort(void)"},
		{"unsigned int sleep(unsigned int seconds);", "sleep", "unsigned int sleep(unsigned int seconds)"},
		{"double atof(const char *nptr);", "atof", "double atof(const char* nptr)"},
		{"wctrans_t wctrans(const char *name);", "wctrans", "wctrans_t wctrans(const char* name)"},
		{"char **environ_list(void);", "environ_list", "char** environ_list(void)"},
		{"unsigned long strtoul(const char *nptr, char **endptr, int base);", "strtoul", "unsigned int strtoul(const char* nptr, char** endptr, int base)"},
		{"unsigned long int f(unsigned long n);", "f", "unsigned int f(unsigned int n)"},
		{"int f(signed x);", "f", "int f(int x)"},
		{"signed int f(signed int x, unsigned u);", "f", "int f(int x, unsigned int u)"},
		{"unsigned char f(unsigned short s, unsigned long long n);", "f", "char f(short s, long long n)"},
	}
	for _, tt := range tests {
		p := mustParse(t, tt.src)
		if p.Name != tt.wantName {
			t.Errorf("%q: name = %q, want %q", tt.src, p.Name, tt.wantName)
		}
		if got := p.String(); got != tt.wantStr {
			t.Errorf("%q: String() = %q, want %q", tt.src, got, tt.wantStr)
		}
	}
}

func TestParseVariadic(t *testing.T) {
	p := mustParse(t, "int printf(const char *format, ...);")
	if !p.Variadic {
		t.Error("printf not marked variadic")
	}
	if len(p.Params) != 1 {
		t.Fatalf("params = %d, want 1", len(p.Params))
	}
}

func TestParseFunctionPointerParam(t *testing.T) {
	p := mustParse(t, "void qsort(void *base, size_t nmemb, size_t size, int (*compar)(const void *, const void *));")
	if len(p.Params) != 4 {
		t.Fatalf("params = %d, want 4", len(p.Params))
	}
	cmp := p.Params[3]
	if cmp.Type.Kind != ctypes.KindFuncPtr {
		t.Errorf("compar type = %v, want func ptr", cmp.Type)
	}
	if cmp.Role != ctypes.RoleFuncPtr {
		t.Errorf("compar role = %v, want func_ptr", cmp.Role)
	}
	if cmp.Name != "compar" {
		t.Errorf("compar name = %q", cmp.Name)
	}
	if got, want := p.String(), "void qsort(void* base, size_t nmemb, size_t size, void (*compar)())"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseArrayDecay(t *testing.T) {
	p := mustParse(t, "int stat_buf(char buf[256]);")
	if !p.Params[0].Type.IsPointer() {
		t.Errorf("array parameter did not decay to pointer: %v", p.Params[0].Type)
	}
}

func TestParseStructPointer(t *testing.T) {
	p := mustParse(t, "int statvfs(const char *path, struct statvfs_t *buf);")
	if len(p.Params) != 2 {
		t.Fatalf("params = %d", len(p.Params))
	}
	if !p.Params[1].Type.IsPointer() {
		t.Errorf("struct pointer parse failed: %v", p.Params[1].Type)
	}
}

func TestAnnotations(t *testing.T) {
	p := mustParse(t, "char *strcpy(char *dest, const char *src); // @dest out_buf src=src nul  @src in_str")
	d := p.Params[0]
	if d.Role != ctypes.RoleOutBuf {
		t.Errorf("dest role = %v", d.Role)
	}
	if d.SrcStr != 1 {
		t.Errorf("dest SrcStr = %d, want 1", d.SrcStr)
	}
	if !d.NulTerm {
		t.Error("dest NulTerm not set")
	}
	if p.Params[1].Role != ctypes.RoleInStr {
		t.Errorf("src role = %v", p.Params[1].Role)
	}

	p = mustParse(t, "void *memcpy(void *dest, const void *src, size_t n); /* @dest out_buf len=n @src in_buf len=n @n size of=dest */")
	if p.Params[0].LenBy != 2 || p.Params[1].LenBy != 2 {
		t.Errorf("LenBy = %d,%d; want 2,2", p.Params[0].LenBy, p.Params[1].LenBy)
	}
	if p.Params[2].Role != ctypes.RoleSize || p.Params[2].SizeOf != 0 {
		t.Errorf("n: role=%v SizeOf=%d", p.Params[2].Role, p.Params[2].SizeOf)
	}
}

func TestAnnotationErrors(t *testing.T) {
	tests := []string{
		"int f(int a); // @nosuch in_str",
		"int f(int a); // @a bogus_role",
		"int f(int a, char *b); // @b len=zz",
	}
	for _, src := range tests {
		if _, err := ParsePrototype(src); err == nil {
			t.Errorf("ParsePrototype(%q) succeeded, want error", src)
		}
	}
}

func TestDefaultRoleInference(t *testing.T) {
	tests := []struct {
		src  string
		i    int
		want ctypes.Role
	}{
		{"size_t strlen(const char *s);", 0, ctypes.RoleInStr},
		{"int memcmp_like(const void *a, const void *b);", 0, ctypes.RoleInBuf},
		{"char *strtok_like(char *s);", 0, ctypes.RoleOutBuf},
		{"void *malloc(size_t size);", 0, ctypes.RoleSize},
		{"int abs(int j);", 0, ctypes.RoleNone},
	}
	for _, tt := range tests {
		p := mustParse(t, tt.src)
		if got := p.Params[tt.i].Role; got != tt.want {
			t.Errorf("%q param %d role = %v, want %v", tt.src, tt.i, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []string{
		"garbage $$$;",
		"int ;",
		"unknown_t f(int a);",
		"int f(int a",
		"int f(. a);",
		"int f(int a,);",
		"int f(void,);",
	}
	for _, src := range tests {
		if _, err := ParsePrototype(src); err == nil {
			t.Errorf("ParsePrototype(%q) succeeded, want error", src)
		}
	}
}

const sampleHeader = `
/* string.h — simulated C library string functions */
#ifndef _STRING_H
#define _STRING_H

size_t strlen(const char *s);
char *strcpy(char *dest, const char *src); // @dest out_buf src=src nul @src in_str
char *strncpy(char *dest, const char *src,
              size_t n); // @dest out_buf len=n @src in_str @n size of=dest

/* not a declaration, just prose */

int printf(const char *format, ...); // @format fmt
this line does not parse;
void qsort(void *base, size_t nmemb, size_t size, int (*compar)(const void *, const void *));
#endif
`

func TestParseHeader(t *testing.T) {
	protos, errs := ParseHeader("string.h", sampleHeader)
	if len(errs) != 1 {
		t.Fatalf("errors = %v, want exactly 1 (the junk line)", errs)
	}
	if !strings.Contains(errs[0].Error(), "string.h:") {
		t.Errorf("error lacks file:line prefix: %v", errs[0])
	}
	names := make([]string, len(protos))
	for i, p := range protos {
		names[i] = p.Name
		if p.Header != "string.h" {
			t.Errorf("%s.Header = %q", p.Name, p.Header)
		}
	}
	want := []string{"strlen", "strcpy", "strncpy", "printf", "qsort"}
	if len(names) != len(want) {
		t.Fatalf("parsed %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("proto[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	// Multi-line declaration picked up its annotation.
	var strncpy *ctypes.Prototype
	for _, p := range protos {
		if p.Name == "strncpy" {
			strncpy = p
		}
	}
	if strncpy.Params[0].LenBy != 2 {
		t.Errorf("strncpy dest LenBy = %d, want 2", strncpy.Params[0].LenBy)
	}
}

func TestSplitComment(t *testing.T) {
	tests := []struct {
		line        string
		wantCode    string
		wantComment string
	}{
		{"int f(void); // hello", "int f(void); ", " hello"},
		{"int f(void); /* a */ ", "int f(void);  ", " a  "},
		{"no comment", "no comment", ""},
		{"x /* unterminated", "x ", " unterminated"},
	}
	for _, tt := range tests {
		code, comment := splitComment(tt.line)
		if code != tt.wantCode || comment != tt.wantComment {
			t.Errorf("splitComment(%q) = %q,%q; want %q,%q", tt.line, code, comment, tt.wantCode, tt.wantComment)
		}
	}
}
