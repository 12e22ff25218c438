// Package ctypes models C types as they appear in library prototypes, the
// semantic roles of parameters (output buffer, size of another parameter,
// format string, ...), and the robustness type lattice that the HEALERS
// fault injector searches: for every parameter, a chain of progressively
// stronger argument types from "whatever the prototype says" down to "a
// value this function is actually robust against".
//
// The paper's worked example (§2.2): strcpy's first parameter is declared
// char*, but its *weakest robust type* is "pointer to a writable buffer
// with enough space for the source string". The injector discovers that by
// probing; the robustness wrapper then enforces it at run time via the
// Check predicates defined here.
package ctypes

import (
	"fmt"
	"strings"
)

// Kind enumerates the C type constructors the toolkit understands.
type Kind int

const (
	// KindVoid is the C void type (only meaningful as a return type or
	// behind a pointer).
	KindVoid Kind = iota + 1
	// KindChar is char (signedness immaterial in the simulation).
	KindChar
	// KindShort is short int.
	KindShort
	// KindInt is int.
	KindInt
	// KindLong is long int (32-bit in the simulated ABI).
	KindLong
	// KindLongLong is long long int (64-bit).
	KindLongLong
	// KindUInt is any unsigned integer of int width.
	KindUInt
	// KindSizeT is size_t (unsigned 32-bit in the simulated ABI).
	KindSizeT
	// KindSSizeT is ssize_t.
	KindSSizeT
	// KindDouble is double (stored in a Value by bit pattern).
	KindDouble
	// KindPtr is a pointer to Elem.
	KindPtr
	// KindFuncPtr is a pointer to a function (comparators, handlers).
	KindFuncPtr
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindChar:
		return "char"
	case KindShort:
		return "short"
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindLongLong:
		return "long long"
	case KindUInt:
		return "unsigned int"
	case KindSizeT:
		return "size_t"
	case KindSSizeT:
		return "ssize_t"
	case KindDouble:
		return "double"
	case KindPtr:
		return "ptr"
	case KindFuncPtr:
		return "funcptr"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CType is one C type. CTypes are immutable after construction; the
// package-level constructors return shared instances for common cases.
type CType struct {
	Kind  Kind
	Const bool
	// Elem is the pointee for KindPtr.
	Elem *CType
	// TypedefName preserves the original spelling when the type came
	// through a typedef (wctrans_t, FILE, ...).
	TypedefName string
}

// Common shared types.
var (
	Void     = &CType{Kind: KindVoid}
	Char     = &CType{Kind: KindChar}
	Int      = &CType{Kind: KindInt}
	Long     = &CType{Kind: KindLong}
	LongLong = &CType{Kind: KindLongLong}
	SizeT    = &CType{Kind: KindSizeT}
	SSizeT   = &CType{Kind: KindSSizeT}
	Double   = &CType{Kind: KindDouble}
	FuncPtr  = &CType{Kind: KindFuncPtr}
)

// PtrTo returns a pointer type to t.
func PtrTo(t *CType) *CType { return &CType{Kind: KindPtr, Elem: t} }

// IsPointer reports whether the type is any pointer (data or function).
func (t *CType) IsPointer() bool {
	return t != nil && (t.Kind == KindPtr || t.Kind == KindFuncPtr)
}

// IsVoid reports whether the type is plain void.
func (t *CType) IsVoid() bool { return t == nil || t.Kind == KindVoid }

// PointeeConst reports whether the type is a pointer to const (the callee
// promises not to write through it).
func (t *CType) PointeeConst() bool {
	return t != nil && t.Kind == KindPtr && t.Elem != nil && t.Elem.Const
}

// String renders the C spelling of the type.
func (t *CType) String() string {
	if t == nil {
		return "void"
	}
	if t.TypedefName != "" {
		if t.Const {
			return "const " + t.TypedefName
		}
		return t.TypedefName
	}
	var b strings.Builder
	if t.Const {
		b.WriteString("const ")
	}
	switch t.Kind {
	case KindPtr:
		b.WriteString(t.Elem.String())
		b.WriteString("*")
	case KindFuncPtr:
		b.WriteString("void (*)()")
	default:
		b.WriteString(t.Kind.String())
	}
	return b.String()
}

// Role classifies what a parameter means to the function, derived from
// header annotations / man-page knowledge. Roles drive probe generation
// and run-time checks.
type Role int

const (
	// RoleNone marks a plain scalar with no pointer semantics.
	RoleNone Role = iota
	// RoleInStr is a NUL-terminated input string the callee reads.
	RoleInStr
	// RoleInBuf is an input buffer whose length is another parameter.
	RoleInBuf
	// RoleOutBuf is an output buffer the callee writes; its required
	// capacity comes from a size parameter or from an input string.
	RoleOutBuf
	// RoleInOutBuf is read and written (strcat's dst).
	RoleInOutBuf
	// RoleSize is a byte count bounding some buffer parameter.
	RoleSize
	// RoleFd is a file descriptor.
	RoleFd
	// RoleFmt is a printf-style format string.
	RoleFmt
	// RoleFuncPtr is a callback (qsort comparator).
	RoleFuncPtr
	// RolePtrOut is a pointer to a scalar out-parameter (strtol endptr).
	RolePtrOut
	// RoleHeapPtr is a pointer that must be NULL or a live heap
	// allocation (free, realloc) — not expressible by memory mapping
	// alone.
	RoleHeapPtr
)

// String returns the role's name.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleInStr:
		return "in_str"
	case RoleInBuf:
		return "in_buf"
	case RoleOutBuf:
		return "out_buf"
	case RoleInOutBuf:
		return "inout_buf"
	case RoleSize:
		return "size"
	case RoleFd:
		return "fd"
	case RoleFmt:
		return "fmt"
	case RoleFuncPtr:
		return "func_ptr"
	case RolePtrOut:
		return "ptr_out"
	case RoleHeapPtr:
		return "heap_ptr"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Param is one formal parameter of a prototype.
type Param struct {
	Name string
	Type *CType
	Role Role
	// SizeOf is the index of the buffer parameter this size parameter
	// bounds, or -1.
	SizeOf int
	// LenBy is the index of the size parameter bounding this buffer,
	// or -1. For RoleOutBuf with LenBy == -1 the required capacity is
	// derived from the source-string parameter SrcStr.
	LenBy int
	// SrcStr is the index of the input-string parameter whose length
	// determines this output buffer's required capacity, or -1
	// (strcpy: dst.SrcStr = 1).
	SrcStr int
	// NulTerm marks output buffers that receive a terminating NUL in
	// addition to SrcStr's length.
	NulTerm bool
	// OverlapOK marks buffers whose function tolerates overlapping
	// source/destination ranges (memmove); for everything else overlap
	// is undefined behaviour and the robustness wrapper denies it.
	OverlapOK bool
}

// NewParam builds a Param with the index links zeroed to "none".
func NewParam(name string, t *CType, role Role) Param {
	return Param{Name: name, Type: t, Role: role, SizeOf: -1, LenBy: -1, SrcStr: -1}
}

// Prototype describes one library function.
type Prototype struct {
	Name     string
	Ret      *CType
	Params   []Param
	Variadic bool
	// Header records the header file the prototype came from.
	Header string
}

// String renders the prototype in C syntax.
func (p *Prototype) String() string {
	var b strings.Builder
	b.WriteString(p.Ret.String())
	b.WriteByte(' ')
	b.WriteString(p.Name)
	b.WriteByte('(')
	for i, prm := range p.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case prm.Name == "":
			b.WriteString(prm.Type.String())
		case prm.Type.Kind == KindFuncPtr:
			// The name goes inside the declarator: void (*name)().
			b.WriteString("void (*" + prm.Name + ")()")
		default:
			b.WriteString(prm.Type.String())
			b.WriteByte(' ')
			b.WriteString(prm.Name)
		}
	}
	if p.Variadic {
		if len(p.Params) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	if len(p.Params) == 0 && !p.Variadic {
		b.WriteString("void")
	}
	b.WriteByte(')')
	return b.String()
}
