package cheader

import (
	"reflect"
	"testing"

	"healers/internal/ctypes"
)

// FuzzParseHeader feeds arbitrary text to ParseHeader and ParsePrototype.
// Neither may panic, and every prototype either accepts must parse again
// from its String() to an equal prototype: the same name, return type,
// parameter names and types, and variadic flag. Roles are not compared,
// because String() does not render annotations. The seed corpus under
// testdata/fuzz/FuzzParseHeader holds excerpts of the simulated libc
// headers and malformed declarations.
func FuzzParseHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		protos, _ := ParseHeader("fuzz.h", text)
		if p, err := ParsePrototype(text); err == nil {
			protos = append(protos, p)
		}
		for _, p := range protos {
			src := p.String()
			back, err := ParsePrototype(src)
			if err != nil {
				t.Fatalf("%q does not parse again: %v", src, err)
			}
			if !reflect.DeepEqual(shape(back), shape(p)) {
				t.Fatalf("%q parses again as %q: %+v, want %+v", src, back, shape(back), shape(p))
			}
		}
	})
}

// protoShape is the part of a prototype that String() renders.
type protoShape struct {
	Name     string
	Ret      *ctypes.CType
	Params   []paramShape
	Variadic bool
}

type paramShape struct {
	Name string
	Type *ctypes.CType
}

func shape(p *ctypes.Prototype) protoShape {
	s := protoShape{Name: p.Name, Ret: p.Ret, Variadic: p.Variadic}
	for _, prm := range p.Params {
		s.Params = append(s.Params, paramShape{prm.Name, prm.Type})
	}
	return s
}
