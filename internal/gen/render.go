package gen

import (
	"fmt"
	"strings"

	"healers/internal/ctypes"
)

// Source renders the generated wrapper's C-like source for one prototype,
// in the exact layout of the paper's Figure 3: each micro-generator's
// prefix fragment in declaration order, then the postfix fragments in
// reverse order, every fragment labelled with the micro-generator that
// produced it.
func (g *Generator) Source(proto *ctypes.Prototype) string {
	var b strings.Builder
	for _, m := range g.micros {
		lines := m.PrefixSource(proto)
		if len(lines) == 0 {
			continue
		}
		fmt.Fprintf(&b, "/* Prefix code by micro-gen %s */\n", m.Name())
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	for i := len(g.micros) - 1; i >= 0; i-- {
		m := g.micros[i]
		lines := m.PostfixSource(proto)
		if len(lines) == 0 {
			continue
		}
		fmt.Fprintf(&b, "/* Postfix code by micro-gen %s */\n", m.Name())
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
