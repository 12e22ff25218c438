package xmlrep

import (
	"encoding/xml"
	"testing"
)

// FuzzKind feeds arbitrary bytes to the collector's document sniffer.
// Kind must never panic and must return either an error or a registered
// kind; and a document of a checksummed kind that parses must still
// verify after being sealed, marshalled and parsed again. The seed
// corpus under testdata/fuzz/FuzzKind holds one marshalled document per
// kind plus truncations; plain `go test` runs it.
func FuzzKind(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, err := Kind(data)
		if err != nil {
			return
		}
		if kinds["healers-"+string(kind)] != kind {
			t.Fatalf("Kind returned unregistered kind %q", kind)
		}
		newDoc, ok := checksummed[kind]
		if !ok {
			return
		}
		doc := newDoc()
		if xml.Unmarshal(data, doc) != nil {
			return
		}
		Seal(doc)
		out, err := Marshal(doc)
		if err != nil {
			t.Fatalf("marshal sealed %s: %v", kind, err)
		}
		back := newDoc()
		if err := xml.Unmarshal(out, back); err != nil {
			t.Fatalf("sealed %s does not parse again: %v", kind, err)
		}
		if err := Verify(back); err != nil {
			t.Fatalf("sealed %s fails Verify after a round trip: %v\n%s", kind, err, out)
		}
	})
}
