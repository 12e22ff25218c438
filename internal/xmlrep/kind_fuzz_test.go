package xmlrep

import (
	"encoding/xml"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzKind feeds arbitrary bytes to the collector's document sniffer.
// Kind must never panic, must agree with the encoding/xml path
// (decodeKind) on the kind and on whether there is an error, and must
// return either an error or a registered kind; and a document of a
// checksummed kind that parses must still verify after being sealed,
// marshalled and parsed again. The seed corpus under
// testdata/fuzz/FuzzKind holds one marshalled document per kind plus
// truncations; plain `go test` runs it, with the start shapes below.
func FuzzKind(f *testing.F) {
	for _, s := range []string{
		xmlDecl + "\n<healers-profile host=\"h\" app='a'\tx=\"1\"/>",
		"  <healers-policy>",
		"<healers-policy a=\"1\"b=\"2\">",
		"<healers-policy a = \"&amp;\">",
		"<healers-policy a=\"<\">",
		"<healers-policy a=\"1\"",
		"<healers-policy/",
		"<healers-policy a>",
		"<h:healers-policy>",
		"<healers-policy:>",
		"<healers-polic\xc3\xa9>",
		"<-healers-policy>",
		"\xef\xbb\xbf<healers-policy>",
		"<!-- c --><healers-policy>",
		"<!DOCTYPE x><healers-policy>",
		"text<healers-policy>",
		"</x><healers-policy>",
		`<?xml version="1.1"?><healers-policy>`,
		xmlDecl + xmlDecl + "<healers-policy>",
		"<unknown-root>",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, err := Kind(data)
		wantKind, wantErr := decodeKind(data)
		if kind != wantKind || (err == nil) != (wantErr == nil) {
			t.Fatalf("Kind = %q, %v; encoding/xml reads %q, %v", kind, err, wantKind, wantErr)
		}
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

// TestKindReadsMarshalledDocumentsFromBytes checks that every seed
// document Marshal wrote takes the byte path, not encoding/xml.
func TestKindReadsMarshalledDocumentsFromBytes(t *testing.T) {
	seeds, err := filepath.Glob("testdata/fuzz/FuzzKind/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzKind seeds: %v", err)
	}
	for _, path := range seeds {
		if strings.HasSuffix(path, "-truncated") {
			continue
		}
		data := readFuzzSeed(t, path)
		if _, ok := rootName(data); !ok {
			t.Errorf("%s: Kind falls back to encoding/xml", path)
		}
	}
}

// readFuzzSeed returns the []byte value of a one-value seed corpus file.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(string(raw), "\n[]byte(")
	if !ok {
		t.Fatalf("%s: not a []byte seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// BenchmarkKind sniffs the pool-shaped profile's kind from its bytes and
// through encoding/xml.
func BenchmarkKind(b *testing.B) {
	data := readTestdata(b, "profile_pool.xml")
	for _, bc := range []struct {
		name string
		kind func([]byte) (DocKind, error)
	}{{"bytes", Kind}, {"encoding-xml", decodeKind}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if k, err := bc.kind(data); k != KindProfile {
					b.Fatal(k, err)
				}
			}
		})
	}
}
