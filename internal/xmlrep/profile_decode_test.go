package xmlrep

import (
	"bytes"
	"encoding/xml"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// checkProfileDecode holds decodeProfile to its contract with
// encoding/xml as the oracle:
//
//   - sound: whenever the decoder accepts, xml.Unmarshal accepts and the
//     two structs are reflect.DeepEqual;
//   - never laxer: whenever xml.Unmarshal rejects, the decoder rejects
//     (the contrapositive of the first half of soundness);
//   - complete: the decoder accepts whatever xml.Unmarshal accepts,
//     unless the input holds a construct outside the accepted subset.
//
// It also holds the counters mode to the full decode: the two report the
// same error or both accept, and then the counters mode fills every
// field as the full decode does except Trace, which it leaves nil.
//
// It returns whether the decoder accepted.
func checkProfileDecode(t *testing.T, data []byte) bool {
	t.Helper()
	var want, got, counters ProfileLog
	wantErr := xml.Unmarshal(data, &want)
	gotErr := decodeProfile(data, &got, false)
	switch {
	case gotErr == nil && wantErr != nil:
		t.Fatalf("decoder accepts a document encoding/xml rejects (%v):\n%q", wantErr, data)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoder and encoding/xml disagree on\n%q\ndecoder:      %#v\nencoding/xml: %#v", data, got, want)
	case gotErr != nil && wantErr == nil && !outsideSubset(data):
		t.Fatalf("decoder rejects a document encoding/xml accepts (%v):\n%q", gotErr, data)
	}
	countersErr := decodeProfile(data, &counters, true)
	untraced := got
	untraced.Trace = nil
	switch {
	case (countersErr == nil) != (gotErr == nil) || gotErr != nil && gotErr.Error() != countersErr.Error():
		t.Fatalf("counters mode and full decode disagree on\n%q\nfull:     %v\ncounters: %v", data, gotErr, countersErr)
	case gotErr == nil && !reflect.DeepEqual(counters, untraced):
		t.Fatalf("counters mode and full decode fill different counters from\n%q\nfull:     %#v\ncounters: %#v", data, untraced, counters)
	}
	return gotErr == nil
}

// outsideSubset reports whether data holds a construct the decoder may
// refuse although encoding/xml accepts it: a comment, CDATA section or
// other <! directive, or a namespace prefix on an element or attribute
// name (which RawToken leaves in Name.Space).
func outsideSubset(data []byte) bool {
	if bytes.Contains(data, []byte("<!")) {
		return true
	}
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.RawToken()
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			if tok.Name.Space != "" {
				return true
			}
			for _, a := range tok.Attr {
				if a.Name.Space != "" {
					return true
				}
			}
		case xml.EndElement:
			if tok.Name.Space != "" {
				return true
			}
		}
	}
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// profileEdgeCases pins the decoder's behaviour on the edge cases of the
// contract. accept is the decoder's outcome; encoding/xml reaches the
// same one except on the cases marked outside the subset, which it
// accepts.
var profileEdgeCases = []struct {
	name   string
	doc    string
	accept bool
}{
	{"self-closing root", `<healers-profile/>`, true},
	{"declaration and text before the root", "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n text \xc3\xa9 &amp; <healers-profile host=\"h\"/>", true},
	{"anything after the root", `<healers-profile host="h"></healers-profile><oops>&bogus;` + "\x00\xff", true},
	{"CR and CRLF normalised", "<healers-profile host=\"a\r\nb\rc\r\r\n\" app=\"&#13;\n\"/>", true},
	{"predefined entities", `<healers-profile host="&lt;&gt;&amp;&apos;&quot;" app='"'/>`, true},
	{"character references", `<healers-profile host="&#65;&#x42;&#x1F600;&#0000067;&#xd800;"/>`, true},
	{"references in text", `<healers-profile>&#65;&lt;&#xFFFD;</healers-profile>`, true},
	{"unknown entity", `<healers-profile host="&nbsp;"/>`, false},
	{"reference without semicolon", `<healers-profile host="&amp"/>`, false},
	{"uppercase hex marker", `<healers-profile host="&#X41;"/>`, false},
	{"reference to NUL", `<healers-profile host="&#0;"/>`, false},
	{"reference past Unicode", `<healers-profile host="&#x110000;"/>`, false},
	{"reference to U+FFFE", `<healers-profile>&#xFFFE;</healers-profile>`, false},
	{"empty reference", `<healers-profile host="&#;"/>`, false},
	{"invalid UTF-8 in a value", "<healers-profile host=\"\xff\"/>", false},
	{"invalid UTF-8 in text", "<healers-profile>\xc3</healers-profile>", false},
	{"illegal character in text", "<healers-profile>\x01</healers-profile>", false},
	{"]]> in text", `<healers-profile>]]></healers-profile>`, false},
	{"]]> in a value", `<healers-profile host="]]>"/>`, true},
	{"< in a value", `<healers-profile host="<"/>`, false},
	{"trimmed number", `<healers-profile overflows=" 42&#9;"><function calls="&#32;7"/></healers-profile>`, true},
	{"empty number", `<healers-profile overflows=""><function calls="" exec_ns=""/></healers-profile>`, true},
	{"blank number", `<healers-profile overflows="  "/>`, false},
	{"signed numbers", `<healers-profile><function exec_ns="-5" calls="0"><latency><bucket log2="+3" count="1"/></latency></function></healers-profile>`, true},
	{"sign on an unsigned number", `<healers-profile overflows="+1"/>`, false},
	{"uint64 overflow", `<healers-profile overflows="18446744073709551616"/>`, false},
	{"uint64 max", `<healers-profile overflows="18446744073709551615"/>`, true},
	{"int64 overflow", `<healers-profile><function exec_ns="9223372036854775808"/></healers-profile>`, false},
	{"not a number", `<healers-profile><trace><call seq="x"/></trace></healers-profile>`, false},
	{"numeric call attribute as a reference", `<healers-profile><trace><call seq="&#49;" dur_ns="&#32;7"/></trace></healers-profile>`, true},
	{"bad dur_ns", `<healers-profile><trace><call seq="1" dur_ns="9223372036854775808"/></trace></healers-profile>`, false},
	{"references in call strings", `<healers-profile><trace><call func="f" args="&amp;&#10;&lt;" outcome="&#x6F;k"/></trace></healers-profile>`, true},
	{"invalid UTF-8 in args", "<healers-profile><trace><call seq=\"1\" args=\"\xff\"/></trace></healers-profile>", false},
	{"unknown child inside a call", `<healers-profile><trace><call seq="1"><frame pc="x"><x/></frame></call></trace></healers-profile>`, true},
	{"</trace> closing a call", `<healers-profile><trace><call seq="1"></trace></healers-profile>`, false},
	{"last duplicate attribute wins", `<healers-profile host="a" host="b"><function calls="1" calls="2"/></healers-profile>`, true},
	{"every duplicate is parsed", `<healers-profile><function calls="x" calls="2"/></healers-profile>`, false},
	{"unknown attributes and elements", `<healers-profile future="1"><function name="f" x="y"><future a="b"><function calls="9"/></future><error errno="E" count="1"><x/></error></function><future/></healers-profile>`, true},
	{"bad number on an unknown element", `<healers-profile><future calls="x"/></healers-profile>`, true},
	{"repeated latency and trace", `<healers-profile><function><latency><bucket log2="1" count="2"/></latency><latency/><latency><bucket log2="3" count="4"/></latency></function><trace><call seq="1"/></trace><trace></trace><trace><call seq="2"/></trace></healers-profile>`, true},
	{"empty latency and trace", `<healers-profile><function><latency></latency></function><trace/></healers-profile>`, true},
	{"attributes without white space between them", `<healers-profile host="a"app='b'/>`, true},
	{"white space around =", "<healers-profile host \n=\t\"a\" ></healers-profile >", true},
	{"default namespace", `<healers-profile xmlns="urn:a" xmlns="urn:b"><function xmlns="urn:c" name="f"/></healers-profile>`, true},
	{"colon at the edge of a name", `<healers-profile :a="1" b:="2"><:x></:x><y:></y:></healers-profile>`, true},
	{"two colons in a name", `<healers-profile a:b:c="1"/>`, false},
	{"non-ASCII names", "<healers-profile \xc3\xa9t\xc3\xa9=\"1\"><\xe6\x97\xa5\xe6\x9c\xac/></healers-profile>", true},
	{"invalid non-ASCII name", "<healers-profile><\xc3\x97/></healers-profile>", false},
	{"name starting with a digit", `<healers-profile><1a/></healers-profile>`, false},
	{"processing instructions", `<?app data?><healers-profile><?xml-stylesheet x?><function name="f"><?pi ?></function></healers-profile>`, true},
	{"XML declaration inside the root", `<healers-profile><?xml encoding="latin1"?></healers-profile>`, false},
	{"unsupported version", `<?xml version="1.1"?><healers-profile/>`, false},
	{"non-UTF-8 encoding", `<?xml version="1.0" encoding="ISO-8859-1"?><healers-profile/>`, false},
	{"declared encoding in another case", `<?xml encoding='Utf-8'?><healers-profile/>`, true},
	{"wrong root", `<healers-profiles/>`, false},
	{"no root", "<?xml version=\"1.0\"?>\n", false},
	{"end tag before the root", `</x><healers-profile/>`, false},
	{"mismatched end tag", `<healers-profile><function></functions></healers-profile>`, false},
	{"mismatched end tag in an unknown subtree", `<healers-profile><a><b></a></b></healers-profile>`, false},
	{"unclosed root", `<healers-profile><function/>`, false},
	{"unquoted attribute", `<healers-profile host=h/>`, false},
	{"valueless attribute", `<healers-profile host/>`, false},
	{"stray slash", `<healers-profile / >`, false},
	{"truncated tag", `<healers-profile host="h"`, false},
	{"comment (outside the subset)", `<healers-profile><!-- c --></healers-profile>`, false},
	{"CDATA section (outside the subset)", `<healers-profile><![CDATA[x]]></healers-profile>`, false},
	{"prefixed element (outside the subset)", `<healers-profile><a:b></a:b></healers-profile>`, false},
	{"prefixed attribute (outside the subset)", `<healers-profile xml:lang="en"/>`, false},
}

// TestProfileDecodeEdgeCases runs every edge case through the oracle
// check and pins its outcome.
func TestProfileDecodeEdgeCases(t *testing.T) {
	for _, tc := range profileEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkProfileDecode(t, []byte(tc.doc)); got != tc.accept {
				t.Errorf("decoder accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// FuzzProfileDecode checks the decoder's contract (checkProfileDecode)
// on arbitrary bytes. The checked-in corpus under
// testdata/fuzz/FuzzProfileDecode holds FuzzKind's profile seeds; the
// pre-observability golden, a rendered pool-shaped document and the edge
// cases above are added here.
func FuzzProfileDecode(f *testing.F) {
	f.Add(readTestdata(f, "profile_pre_observability.xml"))
	f.Add(readTestdata(f, "profile_pool.xml"))
	for _, tc := range profileEdgeCases {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkProfileDecode(t, data)
	})
}

// TestProfileDecodeForwardCompatible: a profile from a future writer,
// with attributes and nested elements today's schema does not know,
// decodes as encoding/xml decodes it, to the values of the same profile
// without them.
func TestProfileDecodeForwardCompatible(t *testing.T) {
	plain := readTestdata(t, "profile_pool.xml")
	future := bytes.ReplaceAll(plain, []byte(`<function name="free"`),
		[]byte(`<function sampling="0.5" name="free"`))
	future = bytes.ReplaceAll(future, []byte(`<latency>`),
		[]byte(`<latency unit="ns"><p99 ns="1200"><by-cpu cpu="0" ns="1100"/></p99>`))
	future = bytes.Replace(future, []byte(`<trace>`),
		[]byte(`<host-info kernel="6.1"><cpu n="2"/></host-info><trace dropped="0">`), 1)
	if bytes.Equal(future, plain) {
		t.Fatal("the rewrite added nothing")
	}
	if !checkProfileDecode(t, future) {
		t.Fatal("decoder rejects the extended profile")
	}
	want, err := Unmarshal[ProfileLog](plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal[ProfileLog](future)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("unknown attributes or elements changed the decoded profile")
	}
}

// TestProfileDecodeDeepNest: 20 000 levels of unknown elements inside a
// <function> — twice encoding/xml's unmarshal depth limit, which its
// iterative Skip never reaches — decode as encoding/xml decodes them,
// without recursion; left unclosed, both reject them.
func TestProfileDecodeDeepNest(t *testing.T) {
	const depth = 20000
	open := `<healers-profile><function name="f" calls="3">` + strings.Repeat("<x>", depth)
	closed := open + strings.Repeat("</x>", depth) + `</function></healers-profile>`
	if !checkProfileDecode(t, []byte(closed)) {
		t.Error("decoder rejects a balanced deep nest of unknown elements")
	}
	if checkProfileDecode(t, []byte(open)) {
		t.Error("decoder accepts an unclosed deep nest")
	}
	if checkProfileDecode(t, []byte(closed[:len(closed)-len("</function></healers-profile>")]+`</healers-profile>`)) {
		t.Error("decoder accepts a deep nest closed by the wrong element")
	}
}

// TestProfileDecodeLongAttribute: a 1 MiB attribute value, plain and
// full of references, decodes in linear time.
func TestProfileDecodeLongAttribute(t *testing.T) {
	const size = 1 << 20
	for _, v := range []string{strings.Repeat("a", size), strings.Repeat("&amp;&#x41;\r\n", size/16)} {
		doc := []byte(`<healers-profile host="` + v + `"><function name="` + v + `"/></healers-profile>`)
		start := time.Now()
		var log ProfileLog
		if err := decodeProfile(doc, &log, false); err != nil {
			t.Fatal(err)
		}
		// Linear work is milliseconds even under the race detector; a
		// quadratic pass over 1 MiB would take minutes.
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("decoding a %d-byte document took %v", len(doc), d)
		}
		checkProfileDecode(t, doc)
	}
}

// BenchmarkProfileDecode parses a pool-shaped profile (94 functions, a
// 256-entry trace ring; 30 KB) with the decoder in both its modes (the
// collector's ingest uses counters) and with encoding/xml, the decoder's
// oracle.
func BenchmarkProfileDecode(b *testing.B) {
	data := readTestdata(b, "profile_pool.xml")
	for _, mode := range []struct {
		name     string
		counters bool
	}{{"decoder", false}, {"counters", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				var log ProfileLog
				if err := decodeProfile(data, &log, mode.counters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("encoding-xml", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			var log ProfileLog
			if err := xml.Unmarshal(data, &log); err != nil {
				b.Fatal(err)
			}
		}
	})
}
