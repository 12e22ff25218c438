package xmlrep

import (
	"encoding/binary"
	"encoding/xml"
	"math"
	"testing"
)

// checkProfileEncode holds Marshal of a profile document to its
// contract with encoding/xml as the oracle: byte for byte the output of
// xml.Header + xml.MarshalIndent(log, "", "  ") + "\n".
func checkProfileEncode(t *testing.T, log *ProfileLog) {
	t.Helper()
	body, err := xml.MarshalIndent(log, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := xml.Header + string(body) + "\n"
	got, err := Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("encoder and encoding/xml differ at byte %d:\nencoder:      %q\nencoding/xml: %q\ndocument: %#v",
		i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)], log)
}

// TestProfileEncodeRoundTrip: the checked-in profiles, decoded and
// rendered again, are the files byte for byte, in a slice with no more
// spare capacity than a copy of it has.
func TestProfileEncodeRoundTrip(t *testing.T) {
	for _, name := range []string{"profile_pool.xml", "profile_pre_observability.xml"} {
		data := readTestdata(t, name)
		log, err := Unmarshal[ProfileLog](data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(log)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(data) {
			t.Errorf("%s does not render back to itself", name)
		}
		checkSpare(t, got)
		checkProfileEncode(t, log)
	}
}

// awkward is every kind of attribute value encoding/xml rewrites: the
// quotes and markup characters, the three white-space controls, the
// other C0 controls and DEL, invalid UTF-8 (a stray continuation byte, a
// truncated sequence, an encoded surrogate, a code point past U+10FFFF),
// U+FFFE/U+FFFF, and U+FFFD both encoded and as a raw invalid byte.
const awkward = "a\"b'c&d<e>f]]>g\th\ni\rj\x00k\x1fl\x7fm\x80n\xc3o\xed\xa0\x80p\xf4\x90\x80\x80q" +
	"\uFFFEr\uFFFFs\uFFFDt\xefu日本\U0001F600"

// TestProfileEncodeEdgeCases renders hand-built documents at every edge
// of the schema through the oracle check.
func TestProfileEncodeEdgeCases(t *testing.T) {
	full := FuncCounters{
		Calls: math.MaxUint64, ExecNS: math.MinInt64, Denied: 1, Passed: 2, Substituted: 3,
		Contained: 4, Retried: 5, BreakerTrips: 6, SilentCorrupt: math.MaxUint64,
	}
	for name, log := range map[string]*ProfileLog{
		"zero":                        {},
		"XMLName set":                 {XMLName: xml.Name{Space: "urn:x", Local: "other"}, Host: "h"},
		"awkward strings":             {Host: awkward, App: awkward, Wrapper: awkward, Generated: awkward},
		"overflows":                   {Overflows: math.MaxUint64},
		"empty function":              {Funcs: []FuncProfile{{}}},
		"every counter":               {Funcs: []FuncProfile{{Name: awkward, FuncCounters: full}}},
		"negative exec_ns":            {Funcs: []FuncProfile{{FuncCounters: FuncCounters{ExecNS: -1}}}},
		"empty children":              {Funcs: []FuncProfile{{ContainedBy: []ClassCount{}, Errnos: []ErrnoCount{}}}},
		"nil latency buckets":         {Funcs: []FuncProfile{{Latency: &LatencyXML{}}}},
		"empty latency buckets":       {Funcs: []FuncProfile{{Latency: &LatencyXML{Buckets: []HistBucketXML{}}}}},
		"every child":                 {Funcs: []FuncProfile{{Name: "f", ContainedBy: []ClassCount{{Class: awkward, Count: 1}}, Errnos: []ErrnoCount{{Errno: awkward}}, Latency: &LatencyXML{Buckets: []HistBucketXML{{Bucket: -3, Count: math.MaxUint64}, {Bucket: math.MaxInt}}}}}},
		"empty global":                {Global: []ErrnoCount{}},
		"global only":                 {Global: []ErrnoCount{{Errno: "ENOENT", Count: 3}, {}}},
		"nil trace calls":             {Trace: &TraceXML{}},
		"empty trace calls":           {Trace: &TraceXML{Calls: []TraceEntryXML{}}},
		"trace calls":                 {Trace: &TraceXML{Calls: []TraceEntryXML{{}, {Seq: math.MaxUint64, Func: awkward, Args: awkward, DurNS: math.MinInt64, Outcome: awkward}}}},
		"functions, global and trace": {Funcs: []FuncProfile{{Name: "f"}, {Name: "g", Latency: &LatencyXML{}}}, Global: []ErrnoCount{{Errno: "E"}}, Trace: &TraceXML{}},
	} {
		t.Run(name, func(t *testing.T) { checkProfileEncode(t, log) })
	}
	var nilLog *ProfileLog
	got, err := Marshal(nilLog)
	if err != nil || string(got) != xml.Header+"\n" {
		t.Errorf("Marshal(nil *ProfileLog) = %q, %v; want the bare header", got, err)
	}
}

// fuzzBytes hands out a fuzz input's bytes to build a ProfileLog from;
// past the end it reads zeros.
type fuzzBytes []byte

func (p *fuzzBytes) byte() byte {
	if len(*p) == 0 {
		return 0
	}
	c := (*p)[0]
	*p = (*p)[1:]
	return c
}

func (p *fuzzBytes) take(n int) []byte {
	n = min(n, len(*p))
	s := (*p)[:n]
	*p = (*p)[n:]
	return s
}

// fuzzFragments are the pieces str joins: every character class
// encoding/xml's attribute escaper treats differently.
var fuzzFragments = []string{
	"a", "0x1f", "ENOENT", `"`, "'", "&", "<", ">", "]]>", "\t", "\n", "\r", "\r\n",
	"\x00", "\x01", "\x1f", "\x7f", "\x80", "\xbf", "\xc3", "\xe6\x97", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xff",
	"é", "日本", "\U0001F600", "\uFFFD", "\uFFFE", "\uFFFF", "\uD7FF", "\uE000", "\U0010FFFF",
}

// str is, for one length byte in four, a string of up to 63 raw input
// bytes; otherwise up to 15 fragments, one per input byte.
func (p *fuzzBytes) str() string {
	c := p.byte()
	if c&0xc0 == 0 {
		return string(p.take(int(c)))
	}
	var s []byte
	for range c & 15 {
		s = append(s, fuzzFragments[int(p.byte())%len(fuzzFragments)]...)
	}
	return string(s)
}

// u64 is zero, the maximum, a small value or eight raw bytes.
func (p *fuzzBytes) u64() uint64 {
	switch p.byte() % 4 {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return uint64(p.byte())
	}
	var b [8]byte
	copy(b[:], p.take(8))
	return binary.LittleEndian.Uint64(b[:])
}

// i64 is u64 reinterpreted, or a small negative value.
func (p *fuzzBytes) i64() int64 {
	if c := p.byte(); c%5 == 0 {
		return -int64(c)
	}
	return int64(p.u64())
}

// fuzzSlice is nil, empty but not nil, or one to four elements.
func fuzzSlice[T any](p *fuzzBytes, elem func() T) []T {
	c := p.byte() % 6
	if c == 0 {
		return nil
	}
	s := make([]T, c-1)
	for i := range s {
		s[i] = elem()
	}
	return s
}

// profile builds a ProfileLog whose every field, string, number, slice
// and optional element comes from the input.
func (p *fuzzBytes) profile() *ProfileLog {
	errno := func() ErrnoCount { return ErrnoCount{Errno: p.str(), Count: p.u64()} }
	log := &ProfileLog{
		XMLName:   xml.Name{Space: p.str(), Local: p.str()},
		Host:      p.str(),
		App:       p.str(),
		Wrapper:   p.str(),
		Generated: p.str(),
		Overflows: p.u64(),
	}
	log.Funcs = fuzzSlice(p, func() FuncProfile {
		f := FuncProfile{Name: p.str(), FuncCounters: FuncCounters{
			Calls: p.u64(), ExecNS: p.i64(), Denied: p.u64(), Passed: p.u64(), Substituted: p.u64(),
			Contained: p.u64(), Retried: p.u64(), BreakerTrips: p.u64(), SilentCorrupt: p.u64(),
		}}
		f.ContainedBy = fuzzSlice(p, func() ClassCount { return ClassCount{Class: p.str(), Count: p.u64()} })
		f.Errnos = fuzzSlice(p, errno)
		if p.byte()%3 != 0 {
			f.Latency = &LatencyXML{Buckets: fuzzSlice(p, func() HistBucketXML {
				return HistBucketXML{Bucket: int(p.i64()), Count: p.u64()}
			})}
		}
		return f
	})
	log.Global = fuzzSlice(p, errno)
	if p.byte()%3 != 0 {
		log.Trace = &TraceXML{Calls: fuzzSlice(p, func() TraceEntryXML {
			return TraceEntryXML{Seq: p.u64(), Func: p.str(), Args: p.str(), DurNS: p.i64(), Outcome: p.str()}
		})}
	}
	return log
}

// FuzzProfileEncode holds the profile encoder to encoding/xml
// (checkProfileEncode) on two documents per input: the ProfileLog the
// bytes build field by field, and the bytes themselves decoded as a
// profile when they are one. The checked-in profiles seed the second
// form; the first reaches arbitrary strings, including invalid UTF-8,
// and extreme numbers, which no decoded document holds.
func FuzzProfileEncode(f *testing.F) {
	f.Add(readTestdata(f, "profile_pool.xml"))
	f.Add(readTestdata(f, "profile_pre_observability.xml"))
	f.Add([]byte("\x85\x03\x04\x05\x06\x07\x1c\x1e\x1d\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzBytes(data)
		checkProfileEncode(t, p.profile())
		if log, err := Unmarshal[ProfileLog](data); err == nil {
			checkProfileEncode(t, log)
		}
	})
}

// BenchmarkProfileEncode renders the pool-shaped profile (94 functions,
// a 256-entry trace ring; 30 KB) with Marshal and with encoding/xml, the
// encoder's oracle.
func BenchmarkProfileEncode(b *testing.B) {
	log, err := Unmarshal[ProfileLog](readTestdata(b, "profile_pool.xml"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Marshal(log); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-xml", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := xml.MarshalIndent(log, "", "  "); err != nil {
				b.Fatal(err)
			}
		}
	})
}
