package xmlrep

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decodeProfile is the collector's decoder for profile documents: one
// linear pass over the bytes, without reflection and without an
// xml.Decoder. It fills log exactly as xml.Unmarshal would, and rejects
// every input xml.Unmarshal rejects (FuzzProfileDecode holds it to that).
// It also rejects three constructs no HEALERS writer emits, which
// encoding/xml would accept: comments, CDATA sections and other <!
// directives, and namespace prefixes on element or attribute names.
//
// Elements the ProfileLog schema does not know are skipped at any depth,
// as encoding/xml skips them. The decoder never recurses: it keeps the
// offsets of the open elements' names on a heap slice, so hostile nesting
// costs heap proportional to the input and no stack.
//
// With counters set, the <trace> element is checked and not built: log's
// Trace stays nil, and the document is accepted or rejected exactly as
// without counters (FuzzProfileDecode holds the two modes together).
func decodeProfile(data []byte, log *ProfileLog, counters bool) error {
	d := profileDecoder{data: data, log: log, counters: counters}
	return d.run()
}

// UnmarshalProfileCounters parses a profile document for its counters:
// every field Unmarshal[ProfileLog] fills except Trace, which stays nil.
// It accepts and rejects exactly the documents Unmarshal does; inside
// <trace> it checks names, nesting, character data and the numeric seq
// and dur_ns attributes, but builds no call entries. It is the
// collector's ingest decode, whose aggregate never reads the trace.
func UnmarshalProfileCounters(data []byte) (*ProfileLog, error) {
	var log ProfileLog
	if err := decodeProfile(data, &log, true); err != nil {
		return nil, fmt.Errorf("xmlrep: unmarshal: %w", err)
	}
	return &log, nil
}

// profElem is a position in the ProfileLog schema: the element whose
// content the decoder is reading.
type profElem uint8

const (
	inProlog  profElem = iota // before the root
	inRoot                    // <healers-profile>
	inFunc                    // <function>
	inClass                   // <function><contained-class>
	inErrno                   // <function><error>
	inLatency                 // <function><latency>
	inBucket                  // <function><latency><bucket>
	inGlobal                  // <global-error>
	inTrace                   // <trace>
	inCall                    // <trace><call>
	inUnknown                 // an element outside the schema
)

// profParent is each schema element's parent, for leaving it at its end
// tag.
var profParent = [...]profElem{
	inRoot:    inProlog,
	inFunc:    inRoot,
	inClass:   inFunc,
	inErrno:   inFunc,
	inLatency: inFunc,
	inBucket:  inLatency,
	inGlobal:  inRoot,
	inTrace:   inRoot,
	inCall:    inTrace,
}

// profChild maps a child element's name to its schema position; a name
// the parent's struct has no field for is inUnknown.
func profChild(parent profElem, name []byte) profElem {
	switch parent {
	case inRoot:
		switch string(name) {
		case "function":
			return inFunc
		case "global-error":
			return inGlobal
		case "trace":
			return inTrace
		}
	case inFunc:
		switch string(name) {
		case "contained-class":
			return inClass
		case "error":
			return inErrno
		case "latency":
			return inLatency
		}
	case inLatency:
		if string(name) == "bucket" {
			return inBucket
		}
	case inTrace:
		if string(name) == "call" {
			return inCall
		}
	}
	return inUnknown
}

type profileDecoder struct {
	data []byte
	log  *ProfileLog
	// open holds the name offset of every open element, outermost first;
	// an end tag must repeat the name of the last one.
	open []int
	// cur is the innermost open schema element, and skip counts the open
	// elements from the outermost unknown one inward (0: none is open).
	cur  profElem
	skip int
	// val is scratch space for attribute values holding references or
	// carriage returns.
	val []byte
	// counters leaves the trace unbuilt; a <call>'s numeric attributes
	// are parsed into call, which no caller reads.
	counters bool
	call     TraceEntryXML
}

// syntaxError reports malformed input at byte offset off, in
// encoding/xml's error type.
func (d *profileDecoder) syntaxError(off int, msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: 1 + bytes.Count(d.data[:off], []byte{'\n'})}
}

func (d *profileDecoder) run() error {
	data := d.data
	for i := 0; ; {
		// Character data up to the next markup. A document always ends
		// inside markup: the root's end tag stops the decoder.
		j, _, ok := scanChars(data, i, '<')
		if !ok {
			return d.syntaxError(i, "invalid character data")
		}
		if j == len(data) {
			return d.syntaxError(j, "unexpected EOF")
		}
		i = j + 1
		if i == len(data) {
			return d.syntaxError(i, "unexpected EOF")
		}
		var err error
		switch data[i] {
		case '/':
			i, err = d.endTag(i + 1)
			if err == nil && len(d.open) == 0 {
				return nil // the root ended; encoding/xml reads no further
			}
		case '?':
			i, err = d.procInst(i + 1)
		case '!':
			err = d.syntaxError(i, "comments, CDATA sections and directives are not accepted in profile documents")
		default:
			i, err = d.startTag(i)
			if err == nil && len(d.open) == 0 {
				return nil // a self-closing root
			}
		}
		if err != nil {
			return err
		}
	}
}

// elemName scans the element or attribute name at i and returns its end.
// Names with a namespace prefix are refused; encoding/xml accepts them,
// but no HEALERS writer emits one.
func (d *profileDecoder) elemName(i int) (int, error) {
	end, seen := nameEnd(d.data, i)
	if end == len(d.data) {
		return 0, d.syntaxError(end, "unexpected EOF")
	}
	name := d.data[i:end]
	if !validName(name, seen) {
		return 0, d.syntaxError(i, "expected a valid XML name")
	}
	if seen&classColon != 0 {
		c := bytes.IndexByte(name, ':')
		// encoding/xml splits a name at its only colon into a prefix and a
		// local part when both are non-empty, and refuses two colons.
		if c > 0 && c < len(name)-1 || bytes.Count(name, []byte{':'}) > 1 {
			return 0, d.syntaxError(i, "namespace prefixes are not accepted in profile documents")
		}
	}
	return end, nil
}

// startTag reads the start tag whose name begins at i, enters the element
// and assigns its attributes; a self-closing tag also leaves it.
func (d *profileDecoder) startTag(i int) (int, error) {
	data := d.data
	end, err := d.elemName(i)
	if err != nil {
		return 0, err
	}
	name := data[i:end]
	d.open = append(d.open, i)
	elem := inUnknown
	switch {
	case d.skip > 0:
		d.skip++
	case d.cur == inProlog:
		if string(name) != "healers-profile" {
			return 0, d.syntaxError(i, "expected element type <healers-profile> but have <"+string(name)+">")
		}
		elem = inRoot
		d.log.XMLName.Local = "healers-profile"
	default:
		elem = profChild(d.cur, name)
	}
	if elem == inUnknown {
		if d.skip == 0 {
			d.skip = 1
		}
	} else {
		d.cur = elem
		d.enter(elem)
	}
	for i = end; ; {
		i = skipSpace(data, i)
		if i == len(data) {
			return 0, d.syntaxError(i, "unexpected EOF")
		}
		switch data[i] {
		case '>':
			return i + 1, nil
		case '/':
			if i+1 == len(data) || data[i+1] != '>' {
				return 0, d.syntaxError(i, "expected /> in element")
			}
			d.leave()
			return i + 2, nil
		}
		i, err = d.attr(elem, i)
		if err != nil {
			return 0, err
		}
	}
}

// attr reads the attribute at i and assigns it when elem's struct has a
// field of its name.
func (d *profileDecoder) attr(elem profElem, i int) (int, error) {
	data := d.data
	end, err := d.elemName(i)
	if err != nil {
		return 0, err
	}
	name := data[i:end]
	i = skipSpace(data, end)
	if i == len(data) || data[i] != '=' {
		return 0, d.syntaxError(i, "attribute name without = in element")
	}
	i = skipSpace(data, i+1)
	if i == len(data) || data[i] != '"' && data[i] != '\'' {
		return 0, d.syntaxError(i, "unquoted or missing attribute value in element")
	}
	end, decode, ok := scanChars(data, i+1, data[i])
	if !ok {
		return 0, d.syntaxError(i, "invalid attribute value")
	}
	if end == len(data) {
		return 0, d.syntaxError(end, "unexpected EOF")
	}
	if elem != inUnknown && !d.drops(elem, name) {
		v := data[i+1 : end]
		if decode {
			v = d.decodeValue(v)
		}
		if err := d.assign(elem, name, v); err != nil {
			return 0, d.syntaxError(i, err.Error())
		}
	}
	return end + 1, nil
}

// drops reports whether the counters mode leaves attribute name of elem
// unread: every trace attribute but a call's seq and dur_ns, whose parse
// can reject the document. Reading any other one cannot.
func (d *profileDecoder) drops(elem profElem, name []byte) bool {
	return d.counters && (elem == inTrace || elem == inCall && string(name) != "seq" && string(name) != "dur_ns")
}

// endTag reads the end tag whose name begins at i and leaves the element.
func (d *profileDecoder) endTag(i int) (int, error) {
	data := d.data
	end, err := d.elemName(i)
	if err != nil {
		return 0, err
	}
	name := data[i:end]
	j := skipSpace(data, end)
	if j == len(data) || data[j] != '>' {
		return 0, d.syntaxError(j, "invalid characters between </"+string(name)+" and >")
	}
	if len(d.open) == 0 {
		return 0, d.syntaxError(i, "unexpected end element </"+string(name)+">")
	}
	o := d.open[len(d.open)-1]
	if oend, _ := nameEnd(data, o); !bytes.Equal(data[o:oend], name) {
		return 0, d.syntaxError(i, "element <"+string(data[o:oend])+"> closed by </"+string(name)+">")
	}
	d.leave()
	return j + 1, nil
}

// leave pops the innermost open element.
func (d *profileDecoder) leave() {
	d.open = d.open[:len(d.open)-1]
	if d.skip > 0 {
		d.skip--
	} else {
		d.cur = profParent[d.cur]
	}
}

// procInst checks the processing instruction whose target begins at i.
// An XML declaration must declare version 1.0 (or none) and UTF-8 (or
// no encoding), as encoding/xml requires without a CharsetReader.
func (d *profileDecoder) procInst(i int) (int, error) {
	data := d.data
	end, seen := nameEnd(data, i)
	if end == len(data) {
		return 0, d.syntaxError(end, "unexpected EOF")
	}
	if !validName(data[i:end], seen) {
		return 0, d.syntaxError(i, "expected target name after <?")
	}
	target := data[i:end]
	j := skipSpace(data, end)
	k := bytes.Index(data[j:], []byte("?>"))
	if k < 0 {
		return 0, d.syntaxError(len(data), "unexpected EOF")
	}
	if string(target) == "xml" {
		content := data[j : j+k]
		if v := declParam(content, "version"); v != nil && string(v) != "1.0" {
			return 0, fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", v)
		}
		if e := declParam(content, "encoding"); e != nil && !bytes.EqualFold(e, []byte("utf-8")) {
			return 0, fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", e)
		}
	}
	return j + k + 2, nil
}

// declParam returns the value of param in an XML declaration's content,
// or nil when absent or empty, scanning as loosely as encoding/xml does:
// the first `param=` directly followed by a quote opens the value, and
// the next such quote closes it.
func declParam(s []byte, param string) []byte {
	key := param + "="
	for i := 0; i < len(s); {
		k := bytes.Index(s[i:], []byte(key))
		if k < 0 || i+k+len(key) >= len(s) {
			return nil
		}
		i += k + len(key)
		if q := s[i]; q == '\'' || q == '"' {
			j := bytes.IndexByte(s[i+1:], q)
			if j <= 0 {
				return nil
			}
			return s[i+1 : i+1+j]
		}
		i++
	}
	return nil
}

// enter appends or allocates the struct element e's attributes fill.
// Repeated <latency> and <trace> elements fill one struct, as
// encoding/xml reuses a non-nil pointer field. The two long lists,
// functions and trace calls, are sized once by counting their tags in
// the input, an upper bound that halves the bytes a pool-shaped profile
// allocates against growing them by append. Functions are counted only
// before the first <trace, which the encoder writes after them, so the
// count skips the document's largest element. The counters mode
// allocates nothing for the trace.
func (d *profileDecoder) enter(e profElem) {
	l := d.log
	if d.counters && (e == inTrace || e == inCall) {
		return
	}
	switch e {
	case inFunc:
		if l.Funcs == nil {
			head := d.data
			if i := bytes.Index(head, []byte("<trace")); i >= 0 {
				head = head[:i]
			}
			l.Funcs = make([]FuncProfile, 0, bytes.Count(head, []byte("<function")))
		}
		l.Funcs = append(l.Funcs, FuncProfile{})
	case inClass:
		f := &l.Funcs[len(l.Funcs)-1]
		f.ContainedBy = append(f.ContainedBy, ClassCount{})
	case inErrno:
		f := &l.Funcs[len(l.Funcs)-1]
		f.Errnos = append(f.Errnos, ErrnoCount{})
	case inLatency:
		if f := &l.Funcs[len(l.Funcs)-1]; f.Latency == nil {
			f.Latency = &LatencyXML{}
		}
	case inBucket:
		lat := l.Funcs[len(l.Funcs)-1].Latency
		lat.Buckets = append(lat.Buckets, HistBucketXML{})
	case inGlobal:
		l.Global = append(l.Global, ErrnoCount{})
	case inTrace:
		if l.Trace == nil {
			l.Trace = &TraceXML{}
		}
	case inCall:
		if l.Trace.Calls == nil {
			l.Trace.Calls = make([]TraceEntryXML, 0, bytes.Count(d.data, []byte("<call")))
		}
		l.Trace.Calls = append(l.Trace.Calls, TraceEntryXML{})
	}
}

// assign stores attribute name=v on the struct of the innermost element
// e. Attributes without a field are ignored; a repeated attribute is
// parsed every time and the last one wins, as in encoding/xml.
func (d *profileDecoder) assign(e profElem, name, v []byte) error {
	l := d.log
	switch e {
	case inRoot:
		switch string(name) {
		case "host":
			l.Host = string(v)
		case "app":
			l.App = string(v)
		case "wrapper":
			l.Wrapper = string(v)
		case "generated":
			l.Generated = string(v)
		case "overflows":
			return parseUint(&l.Overflows, name, v)
		case "xmlns":
			// The default namespace declaration names the root's space.
			l.XMLName.Space = string(v)
		}
	case inFunc:
		f := &l.Funcs[len(l.Funcs)-1]
		switch string(name) {
		case "name":
			f.Name = string(v)
		case "calls":
			return parseUint(&f.Calls, name, v)
		case "exec_ns":
			return parseInt(&f.ExecNS, name, v, 64)
		case "denied":
			return parseUint(&f.Denied, name, v)
		case "passed":
			return parseUint(&f.Passed, name, v)
		case "substituted":
			return parseUint(&f.Substituted, name, v)
		case "contained":
			return parseUint(&f.Contained, name, v)
		case "retried":
			return parseUint(&f.Retried, name, v)
		case "breaker_trips":
			return parseUint(&f.BreakerTrips, name, v)
		case "silent_corruption":
			return parseUint(&f.SilentCorrupt, name, v)
		}
	case inClass:
		f := &l.Funcs[len(l.Funcs)-1]
		c := &f.ContainedBy[len(f.ContainedBy)-1]
		switch string(name) {
		case "class":
			c.Class = string(v)
		case "count":
			return parseUint(&c.Count, name, v)
		}
	case inErrno, inGlobal:
		var ec *ErrnoCount
		if e == inGlobal {
			ec = &l.Global[len(l.Global)-1]
		} else {
			f := &l.Funcs[len(l.Funcs)-1]
			ec = &f.Errnos[len(f.Errnos)-1]
		}
		switch string(name) {
		case "errno":
			ec.Errno = string(v)
		case "count":
			return parseUint(&ec.Count, name, v)
		}
	case inBucket:
		lat := l.Funcs[len(l.Funcs)-1].Latency
		b := &lat.Buckets[len(lat.Buckets)-1]
		switch string(name) {
		case "log2":
			var n int64
			err := parseInt(&n, name, v, strconv.IntSize)
			b.Bucket = int(n)
			return err
		case "count":
			return parseUint(&b.Count, name, v)
		}
	case inCall:
		c := &d.call
		if !d.counters {
			c = &l.Trace.Calls[len(l.Trace.Calls)-1]
		}
		switch string(name) {
		case "seq":
			return parseUint(&c.Seq, name, v)
		case "func":
			c.Func = string(v)
		case "args":
			c.Args = string(v)
		case "dur_ns":
			return parseInt(&c.DurNS, name, v, 64)
		case "outcome":
			c.Outcome = string(v)
		}
	}
	return nil
}

// parseUint and parseInt convert a numeric attribute the way
// encoding/xml does: an empty value is 0, anything else is trimmed of
// white space and parsed by strconv in base 10 (parseInt into bits
// bits). Short plain digit strings take a fast path with the same
// result.
func parseUint(dst *uint64, name, v []byte) error {
	if n, ok := plainDigits(v, 19); ok { // 19 digits never overflow a uint64
		*dst = n
		return nil
	}
	if len(v) == 0 {
		*dst = 0
		return nil
	}
	n, err := strconv.ParseUint(string(bytes.TrimSpace(v)), 10, 64)
	if err != nil {
		return fmt.Errorf("attribute %s: %w", name, err)
	}
	*dst = n
	return nil
}

func parseInt(dst *int64, name, v []byte, bits int) error {
	if n, ok := plainDigits(v, 18); ok && n>>(bits-1) == 0 { // 18 digits never overflow an int64
		*dst = int64(n)
		return nil
	}
	if len(v) == 0 {
		*dst = 0
		return nil
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, bits)
	if err != nil {
		return fmt.Errorf("attribute %s: %w", name, err)
	}
	*dst = n
	return nil
}

// plainDigits returns the value of v when v is 1 to max ASCII digits.
func plainDigits(v []byte, max int) (uint64, bool) {
	if len(v) == 0 || len(v) > max {
		return 0, false
	}
	var n uint64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// decodeValue returns the value of a scanned attribute value that holds
// a reference or a carriage return: references replaced, line ends
// normalized.
func (d *profileDecoder) decodeValue(raw []byte) []byte {
	out := d.val[:0]
	cr := false // the previous byte was a literal carriage return
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '&':
			r, n := charRef(raw[i:])
			out = utf8.AppendRune(out, r)
			i += n
			cr = false
			continue
		case c == '\r':
			out = append(out, '\n')
			cr = true
		case c == '\n' && cr:
			cr = false
		default:
			out = append(out, c)
			cr = false
		}
		i++
	}
	d.val = out
	return out
}

// scanChars scans character data from i: text up to markup when stop is
// '<', an attribute value up to its closing quote when stop is the quote.
// It returns the index of stop (len(data) at EOF), whether the data holds
// a reference or a carriage return and so needs decodeValue, and whether
// it is well formed: XML characters in valid UTF-8, references to the
// five predefined entities or to XML characters, no '<' in a value and no
// "]]>" in text.
func scanChars(data []byte, i int, stop byte) (end int, decode, ok bool) {
	for i < len(data) {
		c := data[i]
		if byteClass[c]&classPlain != 0 {
			i++
			continue
		}
		switch {
		case c == stop:
			return i, decode, true
		case c == '<':
			return i, decode, false
		case c == '&':
			r, n := charRef(data[i:])
			if n == 0 || !isXMLChar(r) {
				return i, decode, false
			}
			decode = true
			i += n
		case c == '\r':
			decode = true
			i++
		case c == ']':
			if stop == '<' && bytes.HasPrefix(data[i+1:], []byte("]>")) {
				return i, decode, false
			}
			i++
		case c == '"' || c == '\'':
			i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 || !isXMLChar(r) {
				return i, decode, false
			}
			i += n
		default:
			return i, decode, false // a control character
		}
	}
	return i, decode, true
}

// charRef decodes the entity or character reference at the start of b
// (b[0] == '&') and returns its rune and length, or length 0 when it is
// malformed. A surrogate code point decodes to U+FFFD, as string(rune(n))
// makes it in encoding/xml.
func charRef(b []byte) (rune, int) {
	if len(b) > 1 && b[1] == '#' {
		i, base := 2, uint64(10)
		if len(b) > 2 && b[2] == 'x' {
			i, base = 3, 16
		}
		start := i
		var n uint64
		for ; i < len(b); i++ {
			var digit uint64
			switch c := b[i]; {
			case '0' <= c && c <= '9':
				digit = uint64(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				digit = uint64(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				digit = uint64(c-'A') + 10
			default:
				goto end
			}
			if n = n*base + digit; n > utf8.MaxRune {
				return 0, 0 // out of range, or strconv would overflow
			}
		}
	end:
		if i == start || i == len(b) || b[i] != ';' {
			return 0, 0
		}
		if 0xD800 <= n && n <= 0xDFFF {
			return utf8.RuneError, i + 1
		}
		return rune(n), i + 1
	}
	for _, e := range predefined {
		if bytes.HasPrefix(b[1:], []byte(e.ref)) {
			return e.r, 1 + len(e.ref)
		}
	}
	return 0, 0
}

// predefined lists the five entities XML defines without a declaration.
var predefined = [...]struct {
	ref string
	r   rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// isXMLChar reports whether r is in XML 1.0's Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Byte classes for the scanning loops.
const (
	className  = 1 << iota // may continue a name
	classSpace             // XML white space
	classPlain             // stands for itself in text and attribute values
	classColon             // ':'
	classHigh              // a non-ASCII byte
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		if 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf {
			t[c] |= className
		}
		if c >= 0x20 && c < utf8.RuneSelf && !strings.ContainsRune(`<&"']`, rune(c)) || c == '\t' || c == '\n' {
			t[c] |= classPlain
		}
	}
	for _, c := range " \t\n\r" {
		t[c] |= classSpace
	}
	t[':'] |= classColon
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] |= classHigh
	}
	return t
}()

// nameEnd returns the end of the name at data[i:], and the classes of
// its bytes ORed together: like encoding/xml, a name runs to the first
// ASCII byte that cannot be part of one, and every non-ASCII byte is
// taken for validName to judge.
func nameEnd(data []byte, i int) (int, uint8) {
	var seen uint8
	for i < len(data) {
		c := byteClass[data[i]]
		if c&className == 0 {
			break
		}
		seen |= c
		i++
	}
	return i, seen
}

// validName reports whether n, whose byte classes nameEnd returned as
// seen, is an XML name as encoding/xml judges it.
// An ASCII name must start with a letter, '_' or ':'. For a name with
// other characters, encoding/xml's Letter tables are private, so the
// name is checked by encoding/xml itself, as the target of a processing
// instruction.
func validName(n []byte, seen uint8) bool {
	if len(n) == 0 {
		return false
	}
	if seen&classHigh == 0 {
		c := n[0]
		return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
	}
	pi := append(append([]byte("<?"), n...), "?>"...)
	_, err := xml.NewDecoder(bytes.NewReader(pi)).RawToken()
	return err == nil
}

// skipSpace returns the first index at or after i that is not XML white
// space.
func skipSpace(data []byte, i int) int {
	for i < len(data) && byteClass[data[i]]&classSpace != 0 {
		i++
	}
	return i
}
