package xmlrep

import (
	"encoding/xml"
	"strconv"
	"unicode/utf8"
)

// encodeProfile is the renderer of profile documents, the mirror of
// decodeProfile: one linear append pass over log, without reflection and
// without an xml.Encoder. It writes exactly the bytes of
// xml.Header + xml.MarshalIndent(log, "", "  ") + "\n", which is what
// Marshal writes for every other kind (FuzzProfileEncode holds it to
// that): attributes in field order, omitempty counters left out while
// zero, no self-closing tags, and an end tag on a line of its own only
// after child elements. The result is a fresh slice, sized once from
// the element counts.
func encodeProfile(log *ProfileLog) []byte {
	size := 256 + len(log.Host) + len(log.App) + len(log.Wrapper) + len(log.Generated) +
		len(log.Funcs)*profFuncBytes + len(log.Global)*profGlobalBytes
	if log.Trace != nil {
		size += len(log.Trace.Calls) * profCallBytes
	}
	b := make([]byte, 0, size)
	b = append(b, xml.Header...)
	b = append(b, "<healers-profile"...)
	b = appendStrAttr(b, "host", log.Host)
	b = appendStrAttr(b, "app", log.App)
	b = appendStrAttr(b, "wrapper", log.Wrapper)
	if log.Generated != "" {
		b = appendStrAttr(b, "generated", log.Generated)
	}
	if log.Overflows != 0 {
		b = appendUintAttr(b, "overflows", log.Overflows)
	}
	b = append(b, '>')
	for i := range log.Funcs {
		b = appendFuncProfile(b, &log.Funcs[i])
	}
	for _, e := range log.Global {
		b = append(b, "\n  <global-error"...)
		b = appendErrnoCount(b, e, "global-error>")
	}
	if log.Trace != nil {
		b = append(b, "\n  <trace>"...)
		for i := range log.Trace.Calls {
			b = appendTraceEntry(b, &log.Trace.Calls[i])
		}
		b = appendClose(b, "\n  ", "trace>", len(log.Trace.Calls) > 0)
	}
	open := len(log.Funcs) > 0 || len(log.Global) > 0 || log.Trace != nil
	b = appendClose(b, "\n", "healers-profile>", open)
	return append(b, '\n')
}

// Bytes reserved per element, sized from the element counts: the
// pool-shaped profile averages about 90 bytes per function and per call.
// A longer document makes append grow the slice.
const (
	profFuncBytes   = 128 // one <function> with its children
	profGlobalBytes = 64  // one <global-error>
	profCallBytes   = 112 // one <call> of the trace ring
)

// appendFuncProfile writes one <function> element at depth 1.
func appendFuncProfile(b []byte, f *FuncProfile) []byte {
	b = append(b, "\n  <function"...)
	b = appendStrAttr(b, "name", f.Name)
	b = appendUintAttr(b, "calls", f.Calls)
	b = appendIntAttr(b, "exec_ns", f.ExecNS)
	for _, c := range [...]struct {
		name string
		v    uint64
	}{
		{"denied", f.Denied},
		{"passed", f.Passed},
		{"substituted", f.Substituted},
		{"contained", f.Contained},
		{"retried", f.Retried},
		{"breaker_trips", f.BreakerTrips},
		{"silent_corruption", f.SilentCorrupt},
	} {
		if c.v != 0 {
			b = appendUintAttr(b, c.name, c.v)
		}
	}
	b = append(b, '>')
	for _, c := range f.ContainedBy {
		b = append(b, "\n    <contained-class"...)
		b = appendStrAttr(b, "class", c.Class)
		b = appendUintAttr(b, "count", c.Count)
		b = append(b, "></contained-class>"...)
	}
	for _, e := range f.Errnos {
		b = append(b, "\n    <error"...)
		b = appendErrnoCount(b, e, "error>")
	}
	if f.Latency != nil {
		b = append(b, "\n    <latency>"...)
		for _, k := range f.Latency.Buckets {
			b = append(b, "\n      <bucket"...)
			b = appendIntAttr(b, "log2", int64(k.Bucket))
			b = appendUintAttr(b, "count", k.Count)
			b = append(b, "></bucket>"...)
		}
		b = appendClose(b, "\n    ", "latency>", len(f.Latency.Buckets) > 0)
	}
	open := len(f.ContainedBy) > 0 || len(f.Errnos) > 0 || f.Latency != nil
	return appendClose(b, "\n  ", "function>", open)
}

// appendErrnoCount writes an errno bucket's attributes and closes its
// element, whose start tag the caller opened.
func appendErrnoCount(b []byte, e ErrnoCount, end string) []byte {
	b = appendStrAttr(b, "errno", e.Errno)
	b = appendUintAttr(b, "count", e.Count)
	b = append(b, "></"...)
	return append(b, end...)
}

// appendTraceEntry writes one <call> element at depth 2.
func appendTraceEntry(b []byte, t *TraceEntryXML) []byte {
	b = append(b, "\n    <call"...)
	b = appendUintAttr(b, "seq", t.Seq)
	b = appendStrAttr(b, "func", t.Func)
	if t.Args != "" {
		b = appendStrAttr(b, "args", t.Args)
	}
	b = appendIntAttr(b, "dur_ns", t.DurNS)
	b = appendStrAttr(b, "outcome", t.Outcome)
	return append(b, "></call>"...)
}

// appendClose writes the end tag "</"+end. Like encoding/xml's indenter,
// it puts the tag on a new line at indent only after child elements.
func appendClose(b []byte, indent, end string, children bool) []byte {
	if children {
		b = append(b, indent...)
	}
	b = append(b, "</"...)
	return append(b, end...)
}

func appendStrAttr(b []byte, name, v string) []byte {
	b = appendAttrName(b, name)
	b = appendEscaped(b, v)
	return append(b, '"')
}

func appendUintAttr(b []byte, name string, v uint64) []byte {
	b = appendAttrName(b, name)
	b = strconv.AppendUint(b, v, 10)
	return append(b, '"')
}

func appendIntAttr(b []byte, name string, v int64) []byte {
	b = appendAttrName(b, name)
	b = strconv.AppendInt(b, v, 10)
	return append(b, '"')
}

// appendAttrName opens an attribute: ` name="`.
func appendAttrName(b []byte, name string) []byte {
	b = append(b, ' ')
	b = append(b, name...)
	return append(b, '=', '"')
}

// attrEscapes is what encoding/xml's EscapeString writes for each ASCII
// byte it does not copy: a character reference for the quotes and the
// white space it keeps, an entity for &, < and >, and U+FFFD for the
// other C0 controls, which XML cannot carry at all.
var attrEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range 0x20 {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''] = "&#34;", "&#39;"
	t['&'], t['<'], t['>'] = "&amp;", "&lt;", "&gt;"
	return t
}()

// appendEscaped appends s as encoding/xml's EscapeString writes it:
// attrEscapes for ASCII, and one U+FFFD for each invalid UTF-8 byte and
// for each rune outside XML's character range (U+FFFE, U+FFFF). Runs of
// bytes written unchanged are copied in one append.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		esc, n := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = attrEscapes[c]
		} else {
			// An invalid byte decodes to U+FFFD; rewriting an encoded
			// U+FFFD to itself leaves it as encoding/xml does.
			var r rune
			r, n = utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError || !isXMLChar(r) {
				esc = "\uFFFD"
			}
		}
		i += n
		if esc != "" {
			b = append(b, s[last:i-n]...)
			b = append(b, esc...)
			last = i
		}
	}
	return append(b, s[last:]...)
}
