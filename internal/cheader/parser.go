package cheader

import (
	"fmt"
	"strings"

	"healers/internal/ctypes"
)

// typedefs maps the typedef names that appear in the supported headers to
// their underlying types. Opaque handle typedefs (FILE) map to void so
// that FILE* parses as an opaque pointer.
var typedefs = map[string]*ctypes.CType{
	"size_t":    ctypes.SizeT,
	"ssize_t":   ctypes.SSizeT,
	"wctrans_t": {Kind: ctypes.KindInt, TypedefName: "wctrans_t"},
	"wint_t":    {Kind: ctypes.KindInt, TypedefName: "wint_t"},
	"time_t":    {Kind: ctypes.KindLong, TypedefName: "time_t"},
	"clock_t":   {Kind: ctypes.KindLong, TypedefName: "clock_t"},
	"pid_t":     {Kind: ctypes.KindInt, TypedefName: "pid_t"},
	"uid_t":     {Kind: ctypes.KindInt, TypedefName: "uid_t"},
	"gid_t":     {Kind: ctypes.KindInt, TypedefName: "gid_t"},
	"mode_t":    {Kind: ctypes.KindUInt, TypedefName: "mode_t"},
	"off_t":     {Kind: ctypes.KindLong, TypedefName: "off_t"},
	"FILE":      {Kind: ctypes.KindVoid, TypedefName: "FILE"},
	"DIR":       {Kind: ctypes.KindVoid, TypedefName: "DIR"},
	"div_t":     {Kind: ctypes.KindLongLong, TypedefName: "div_t"},
	"intptr_t":  {Kind: ctypes.KindLong, TypedefName: "intptr_t"},
}

// parser consumes a token stream for one declaration.
type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) accept(k tokKind) bool {
	if p.toks[p.i].kind == k {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptIdent(s string) bool {
	if p.toks[p.i].kind == tokIdent && p.toks[p.i].text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("cheader: expected %s, got %q in %q", what, t, p.src)
	}
	return t, nil
}

// parseBaseType parses qualifiers and the base type name.
func (p *parser) parseBaseType() (*ctypes.CType, error) {
	isConst := false
	unsigned := false
	signed := false
	for {
		switch {
		case p.acceptIdent("const"):
			isConst = true
		case p.acceptIdent("unsigned"):
			unsigned = true
		case p.acceptIdent("signed"):
			signed = true
		case p.acceptIdent("struct"), p.acceptIdent("union"), p.acceptIdent("enum"):
			// Tagged types are opaque to the toolkit; eat the tag.
			tag, err := p.expect(tokIdent, "struct/union/enum tag")
			if err != nil {
				return nil, err
			}
			return &ctypes.CType{Kind: ctypes.KindVoid, Const: isConst, TypedefName: "struct " + tag.text}, nil
		default:
			goto base
		}
	}
base:
	t := p.peek()
	if unsigned || signed {
		switch t.text {
		case "char", "short", "int", "long":
		default:
			// A bare signed/unsigned means int; what follows is the
			// declarator, not a type name.
			return with(ctypes.Int, isConst, unsigned), nil
		}
	}
	if t.kind != tokIdent {
		return nil, fmt.Errorf("cheader: expected type name, got %q in %q", t, p.src)
	}
	p.next()
	switch t.text {
	case "void":
		return with(ctypes.Void, isConst, false), nil
	case "char":
		return with(ctypes.Char, isConst, false), nil
	case "short":
		p.acceptIdent("int")
		return with(&ctypes.CType{Kind: ctypes.KindShort}, isConst, unsigned), nil
	case "int":
		return with(ctypes.Int, isConst, unsigned), nil
	case "long":
		if p.acceptIdent("long") {
			p.acceptIdent("int")
			return with(ctypes.LongLong, isConst, unsigned), nil
		}
		p.acceptIdent("int")
		return with(ctypes.Long, isConst, unsigned), nil
	case "float", "double":
		return with(ctypes.Double, isConst, false), nil
	default:
		if td, ok := typedefs[t.text]; ok {
			return with(td, isConst, false), nil
		}
		return nil, fmt.Errorf("cheader: unknown type %q in %q", t.text, p.src)
	}
}

// with applies qualifiers to a shared base type, copying when needed.
// unsigned turns int and long (both int width in the simulated ABI) into
// KindUInt; unsigned char, short and long long keep their kinds, because
// the type model has no unsigned variant of those widths.
func with(base *ctypes.CType, isConst, unsigned bool) *ctypes.CType {
	if !isConst && !unsigned {
		return base
	}
	cp := *base
	cp.Const = cp.Const || isConst
	if unsigned && (cp.Kind == ctypes.KindInt || cp.Kind == ctypes.KindLong) {
		cp.Kind = ctypes.KindUInt
	}
	return &cp
}

// parseDeclType parses base type plus pointer stars.
func (p *parser) parseDeclType() (*ctypes.CType, error) {
	t, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	for p.accept(tokStar) {
		t = ctypes.PtrTo(t)
		// "char * const p" — a const pointer; qualifier applies to the
		// pointer itself, which the toolkit does not distinguish.
		p.acceptIdent("const")
	}
	return t, nil
}

// parseParam parses one parameter, including function-pointer parameters
// of the form "ret (*name)(args)".
func (p *parser) parseParam() (ctypes.Param, error) {
	t, err := p.parseDeclType()
	if err != nil {
		return ctypes.Param{}, err
	}
	// Function pointer: next tokens are ( * name ) ( ... )
	if p.peek().kind == tokLParen {
		p.next()
		if _, err := p.expect(tokStar, "'*' in function-pointer parameter"); err != nil {
			return ctypes.Param{}, err
		}
		name := ""
		if p.peek().kind == tokIdent {
			name = p.next().text
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return ctypes.Param{}, err
		}
		if _, err := p.expect(tokLParen, "'(' of function-pointer args"); err != nil {
			return ctypes.Param{}, err
		}
		depth := 1
		for depth > 0 {
			switch p.next().kind {
			case tokLParen:
				depth++
			case tokRParen:
				depth--
			case tokEOF:
				return ctypes.Param{}, fmt.Errorf("cheader: unterminated function-pointer parameter in %q", p.src)
			}
		}
		return ctypes.NewParam(name, ctypes.FuncPtr, ctypes.RoleFuncPtr), nil
	}
	name := ""
	if p.peek().kind == tokIdent {
		name = p.next().text
	}
	// Array suffix decays to pointer.
	if p.accept(tokLBracket) {
		for p.peek().kind == tokNumber || p.peek().kind == tokIdent {
			p.next()
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return ctypes.Param{}, err
		}
		t = ctypes.PtrTo(t)
	}
	return ctypes.NewParam(name, t, ctypes.RoleNone), nil
}

// parseDecl parses a complete function declaration.
func parseDecl(src string) (*ctypes.Prototype, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	ret, err := p.parseDeclType()
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(tokIdent, "function name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	proto := &ctypes.Prototype{Name: nameTok.text, Ret: ret}
	if p.peek().kind == tokIdent && p.peek().text == "void" && p.toks[p.i+1].kind == tokRParen {
		p.next() // f(void): no parameters.
	} else if p.peek().kind != tokRParen {
		// A parameter follows every comma: f(int,) is an error.
		for {
			if p.accept(tokEllipsis) {
				proto.Variadic = true
				break
			}
			prm, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			proto.Params = append(proto.Params, prm)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	if !p.accept(tokSemi) && p.peek().kind != tokEOF {
		return nil, fmt.Errorf("cheader: trailing tokens after declaration in %q", src)
	}
	return proto, nil
}

// applyAnnotations resolves "@param role key=value..." directives.
func applyAnnotations(proto *ctypes.Prototype, ann string) error {
	idx := func(name string) (int, error) {
		for i, prm := range proto.Params {
			if prm.Name == name {
				return i, nil
			}
		}
		return 0, fmt.Errorf("cheader: %s: annotation references unknown parameter %q", proto.Name, name)
	}
	fields := strings.Fields(ann)
	cur := -1
	for _, f := range fields {
		if strings.HasPrefix(f, "@") {
			i, err := idx(f[1:])
			if err != nil {
				return err
			}
			cur = i
			continue
		}
		if cur < 0 {
			return fmt.Errorf("cheader: %s: annotation %q before any @param", proto.Name, f)
		}
		prm := &proto.Params[cur]
		switch {
		case f == "in_str":
			prm.Role = ctypes.RoleInStr
		case f == "in_buf":
			prm.Role = ctypes.RoleInBuf
		case f == "out_buf":
			prm.Role = ctypes.RoleOutBuf
		case f == "inout_buf":
			prm.Role = ctypes.RoleInOutBuf
		case f == "size":
			prm.Role = ctypes.RoleSize
		case f == "fd":
			prm.Role = ctypes.RoleFd
		case f == "fmt":
			prm.Role = ctypes.RoleFmt
		case f == "func_ptr":
			prm.Role = ctypes.RoleFuncPtr
		case f == "ptr_out":
			prm.Role = ctypes.RolePtrOut
		case f == "heap_ptr":
			prm.Role = ctypes.RoleHeapPtr
		case f == "nul":
			prm.NulTerm = true
		case f == "overlap_ok":
			prm.OverlapOK = true
		case strings.HasPrefix(f, "len="):
			i, err := idx(f[4:])
			if err != nil {
				return err
			}
			prm.LenBy = i
		case strings.HasPrefix(f, "src="):
			i, err := idx(f[4:])
			if err != nil {
				return err
			}
			prm.SrcStr = i
		case strings.HasPrefix(f, "of="):
			i, err := idx(f[3:])
			if err != nil {
				return err
			}
			prm.SizeOf = i
		default:
			return fmt.Errorf("cheader: %s: unknown annotation %q", proto.Name, f)
		}
	}
	return nil
}

// inferDefaultRoles fills roles for unannotated parameters from
// const-ness, the conservative inference the toolkit applies before
// fault-injection refines it.
func inferDefaultRoles(proto *ctypes.Prototype) {
	for i := range proto.Params {
		prm := &proto.Params[i]
		if prm.Role != ctypes.RoleNone {
			continue
		}
		t := prm.Type
		switch {
		case t.Kind == ctypes.KindFuncPtr:
			prm.Role = ctypes.RoleFuncPtr
		case t.IsPointer() && t.PointeeConst() && t.Elem.Kind == ctypes.KindChar:
			prm.Role = ctypes.RoleInStr
		case t.IsPointer() && t.PointeeConst():
			prm.Role = ctypes.RoleInBuf
		case t.IsPointer():
			prm.Role = ctypes.RoleOutBuf
		case t.Kind == ctypes.KindSizeT:
			prm.Role = ctypes.RoleSize
		default:
			prm.Role = ctypes.RoleNone
		}
	}
}

// ParseHeader parses a header file's text: a sequence of declarations,
// comments, and blank lines. name is recorded as the Header of each
// resulting prototype. Unparseable declarations are returned as errors
// with their line numbers; parsing continues past them so one exotic
// declaration does not hide a whole header.
func ParseHeader(name, text string) ([]*ctypes.Prototype, []error) {
	var protos []*ctypes.Prototype
	var errs []error

	type pending struct {
		decl string
		ann  string
		line int
	}
	var cur pending
	flush := func() {
		if strings.TrimSpace(cur.decl) == "" {
			cur = pending{}
			return
		}
		proto, err := parseDecl(cur.decl)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s:%d: %w", name, cur.line, err))
			cur = pending{}
			return
		}
		proto.Header = name
		if strings.TrimSpace(cur.ann) != "" {
			if err := applyAnnotations(proto, cur.ann); err != nil {
				errs = append(errs, fmt.Errorf("%s:%d: %w", name, cur.line, err))
			}
		}
		inferDefaultRoles(proto)
		protos = append(protos, proto)
		cur = pending{}
	}

	for lineNo, raw := range strings.Split(text, "\n") {
		line, comment := splitComment(raw)
		if ann := extractAnnotation(comment); ann != "" {
			cur.ann += " " + ann
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // preprocessor lines are ignored
		}
		if cur.decl == "" {
			cur.line = lineNo + 1
		}
		cur.decl += " " + line
		if strings.Contains(line, ";") {
			flush()
		}
	}
	flush()
	return protos, errs
}

// splitComment strips // and /* */ comments from a line, returning the
// code part and the concatenated comment text. Multi-line block comments
// are not supported in declarations (headers in this toolkit keep
// annotations on the declaration line).
func splitComment(line string) (code, comment string) {
	var b strings.Builder
	var c strings.Builder
	for i := 0; i < len(line); {
		if strings.HasPrefix(line[i:], "//") {
			c.WriteString(line[i+2:])
			break
		}
		if strings.HasPrefix(line[i:], "/*") {
			end := strings.Index(line[i+2:], "*/")
			if end < 0 {
				c.WriteString(line[i+2:])
				break
			}
			c.WriteString(line[i+2 : i+2+end])
			c.WriteByte(' ')
			i += end + 4
			continue
		}
		b.WriteByte(line[i])
		i++
	}
	return b.String(), c.String()
}

// extractAnnotation returns the annotation portion of a comment: the
// suffix starting at the first '@'.
func extractAnnotation(comment string) string {
	i := strings.Index(comment, "@")
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(comment[i:])
}

// ParsePrototype parses a single declaration string (with optional
// trailing annotation comment), a convenience for tests and tools.
func ParsePrototype(src string) (*ctypes.Prototype, error) {
	code, comment := splitComment(src)
	proto, err := parseDecl(code)
	if err != nil {
		return nil, err
	}
	if ann := extractAnnotation(comment); ann != "" {
		if err := applyAnnotations(proto, ann); err != nil {
			return nil, err
		}
	}
	inferDefaultRoles(proto)
	return proto, nil
}
