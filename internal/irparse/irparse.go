// Package irparse parses the textual IR format emitted by
// ir.Module.String back into an ir.Module; printing and parsing
// round-trip. The format is LLVM-flavoured:
//
//	type %pair = {i32, i32}
//	@tab = constant [2 x i32] [10, 20]
//	declare i32 @ext(i32 %x) readonly
//	func i32 @main(i32 %a) {
//	entry:
//	  %t = add i32 %a, 5
//	  ret i32 %t
//	}
package irparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rolag/internal/cc"
	"rolag/internal/ir"
)

// maxDepth bounds how tall a parsed type may be, counting one level per
// array, struct and pointer derivation. The parser, the printer and
// every later walk over a type recurse once per level, and Go cannot
// recover from stack exhaustion, so a deeper input is a parse error.
// Array constants are bounded too: parseConst descends one array level
// of the constant's type per nested constant. It is the mini-C
// frontend's limit, so any module the frontend accepts round-trips.
const maxDepth = cc.MaxDepth

// ParseModule parses a textual module.
func ParseModule(src string) (*ir.Module, error) {
	p := &parser{lex: newLexer(src), mod: ir.NewModule("parsed")}
	if err := p.parse(); err != nil {
		return nil, err
	}
	p.layoutStructs()
	if err := p.mod.Verify(); err != nil {
		return nil, fmt.Errorf("irparse: parsed module does not verify: %w", err)
	}
	return p.mod, nil
}

// Error is a parse error with a line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("irparse: line %d: %s", e.Line, e.Msg) }

type tokKind int

const (
	tEOF tokKind = iota
	tWord
	tLocal  // %name
	tGlobal // @name
	tInt
	tFloat
	tPunct
)

type token struct {
	kind tokKind
	text string
	i    int64
	f    float64
	line int
}

type lexer struct {
	src  string
	off  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (lx *lexer) next() (token, error) {
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		if c == '\n' {
			lx.line++
			lx.off++
			continue
		}
		if c == ' ' || c == '\t' || c == '\r' {
			lx.off++
			continue
		}
		if c == ';' { // comment to end of line
			for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
				lx.off++
			}
			continue
		}
		break
	}
	if lx.off >= len(lx.src) {
		return token{kind: tEOF, line: lx.line}, nil
	}
	start := lx.off
	c := lx.src[lx.off]
	switch {
	case c == '%' || c == '@':
		lx.off++
		for lx.off < len(lx.src) && isWordByte(lx.src[lx.off]) {
			lx.off++
		}
		kind := tLocal
		if c == '@' {
			kind = tGlobal
		}
		return token{kind: kind, text: lx.src[start+1 : lx.off], line: lx.line}, nil
	case isWordByte(c) && !isDigitByte(c) && c != '-' && c != '+':
		for lx.off < len(lx.src) && isWordByte(lx.src[lx.off]) {
			lx.off++
		}
		return token{kind: tWord, text: lx.src[start:lx.off], line: lx.line}, nil
	case isDigitByte(c) || c == '-' || c == '+':
		lx.off++
		isFloat := false
		for lx.off < len(lx.src) {
			d := lx.src[lx.off]
			if isDigitByte(d) {
				lx.off++
				continue
			}
			if d == '.' || d == 'e' || d == 'E' || d == 'n' || d == 'a' || d == 'f' || d == 'i' {
				// floats, nan, inf
				isFloat = true
				lx.off++
				continue
			}
			if (d == '-' || d == '+') && (lx.src[lx.off-1] == 'e' || lx.src[lx.off-1] == 'E') {
				lx.off++
				continue
			}
			break
		}
		text := lx.src[start:lx.off]
		if !isFloat {
			v, err := strconv.ParseInt(text, 10, 64)
			if err != nil {
				return token{}, &Error{Line: lx.line, Msg: "bad integer " + text}
			}
			return token{kind: tInt, text: text, i: v, line: lx.line}, nil
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, &Error{Line: lx.line, Msg: "bad float " + text}
		}
		return token{kind: tFloat, text: text, f: v, line: lx.line}, nil
	default:
		lx.off++
		return token{kind: tPunct, text: string(c), line: lx.line}, nil
	}
}

func isWordByte(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
func isDigitByte(c byte) bool { return c >= '0' && c <= '9' }

type parser struct {
	lex    *lexer
	tok    token
	peeked *token
	mod    *ir.Module
	// anon holds the anonymous struct types the text spells out.
	anon []*ir.StructType
}

// layoutStructs lays out every struct type of the module once all
// bodies are known (a named struct may be used before its definition).
// A struct is laid out after the structs it holds by value, so the
// passes repeat until one lays nothing out; a struct that holds itself
// by value is never laid out.
func (p *parser) layoutStructs() {
	pending := slices.Concat(p.mod.Structs, p.anon)
	for {
		rest := pending[:0]
		for _, st := range pending {
			if !st.Layout() {
				rest = append(rest, st)
			}
		}
		if len(rest) == len(pending) {
			return
		}
		pending = rest
	}
}

func (p *parser) next() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peek() (token, error) {
	if p.peeked == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tPunct || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.text)
	}
	return p.next()
}

func (p *parser) isPunct(s string) bool { return p.tok.kind == tPunct && p.tok.text == s }
func (p *parser) isWord(s string) bool  { return p.tok.kind == tWord && p.tok.text == s }

func (p *parser) parse() error {
	if err := p.next(); err != nil {
		return err
	}
	for p.tok.kind != tEOF {
		switch {
		case p.isWord("type"):
			if err := p.parseTypeDef(); err != nil {
				return err
			}
		case p.tok.kind == tGlobal:
			if err := p.parseGlobal(); err != nil {
				return err
			}
		case p.isWord("declare"), p.isWord("func"):
			if err := p.parseFunc(); err != nil {
				return err
			}
		default:
			return p.errf("unexpected token %q at top level", p.tok.text)
		}
	}
	return nil
}

// parseType parses a type, with trailing '*' for pointers.
func (p *parser) parseType() (ir.Type, error) {
	t, _, err := p.parseNested(0)
	return t, err
}

// parseNested parses a type nested inside depth enclosing array and
// struct types and returns it with its height (i32 is 1, [2 x i32*] is
// 3). depth plus the height may not exceed maxDepth.
func (p *parser) parseNested(depth int) (ir.Type, int, error) {
	if depth >= maxDepth {
		return nil, 0, p.errf("type nested deeper than %d levels", maxDepth)
	}
	var t ir.Type
	h := 1
	switch {
	case p.tok.kind == tWord:
		name := p.tok.text
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		switch name {
		case "void":
			t = ir.Void
		case "f32":
			t = ir.F32
		case "f64":
			t = ir.F64
		default:
			if !strings.HasPrefix(name, "i") {
				return nil, 0, p.errf("unknown type %q", name)
			}
			bits, err := strconv.Atoi(name[1:])
			if err != nil || bits <= 0 || bits > 64 {
				return nil, 0, p.errf("unknown type %q", name)
			}
			t = ir.IntType{Bits: bits}
		}
	case p.tok.kind == tLocal:
		st := p.mod.FindStruct(p.tok.text)
		if st == nil {
			st = p.mod.AddStruct(&ir.StructType{TypeName: p.tok.text})
		}
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		t = st
	case p.isPunct("["):
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		if p.tok.kind != tInt {
			return nil, 0, p.errf("expected array length")
		}
		n := int(p.tok.i)
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		if !p.isWord("x") {
			return nil, 0, p.errf("expected 'x' in array type")
		}
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		elem, eh, err := p.parseNested(depth + 1)
		if err != nil {
			return nil, 0, err
		}
		h = eh + 1
		if err := p.expectPunct("]"); err != nil {
			return nil, 0, err
		}
		t = ir.ArrayOf(n, elem)
	case p.isPunct("{"):
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		st := &ir.StructType{}
		p.anon = append(p.anon, st)
		for !p.isPunct("}") {
			ft, fh, err := p.parseNested(depth + 1)
			if err != nil {
				return nil, 0, err
			}
			h = max(h, fh+1)
			st.Fields = append(st.Fields, ft)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, 0, err
				}
			}
		}
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		t = st
	default:
		return nil, 0, p.errf("expected type, found %q", p.tok.text)
	}
	for p.isPunct("*") {
		if h++; depth+h > maxDepth {
			return nil, 0, p.errf("type nested deeper than %d levels", maxDepth)
		}
		if err := p.next(); err != nil {
			return nil, 0, err
		}
		t = ir.Ptr(t)
	}
	return t, h, nil
}

func (p *parser) parseTypeDef() error {
	if err := p.next(); err != nil { // consume "type"
		return err
	}
	if p.tok.kind != tLocal {
		return p.errf("expected %%name after 'type'")
	}
	name := p.tok.text
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.kind != tPunct || p.tok.text != "=" {
		return p.errf("expected '='")
	}
	if err := p.next(); err != nil {
		return err
	}
	// The body must be a struct literal: a named reference such as
	// "type %a = %b" would register %b's type a second time as %a.
	if !p.isPunct("{") {
		return p.errf("type definition body must be a struct")
	}
	body, err := p.parseType()
	if err != nil {
		return err
	}
	st, ok := body.(*ir.StructType)
	if !ok {
		return p.errf("type definition body must be a struct")
	}
	if existing := p.mod.FindStruct(name); existing != nil {
		existing.Fields = st.Fields
		return nil
	}
	st.TypeName = name
	p.mod.AddStruct(st)
	return nil
}

func (p *parser) parseGlobal() error {
	name := p.tok.text
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.kind != tPunct || p.tok.text != "=" {
		return p.errf("expected '=' after global name")
	}
	if err := p.next(); err != nil {
		return err
	}
	readonly := false
	switch {
	case p.isWord("global"):
	case p.isWord("constant"):
		readonly = true
	default:
		return p.errf("expected 'global' or 'constant'")
	}
	if err := p.next(); err != nil {
		return err
	}
	elem, err := p.parseType()
	if err != nil {
		return err
	}
	var init ir.Const
	if p.tok.kind != tGlobal && !p.isWord("declare") && !p.isWord("func") && !p.isWord("type") && p.tok.kind != tEOF {
		c, err := p.parseConst(elem)
		if err != nil {
			return err
		}
		init = c
	}
	g := p.mod.NewGlobal(name, elem, init)
	g.ReadOnly = readonly
	return nil
}

func (p *parser) parseConst(t ir.Type) (ir.Const, error) {
	switch {
	case p.isWord("zeroinitializer"):
		return &ir.ZeroConst{Typ: t}, p.next()
	case p.isWord("null"):
		pt, ok := t.(ir.PointerType)
		if !ok {
			return nil, p.errf("null requires a pointer type")
		}
		return ir.ConstNull(pt), p.next()
	case p.isWord("undef"):
		return &ir.UndefConst{Typ: t}, p.next()
	case p.tok.kind == tInt:
		v := p.tok.i
		if err := p.next(); err != nil {
			return nil, err
		}
		switch t := t.(type) {
		case ir.IntType:
			return ir.ConstInt(t, v), nil
		case ir.FloatType:
			return ir.ConstFloat(t, float64(v)), nil
		}
		return nil, p.errf("integer constant for non-numeric type %s", t)
	case p.tok.kind == tFloat:
		ft, ok := t.(ir.FloatType)
		if !ok {
			return nil, p.errf("float constant for non-float type %s", t)
		}
		v := p.tok.f
		return ir.ConstFloat(ft, v), p.next()
	case p.isPunct("["):
		at, ok := t.(ir.ArrayType)
		if !ok {
			return nil, p.errf("array constant for non-array type %s", t)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		arr := &ir.ArrayConst{Typ: at}
		for !p.isPunct("]") {
			e, err := p.parseConst(at.Elem)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, e)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
		return arr, p.next()
	}
	return nil, p.errf("expected constant, found %q", p.tok.text)
}

func (p *parser) parseFunc() error {
	isDecl := p.isWord("declare")
	if err := p.next(); err != nil {
		return err
	}
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	if p.tok.kind != tGlobal {
		return p.errf("expected function name")
	}
	name := p.tok.text
	if err := p.next(); err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var params []*ir.Param
	for !p.isPunct(")") {
		pt, err := p.parseType()
		if err != nil {
			return err
		}
		if p.tok.kind != tLocal {
			return p.errf("expected parameter name")
		}
		params = append(params, &ir.Param{Name: p.tok.text, Typ: pt})
		if err := p.next(); err != nil {
			return err
		}
		if p.isPunct(",") {
			if err := p.next(); err != nil {
				return err
			}
		}
	}
	if err := p.next(); err != nil { // consume ")"
		return err
	}
	f := p.mod.NewFunc(name, ret, params...)
	if isDecl {
		f.Blocks = nil
		if p.isWord("readonly") {
			f.ReadOnly = true
			return p.next()
		}
		return nil
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	return p.parseBody(f)
}
