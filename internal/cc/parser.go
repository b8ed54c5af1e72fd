package cc

import (
	"fmt"
	"strings"
)

// MaxDepth bounds how deep the parser recurses and how tall the trees it
// builds are. Three quantities may each reach MaxDepth levels: nesting
// (statements and blocks, parentheses, unary operators and casts,
// assignment right-hand sides, conditional branches), the height of
// every expression tree (a left-associated chain x+x+...+x is as tall as
// it is long), and pointer/array type derivations. The parser, the
// lowering and every later walk recurse once per level, and Go cannot
// recover from stack exhaustion, so a deeper input is a parse error. The
// deepest AST in the committed corpora (angha, tsvc, programs,
// examples) is 20 levels, statements included (TSVC's vbor).
const MaxDepth = 1000

// Parser parses mini-C source into an AST.
type Parser struct {
	lx      *Lexer
	tok     Token
	peeked  *Token
	structs map[string]*CStruct
	file    *File
	// depth is the current nesting (see MaxDepth); h is the height of
	// the expression most recently parsed.
	depth, h int
}

// Parse parses a translation unit.
func Parse(src string) (*File, error) {
	p := &Parser{
		lx:      NewLexer(src),
		structs: make(map[string]*CStruct),
		file:    &File{},
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	for p.tok.Kind != TokEOF {
		if err := p.parseTopLevel(); err != nil {
			return nil, err
		}
	}
	return p.file, nil
}

func (p *Parser) next() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) peek() (Token, error) {
	if p.peeked == nil {
		t, err := p.lx.Next()
		if err != nil {
			return Token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &Error{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}
}

// enter descends one nesting level; callers that succeed defer leave.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > MaxDepth {
		return p.errf("nesting deeper than %d levels", MaxDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// derived checks a pointer or array type built over t's element chain:
// it may be at most MaxDepth levels deep.
func (p *Parser) derived(t *CType) (*CType, error) {
	n := 0
	for e := t; e != nil; e = e.Elem {
		if n++; n > MaxDepth {
			return nil, p.errf("type deeper than %d levels", MaxDepth)
		}
	}
	return t, nil
}

// grow records an expression node whose tallest operand is child levels
// high.
func (p *Parser) grow(child int) error {
	p.h = child + 1
	if p.h > MaxDepth {
		return p.errf("expression deeper than %d levels", MaxDepth)
	}
	return nil
}

func (p *Parser) isPunct(s string) bool {
	return p.tok.Kind == TokPunct && p.tok.Text == s
}

func (p *Parser) isKeyword(s string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == s
}

func (p *Parser) acceptPunct(s string) (bool, error) {
	if p.isPunct(s) {
		return true, p.next()
	}
	return false, nil
}

func (p *Parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, found %q", s, p.tok.Text)
	}
	return p.next()
}

func (p *Parser) acceptKeyword(s string) (bool, error) {
	if p.isKeyword(s) {
		return true, p.next()
	}
	return false, nil
}

func (p *Parser) expectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errf("expected identifier, found %q", p.tok.Text)
	}
	name := p.tok.Text
	return name, p.next()
}

// declName is expectIdent for a name being declared. Token texts are
// slices of the source, and a declared name lives on in the IR (and in
// remarks, trace events and degraded reports), so it is copied rather
// than kept as a slice that would pin the whole source.
func (p *Parser) declName() (string, error) {
	name, err := p.expectIdent()
	return strings.Clone(name), err
}

// startsType reports whether the current token can begin a type
// specifier.
func (p *Parser) startsType() bool {
	if p.tok.Kind != TokKeyword {
		return false
	}
	switch p.tok.Text {
	case "void", "char", "short", "int", "long", "float", "double",
		"unsigned", "signed", "const", "struct":
		return true
	}
	return false
}

// parseTypeSpec parses a base type: keywords or struct references.
func (p *Parser) parseTypeSpec() (*CType, error) {
	// Eat qualifiers.
	readonly := false
	for p.isKeyword("const") || p.isKeyword("unsigned") || p.isKeyword("signed") || p.isKeyword("static") {
		if p.isKeyword("const") {
			readonly = true
		}
		_ = readonly
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.isKeyword("void"):
		return CVoid, p.next()
	case p.isKeyword("char"):
		return CChar, p.next()
	case p.isKeyword("short"):
		if err := p.next(); err != nil {
			return nil, err
		}
		// "short int"
		if p.isKeyword("int") {
			return CShort, p.next()
		}
		return CShort, nil
	case p.isKeyword("int"):
		return CInt, p.next()
	case p.isKeyword("long"):
		if err := p.next(); err != nil {
			return nil, err
		}
		for p.isKeyword("long") || p.isKeyword("int") {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		return CLong, nil
	case p.isKeyword("float"):
		return CFloat, p.next()
	case p.isKeyword("double"):
		return CDouble, p.next()
	case p.isKeyword("struct"):
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s, ok := p.structs[name]
		if !ok {
			// Copied for the reason declName gives.
			s = &CStruct{Name: strings.Clone(name)}
			p.structs[s.Name] = s
		}
		return &CType{Kind: KStruct, Struct: s}, nil
	}
	return nil, p.errf("expected type, found %q", p.tok.Text)
}

// parseDeclarator parses "*"* name ("[" N "]")* applied to base.
func (p *Parser) parseDeclarator(base *CType) (string, *CType, error) {
	t := base
	for p.isPunct("*") {
		if err := p.next(); err != nil {
			return "", nil, err
		}
		// "const" may follow the star.
		for p.isKeyword("const") {
			if err := p.next(); err != nil {
				return "", nil, err
			}
		}
		var err error
		if t, err = p.derived(CPtr(t)); err != nil {
			return "", nil, err
		}
	}
	name, err := p.declName()
	if err != nil {
		return "", nil, err
	}
	// Array suffixes, innermost last: int a[2][3] is array(2, array(3, int)).
	var dims []int
	for p.isPunct("[") {
		if err := p.next(); err != nil {
			return "", nil, err
		}
		if p.tok.Kind != TokIntLit {
			return "", nil, p.errf("expected constant array length")
		}
		if len(dims) == MaxDepth {
			return "", nil, p.errf("type deeper than %d levels", MaxDepth)
		}
		dims = append(dims, int(p.tok.Int))
		if err := p.next(); err != nil {
			return "", nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return "", nil, err
		}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		t = &CType{Kind: KArray, Elem: t, Len: dims[i]}
	}
	t, err = p.derived(t)
	return name, t, err
}

func (p *Parser) parseTopLevel() error {
	// extern declarations.
	isExtern, err := p.acceptKeyword("extern")
	if err != nil {
		return err
	}
	isConst := p.isKeyword("const")

	// Struct definition: struct Name { ... };
	if p.isKeyword("struct") {
		save := p.tok
		t, err := p.parseTypeSpec()
		if err != nil {
			return err
		}
		if p.isPunct("{") {
			return p.parseStructBody(t.Struct)
		}
		// Not a definition; continue as a declaration with this base
		// type.
		return p.parseVarOrFunc(t, isExtern, isConst, save.Pos)
	}

	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	return p.parseVarOrFunc(base, isExtern, isConst, p.tok.Pos)
}

func (p *Parser) parseStructBody(s *CStruct) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if len(s.Fields) > 0 {
		return p.errf("struct %s redefined", s.Name)
	}
	for !p.isPunct("}") {
		base, err := p.parseTypeSpec()
		if err != nil {
			return err
		}
		for {
			name, t, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			s.Fields = append(s.Fields, CField{Name: name, Type: t})
			ok, err := p.acceptPunct(",")
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	if err := p.next(); err != nil { // consume "}"
		return err
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	p.file.Structs = append(p.file.Structs, s)
	return nil
}

func (p *Parser) parseVarOrFunc(base *CType, isExtern, isConst bool, pos Pos) error {
	name, t, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}
	if p.isPunct("(") {
		return p.parseFunc(name, t, pos)
	}
	// Global variable(s).
	for {
		g := &GlobalDecl{Pos: pos, Name: name, Type: t, Extern: isExtern, ReadOnly: isConst}
		if p.isPunct("=") {
			if err := p.next(); err != nil {
				return err
			}
			if p.isPunct("{") {
				if err := p.next(); err != nil {
					return err
				}
				for !p.isPunct("}") {
					e, err := p.parseAssignExpr()
					if err != nil {
						return err
					}
					g.Init = append(g.Init, e)
					if ok, err := p.acceptPunct(","); err != nil {
						return err
					} else if !ok {
						break
					}
				}
				if err := p.expectPunct("}"); err != nil {
					return err
				}
			} else {
				e, err := p.parseAssignExpr()
				if err != nil {
					return err
				}
				g.Init = []Expr{e}
			}
		}
		p.file.Globals = append(p.file.Globals, g)
		ok, err := p.acceptPunct(",")
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		name, t, err = p.parseDeclarator(base)
		if err != nil {
			return err
		}
	}
	return p.expectPunct(";")
}

func (p *Parser) parseFunc(name string, ret *CType, pos Pos) error {
	fd := &FuncDecl{Pos: pos, Name: name, Ret: ret}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	if p.isKeyword("void") {
		if pk, err := p.peek(); err != nil {
			return err
		} else if pk.Kind == TokPunct && pk.Text == ")" {
			if err := p.next(); err != nil {
				return err
			}
		}
	}
	for !p.isPunct(")") {
		base, err := p.parseTypeSpec()
		if err != nil {
			return err
		}
		// Parameter name may be omitted in prototypes.
		t := base
		for p.isPunct("*") {
			if err := p.next(); err != nil {
				return err
			}
			for p.isKeyword("const") {
				if err := p.next(); err != nil {
					return err
				}
			}
			var err error
			if t, err = p.derived(CPtr(t)); err != nil {
				return err
			}
		}
		pname := ""
		if p.tok.Kind == TokIdent {
			pname = strings.Clone(p.tok.Text)
			if err := p.next(); err != nil {
				return err
			}
			// Array parameters decay to pointers.
			for p.isPunct("[") {
				if err := p.next(); err != nil {
					return err
				}
				if p.tok.Kind == TokIntLit {
					if err := p.next(); err != nil {
						return err
					}
				}
				if err := p.expectPunct("]"); err != nil {
					return err
				}
				var err error
				if t, err = p.derived(CPtr(t)); err != nil {
					return err
				}
			}
		}
		fd.Params = append(fd.Params, ParamDecl{Name: pname, Type: t})
		if ok, err := p.acceptPunct(","); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if ok, err := p.acceptKeyword("pure"); err != nil {
		return err
	} else if ok {
		fd.Pure = true
	}
	if p.isPunct(";") {
		p.file.Funcs = append(p.file.Funcs, fd)
		return p.next()
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fd.Body = body
	p.file.Funcs = append(p.file.Funcs, fd)
	return nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	pos := p.tok.Pos
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: pos}
	for !p.isPunct("}") {
		if p.tok.Kind == TokEOF {
			return nil, p.errf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, p.next()
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isPunct(";"):
		return &EmptyStmt{Pos: pos}, p.next()
	case p.isKeyword("if"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Pos: pos, Cond: cond, Then: then}
		if ok, err := p.acceptKeyword("else"); err != nil {
			return nil, err
		} else if ok {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case p.isKeyword("for"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		st := &ForStmt{Pos: pos}
		if !p.isPunct(";") {
			if p.startsType() {
				ds, err := p.parseDeclStmtNoSemi()
				if err != nil {
					return nil, err
				}
				st.Init = ds
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Init = &ExprStmt{Pos: e.exprPos(), X: e}
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		if !p.isPunct(";") {
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Cond = c
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		if !p.isPunct(")") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Post = e
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	case p.isKeyword("while"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: pos, Cond: cond, Body: body}, nil
	case p.isKeyword("do"):
		if err := p.next(); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if ok, err := p.acceptKeyword("while"); err != nil {
			return nil, err
		} else if !ok {
			return nil, p.errf("expected 'while' after do-body")
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Pos: pos, Cond: cond, Body: body}, p.expectPunct(";")
	case p.isKeyword("return"):
		if err := p.next(); err != nil {
			return nil, err
		}
		st := &ReturnStmt{Pos: pos}
		if !p.isPunct(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.X = e
		}
		return st, p.expectPunct(";")
	case p.isKeyword("break"):
		if err := p.next(); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: pos}, p.expectPunct(";")
	case p.isKeyword("continue"):
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: pos}, p.expectPunct(";")
	case p.startsType():
		ds, err := p.parseDeclStmtNoSemi()
		if err != nil {
			return nil, err
		}
		return ds, p.expectPunct(";")
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: pos, X: e}, p.expectPunct(";")
	}
}

// parseDeclStmtNoSemi parses "type declarator (= init)?" possibly with
// comma-separated declarators, folded into a BlockStmt when multiple.
func (p *Parser) parseDeclStmtNoSemi() (Stmt, error) {
	pos := p.tok.Pos
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	var decls []Stmt
	for {
		name, t, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		d := &DeclStmt{Pos: pos, Name: name, Type: t}
		if p.isPunct("=") {
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		decls = append(decls, d)
		if ok, err := p.acceptPunct(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if len(decls) == 1 {
		return decls[0], nil
	}
	return &BlockStmt{Pos: pos, Stmts: decls}, nil
}

// Expression parsing: precedence climbing.

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokPunct && assignOps[p.tok.Text] {
		op := p.tok.Text
		pos := p.tok.Pos
		hl := p.h
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{Pos: pos, Op: op, LHS: lhs, RHS: rhs}, p.grow(max(hl, p.h))
	}
	return lhs, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.isPunct("?") {
		pos := p.tok.Pos
		hc := p.h
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ht := p.h
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		f, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{Pos: pos, C: c, T: t, F: f}, p.grow(max(hc, ht, p.h))
	}
	return c, nil
}

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseBinaryExpr(minPrec int) (Expr, error) {
	lhs, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[p.tok.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.tok.Text
		pos := p.tok.Pos
		hl := p.h
		if err := p.next(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Pos: pos, Op: op, X: lhs, Y: rhs}
		if err := p.grow(max(hl, p.h)); err != nil {
			return nil, err
		}
	}
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	if p.tok.Kind == TokPunct {
		switch p.tok.Text {
		case "-", "!", "~", "*", "&", "+":
			op := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			if op == "+" {
				return x, nil
			}
			return &Unary{Pos: pos, Op: op, X: x}, p.grow(p.h)
		case "++", "--":
			op := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{Pos: pos, Op: op, X: x}, p.grow(p.h)
		case "(":
			// Could be a cast: "(" type ")" unary.
			pk, err := p.peek()
			if err != nil {
				return nil, err
			}
			if pk.Kind == TokKeyword && isTypeKeyword(pk.Text) {
				if err := p.next(); err != nil { // consume "("
					return nil, err
				}
				base, err := p.parseTypeSpec()
				if err != nil {
					return nil, err
				}
				t := base
				for p.isPunct("*") {
					if err := p.next(); err != nil {
						return nil, err
					}
					if t, err = p.derived(CPtr(t)); err != nil {
						return nil, err
					}
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnaryExpr()
				if err != nil {
					return nil, err
				}
				return &CastExpr{Pos: pos, To: t, X: x}, p.grow(p.h)
			}
		}
	}
	return p.parsePostfixExpr()
}

func isTypeKeyword(s string) bool {
	switch s {
	case "void", "char", "short", "int", "long", "float", "double",
		"unsigned", "signed", "const", "struct":
		return true
	}
	return false
}

func (p *Parser) parsePostfixExpr() (Expr, error) {
	x, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.tok.Pos
		hx := p.h
		switch {
		case p.isPunct("["):
			if err := p.next(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Index{Pos: pos, X: x, Idx: idx}
			hx = max(hx, p.h)
		case p.isPunct("."):
			if err := p.next(); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: pos, X: x, Name: name}
		case p.isPunct("->"):
			if err := p.next(); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: pos, X: x, Name: name, Arrow: true}
		case p.isPunct("++") || p.isPunct("--"):
			op := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			x = &Unary{Pos: pos, Op: op, X: x, Postfix: true}
		default:
			return x, nil
		}
		if err := p.grow(hx); err != nil {
			return nil, err
		}
	}
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokIntLit:
		p.h = 1
		v := p.tok.Int
		return &IntLit{Pos: pos, Val: v}, p.next()
	case TokFloatLit:
		p.h = 1
		v := p.tok.Flt
		f32 := p.tok.F32
		return &FloatLit{Pos: pos, Val: v, F32: f32}, p.next()
	case TokIdent:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isPunct("(") {
			if err := p.next(); err != nil {
				return nil, err
			}
			call := &Call{Pos: pos, Name: name}
			ha := 0
			for !p.isPunct(")") {
				a, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				ha = max(ha, p.h)
				call.Args = append(call.Args, a)
				if ok, err := p.acceptPunct(","); err != nil {
					return nil, err
				} else if !ok {
					break
				}
			}
			if err := p.grow(ha); err != nil {
				return nil, err
			}
			return call, p.expectPunct(")")
		}
		p.h = 1
		return &Ident{Pos: pos, Name: name}, nil
	case TokPunct:
		if p.tok.Text == "(" {
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
	}
	return nil, p.errf("unexpected token %q in expression", p.tok.Text)
}
