// Package cc implements a frontend for a subset of C sufficient for the
// paper's benchmark kernels: functions, scalar and pointer types, arrays,
// structs, for/while/if control flow and the usual expression operators.
// Source is lowered to the project's SSA IR (allocas first, promoted to
// registers by passes.Mem2Reg).
package cc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// TokKind classifies a token.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokFloatLit
	TokPunct
	TokKeyword
)

// Token is a lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
	Int  int64
	Flt  float64
	// F32 marks a float literal with an 'f' suffix (C type float).
	F32 bool
}

// isKeyword reports whether an identifier spelling is a keyword.
func isKeyword(text string) bool {
	switch text {
	case "void", "char", "short", "int", "long",
		"float", "double", "unsigned", "signed",
		"const", "struct", "extern", "static",
		"if", "else", "for", "while", "do",
		"return", "break", "continue", "pure":
		return true
	}
	return false
}

// Error is a frontend error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer tokenizes mini-C source.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(i int) byte {
	if lx.off+i >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+i]
}

// skip advances over the next n bytes, which hold no newline.
func (lx *Lexer) skip(n int) {
	lx.off += n
	lx.col += n
}

// skipTo advances to offset end, counting the newlines on the way.
func (lx *Lexer) skipTo(end int) {
	run := lx.src[lx.off:end]
	if nl := strings.LastIndexByte(run, '\n'); nl >= 0 {
		lx.line += strings.Count(run, "\n")
		lx.col = len(run) - nl
	} else {
		lx.col += len(run)
	}
	lx.off = end
}

// skipLine advances to the next newline or the end of the source.
func (lx *Lexer) skipLine() {
	n := strings.IndexByte(lx.src[lx.off:], '\n')
	if n < 0 {
		n = len(lx.src) - lx.off
	}
	lx.skip(n)
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == '\n':
			lx.off++
			lx.line++
			lx.col = 1
		case c == ' ' || c == '\t' || c == '\r':
			lx.skip(1)
		case c == '/' && lx.peekAt(1) == '/':
			lx.skipLine()
		case c == '/' && lx.peekAt(1) == '*':
			start := lx.pos()
			n := strings.Index(lx.src[lx.off+2:], "*/")
			if n < 0 {
				lx.skipTo(len(lx.src))
				return &Error{Pos: start, Msg: "unterminated block comment"}
			}
			lx.skipTo(lx.off + 2 + n + 2)
		case c == '#':
			// Preprocessor lines are ignored (benchmark sources carry
			// occasional #define noise); skip to end of line.
			lx.skipLine()
		default:
			return nil
		}
	}
	return nil
}

// punctLen is the length of the punctuator at the start of s: the
// longest of <<= >>= ... == != <= >= && || << >> += -= *= /= %= &= |=
// ^= ++ -- ->, or 1.
func punctLen(s string) int {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	switch c := s[0]; c {
	case '<', '>':
		if c1 == c {
			if c2 == '=' {
				return 3
			}
			return 2
		}
		if c1 == '=' {
			return 2
		}
	case '.':
		if c1 == '.' && c2 == '.' {
			return 3
		}
	case '=', '!', '*', '/', '%', '^':
		if c1 == '=' {
			return 2
		}
	case '&', '|', '+':
		if c1 == c || c1 == '=' {
			return 2
		}
	case '-':
		if c1 == '-' || c1 == '=' || c1 == '>' {
			return 2
		}
	}
	return 1
}

// upperHalf spells each byte c >= 0x80 as the UTF-8 encoding of rune c,
// two bytes per byte value: a stray non-ASCII byte lexes as a one-rune
// punctuator token.
var upperHalf = func() string {
	b := make([]byte, 0, 256)
	for c := rune(0x80); c < 0x100; c++ {
		b = utf8.AppendRune(b, c)
	}
	return string(b)
}()

// Next returns the next token. Identifier, number and punctuator texts
// are slices of the source.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		from := lx.off
		lx.skipRun(isIdentPart)
		text := lx.src[from:lx.off]
		kind := TokIdent
		if isKeyword(text) {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: start}, nil
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.lexNumber(start)
	case c >= 0x80:
		lx.skip(1)
		i := 2 * int(c-0x80)
		return Token{Kind: TokPunct, Text: upperHalf[i : i+2], Pos: start}, nil
	default:
		text := lx.src[lx.off : lx.off+punctLen(lx.src[lx.off:])]
		lx.skip(len(text))
		return Token{Kind: TokPunct, Text: text, Pos: start}, nil
	}
}

// skipRun advances over the bytes accepted by in.
func (lx *Lexer) skipRun(in func(byte) bool) {
	n := 0
	for lx.off+n < len(lx.src) && in(lx.src[lx.off+n]) {
		n++
	}
	lx.skip(n)
}

func (lx *Lexer) lexNumber(start Pos) (Token, error) {
	from := lx.off
	if lx.peekByte() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.skip(2)
		lx.skipRun(isHexDigit)
		text := lx.src[from:lx.off]
		lx.skipIntSuffix()
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return Token{}, &Error{Pos: start, Msg: "bad hex literal " + text}
		}
		return Token{Kind: TokIntLit, Text: text, Pos: start, Int: v}, nil
	}
	isFloat := false
	lx.skipRun(isDigit)
	if lx.peekByte() == '.' {
		isFloat = true
		lx.skip(1)
		lx.skipRun(isDigit)
	}
	if c := lx.peekByte(); c == 'e' || c == 'E' {
		isFloat = true
		lx.skip(1)
		if c := lx.peekByte(); c == '+' || c == '-' {
			lx.skip(1)
		}
		lx.skipRun(isDigit)
	}
	text := lx.src[from:lx.off]
	isF32 := false
	if c := lx.peekByte(); c == 'f' || c == 'F' {
		isFloat = true
		isF32 = true
		lx.skip(1)
	} else {
		lx.skipIntSuffix()
	}
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, &Error{Pos: start, Msg: "bad float literal " + text}
		}
		return Token{Kind: TokFloatLit, Text: text, Pos: start, Flt: v, F32: isF32}, nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, &Error{Pos: start, Msg: "bad int literal " + text}
	}
	return Token{Kind: TokIntLit, Text: text, Pos: start, Int: v}, nil
}

func (lx *Lexer) skipIntSuffix() {
	lx.skipRun(func(c byte) bool { return c == 'u' || c == 'U' || c == 'l' || c == 'L' })
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
func isDigit(c byte) bool     { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
