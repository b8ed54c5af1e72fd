package cc_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rolag/internal/cc"
	"rolag/internal/fuzzgen"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// refLexer is the lexer as it was before token texts became slices of
// the source: it builds every text byte by byte and parses numbers with
// fmt.Sscanf. It is kept as the oracle the production lexer must agree
// with, token for token and error for error.
type refLexer struct {
	src  string
	off  int
	line int
	col  int
}

var refKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "unsigned": true, "signed": true,
	"const": true, "struct": true, "extern": true, "static": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"return": true, "break": true, "continue": true, "pure": true,
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (lx *refLexer) pos() cc.Pos { return cc.Pos{Line: lx.line, Col: lx.col} }

func (lx *refLexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *refLexer) peekAt(i int) byte {
	if lx.off+i >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+i]
}

func (lx *refLexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *refLexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return &cc.Error{Pos: start, Msg: "unterminated block comment"}
			}
		case c == '#':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

var refMultiPuncts = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
}

func (lx *refLexer) Next() (cc.Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return cc.Token{}, err
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return cc.Token{Kind: cc.TokEOF, Pos: start}, nil
	}
	c := lx.peekByte()
	switch {
	case refIsIdentStart(c):
		var sb strings.Builder
		for lx.off < len(lx.src) && refIsIdentPart(lx.peekByte()) {
			sb.WriteByte(lx.advance())
		}
		text := sb.String()
		kind := cc.TokIdent
		if refKeywords[text] {
			kind = cc.TokKeyword
		}
		return cc.Token{Kind: kind, Text: text, Pos: start}, nil
	case refIsDigit(c) || (c == '.' && refIsDigit(lx.peekAt(1))):
		return lx.lexNumber(start)
	default:
		for _, mp := range refMultiPuncts {
			if strings.HasPrefix(lx.src[lx.off:], mp) {
				for range mp {
					lx.advance()
				}
				return cc.Token{Kind: cc.TokPunct, Text: mp, Pos: start}, nil
			}
		}
		lx.advance()
		return cc.Token{Kind: cc.TokPunct, Text: string(rune(c)), Pos: start}, nil
	}
}

func (lx *refLexer) lexNumber(start cc.Pos) (cc.Token, error) {
	var sb strings.Builder
	isFloat := false
	if lx.peekByte() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		sb.WriteByte(lx.advance())
		sb.WriteByte(lx.advance())
		for refIsHexDigit(lx.peekByte()) {
			sb.WriteByte(lx.advance())
		}
		lx.skipIntSuffix()
		var v int64
		if _, err := fmt.Sscanf(sb.String(), "%v", &v); err != nil {
			return cc.Token{}, &cc.Error{Pos: start, Msg: "bad hex literal " + sb.String()}
		}
		return cc.Token{Kind: cc.TokIntLit, Text: sb.String(), Pos: start, Int: v}, nil
	}
	for refIsDigit(lx.peekByte()) {
		sb.WriteByte(lx.advance())
	}
	if lx.peekByte() == '.' {
		isFloat = true
		sb.WriteByte(lx.advance())
		for refIsDigit(lx.peekByte()) {
			sb.WriteByte(lx.advance())
		}
	}
	if lx.peekByte() == 'e' || lx.peekByte() == 'E' {
		isFloat = true
		sb.WriteByte(lx.advance())
		if lx.peekByte() == '+' || lx.peekByte() == '-' {
			sb.WriteByte(lx.advance())
		}
		for refIsDigit(lx.peekByte()) {
			sb.WriteByte(lx.advance())
		}
	}
	isF32 := false
	if lx.peekByte() == 'f' || lx.peekByte() == 'F' {
		isFloat = true
		isF32 = true
		lx.advance()
	} else {
		lx.skipIntSuffix()
	}
	if isFloat {
		var v float64
		if _, err := fmt.Sscanf(sb.String(), "%g", &v); err != nil {
			return cc.Token{}, &cc.Error{Pos: start, Msg: "bad float literal " + sb.String()}
		}
		return cc.Token{Kind: cc.TokFloatLit, Text: sb.String(), Pos: start, Flt: v, F32: isF32}, nil
	}
	var v int64
	if _, err := fmt.Sscanf(sb.String(), "%d", &v); err != nil {
		return cc.Token{}, &cc.Error{Pos: start, Msg: "bad int literal " + sb.String()}
	}
	return cc.Token{Kind: cc.TokIntLit, Text: sb.String(), Pos: start, Int: v}, nil
}

func (lx *refLexer) skipIntSuffix() {
	for {
		c := lx.peekByte()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			lx.advance()
			continue
		}
		return
	}
}

func refIsIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func refIsIdentPart(c byte) bool { return refIsIdentStart(c) || refIsDigit(c) }
func refIsDigit(c byte) bool     { return c >= '0' && c <= '9' }
func refIsHexDigit(c byte) bool {
	return refIsDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// tokenizer is what the production lexer and the oracle have in common.
type tokenizer interface {
	Next() (cc.Token, error)
}

// lexStream returns every token up to and including EOF, or up to the
// first error and that error.
func lexStream(lx tokenizer) ([]cc.Token, error) {
	var toks []cc.Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
		if tok.Kind == cc.TokEOF {
			return toks, nil
		}
	}
}

// checkLexer requires the production lexer and the oracle to agree on
// src: the same tokens, and the same error message and position.
func checkLexer(t *testing.T, src string) {
	t.Helper()
	got, gotErr := lexStream(cc.NewLexer(src))
	want, wantErr := lexStream(newRefLexer(src))
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("lexing %q: error %v, oracle %v", src, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("lexing %q: %d tokens, oracle %d", src, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lexing %q: token %d is %+v, oracle %+v", src, i, got[i], want[i])
		}
	}
}

// malformedLiterals are number spellings whose parse fails or sits at
// the edge of a range, plus punctuation and byte oddities.
var malformedLiterals = []string{
	"0x", "0X", "0xg", "1e", "1e+", "1E-", "1e999", "1e-999", "99999999999999999999",
	"9223372036854775807", "9223372036854775808", "0x7fffffffffffffff",
	"0x8000000000000000", "0xFFFFFFFFFFFFFFFF", "0x1p3", "0X1Full", "07", "08",
	"00.5e1f", "1.", ".5", "1..2", "1.e5f", "3F", "1_0", "0b101", "42ULL", "1.5Lf",
	"a<<=b>>=c...d->e", "x..y", "<<<=>>>=", "&&&|||", "+++---", "/* open", "a /", "#",
	"// tail", "\x00\x01\v\f", "\xc3\xa9t\xff\x80", "x\r\ny", "/**/", "/*/ */",
}

func lexCorpus() []string {
	srcs := append([]string(nil), malformedLiterals...)
	for _, k := range tsvc.Kernels() {
		srcs = append(srcs, k.Src)
	}
	for _, f := range angha.Generate(2000, 1) {
		srcs = append(srcs, f.Src)
	}
	for seed := int64(0); seed < 200; seed++ {
		srcs = append(srcs, fuzzgen.Generate(seed, int(4+seed%90)))
	}
	return srcs
}

// TestLexerMatchesOracle runs the production lexer and the oracle over
// the TSVC kernels, the Angha corpus, generated programs and malformed
// literals.
func TestLexerMatchesOracle(t *testing.T) {
	for _, src := range lexCorpus() {
		checkLexer(t, src)
	}
}

// FuzzLexer feeds raw bytes to both lexers and requires the same token
// stream and the same error.
func FuzzLexer(f *testing.F) {
	for _, src := range malformedLiterals {
		f.Add(src)
	}
	for _, k := range tsvc.Kernels()[:8] {
		f.Add(k.Src)
	}
	f.Add(fuzzgen.Generate(1, 24))
	f.Fuzz(func(t *testing.T, src string) {
		checkLexer(t, src)
	})
}

// TestLexAllocs is the allocation gate on the lexer: lexing all TSVC
// kernels allocates one Lexer per kernel and nothing per token.
// Measured at 0 allocations (NewLexer's result does not escape).
func TestLexAllocs(t *testing.T) {
	ks := tsvc.Kernels()
	tokens := 0
	for _, k := range ks {
		toks, err := lexStream(cc.NewLexer(k.Src))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		tokens += len(toks)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, k := range ks {
			lx := cc.NewLexer(k.Src)
			for {
				tok, err := lx.Next()
				if err != nil || tok.Kind == cc.TokEOF {
					break
				}
			}
		}
	})
	if allocs > float64(len(ks)) {
		t.Errorf("lexing %d TSVC kernels (%d tokens): %.0f allocs, budget %d (one Lexer per kernel)", len(ks), tokens, allocs, len(ks))
	}
}
