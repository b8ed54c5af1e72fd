package cc_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rolag/internal/cc"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/programs"
	"rolag/internal/workloads/tsvc"
)

// TestDepthLimitRejectsDeepInputs: inputs like these used to exhaust
// the goroutine stack in the parser or in a later recursive walk (a
// fatal error no recover catches). Each must now be a prompt parse
// error.
func TestDepthLimitRejectsDeepInputs(t *testing.T) {
	chain := func(n int) string {
		return "int f(int x) { return x" + strings.Repeat("+x", n-1) + "; }"
	}
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"parens-300k", "int f(int x) { return " + strings.Repeat("(", 300000) + "x" + strings.Repeat(")", 300000) + "; }"},
		{"blocks-4M", "void f() " + strings.Repeat("{", 4000000) + strings.Repeat("}", 4000000)},
		{"chain-4M", chain(4000000)},
		{"chain-just-over", chain(cc.MaxDepth + 1)},
		{"unary", "int f(int x) { return " + strings.Repeat("-", 100000) + "x; }"},
		{"assign", "void f(int x) { " + strings.Repeat("x = ", 100000) + "x; }"},
		{"index", "int f(int *a) { return a" + strings.Repeat("[0]", 100000) + "; }"},
		{"pointer-param", "int f(int " + strings.Repeat("*", 4000000) + "p) { return 0; }"},
		{"pointer-local", "void f() { int " + strings.Repeat("*", 100000) + "p; }"},
		{"pointer-cast", "long f(int *p) { return (long)(int" + strings.Repeat("*", 100000) + ")p; }"},
		{"array-dims", "int g" + strings.Repeat("[1]", 100000) + ";"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := cc.Compile(tc.src, "deep")
			if err == nil || !strings.Contains(err.Error(), "deeper than") {
				t.Fatalf("want a depth error, got %v", err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("rejecting took %v", d)
			}
		})
	}
}

// TestDepthLimitAcceptsDeepButLegalInputs: inputs at the limit compile.
func TestDepthLimitAcceptsDeepButLegalInputs(t *testing.T) {
	for _, src := range []string{
		"int f(int x) { return x" + strings.Repeat("+x", cc.MaxDepth-1) + "; }",
		"int f(int x) { return " + strings.Repeat("(", cc.MaxDepth/2) + "x" + strings.Repeat(")", cc.MaxDepth/2) + "; }",
		"void f() " + strings.Repeat("{", cc.MaxDepth/2) + strings.Repeat("}", cc.MaxDepth/2),
	} {
		if _, err := cc.Compile(src, "deep"); err != nil {
			t.Errorf("%.40s...: %v", src, err)
		}
	}
}

// TestCorpusDepthWithinLimit measures the deepest AST in the committed
// corpora; MaxDepth must leave them all parseable.
func TestCorpusDepthWithinLimit(t *testing.T) {
	srcs := map[string]string{}
	for _, f := range angha.Generate(2000, 20220402) {
		srcs["angha/"+f.Name] = f.Src
	}
	for _, k := range tsvc.Kernels() {
		srcs["tsvc/"+k.Name] = k.Src
	}
	for _, p := range programs.Table() {
		for _, f := range p.Functions() {
			srcs["programs/"+p.Name+"/"+f.Name] = f.Src
		}
	}
	examples, _ := filepath.Glob("../../examples/*/*")
	constSrc := regexp.MustCompile("(?s)const src = `(.*?)`")
	for _, path := range examples {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasSuffix(path, ".c"):
			srcs[path] = string(b)
		case constSrc.Match(b):
			srcs[path] = string(constSrc.FindSubmatch(b)[1])
		}
	}
	deepest, where := 0, ""
	for name, src := range srcs {
		file, err := cc.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, fd := range file.Funcs {
			if fd.Body == nil {
				continue
			}
			if d := stmtDepth(fd.Body); d > deepest {
				deepest, where = d, name+":"+fd.Name
			}
		}
	}
	t.Logf("deepest AST in %d corpus sources: %d levels (%s); MaxDepth %d", len(srcs), deepest, where, cc.MaxDepth)
	if deepest > cc.MaxDepth {
		t.Fatalf("corpus AST depth %d exceeds MaxDepth %d", deepest, cc.MaxDepth)
	}
}

// stmtDepth is the height of a statement's AST, expressions included.
func stmtDepth(s cc.Stmt) int {
	d := 0
	switch s := s.(type) {
	case *cc.DeclStmt:
		d = exprDepth(s.Init)
	case *cc.ExprStmt:
		d = exprDepth(s.X)
	case *cc.ReturnStmt:
		d = exprDepth(s.X)
	case *cc.IfStmt:
		d = max(exprDepth(s.Cond), stmtDepth(s.Then), stmtDepth(s.Else))
	case *cc.ForStmt:
		d = max(stmtDepth(s.Init), exprDepth(s.Cond), exprDepth(s.Post), stmtDepth(s.Body))
	case *cc.WhileStmt:
		d = max(exprDepth(s.Cond), stmtDepth(s.Body))
	case *cc.DoWhileStmt:
		d = max(exprDepth(s.Cond), stmtDepth(s.Body))
	case *cc.BlockStmt:
		for _, c := range s.Stmts {
			d = max(d, stmtDepth(c))
		}
	case nil:
		return 0
	}
	return d + 1
}

func exprDepth(e cc.Expr) int {
	d := 0
	switch e := e.(type) {
	case nil:
		return 0
	case *cc.Unary:
		d = exprDepth(e.X)
	case *cc.Binary:
		d = max(exprDepth(e.X), exprDepth(e.Y))
	case *cc.Assign:
		d = max(exprDepth(e.LHS), exprDepth(e.RHS))
	case *cc.Cond:
		d = max(exprDepth(e.C), exprDepth(e.T), exprDepth(e.F))
	case *cc.Call:
		for _, a := range e.Args {
			d = max(d, exprDepth(a))
		}
	case *cc.Index:
		d = max(exprDepth(e.X), exprDepth(e.Idx))
	case *cc.Member:
		d = exprDepth(e.X)
	case *cc.CastExpr:
		d = exprDepth(e.X)
	}
	return d + 1
}
