package cc

import (
	"testing"
	"unsafe"
)

func parseOK(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestParseDeclarations(t *testing.T) {
	f := parseOK(t, `
int a;
long b = 9;
const int c = -3;
extern double d;
int arr[4] = {1, 2, 3, 4};
float m[2][3];
int *p;
int **pp;
struct Pt { int x; int y; };
struct Pt origin;
int first, second = 2, third;
`)
	if len(f.Globals) != 12 {
		t.Errorf("parsed %d globals, want 12", len(f.Globals))
	}
	byName := make(map[string]*GlobalDecl)
	for _, g := range f.Globals {
		byName[g.Name] = g
	}
	if !byName["c"].ReadOnly {
		t.Error("const global not marked read-only")
	}
	if !byName["d"].Extern {
		t.Error("extern global not marked extern")
	}
	if byName["arr"].Type.Kind != KArray || byName["arr"].Type.Len != 4 {
		t.Error("array type wrong")
	}
	if m := byName["m"].Type; m.Kind != KArray || m.Len != 2 || m.Elem.Kind != KArray || m.Elem.Len != 3 {
		t.Error("2D array type wrong")
	}
	if byName["pp"].Type.Kind != KPtr || byName["pp"].Type.Elem.Kind != KPtr {
		t.Error("pointer-to-pointer type wrong")
	}
	if byName["origin"].Type.Kind != KStruct {
		t.Error("struct global type wrong")
	}
	if byName["second"] == nil || byName["third"] == nil {
		t.Error("comma-separated declarators lost")
	}
}

func TestParsePrototypesAndDefinitions(t *testing.T) {
	f := parseOK(t, `
int named(int a, float b);
int anon(int, float);
void noargs(void);
extern long pure_thing(long x) pure;
int impl(int a, float b) { return a; }
`)
	if len(f.Funcs) != 5 {
		t.Fatalf("parsed %d functions, want 5", len(f.Funcs))
	}
	byName := make(map[string]*FuncDecl)
	for _, fn := range f.Funcs {
		byName[fn.Name] = fn
	}
	if byName["named"].Body != nil {
		t.Error("prototype must have no body")
	}
	if len(byName["anon"].Params) != 2 {
		t.Error("anonymous parameters lost")
	}
	if len(byName["noargs"].Params) != 0 {
		t.Error("(void) parameter list should be empty")
	}
	if !byName["pure_thing"].Pure {
		t.Error("pure annotation lost")
	}
	if byName["impl"].Body == nil {
		t.Error("definition must carry its body")
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	f := parseOK(t, `int f(int a, int b, int c) { return a + b * c - a / b % c; }`)
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	// Expect ((a + (b*c)) - ((a/b)%c)).
	sub, ok := ret.X.(*Binary)
	if !ok || sub.Op != "-" {
		t.Fatalf("top operator %T", ret.X)
	}
	add, ok := sub.X.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("left of - is %T", sub.X)
	}
	if mul, ok := add.Y.(*Binary); !ok || mul.Op != "*" {
		t.Error("b*c must bind tighter than +")
	}
	if mod, ok := sub.Y.(*Binary); !ok || mod.Op != "%" {
		t.Error("modulo must group last")
	}
}

func TestParseRightAssociativeAssignment(t *testing.T) {
	f := parseOK(t, `void f(int a, int b, int c) { a = b = c; }`)
	es := f.Funcs[0].Body.Stmts[0].(*ExprStmt)
	outer, ok := es.X.(*Assign)
	if !ok {
		t.Fatalf("statement is %T", es.X)
	}
	if _, ok := outer.RHS.(*Assign); !ok {
		t.Error("assignment must be right-associative")
	}
}

func TestParseArrowVsDot(t *testing.T) {
	f := parseOK(t, `
struct S { int x; };
int f(struct S *p) { struct S s; s.x = 1; return p->x + s.x; }`)
	body := f.Funcs[0].Body
	if len(body.Stmts) != 3 {
		t.Fatalf("%d statements", len(body.Stmts))
	}
	ret := body.Stmts[2].(*ReturnStmt)
	add := ret.X.(*Binary)
	arrow := add.X.(*Member)
	dot := add.Y.(*Member)
	if !arrow.Arrow || dot.Arrow {
		t.Error("-> and . confused")
	}
}

func TestParseTernaryRightAssoc(t *testing.T) {
	f := parseOK(t, `int f(int a) { return a ? 1 : a ? 2 : 3; }`)
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	c := ret.X.(*Cond)
	if _, ok := c.F.(*Cond); !ok {
		t.Error("ternary must nest in the else arm")
	}
}

func TestParseUnaryChains(t *testing.T) {
	parseOK(t, `int f(int *p) { return -*p + !*p + ~*p + **&p; }`)
	parseOK(t, `int f(int a) { return - - a; }`)
}

func TestParseForVariants(t *testing.T) {
	parseOK(t, `void f() { for (;;) { break; } }`)
	parseOK(t, `void f(int n) { int i; for (i = 0; i < n; i++) { } }`)
	parseOK(t, `void f(int n) { for (int i = 0, j = 1; i < n; i++) { } }`)
	parseOK(t, `void f(int n) { for (int i = 0; ; i++) { if (i > n) break; } }`)
}

func TestParseCasts(t *testing.T) {
	f := parseOK(t, `long f(int a) { return (long)a + (long)(char)a; }`)
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	add := ret.X.(*Binary)
	if _, ok := add.X.(*CastExpr); !ok {
		t.Error("(long)a not parsed as cast")
	}
	inner := add.Y.(*CastExpr)
	if _, ok := inner.X.(*CastExpr); !ok {
		t.Error("nested casts not parsed")
	}
}

// TestNamesDoNotPinSource: token texts are slices of the source, but
// the names a module keeps (functions, globals, parameters, struct
// types, instructions) must not be, or every remark, trace event or
// degraded report that holds one would keep the whole source alive.
func TestNamesDoNotPinSource(t *testing.T) {
	src := `struct pt { int x; int y; };
int table[4];
extern void sink(int v);
int f(struct pt *p, int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc += table[i & 3] + p->x; sink(acc); }
	return acc;
}`
	m, err := Compile(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	check := func(what, name string) {
		if name == "" {
			return
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); p >= lo && p < lo+uintptr(len(src)) {
			t.Errorf("%s %q is a slice of the source", what, name)
		}
	}
	for _, s := range m.Structs {
		check("struct", s.TypeName)
	}
	for _, g := range m.Globals {
		check("global", g.Name)
	}
	for _, f := range m.Funcs {
		check("function", f.Name)
		for _, p := range f.Params {
			check("parameter", p.Name)
		}
		for _, b := range f.Blocks {
			check("block", b.Name)
			for _, in := range b.Instrs {
				check("instruction", in.Name)
			}
		}
	}
}
