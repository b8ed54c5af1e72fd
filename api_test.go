package rolag_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under
// internal/ that may have no caller outside tests, as "pkg.Name" with
// pkg the import path below internal/; "pkg.*" covers a package.
var apiAllowlist = map[string]string{
	// Public on purpose: the wire API that clients build against.
	"rolagdapi.*": "wire API of rolagd and the router",
	// Hooks that tests in other packages need.
	"analysis.NewUncachedManager": "the cached-vs-uncached analysis oracle in rolag and fuzzgen tests",
	"rolag.RollModule":            "module-wide rolling in passes and irparse tests",
	"reroll.RerollFunc":           "per-function rerolling in experiments tests",
	"faultpoint.FiredAt":          "fault-injection assertions in passes and service tests",
	"obs.ResetSpanStats":          "span-statistics isolation in tests of other packages",
	"obs/fleet.SpanStatuses":      "span-status assertions in cluster tests",
}

// interfaceMethods are the standard-library interface methods a type
// implements to be used by fmt, errors, encoding/json, net/http, io or
// sort; nothing in the repo calls them by name.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestExportedAPIHasCaller: every exported function and method declared
// under internal/ has a caller in a non-test file of the repository
// (benchmark/ included), or is in apiAllowlist. A test-only hook belongs
// in an export_test.go file of its package.
//
// A function counts as called when a non-test file names it, qualified
// by its package or bare in its own package. A method counts as called
// when any selector or interface in a non-test file uses its name; that
// errs towards keeping a method whose name another type shares.
func TestExportedAPIHasCaller(t *testing.T) {
	type decl struct {
		pkg, recv, name string // recv is "" for a function
		pos             token.Position
	}
	var decls []decl
	funcRefs := make(map[string]bool) // "pkg.Name", pkg the import path
	methodRefs := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := "rolag/" + dir
		if dir == "." {
			pkg = "rolag"
		}
		imports := make(map[string]string) // local name -> import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		var own map[*ast.Ident]bool // the names of f's declarations
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if own == nil {
				own = make(map[*ast.Ident]bool)
			}
			own[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
				recv := ""
				if fd.Recv != nil {
					recv = types.ExprString(fd.Recv.List[0].Type)
				}
				decls = append(decls, decl{pkg, recv, fd.Name.Name, fset.Position(fd.Pos())})
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name] = true
						return false
					}
				}
				methodRefs[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodRefs[name.Name] = true
					}
				}
			case *ast.Ident:
				if !own[n] {
					funcRefs[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	allowed := make(map[string]bool)
	for _, d := range decls {
		short := strings.TrimPrefix(d.pkg, "rolag/internal/")
		for _, key := range []string{short + ".*", short + "." + d.name} {
			if apiAllowlist[key] != "" {
				allowed[key] = true
			}
		}
		if allowed[short+".*"] || allowed[short+"."+d.name] {
			continue
		}
		if d.recv == "" && funcRefs[d.pkg+"."+d.name] || d.recv != "" && (methodRefs[d.name] || interfaceMethods[d.name]) {
			continue
		}
		name := short + "." + d.name
		if d.recv != "" {
			star := d.recv[:len(d.recv)-len(strings.TrimPrefix(d.recv, "*"))]
			name = "(" + star + short + "." + d.recv[len(star):] + ")." + d.name
		}
		dead = append(dead, d.pos.String()+": "+name)
	}
	for key := range apiAllowlist {
		if !allowed[key] {
			dead = append(dead, "apiAllowlist: "+key+" (declared nowhere)")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, move it to an export_test.go file, or allowlist it", d)
	}
	if len(decls) < 100 {
		t.Fatalf("found %d exported functions under internal/: the scan is not looking at the repository", len(decls))
	}
}
