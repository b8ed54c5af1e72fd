package rolag_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under
// internal/ that may have no caller outside tests, as the test prints
// them: "pkg.Name" for a function and "(pkg.T).Name" or "(*pkg.T).Name"
// for a method, with pkg the import path below internal/.
var apiAllowlist = map[string]string{
	// Hooks that tests in other packages need.
	"analysis.NewUncachedManager":      "the cached-vs-uncached analysis oracle in rolag and fuzzgen tests",
	"rolag.RollModule":                 "module-wide rolling in passes and irparse tests",
	"reroll.RerollFunc":                "per-function rerolling in experiments tests",
	"faultpoint.FiredAt":               "fault-injection assertions in passes and service tests",
	"obs.ResetSpanStats":               "span-statistics isolation in tests of other packages",
	"obs.TraceEvents":                  "default-ring span assertions in daemon tests",
	"obs/fleet.SpanStatuses":           "span-status assertions in cluster tests",
	"(*daemon.Daemon).ShardID":         "shard identity in cluster tests",
	"(*interp.Interp).Call":            "calling a function by name in passes tests",
	"(*passes.Pipeline).Run":           "module-wide canonicalization in tests of rolag, costmodel and the workloads",
	"(*rolagdapi.Client).CompileBatch": "batch requests through the router in cluster tests",
}

// stdInterfaces are standard-library interfaces whose methods the
// standard library calls on a repository type without the repository
// naming them: fmt, errors, encoding/json, net/http and sort find them
// by interface.
const stdInterfaces = `package std

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

type (
	stringer        = fmt.Stringer
	errorer         = error
	jsonMarshaler   = json.Marshaler
	jsonUnmarshaler = json.Unmarshaler
	handler         = http.Handler
	sorter          = sort.Interface
	wrapper         interface{ Unwrap() error }
)
`

// TestExportedAPIHasCaller: every exported function and method declared
// under internal/ has a caller in a non-test file of the repository
// (benchmark/ included), or is in apiAllowlist. A test-only hook belongs
// in an export_test.go file of its package.
//
// The scan type-checks every package's non-test files, so a name counts
// as called only through its own object: a function when a non-test
// file uses it, and a method when a non-test file uses that method of
// that receiver type, or uses the method of an interface the type
// satisfies (stdInterfaces counts as used).
func TestExportedAPIHasCaller(t *testing.T) {
	fset := token.NewFileSet()
	// The standard library is type-checked from source; with cgo off
	// that needs no C toolchain.
	ctxt := build.Default
	ctxt.CgoEnabled = false
	defer func(d build.Context) { build.Default = d }(build.Default)
	build.Default = ctxt
	im := &repoImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info:  &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := ctxt.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		path := "rolag/" + filepath.ToSlash(p)
		if p == "." {
			path = "rolag"
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			im.files[path] = append(im.files[path], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range im.files {
		if _, err := im.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	std, err := (&types.Config{Importer: im.std}).Check("std", fset,
		[]*ast.File{mustParse(t, fset, stdInterfaces)}, nil)
	if err != nil {
		t.Fatalf("type-checking the standard interfaces: %v", err)
	}

	// Every function and method a non-test file uses, and every
	// interface method it uses or the standard library calls.
	used := make(map[*types.Func]bool)
	var ifaceMethods []*types.Func
	for _, obj := range im.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if !used[fn] && isInterfaceMethod(fn) {
				ifaceMethods = append(ifaceMethods, fn)
			}
			used[fn] = true
		}
	}
	for _, name := range std.Scope().Names() {
		iface := std.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceMethods = append(ifaceMethods, iface.Method(i))
		}
	}

	// A method a used interface method dispatches to is used: for each
	// named type of the repository that satisfies the interface, the
	// method its method set selects.
	var named []*types.Named
	for _, obj := range im.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	for _, m := range ifaceMethods {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			var typ types.Type = n
			if !types.Implements(typ, iface) {
				if typ = types.NewPointer(n); !types.Implements(typ, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}

	var decls, dead []string
	allowed := make(map[string]bool)
	for path, files := range im.files {
		if !strings.HasPrefix(path, "rolag/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := im.info.Defs[fd.Name].(*types.Func)
				name := apiName(fn)
				decls = append(decls, name)
				switch {
				case apiAllowlist[name] != "":
					allowed[name] = true
				case !used[fn]:
					dead = append(dead, fset.Position(fd.Pos()).String()+": "+name)
				}
			}
		}
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

// repoImporter type-checks the repository's packages from the parsed
// files, recording every package's uses in one types.Info, and leaves
// the standard library to the source importer.
type repoImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (im *repoImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	p, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// apiName prints fn as apiAllowlist keys it: "pkg.Name" or
// "(*pkg.T).Name", pkg the import path below internal/.
func apiName(fn *types.Func) string {
	qual := func(p *types.Package) string { return strings.TrimPrefix(p.Path(), "rolag/internal/") }
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return qual(fn.Pkg()) + "." + fn.Name()
	}
	return "(" + types.TypeString(recv.Type(), qual) + ")." + fn.Name()
}

func mustParse(t *testing.T, fset *token.FileSet, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, "std.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
