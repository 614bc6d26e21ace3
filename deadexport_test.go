package mikpoly_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportOracles are exported functions under internal/ that no non-test code
// calls on purpose: each is an independent oracle a test checks the served
// path against. The value names that test.
var exportOracles = map[string]string{
	"mikpoly/internal/poly.ProgramCost": "Eq. 2 scored from scratch; TestExplainAgreesWithPlannerCost, TestSplitKCostAgreement and checkSweepMatchesReference hold the planner's EstimatedCost to it",
	"mikpoly/internal/poly.TotalCost":   "sums Explain's breakdown; TestExplainAgreesWithPlannerCost and TestExplainMatchesEstimatedCost hold the planner's EstimatedCost to it",
}

// TestEveryExportHasACaller fails, naming each one, on an exported function
// or method under internal/ that no non-test file of the module references.
// Test-only helpers belong in _test.go files; an export reached only through
// an interface (of the module, or of a package it imports) is exempt.
func TestEveryExportHasACaller(t *testing.T) {
	dead, err := unreferencedExports(".", exportOracles)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		t.Fatalf("%d exports under internal/ have no non-test caller (delete them, move them into a _test.go file, or name an oracle in exportOracles):\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}

// The fixture module has one export of each kind; the checker must name
// exactly the unreferenced one, so it cannot pass by finding nothing. An
// allow-list entry that names a called or missing export is reported too.
func TestExportCheckFixture(t *testing.T) {
	dir := filepath.Join("testdata", "exportcheck")
	for _, c := range []struct {
		allow map[string]string
		want  []string
	}{
		{
			allow: map[string]string{"example.com/fixture/internal/lib.Oracle": "a test's reference implementation"},
			want:  []string{"example.com/fixture/internal/lib.Unused (internal/lib/lib.go:5)"},
		},
		{
			allow: map[string]string{
				"example.com/fixture/internal/lib.Oracle": "a test's reference implementation",
				"example.com/fixture/internal/lib.Used":   "stale: the command calls it",
				"example.com/fixture/internal/lib.Gone":   "stale: no such function",
			},
			want: []string{
				"example.com/fixture/internal/lib.Gone is allow-listed but names no exported function under internal/",
				"example.com/fixture/internal/lib.Unused (internal/lib/lib.go:5)",
				"example.com/fixture/internal/lib.Used (internal/lib/lib.go:8) is allow-listed but has a non-test caller",
			},
		},
	} {
		got, err := unreferencedExports(dir, c.allow)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("fixture with %d allow-list entries:\n got %q\nwant %q", len(c.allow), got, c.want)
		}
	}
}

// unreferencedExports type-checks every non-test package of the module rooted
// at root and returns, sorted, each exported function or method declared
// under root/internal/ that no non-test code references outside its own body.
// A method is exempt when its receiver type satisfies an interface declaring
// it; allow names oracles ("pkgpath.Func" or "pkgpath.Type.Method").
func unreferencedExports(root string, allow map[string]string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	dirs := map[string]string{}       // import path → directory
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = rel
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[ip] = append(files[ip], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Module packages are checked from source, in import order; the
	// standard library comes from export data.
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkgs := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		pkgs[path] = p
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}

	// Every interface a method may be reached through: those the module
	// declares or writes as literals, those of the packages it imports
	// (fmt.Stringer, json.Marshaler, sort.Interface, ...) and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	scanned := map[*types.Package]bool{}
	for _, ip := range paths {
		for _, p := range append([]*types.Package{pkgs[ip]}, pkgs[ip].Imports()...) {
			if scanned[p] {
				continue
			}
			scanned[p] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			ifaces = append(ifaces, tv.Type.(*types.Interface))
		}
	}
	reachedByInterface := func(fn *types.Func) bool {
		if fn.Name() == "Unwrap" {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			if !declares(it, fn.Name()) {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	// Candidates are the functions and methods declared under internal/.
	// A reference counts unless it lies inside a candidate already found
	// dead, so an export reached only from dead exports is dead too.
	type decl struct {
		fn  *types.Func
		pos token.Position
	}
	var cands, allowed []decl
	from := map[types.Object][]types.Object{} // used → enclosing funcs (nil: package level)
	for _, ip := range paths {
		internal := strings.HasPrefix(dirs[ip]+"/", "internal/")
		for _, f := range files[ip] {
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				var encl types.Object
				if isFunc {
					encl = info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							obj = origin(obj)
							from[obj] = append(from[obj], encl)
						}
					}
					return true
				})
				if !isFunc || !internal || !fd.Name.IsExported() {
					continue
				}
				fn, _ := encl.(*types.Func)
				if fn == nil {
					continue
				}
				if fd.Recv != nil && reachedByInterface(fn) {
					continue
				}
				pos := fset.Position(fd.Name.Pos())
				if rel, err := filepath.Rel(root, pos.Filename); err == nil {
					pos.Filename = filepath.ToSlash(rel)
				}
				if _, ok := allow[qualifiedName(fn)]; ok {
					allowed = append(allowed, decl{fn, pos})
				} else {
					cands = append(cands, decl{fn, pos})
				}
			}
		}
	}
	dead := map[types.Object]bool{}
	live := func(fn *types.Func) bool {
		for _, e := range from[fn] {
			if e == nil || (e != fn && !dead[e]) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			if !dead[c.fn] && !live(c.fn) {
				dead[c.fn] = true
				changed = true
			}
		}
	}
	var out []string
	for _, c := range cands {
		if dead[c.fn] {
			out = append(out, fmt.Sprintf("%s (%s:%d)", qualifiedName(c.fn), c.pos.Filename, c.pos.Line))
		}
	}
	// An allow-list entry must name an export that still has no caller.
	stale := maps.Clone(allow)
	for _, c := range allowed {
		delete(stale, qualifiedName(c.fn))
		if live(c.fn) {
			out = append(out, fmt.Sprintf("%s (%s:%d) is allow-listed but has a non-test caller", qualifiedName(c.fn), c.pos.Filename, c.pos.Line))
		}
	}
	for key := range stale {
		out = append(out, key+" is allow-listed but names no exported function under internal/")
	}
	sort.Strings(out)
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// qualifiedName is "pkgpath.Func" or "pkgpath.Type.Method".
func qualifiedName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	name := t.String()
	if n, ok := t.(*types.Named); ok {
		name = n.Obj().Name()
	}
	return fn.Pkg().Path() + "." + name + "." + fn.Name()
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
