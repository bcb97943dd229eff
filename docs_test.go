package essdsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestInternalPackageDocs is the docs-lint gate: every internal/* package
// (and the root package) must carry package-level documentation of a
// non-trivial length. CI runs this test by name, so a new package without
// a doc comment fails the build, not just the review.
func TestInternalPackageDocs(t *testing.T) {
	dirs := []string{"."}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join("internal", e.Name()))
		}
	}
	for _, dir := range dirs {
		doc := packageDoc(t, dir)
		if len(doc) < 100 {
			t.Errorf("package %s has no substantial package documentation (%d chars); add a doc comment or doc.go", dir, len(doc))
		}
	}
}

// packageDoc returns the longest package comment across the directory's
// non-test files (test-only packages may keep theirs on the _test file).
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	best := ""
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") && best != "" {
				continue
			}
			if file.Doc != nil && len(file.Doc.Text()) > len(best) {
				best = file.Doc.Text()
			}
		}
	}
	return best
}

// reachAllow names the functions, methods and types that no program
// reaches but the module keeps, each with its reason. Methods the standard
// library calls through its own interfaces (fmt.Stringer, error and
// Unwrap, fmt.Formatter, the JSON and text (un)marshalers, sort and heap,
// flag.Value) are kept by stdCalled, not listed here; the types only
// their bodies name are.
var reachAllow = map[string]string{
	"sim.Const.Mean":     "the sampling tests compare sim.Dist samples against Mean as the analytic reference",
	"sim.LogNormal.Mean": "the sampling tests compare sim.Dist samples against Mean as the analytic reference",
	"sim.Spiked.Mean":    "the sampling tests compare sim.Dist samples against Mean as the analytic reference",
	"sim.Mixture.Mean":   "the sampling tests compare sim.Dist samples against Mean as the analytic reference",

	"ftl.FTL.Utilization":     "ssd's pool tests compare it between pooled and fresh SSDs, and its trim test checks a full trim unmaps everything",
	"ftl.FTL.FreeSuperblocks": "ssd's pool tests compare the free pool between pooled and fresh SSDs",
	"ftl.FTL.BufferBytes":     "ssd's pool tests check the dirtying run left data in the write buffer",
	"ftl.FTL.Mapped":          "the integration test checks every LPN is mapped or buffered after GC churn",
	"ftl.FTL.InBuffer":        "the integration test checks every LPN is mapped or buffered after GC churn",

	"stats.histogramJSON":        "Histogram's MarshalJSON and UnmarshalJSON, which encoding/json calls, encode through it",
	"stats.throughputSeriesJSON": "ThroughputSeries' MarshalJSON and UnmarshalJSON, which encoding/json calls, encode through it",
	"stats.latencySeriesJSON":    "LatencySeries' MarshalJSON and UnmarshalJSON, which encoding/json calls, encode through it",
}

// setAllow names the exported struct fields that break rule 2 but the
// module keeps, each with its reason.
var setAllow = map[string]string{
	"fleet.Demand.Ops":             "perfbench's demandSignature reads it, so only a change to the benchmark can remove it",
	"fleet.Spec.Backend":           "Normalize derives it from Isolation, and perfbench's fleet ladder reads it from a normalized spec, so only a change to the benchmark can make it unexported",
	"fleet.Spec.Volume":            "Normalize sets it to the neighbor volume template, and perfbench's fleet ladder reads it from a normalized spec, so only a change to the benchmark can make it unexported",
	"fleet.Spec.Label":             "internal/integration's fleet golden was captured under the label \"fleet-golden\", and the label seeds every cell",
	"qos.Isolation.Quantum":        "Isolation.Signature prints it into cache variants and the neighbor report's isolation: header; it goes with the common-random-numbers re-pin",
	"qos.Isolation.DebtShareRate":  "Isolation.Signature prints it into cache variants and the neighbor report's isolation: header; it goes with the common-random-numbers re-pin",
	"qos.Isolation.DebtShareBurst": "Isolation.Signature prints it into cache variants and the neighbor report's isolation: header; it goes with the common-random-numbers re-pin",
}

// rootTests are the root test files whose functions count as programs:
// they check the facade's output the way a user would. bench_test.go
// checks no output, so it is not a root.
var rootTests = map[string]bool{"example_test.go": true, "essdsim_test.go": true}

// TestReachability holds the module to three rules, type-checked over
// every package of this module and of perfbench/.
//
// Rule 1: every function and method outside test files is reached from a
// program. The roots are the main of every command, example and the
// perfbench harness, package-level var initializers, init functions, and
// every function of the root example_test.go and essdsim_test.go. A use of
// a function or method in a reached body reaches it; calling interface
// method M, or writing an interface type with method M, reaches every
// method named M.
//
// Rule 2: every exported field of an exported struct has a second value.
// It is assigned (a) by a program (rule 1's roots: the non-test code of
// the module and of perfbench/, and the root example_test.go and
// essdsim_test.go) outside a withDefaults method, and (b) somewhere, tests
// included, other than a withDefaults method or the top-level composite
// literal a Default* function returns for a struct of its own package. A
// field is assigned by a composite-literal key, a positional literal, =,
// an op=, ++ or --, or &x.F; (c) an assignment or & through a selector
// chain assigns every field on it, so x.F.G = v sets F as well as G. A
// field only tests or only its Default* constructor set is a constant.
//
// Rule 3: every package-level type outside test files, aliases included,
// is reached. A type is reached when a reached body, the signature of a
// reached function or method (its receiver aside), a package-level var or
// const declaration, or the definition of a reached type names it.
//
// reachAllow and setAllow hold the exceptions; an entry that no longer
// excuses anything fails the test too.
func TestReachability(t *testing.T) {
	m := loadModule(t)
	used := map[string]bool{}
	funcs, typs := m.unreached()
	for _, d := range funcs {
		if m.stdCalled(d.fn) {
			continue
		}
		if _, ok := reachAllow[d.key]; ok {
			used[d.key] = true
			continue
		}
		t.Errorf("%s: %s is reached from no program; delete it, or move it to export_test.go if only its package's tests need it", m.fset.Position(d.at), d.key)
	}
	for _, d := range typs {
		if _, ok := reachAllow[d.key]; ok {
			used[d.key] = true
			continue
		}
		t.Errorf("%s: type %s is named by no program; delete it, or move it to a _test.go file if only its package's tests need it", m.fset.Position(d.at), d.key)
	}
	for _, f := range m.unset() {
		if _, ok := setAllow[f.key]; ok {
			used[f.key] = true
			continue
		}
		t.Errorf("%s: field %s is %s; make it a constant", m.fset.Position(f.at), f.key, f.why)
	}
	for key := range reachAllow {
		if !used[key] {
			t.Errorf("reachAllow: %s is reached or gone; drop the entry", key)
		}
	}
	for key := range setAllow {
		if !used[key] {
			t.Errorf("setAllow: %s is set or gone; drop the entry", key)
		}
	}
}

// listedPkg is the part of `go list -json` the reachability test reads.
type listedPkg struct {
	ImportPath, Dir, Name              string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Deps                               []string
	Module                             struct{ Path string }
}

// unit is one parsed file with the type information of the check that
// owns it: a package's own files come from its plain check, its _test.go
// files from the check that adds them.
type unit struct {
	file *ast.File
	info *types.Info
	pkg  *listedPkg
	test bool
}

type module struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*listedPkg
	files  map[string]*ast.File
	plain  map[string]*types.Package
	units  []unit
	stdIfc []*types.Interface
}

// loadModule type-checks every package of this module and of perfbench/
// from source, standard-library imports from export data, and each
// package's tests against a copy of its dependents rebuilt on the
// package's test variant, as `go test` builds them.
func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{
		fset:  fset,
		std:   importer.ForCompiler(fset, "gc", nil),
		pkgs:  map[string]*listedPkg{},
		files: map[string]*ast.File{},
		plain: map[string]*types.Package{},
	}
	var order []*listedPkg
	for _, dir := range []string{".", "perfbench"} {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(listedPkg)
			if err := dec.Decode(p); err != nil {
				t.Fatal(err)
			}
			m.pkgs[p.ImportPath] = p
			order = append(order, p)
		}
	}
	for _, p := range order {
		if _, err := m.Import(p.ImportPath); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range order {
		if len(p.TestGoFiles)+len(p.XTestGoFiles) == 0 {
			continue
		}
		tv := &testVariant{m: m, under: p.ImportPath, pkgs: map[string]*types.Package{}}
		pkg, err := m.check(p.ImportPath, p, p.GoFiles, p.TestGoFiles, tv)
		if err != nil {
			t.Fatal(err)
		}
		tv.pkgs[p.ImportPath] = pkg
		if _, err := m.check(p.ImportPath+"_test", p, nil, p.XTestGoFiles, tv); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []struct{ path, name string }{
		{"fmt", "Stringer"}, {"fmt", "Formatter"}, {"encoding/json", "Marshaler"},
		{"encoding/json", "Unmarshaler"}, {"encoding", "TextMarshaler"},
		{"encoding", "TextUnmarshaler"}, {"sort", "Interface"},
		{"container/heap", "Interface"}, {"flag", "Value"},
	} {
		pkg, err := m.std.Import(spec.path)
		if err != nil {
			t.Fatal(err)
		}
		m.stdIfc = append(m.stdIfc, pkg.Scope().Lookup(spec.name).Type().Underlying().(*types.Interface))
	}
	// errors.Unwrap, Is and As call Unwrap through an unnamed interface.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	m.stdIfc = append(m.stdIfc, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	return m
}

// Import is the importer every plain package check uses.
func (m *module) Import(path string) (*types.Package, error) {
	if pkg, ok := m.plain[path]; ok {
		return pkg, nil
	}
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	pkg, err := m.check(path, p, nil, p.GoFiles, m)
	m.plain[path] = pkg
	return pkg, err
}

// testVariant imports for the tests of package under: that package's test
// variant, and every module package that depends on it rebuilt on it.
type testVariant struct {
	m     *module
	under string
	pkgs  map[string]*types.Package
}

func (tv *testVariant) Import(path string) (*types.Package, error) {
	if pkg, ok := tv.pkgs[path]; ok {
		return pkg, nil
	}
	p, ok := tv.m.pkgs[path]
	if !ok || !slices.Contains(p.Deps, tv.under) {
		return tv.m.Import(path)
	}
	pkg, err := tv.m.check(path, p, p.GoFiles, nil, tv)
	tv.pkgs[path] = pkg
	return pkg, err
}

// check type-checks the files shared and owned as package path and keeps
// a unit for each owned file.
func (m *module) check(path string, p *listedPkg, shared, owned []string, imp types.Importer) (*types.Package, error) {
	var files []*ast.File
	for _, name := range append(slices.Clip(shared), owned...) {
		full := filepath.Join(p.Dir, name)
		f, ok := m.files[full]
		if !ok {
			var err error
			if f, err = parser.ParseFile(m.fset, full, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			m.files[full] = f
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	for _, f := range files[len(shared):] {
		name := m.fset.File(f.Pos()).Name()
		m.units = append(m.units, unit{file: f, info: info, pkg: p, test: strings.HasSuffix(name, "_test.go")})
	}
	return pkg, nil
}

// decl is one function, method, type or field the rules check; why says
// how a field breaks rule 2.
type decl struct {
	key string
	at  token.Pos
	fn  *types.Func
	why string
}

// checked reports whether the rules hold u's declarations: non-test files
// of this module, not perfbench's.
func (u unit) checked() bool { return !u.test && u.pkg.Module.Path == "essdsim" }

// root reports whether u is one of the root test files that count as
// programs.
func (m *module) root(u unit) bool {
	return u.pkg.ImportPath == "essdsim" && u.test && rootTests[filepath.Base(m.fset.File(u.file.Pos()).Name())]
}

// short names a package the way the allowlists do: its path below
// essdsim/internal/ or essdsim/.
func short(path string) string {
	if s, ok := strings.CutPrefix(path, "essdsim/internal/"); ok {
		return s
	}
	if s, ok := strings.CutPrefix(path, "essdsim/"); ok {
		return s
	}
	return path
}

// unreached returns the offenders of rules 1 and 3 in declaration order.
func (m *module) unreached() (funcs, typs []decl) {
	// A typesOnly node (a signature, a type definition or a const
	// declaration) reaches only the types it names.
	type node struct {
		body      ast.Node
		info      *types.Info
		typesOnly bool
	}
	nodes := map[token.Pos][]node{}
	byName := map[string][]token.Pos{}
	var checked, checkedTypes []decl
	var roots []node
	for _, u := range m.units {
		root := m.root(u)
		for _, d := range u.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				pos := d.Name.Pos()
				fn := []node{{d.Type, u.info, true}, {d.Body, u.info, false}}
				nodes[pos] = append(nodes[pos], fn...)
				if d.Recv != nil {
					byName[d.Name.Name] = append(byName[d.Name.Name], pos)
				}
				isMain := d.Name.Name == "main" && d.Recv == nil && u.pkg.Name == "main"
				isInit := d.Name.Name == "init" && d.Recv == nil
				if root || !u.test && (isMain || isInit) {
					roots = append(roots, fn...)
				} else if u.checked() {
					fn := u.info.Defs[d.Name].(*types.Func)
					checked = append(checked, decl{key: funcKey(fn), at: pos, fn: fn})
				}
			case *ast.GenDecl:
				switch {
				case d.Tok == token.VAR && (root || !u.test):
					roots = append(roots, node{d, u.info, false})
				case d.Tok == token.CONST && (root || !u.test):
					roots = append(roots, node{d, u.info, true})
				case d.Tok == token.TYPE:
					for _, s := range d.Specs {
						ts := s.(*ast.TypeSpec)
						pos := ts.Name.Pos()
						nodes[pos] = append(nodes[pos], node{ts, u.info, true})
						if root {
							roots = append(roots, node{ts, u.info, true})
						} else if u.checked() {
							checkedTypes = append(checkedTypes, decl{key: short(u.pkg.ImportPath) + "." + ts.Name.Name, at: pos})
						}
					}
				}
			}
		}
	}
	reached := map[token.Pos]bool{}
	names := map[string]bool{}
	var work []node
	reach := func(pos token.Pos) {
		if !reached[pos] {
			reached[pos] = true
			work = append(work, nodes[pos]...)
		}
	}
	reachName := func(name string) {
		if !names[name] {
			names[name] = true
			for _, pos := range byName[name] {
				reach(pos)
			}
		}
	}
	work = append(work, roots...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if n.body == nil {
			continue
		}
		ast.Inspect(n.body, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if tn, ok := n.info.Uses[id].(*types.TypeName); ok {
					reach(tn.Pos())
				}
			}
			if n.typesOnly {
				return true
			}
			switch x := x.(type) {
			case *ast.Ident:
				fn, ok := n.info.Uses[x].(*types.Func)
				if !ok {
					break
				}
				fn = fn.Origin()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					reachName(fn.Name())
				} else {
					reach(fn.Pos())
				}
			case *ast.InterfaceType:
				for _, f := range x.Methods.List {
					for _, name := range f.Names {
						reachName(name.Name)
					}
				}
			}
			return true
		})
	}
	for _, d := range checked {
		if !reached[d.fn.Pos()] {
			funcs = append(funcs, d)
		}
	}
	for _, d := range checkedTypes {
		if !reached[d.at] {
			typs = append(typs, d)
		}
	}
	return funcs, typs
}

// funcKey names a function pkg.Name and a method pkg.Type.Name.
func funcKey(fn *types.Func) string {
	key := short(fn.Pkg().Path()) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		key += typ.(*types.Named).Obj().Name() + "."
	}
	return key + fn.Name()
}

// stdCalled reports whether the standard library can call method fn
// through one of its own interfaces.
func (m *module) stdCalled(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, ifc := range m.stdIfc {
		if !types.Implements(typ, ifc) && !types.Implements(types.NewPointer(typ), ifc) {
			continue
		}
		for i := 0; i < ifc.NumMethods(); i++ {
			if ifc.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// unset returns rule 2's offenders in declaration order.
func (m *module) unset() []decl {
	var fields []decl
	byProgram, elsewhere := map[token.Pos]bool{}, map[token.Pos]bool{}
	for _, u := range m.units {
		program := !u.test || m.root(u)
		for _, d := range u.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
				continue
			}
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE && u.checked() {
				for _, s := range gd.Specs {
					ts := s.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.IsExported() {
								key := short(u.pkg.ImportPath) + "." + ts.Name.Name + "." + name.Name
								fields = append(fields, decl{key: key, at: name.Pos()})
							}
						}
					}
				}
			}
			if program {
				markSet(d, u.info, byProgram, nil)
			}
			markSet(d, u.info, elsewhere, defaultLits(d, u.info))
		}
	}
	var out []decl
	for _, f := range fields {
		switch {
		case !byProgram[f.at]:
			f.why = "set by no program (withDefaults aside)"
		case !elsewhere[f.at]:
			f.why = "set only by its package's Default* literal"
		default:
			continue
		}
		out = append(out, f)
	}
	return out
}

// defaultLits returns the top-level composite literals that d, when it is
// a Default* function, returns for a struct type of its own package.
func defaultLits(d ast.Decl, info *types.Info) map[*ast.CompositeLit]bool {
	fd, ok := d.(*ast.FuncDecl)
	if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Default") {
		return nil
	}
	own := info.Defs[fd.Name].Pkg()
	lits := map[*ast.CompositeLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				lit, ok := r.(*ast.CompositeLit)
				if !ok {
					continue
				}
				if named, ok := info.Types[lit].Type.(*types.Named); ok && named.Obj().Pkg() == own {
					lits[lit] = true
				}
			}
		}
		return true
	})
	return lits
}

// markSet records in set every struct field that node assigns, except the
// top-level keys of the literals in skip.
func markSet(node ast.Node, info *types.Info, set map[token.Pos]bool, skip map[*ast.CompositeLit]bool) {
	chain := func(e ast.Expr) {
		for {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				set[s.Obj().(*types.Var).Origin().Pos()] = true
			}
			e = sel.X
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if skip[n] {
				break
			}
			typ := info.Types[n].Type
			if ptr, ok := typ.Underlying().(*types.Pointer); ok { // an elided &T{...}
				typ = ptr.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[f.Origin().Pos()] = true
					}
				} else {
					set[st.Field(i).Origin().Pos()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				chain(lhs)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		}
		return true
	})
}
