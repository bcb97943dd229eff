package essdsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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

// TestFacadeExportsHaveCallers keeps the root facade sized to what the
// repository demonstrates and checks: every exported function in
// essdsim.go needs an essdsim.<Name> reference in a command under cmd/,
// a program under examples/, or a root test or Example. Benchmarks check
// no output, so bench_test.go does not count as a caller.
func TestFacadeExportsHaveCallers(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	called := map[string]bool{}
	for _, path := range files {
		if path == "bench_test.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "essdsim" {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	facade, err := parser.ParseFile(fset, "essdsim.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for _, decl := range facade.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if ok && fn.Recv == nil && fn.Name.IsExported() && !called[fn.Name.Name] {
			uncalled = append(uncalled, fn.Name.Name)
		}
	}
	if len(uncalled) > 0 {
		t.Errorf("%d exported functions of essdsim.go have no caller in cmd/, examples/ or a root test (bench_test.go does not count); call each from a checked example or test, or delete it: %s",
			len(uncalled), strings.Join(uncalled, ", "))
	}
}
