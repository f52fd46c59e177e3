package taco_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBenchOnlyNames: formula.ParseCached, formula.CompileCached,
// formula.Errorf, Engine.SetFormulaParsed, Engine.SetRecalcParallelism and
// Engine.RecalcParallelism are kept only because the frozen benchmark module
// (bench/) calls them. No non-test file of this module calls them, so they
// can go when the benchmark is next opened.
func TestBenchOnlyNames(t *testing.T) {
	formulaNames := map[string]bool{"ParseCached": true, "CompileCached": true, "Errorf": true}
	engineNames := map[string]bool{"SetFormulaParsed": true, "SetRecalcParallelism": true, "RecalcParallelism": true}
	fset := token.NewFileSet()
	var files int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		inFormula := filepath.Dir(path) == filepath.Join("internal", "formula")
		formulaPkg := "" // the file's name for taco/internal/formula
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "taco/internal/formula" {
				formulaPkg = "formula"
				if imp.Name != nil {
					formulaPkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				if inFormula && formulaNames[fn.Name] {
					name = fn.Name
				}
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok && formulaPkg != "" && x.Name == formulaPkg && formulaNames[fn.Sel.Name] {
					name = "formula." + fn.Sel.Name
				} else if engineNames[fn.Sel.Name] {
					name = fn.Sel.Name
				}
			}
			if name != "" {
				t.Errorf("%s: calls %s, which only bench/ may call", fset.Position(call.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("read %d non-test Go files, want the whole module", files)
	}
}
