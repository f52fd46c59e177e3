package taco_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzRun matches one native-fuzz run of a target in its package, as the
// Makefile ($$-escaped) and the workflows spell it.
var fuzzRun = regexp.MustCompile(`test (\./\S+) -run '\^\$\$?' -fuzz '\^(Fuzz\w+)\$\$?'`)

// TestFuzzTargetsListed: every native fuzz target in the module's test files
// runs, in its package, in `make fuzz-smoke` (which CI runs) and in the
// nightly workflow, and neither names a target that does not exist.
func TestFuzzTargetsListed(t *testing.T) {
	var targets []string // "./<package dir> <FuzzName>"
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets = append(targets, "./"+filepath.ToSlash(filepath.Dir(path))+" "+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	sort.Strings(targets)

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	nightly, err := os.ReadFile(filepath.Join(".github", "workflows", "nightly.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct{ name, text string }{{"make fuzz-smoke", recipe}, {"nightly.yml", string(nightly)}} {
		var runs []string
		for _, m := range fuzzRun.FindAllStringSubmatch(list.text, -1) {
			runs = append(runs, m[1]+" "+m[2])
		}
		sort.Strings(runs)
		if strings.Join(runs, "\n") != strings.Join(targets, "\n") {
			t.Errorf("%s runs\n\t%s\nthe module's fuzz targets are\n\t%s", list.name,
				strings.Join(runs, "\n\t"), strings.Join(targets, "\n\t"))
		}
	}
}
