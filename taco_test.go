package taco_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"taco"
)

func TestQuickStartFlow(t *testing.T) {
	g := taco.NewGraph(taco.DefaultOptions())
	for _, d := range []taco.Dependency{
		{Prec: taco.MustRange("A1:A3"), Dep: taco.MustCell("B1")},
		{Prec: taco.MustRange("A2:A4"), Dep: taco.MustCell("B2")},
		{Prec: taco.MustRange("A3:A5"), Dep: taco.MustCell("B3")},
	} {
		g.AddDependency(d)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want one RR run", g.NumEdges())
	}
	deps := g.FindDependents(taco.MustRange("A3"))
	if taco.CountCells(deps) != 3 {
		t.Fatalf("dependents = %v", deps)
	}
}

func TestSheetToGraph(t *testing.T) {
	s := taco.NewSheet("demo")
	s.SetValue(taco.MustCell("A1"), 1)
	s.SetValue(taco.MustCell("A2"), 2)
	s.SetFormula(taco.MustCell("B1"), "A1*2")
	s.SetFormula(taco.MustCell("B2"), "A2*2")
	g, err := taco.SheetGraph(s, taco.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.NumDependencies() != 2 {
		t.Fatalf("graph = %d edges, %d deps", g.NumEdges(), g.NumDependencies())
	}
}

func TestXLSXRoundTripThroughPublicAPI(t *testing.T) {
	s := taco.NewSheet("book")
	s.SetValue(taco.MustCell("A1"), 10)
	s.SetFormula(taco.MustCell("B1"), "A1+5")
	path := filepath.Join(t.TempDir(), "x.xlsx")
	if err := taco.WriteXLSX(path, []*taco.Sheet{s}, true); err != nil {
		t.Fatal(err)
	}
	sheets, err := taco.ReadXLSX(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sheets) != 1 || sheets[0].Cells[taco.MustCell("B1")].Formula != "A1+5" {
		t.Fatalf("sheets = %+v", sheets)
	}
}

func TestEngineThroughPublicAPI(t *testing.T) {
	e := taco.NewEngine()
	e.SetValue(taco.MustCell("A1"), taco.Num(2))
	if _, err := e.SetFormula(taco.MustCell("B1"), "A1*10"); err != nil {
		t.Fatal(err)
	}
	e.RecalculateAll() // reads are side-effect-free; drain explicitly
	if v := e.Value(taco.MustCell("B1")); v.Num != 20 {
		t.Fatalf("B1 = %v", v)
	}
	dirty := e.SetValue(taco.MustCell("A1"), taco.Num(3))
	if taco.CountCells(dirty) != 1 {
		t.Fatalf("dirty = %v", dirty)
	}
}

func TestExtractReferences(t *testing.T) {
	deps, err := taco.ExtractReferences("=SUM($B$1:B4)+C2", taco.MustCell("D4"))
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 {
		t.Fatalf("deps = %v", deps)
	}
	if !deps[0].HeadFixed || deps[0].TailFixed {
		t.Fatalf("cue flags = %+v", deps[0])
	}
	if deps[1].Prec != taco.MustRange("C2") || deps[1].Dep != taco.MustCell("D4") {
		t.Fatalf("deps[1] = %+v", deps[1])
	}
	if _, err := taco.ExtractReferences("=SUM(", taco.MustCell("A1")); err == nil {
		t.Fatal("want parse error")
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := taco.ParseCell("B2"); err != nil {
		t.Fatal(err)
	}
	if _, err := taco.ParseRange("A1:B2"); err != nil {
		t.Fatal(err)
	}
	if _, err := taco.ParseCell("!!"); err == nil {
		t.Fatal("want error")
	}
	if taco.MustRange("A1:B2").Size() != 4 {
		t.Fatal("size")
	}
}

func TestBulkBuildAndSnapshotThroughPublicAPI(t *testing.T) {
	var deps []taco.Dependency
	for row := 1; row <= 30; row++ {
		deps = append(deps, taco.Dependency{
			Prec: taco.Range{Head: taco.Ref{Col: 1, Row: row}, Tail: taco.Ref{Col: 1, Row: row}},
			Dep:  taco.Ref{Col: 2, Row: row},
		})
	}
	g := taco.BuildGraphBulk(deps, taco.DefaultOptions())
	if g.NumEdges() != 1 {
		t.Fatalf("bulk edges = %d", g.NumEdges())
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := taco.ReadGraphSnapshot(&buf, taco.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDependencies() != 30 {
		t.Fatalf("loaded deps = %d", loaded.NumDependencies())
	}
}

func TestSafeGraphThroughPublicAPI(t *testing.T) {
	s := taco.NewSafeGraph(taco.DefaultOptions())
	s.AddDependency(taco.Dependency{Prec: taco.MustRange("A1"), Dep: taco.MustCell("B1")})
	if got := s.FindDependents(taco.MustRange("A1")); taco.CountCells(got) != 1 {
		t.Fatalf("dependents = %v", got)
	}
}

func TestInRowOptionsExposed(t *testing.T) {
	opts := taco.InRowOptions()
	g := taco.NewGraph(opts)
	g.AddDependency(taco.Dependency{Prec: taco.MustRange("A1"), Dep: taco.MustCell("B1")})
	g.AddDependency(taco.Dependency{Prec: taco.MustRange("A2"), Dep: taco.MustCell("B2")})
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}
