// Package taco is a Go implementation of TACO — Tabular-locality-based
// Compression of spreadsheet formula graphs (Tang et al., "Efficient and
// Compact Spreadsheet Formula Graphs", ICDE 2023).
//
// A formula graph records, for every formula cell, the ranges it references.
// Real spreadsheets exhibit tabular locality: adjacent cells carry
// structurally similar formulae (autofill, copy-paste, programmatic
// generation), so runs of dependencies can be compressed into constant-size
// edges following one of five patterns — RR, RF, FR, FF, and RR-Chain.
// TACO builds that compressed graph greedily, answers dependent/precedent
// queries directly on it without decompression, and maintains it
// incrementally under edits.
//
// # Quick start
//
//	g := taco.NewGraph(taco.DefaultOptions())
//	g.AddDependency(taco.Dependency{
//		Prec: taco.MustRange("A1:A3"),
//		Dep:  taco.MustCell("B1"),
//	})
//	deps := g.FindDependents(taco.MustRange("A2"))
//
// To work from .xlsx files:
//
//	sheets, err := taco.ReadXLSX("book.xlsx")
//	g, err := taco.SheetGraph(sheets[0], taco.DefaultOptions())
//
// And to run a live spreadsheet with TACO-driven recalculation:
//
//	e := taco.NewEngine()
//	e.SetValue(taco.MustCell("A1"), taco.Num(2))
//	e.SetFormula(taco.MustCell("B1"), "A1*10")
//
// The subpackages under internal/ implement the substrates: the formula
// language, the R-tree index, the uncompressed baseline, the comparators
// from the paper's evaluation, the synthetic corpus generators, and the
// experiment harness (cmd/tacobench) that regenerates every table and
// figure.
package taco

import (
	"io"

	"taco/internal/core"
	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/workload"
	"taco/internal/xlsx"
)

// Geometry types.
type (
	// Ref is a cell position (1-based column and row).
	Ref = ref.Ref
	// Range is a rectangular cell region with Head (top-left) and Tail
	// (bottom-right) corners.
	Range = ref.Range
	// Offset is a relative displacement between cells.
	Offset = ref.Offset
	// Axis orients a compressed run (column or row).
	Axis = ref.Axis
)

// Graph types.
type (
	// Graph is the TACO compressed formula graph.
	Graph = core.Graph
	// Options configures compression (patterns, heuristics, variants).
	Options = core.Options
	// Dependency is one uncompressed edge: formula cell Dep references
	// range Prec.
	Dependency = core.Dependency
	// Edge is a (possibly compressed) edge of the graph.
	Edge = core.Edge
	// PatternType identifies a compression pattern.
	PatternType = core.PatternType
	// PatternStat aggregates per-pattern compression effectiveness.
	PatternStat = core.PatternStat
	// Stats summarises graph sizes.
	Stats = core.Stats
)

// Spreadsheet types.
type (
	// Sheet is a sparse spreadsheet (cells with values or formulae).
	Sheet = workload.Sheet
	// Cell is one populated sheet cell.
	Cell = workload.Cell
	// Engine is a spreadsheet host with TACO-driven recalculation.
	Engine = engine.Engine
	// Value is a spreadsheet value (number, text, bool, error, empty).
	Value = formula.Value
)

// Compression patterns.
const (
	// Single marks an uncompressed edge.
	Single = core.Single
	// RR is Relative-Relative: a sliding window.
	RR = core.RR
	// RF is Relative-Fixed: a shrinking window.
	RF = core.RF
	// FR is Fixed-Relative: an expanding window (cumulative totals).
	FR = core.FR
	// FF is Fixed-Fixed: a shared fixed range (rates, lookup tables).
	FF = core.FF
	// RRChain is the extended chain pattern of Sec. V.
	RRChain = core.RRChain
)

// Axes.
const (
	// AxisCol marks a vertical (column) run.
	AxisCol = ref.AxisCol
	// AxisRow marks a horizontal (row) run.
	AxisRow = ref.AxisRow
)

// SafeGraph is a Graph wrapped with a read-write lock for concurrent use.
type SafeGraph = core.SafeGraph

// Serving types.
type (
	// Server is the multi-tenant spreadsheet HTTP service: many concurrent
	// workbook sessions, each backed by an Engine over a TACO graph, behind
	// a sharded session store with SIEVE-evicted spill-to-disk. It implements
	// http.Handler; run it standalone with cmd/tacoserve.
	Server = server.Server
	// ServerOptions configures a Server.
	ServerOptions = server.Options
	// SessionStoreOptions configures the server's sharded session store
	// (shard count, resident cap, spill directory).
	SessionStoreOptions = server.StoreOptions
	// SessionStoreStats is the store-wide health snapshot.
	SessionStoreStats = server.StoreStats
)

// NewGraph returns an empty compressed formula graph.
func NewGraph(opts Options) *Graph { return core.NewGraph(opts) }

// BuildGraph compresses a dependency list into a new graph with the greedy
// insertion algorithm (Alg. 2 of the paper).
func BuildGraph(deps []Dependency, opts Options) *Graph { return core.Build(deps, opts) }

// BuildGraphBulk compresses a column-major dependency stream with the
// streaming fast path, which avoids the per-dependency candidate search.
// Use it when loading whole files; use Graph.AddDependency for interactive
// edits.
func BuildGraphBulk(deps []Dependency, opts Options) *Graph { return core.BuildBulk(deps, opts) }

// NewSafeGraph returns a thread-safe compressed graph.
func NewSafeGraph(opts Options) *SafeGraph { return core.NewSafeGraph(opts) }

// ReadGraphSnapshot loads a graph serialised with Graph.WriteSnapshot.
func ReadGraphSnapshot(r io.Reader, opts Options) (*Graph, error) {
	return core.ReadSnapshot(r, opts)
}

// DefaultOptions enables all patterns with the paper's heuristics
// (the TACO-Full configuration).
func DefaultOptions() Options { return core.DefaultOptions() }

// InRowOptions returns the restricted TACO-InRow configuration, which only
// compresses derived columns.
func InRowOptions() Options { return core.InRowOptions() }

// CountCells sums the sizes of disjoint ranges, e.g. a FindDependents result.
func CountCells(rs []Range) int { return core.CountCells(rs) }

// ParseCell parses "B2"-style notation (accepting $ markers).
func ParseCell(s string) (Ref, error) { return ref.ParseA1(s) }

// ParseRange parses "A1:B3"-style notation.
func ParseRange(s string) (Range, error) { return ref.ParseRangeA1(s) }

// MustCell parses a cell reference, panicking on error. For tests, examples
// and constants.
func MustCell(s string) Ref { return ref.MustCell(s) }

// MustRange parses a range reference, panicking on error.
func MustRange(s string) Range { return ref.MustRange(s) }

// Num returns a numeric spreadsheet value.
func Num(v float64) Value { return formula.Num(v) }

// Str returns a text spreadsheet value.
func Str(s string) Value { return formula.Str(s) }

// NewSheet returns an empty named sheet.
func NewSheet(name string) *Sheet { return workload.NewSheet(name) }

// SheetDependencies parses every formula of the sheet and returns the
// uncompressed dependency list in column-major load order.
func SheetDependencies(s *Sheet) ([]Dependency, error) { return s.Dependencies() }

// SheetGraph builds a compressed formula graph for a sheet.
func SheetGraph(s *Sheet, opts Options) (*Graph, error) {
	deps, err := s.Dependencies()
	if err != nil {
		return nil, err
	}
	return core.Build(deps, opts), nil
}

// ReadXLSX loads the sheets of an .xlsx file.
func ReadXLSX(path string) ([]*Sheet, error) { return xlsx.ReadFile(path) }

// WriteXLSX writes sheets to an .xlsx file. When sharedFormulas is true,
// autofill-equivalent formula runs are stored as shared formulas (Excel's
// on-disk dedup).
func WriteXLSX(path string, sheets []*Sheet, sharedFormulas bool) error {
	return xlsx.WriteFile(path, sheets, xlsx.WriteOptions{SharedFormulas: sharedFormulas})
}

// NewEngine returns a spreadsheet engine backed by a TACO graph with the
// default options.
func NewEngine() *Engine { return engine.New(nil) }

// LoadEngine populates an engine from a sheet and evaluates all formulae,
// using TACO as the dependency graph.
func LoadEngine(s *Sheet) (*Engine, error) { return engine.Load(s, nil) }

// NewServer builds the multi-tenant spreadsheet service. Mount the returned
// handler on any mux, or serve it directly with http.ListenAndServe.
func NewServer(opts ServerOptions) (*Server, error) { return server.NewServer(opts) }

// RestoreEngineSnapshot loads a live engine serialised with
// Engine.WriteSnapshot — the whole-session persistence the serving layer
// uses to spill cold sessions. It reads the TACOE3 cell section the writer
// emits and the TACOE2 section earlier builds wrote.
func RestoreEngineSnapshot(r io.Reader) (*Engine, error) { return engine.RestoreSnapshot(r) }

// ExtractReferences parses a formula (with or without a leading '=') and
// returns the ranges it references as dependencies of the given cell,
// carrying the $-marker cues.
func ExtractReferences(src string, at Ref) ([]Dependency, error) {
	refs, err := formula.ExtractRefs(src)
	if err != nil {
		return nil, err
	}
	out := make([]Dependency, len(refs))
	for i, r := range refs {
		out[i] = Dependency{Prec: r.At, Dep: at, HeadFixed: r.HeadFixed, TailFixed: r.TailFixed}
	}
	return out, nil
}
