package engine

import (
	"fmt"

	"taco/internal/formula"
	"taco/internal/ref"
)

// The names in this file are kept only because the frozen benchmark module
// (bench/) calls them; nothing else in this module may (TestBenchOnlyNames).

// SetFormulaParsed is SetFormula for a source the caller already parsed to
// ast. The cell holds src's shape, looked up by its text, so ast only vouches
// that src parses. It panics when src does not parse. bench/serve.go
// applies a batch's formula edits with it.
func (e *Engine) SetFormulaParsed(at ref.Ref, src string, ast formula.Node) []ref.Range {
	shape, err := formula.ParseShape(src, at)
	if err != nil {
		panic(fmt.Sprintf("engine: SetFormulaParsed of a formula that does not parse: %v", err))
	}
	return e.SetFormulaShape(at, shape)
}

// SetRecalcParallelism is SetSerial(n == 1). The name is from when n was a
// worker count; bench/ sets a worker count and pins serial with 1.
func (e *Engine) SetRecalcParallelism(n int) { e.SetSerial(n == 1) }

// RecalcParallelism returns 1 when the engine is pinned serial and 0 when
// it is not, so SetRecalcParallelism(RecalcParallelism()) restores the pin.
func (e *Engine) RecalcParallelism() int {
	if e.serial {
		return 1
	}
	return 0
}
