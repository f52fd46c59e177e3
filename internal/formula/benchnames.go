package formula

import "taco/internal/ref"

// The names in this file are kept only because the frozen benchmark module
// (bench/) calls them; nothing else in this module may (TestBenchOnlyNames).

// ParseCached is Parse: formulae are interned by shape (ParseShape), not by
// text. bench/engine_recalc.go's traced eval_vm/eval_ast layer calls it.
func ParseCached(src string) (Node, error) { return Parse(src) }

// CompileCached is Compile: programs are interned with the shapes that hold
// them (ParseShape). bench/engine_recalc.go's traced eval_vm layer calls it.
func CompileCached(n Node, at ref.Ref) *Program { return Compile(n, at) }

// Errorf returns the error value whose text is code, the way a client reads
// one back; a text that names no ErrCode reads as #VALUE!. bench/serve.go
// reads served error cells back with it.
func Errorf(code string) Value {
	c, ok := ParseErrCode(code)
	if !ok {
		c = ErrValue
	}
	return Error(c)
}
