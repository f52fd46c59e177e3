package formula

import (
	"encoding/binary"
	"math"
	"strings"
	"sync"

	"taco/internal/ref"
)

// This file compiles parsed formulae to flat postfix bytecode and evaluates
// it on a small stack VM. The AST walker (Eval) stays the semantic oracle;
// the VM exists to kill the tree walk and the per-node interface dispatch in
// the recalculation hot loop, where the same formula shape is evaluated
// thousands of times across a column.
//
// Cell and range operands are encoded relative to the compiling cell's
// position (the anchor) on their relative axes and absolutely on their
// $-fixed axes — exactly the axes Shift preserves. Two formulae that are
// shifted copies of each other therefore compile to byte-identical programs
// (appendKey), and the intern table (shape.go) keeps one *Program per bytes,
// so "same program" is a pointer comparison. That is what the wavefront
// scheduler's pattern-run detection keys on (see engine/runs.go): a column of
// =A2*B2+C2, =A3*B3+C3, ... shares one *Program. The same table interns a
// formula's text by the same relative encoding: the column shares one
// *Shape, which holds that program, and text that differs only in spelling,
// spacing or redundant parentheses is another shape of the same program. A
// program copies the strings it keeps, so it pins none of the source.
//
// Exactness: Eval and the VM read the same operands in the same order — both
// evaluate every argument expression before they apply an operator or
// dispatch a call (dispatchCall, shared) — so they make the same resolver
// calls and return the same value under any resolver, including the engine's
// walk, whose reads of dirty cells decide where #CYCLE! lands (pinned by
// TestBytecodeEquivalence, FuzzBytecodeEval and TestEvalReadsLikeVM).

// opcode is a VM instruction tag.
type opcode uint8

const (
	opConst  opcode = iota // push consts[a]
	opCell                 // push the cell operand cells[a], resolved at the anchor
	opRange                // push the range operand ranges[a] as a range argument
	opUnary                // apply unary ops[a] to the top of stack
	opBinary               // apply binary ops[a] to the top two entries
	opCall                 // dispatch calls[a] over its argc top entries
)

// instr is one VM instruction: an opcode plus an operand-table index.
type instr struct {
	op opcode
	a  int32
}

// CellOp is a compiled cell operand. On a fixed axis the coordinate is
// absolute (1-based); on a relative axis it is an offset from the anchor.
// The engine's run executor reads these to plan slab cursors.
type CellOp struct {
	DCol, DRow         int32
	ColFixed, RowFixed bool
}

// At resolves the operand's position for a given anchor cell.
func (o CellOp) At(anchor ref.Ref) ref.Ref {
	at := ref.Ref{Col: int(o.DCol), Row: int(o.DRow)}
	if !o.ColFixed {
		at.Col += anchor.Col
	}
	if !o.RowFixed {
		at.Row += anchor.Row
	}
	return at
}

// rangeOp is a compiled range operand; each of the four coordinates is
// absolute or anchor-relative according to its own $-flag, mirroring Shift.
type rangeOp struct {
	headCol, headRow, tailCol, tailRow                     int32
	headColFixed, headRowFixed, tailColFixed, tailRowFixed bool
}

func (o rangeOp) at(anchor ref.Ref) ref.Range {
	head := ref.Ref{Col: int(o.headCol), Row: int(o.headRow)}
	tail := ref.Ref{Col: int(o.tailCol), Row: int(o.tailRow)}
	if !o.headColFixed {
		head.Col += anchor.Col
	}
	if !o.headRowFixed {
		head.Row += anchor.Row
	}
	if !o.tailColFixed {
		tail.Col += anchor.Col
	}
	if !o.tailRowFixed {
		tail.Row += anchor.Row
	}
	return ref.Range{Head: head, Tail: tail}
}

// callInfo is a compiled call site.
type callInfo struct {
	name string
	argc int32
	// exempt marks the builtins exempt from first-scalar-error propagation
	// (IF, ISERROR, IFERROR — they give errors meaning).
	exempt bool
}

// callSite is the call site of the named builtin over argc arguments.
func callSite(name string, argc int) callInfo {
	return callInfo{name: name, argc: int32(argc), exempt: name == "IF" || name == "ISERROR" || name == "IFERROR"}
}

// Program is a compiled formula: flat postfix code over operand tables.
// Programs are immutable after compilation and safe for concurrent
// evaluation from any number of goroutines.
type Program struct {
	code    []instr
	consts  []Value
	cells   []CellOp
	ranges  []rangeOp
	calls   []callInfo
	ops     []string
	numeric *numericPlan
}

// CellOps returns the program's cell operand descriptors (shared slice —
// callers must not mutate).
func (p *Program) CellOps() []CellOp { return p.cells }

// AppendReads appends to dst what the cell at anchor reads: one range per
// distinct cell and range operand — the ranges Refs reports of the formula the
// program was compiled from, when anchor is a cell it was compiled at.
func (p *Program) AppendReads(dst []ref.Range, anchor ref.Ref) []ref.Range {
	for _, o := range p.cells {
		dst = append(dst, ref.CellRange(o.At(anchor)))
	}
	for _, o := range p.ranges {
		dst = append(dst, o.at(anchor))
	}
	return dst
}

// Compile compiles the AST to a Program anchored at the given cell. Every
// parsed formula compiles: Node is sealed, and the VM's stack grows as deep as
// the expression nests.
func Compile(n Node, at ref.Ref) *Program {
	c := compiler{anchor: at}
	c.gen(n)
	c.p.numeric = c.p.buildNumeric()
	return &c.p
}

type compiler struct {
	p      Program
	anchor ref.Ref
}

func (c *compiler) emit(op opcode, a int32) {
	c.p.code = append(c.p.code, instr{op: op, a: a})
}

func (c *compiler) addConst(v Value) int32 {
	for i, e := range c.p.consts {
		if e == v {
			return int32(i)
		}
	}
	v.Str = strings.Clone(v.Str) // the program pins none of the source
	c.p.consts = append(c.p.consts, v)
	return int32(len(c.p.consts) - 1)
}

func (c *compiler) addOp(op string) int32 {
	for i, e := range c.p.ops {
		if e == op {
			return int32(i)
		}
	}
	c.p.ops = append(c.p.ops, op) // the lexer's static text
	return int32(len(c.p.ops) - 1)
}

func (c *compiler) addCell(op CellOp) int32 {
	for i, e := range c.p.cells {
		if e == op {
			return int32(i)
		}
	}
	c.p.cells = append(c.p.cells, op)
	return int32(len(c.p.cells) - 1)
}

func (c *compiler) addRange(op rangeOp) int32 {
	for i, e := range c.p.ranges {
		if e == op {
			return int32(i)
		}
	}
	c.p.ranges = append(c.p.ranges, op)
	return int32(len(c.p.ranges) - 1)
}

func (c *compiler) addCall(ci callInfo) int32 {
	for i, e := range c.p.calls {
		if e == ci {
			return int32(i)
		}
	}
	ci.name = strings.Clone(ci.name)
	c.p.calls = append(c.p.calls, ci)
	return int32(len(c.p.calls) - 1)
}

// rel encodes one coordinate: absolute when fixed, anchor-relative when not.
func rel(coord, anchor int, fixed bool) int32 {
	if fixed {
		return int32(coord)
	}
	return int32(coord - anchor)
}

// rangeOpOf encodes a range reference relative to anchor.
func rangeOpOf(t *RangeRef, anchor ref.Ref) rangeOp {
	return rangeOp{
		headCol:      rel(t.At.Head.Col, anchor.Col, t.HeadColFixed),
		headRow:      rel(t.At.Head.Row, anchor.Row, t.HeadRowF),
		tailCol:      rel(t.At.Tail.Col, anchor.Col, t.TailColFixed),
		tailRow:      rel(t.At.Tail.Row, anchor.Row, t.TailRowF),
		headColFixed: t.HeadColFixed, headRowFixed: t.HeadRowF,
		tailColFixed: t.TailColFixed, tailRowFixed: t.TailRowF,
	}
}

func (c *compiler) gen(n Node) {
	switch t := n.(type) {
	case *Number:
		c.emit(opConst, c.addConst(Num(t.Value)))
	case *String:
		c.emit(opConst, c.addConst(Str(t.Value)))
	case *Bool:
		c.emit(opConst, c.addConst(Boolean(t.Value)))
	case *CellRef:
		c.emit(opCell, c.addCell(CellOp{
			DCol:     rel(t.At.Col, c.anchor.Col, t.ColFixed),
			DRow:     rel(t.At.Row, c.anchor.Row, t.RowFixed),
			ColFixed: t.ColFixed, RowFixed: t.RowFixed,
		}))
	case *RangeRef:
		c.emit(opRange, c.addRange(rangeOpOf(t, c.anchor)))
	case *Unary:
		c.gen(t.X)
		c.emit(opUnary, c.addOp(t.Op))
	case *Binary:
		c.gen(t.L)
		c.gen(t.R)
		c.emit(opBinary, c.addOp(t.Op))
	case *Call:
		for _, a := range t.Args {
			c.gen(a)
		}
		c.emit(opCall, c.addCall(callSite(t.Name, len(t.Args))))
	}
}

// The numeric sweep fast path: a program whose every instruction is a
// numeric constant, a cell operand, a +,-,*,/ binary, or a fold-compatible
// aggregate of one range evaluates on a bare float64 stack — no arg boxing,
// no pool traffic, no string op lookup. It covers exactly the operand
// combinations where applyBinary reduces to the raw float operation over
// AsNumber coercions — an aggregate being the number foldAggregate makes of
// the caller's NumericFold — so the result is bit-identical to the generic
// interpreter whenever every operand coerces, every aggregate is a number and
// no divisor is zero; any other row (error operand, unparsable string,
// #DIV/0!) bails back to the generic run, which owns all error semantics.

// numInstr is one numeric-plan instruction; a indexes the plan's consts
// (npConst) or the operand buffer: the program's CellOps (npCell), then the
// plan's FoldOps (npFold).
type numInstr struct {
	kind uint8
	a    int32
}

const (
	npConst = iota
	npCell
	npFold
	npAdd
	npSub
	npMul
	npDiv
)

// maxNumericDepth bounds the fast path's fixed-size value stack; deeper
// arithmetic stays on the generic interpreter.
const maxNumericDepth = 16

type numericPlan struct {
	code   []numInstr
	consts []float64
	folds  []FoldOp
	depth  int // the deepest the value stack gets
	chain  numericChain
}

// numericChain is a plan's recurrence form, prev ⊕ X: the root is one + - * /
// (root, an npAdd..npDiv), one child is the cell operand op, the cell one row
// up in the anchor's own column, on the right when right is set, and X, the
// other child (code), does not read op. ok is false for every other plan.
type numericChain struct {
	ok    bool
	right bool
	root  uint8
	op    int
	code  []numInstr
}

// FoldOp is an aggregate the numeric plan reads as one number: a call from
// the set foldAggregate answers off a NumericFold — SUM, AVERAGE/AVG, COUNT,
// COUNTA, MIN, MAX — whose only argument is a range operand. The engine's run
// executor folds the range At resolves and hands in what Result makes of it.
type FoldOp struct {
	fn  uint8
	rng rangeOp
}

const (
	foldSum = iota
	foldAverage
	foldCount
	foldCountA
	foldMin
	foldMax
)

var foldFns = map[string]uint8{"SUM": foldSum, "AVERAGE": foldAverage, "AVG": foldAverage,
	"COUNT": foldCount, "COUNTA": foldCountA, "MIN": foldMin, "MAX": foldMax}

// At resolves the aggregate's range for a given anchor cell.
func (o FoldOp) At(anchor ref.Ref) ref.Range { return o.rng.at(anchor) }

// WantsExtrema reports whether Result reads the fold's Min and Max; a fold kept
// only for Result can leave them alone when it does not.
func (o FoldOp) WantsExtrema() bool { return o.fn >= foldMin }

// Result finishes the aggregate from its range's fold, as foldAggregate does.
// ok is false when the interpreter answers an error instead: one in the range
// (the counting two ignore it), or #DIV/0! for an AVERAGE of no numbers.
func (o FoldOp) Result(f *NumericFold) (v float64, ok bool) {
	switch {
	case o.fn == foldCount:
		return float64(f.Count), true
	case o.fn == foldCountA:
		return float64(f.NonEmpty), true
	case f.Err.IsError():
		return 0, false
	case o.fn == foldSum:
		return f.Sum, true
	case o.fn == foldAverage:
		return f.Sum / float64(f.Count), f.Count > 0
	case f.Count == 0:
		return 0, true // MIN and MAX of no numbers
	case o.fn == foldMin:
		return f.Min, true
	}
	return f.Max, true
}

// buildNumeric derives the numeric plan, or nil when any instruction falls
// outside the straight-line arithmetic subset.
func (p *Program) buildNumeric() *numericPlan {
	np := &numericPlan{}
	depth, maxDepth := 0, 0
	for i := 0; i < len(p.code); i++ {
		ins := p.code[i]
		switch ins.op {
		case opConst:
			v := p.consts[ins.a]
			if v.Kind != KindNumber {
				return nil
			}
			np.code = append(np.code, numInstr{kind: npConst, a: int32(len(np.consts))})
			np.consts = append(np.consts, v.Num)
			depth++
		case opCell:
			np.code = append(np.code, numInstr{kind: npCell, a: ins.a})
			depth++
		case opRange:
			// Only as the whole argument list of the call that follows.
			if i++; i == len(p.code) || p.code[i].op != opCall {
				return nil
			}
			ci := p.calls[p.code[i].a]
			fn, folds := foldFns[ci.name]
			if !folds || ci.argc != 1 {
				return nil
			}
			np.code = append(np.code, numInstr{kind: npFold, a: int32(len(p.cells) + len(np.folds))})
			np.folds = append(np.folds, FoldOp{fn: fn, rng: p.ranges[ins.a]})
			depth++
		case opBinary:
			var k uint8
			switch p.ops[ins.a] {
			case "+":
				k = npAdd
			case "-":
				k = npSub
			case "*":
				k = npMul
			case "/":
				k = npDiv
			default:
				return nil
			}
			np.code = append(np.code, numInstr{kind: k})
			depth--
		default:
			return nil
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	// The result must come off an arithmetic op or an aggregate: a bare cell
	// or constant program preserves its operand's kind (`=B5` of a bool is a
	// bool), which a float stack cannot represent.
	if n := len(np.code); n == 0 || np.code[n-1].kind <= npCell || maxDepth > maxNumericDepth {
		return nil
	}
	np.depth = maxDepth
	np.chain = p.chainOf(np.code)
	return np
}

// chainOf finds the recurrence form of a plan's code (numericChain): a root
// op one of whose children is a single operand one row up in the anchor's
// column, which the other child never reads.
func (p *Program) chainOf(code []numInstr) numericChain {
	n := len(code)
	if n < 3 || code[n-1].kind < npAdd {
		return numericChain{}
	}
	// The right child is code[s:n-1]: walking back from its root, the first
	// instruction at which the values pushed outnumber those popped by one.
	s, vals := n-1, 0
	for vals < 1 {
		if s--; code[s].kind < npAdd {
			vals++
		} else {
			vals--
		}
	}
	prev := func(ins numInstr) bool {
		if ins.kind != npCell {
			return false
		}
		o := p.cells[ins.a]
		return !o.ColFixed && !o.RowFixed && o.DCol == 0 && o.DRow == -1
	}
	ch := numericChain{ok: true, root: code[n-1].kind}
	switch {
	case s == 1 && prev(code[0]):
		ch.op, ch.code = int(code[0].a), code[1:n-1]
	case s == n-2 && prev(code[n-2]):
		ch.op, ch.code, ch.right = int(code[n-2].a), code[:n-2], true
	default:
		return numericChain{}
	}
	for _, ins := range ch.code {
		if ins.kind == npCell && int(ins.a) == ch.op {
			return numericChain{}
		}
	}
	return ch
}

// HasNumericSweep reports whether the numeric fast path (NumericSweepRow,
// NumericSweepRows) is available for this program.
func (p *Program) HasNumericSweep() bool { return p.numeric != nil }

// FoldOps returns the aggregates the numeric plan reads (shared slice —
// callers must not mutate); none without a plan.
func (p *Program) FoldOps() []FoldOp {
	if p.numeric == nil {
		return nil
	}
	return p.numeric.folds
}

// NumericSweepRow evaluates the numeric fast path for row k of
// NumericSweepRows' lanes: lanes[i][k] must hold the AsNumber coercion of the
// value the i-th of CellOps() resolves to, then the Result of each of
// FoldOps() over its range (the caller bails to the generic interpreter when
// any of them fails). stack holds NumericWork() floats of scratch. ok is false
// on a zero divisor — the row re-runs generically so #DIV/0! placement is
// exactly the interpreter's.
func (p *Program) NumericSweepRow(lanes [][]float64, k int, stack []float64) (v float64, ok bool) {
	stack = stack[:p.numeric.depth]
	sp := 0
	for _, ins := range p.numeric.code {
		switch ins.kind {
		case npConst:
			stack[sp] = p.numeric.consts[ins.a]
			sp++
		case npCell, npFold:
			stack[sp] = lanes[ins.a][k]
			sp++
		case npAdd:
			sp--
			stack[sp-1] += stack[sp]
		case npSub:
			sp--
			stack[sp-1] -= stack[sp]
		case npMul:
			sp--
			stack[sp-1] *= stack[sp]
		default: // npDiv
			sp--
			if stack[sp] == 0 {
				return 0, false
			}
			stack[sp-1] /= stack[sp]
		}
	}
	return stack[0], true
}

// NumericWork is how many work lanes NumericSweepRows needs: the stack's depth.
func (p *Program) NumericWork() int { return p.numeric.depth }

// NumericSweepRows is NumericSweepRow for n rows at once. lanes holds one
// lane per operand, lane i's k-th float being row k's operand i; they are
// only read, so a lane may be the caller's storage as it lies. work holds
// NumericWork() lanes of n floats of scratch, work lane w at work[w*n:]. The
// plan runs one instruction at a time over whole lanes: per row the same float
// operations in the same order, so the same bits. A zero divisor sets bad[k]
// where NumericSweepRow answers ok=false (that row's result is garbage, as is
// one the caller flagged beforehand). The result is a work lane or, for a bare
// operand, its lane.
func (p *Program) NumericSweepRows(lanes [][]float64, work []float64, n int, bad []bool) []float64 {
	return p.numeric.sweep(p.numeric.code, lanes, work, n, bad)
}

// sweep runs code, a whole expression of the plan, over the lanes as
// NumericSweepRows describes.
func (np *numericPlan) sweep(code []numInstr, lanes [][]float64, work []float64, n int, bad []bool) []float64 {
	scratch := func(w int) []float64 { return work[w*n:][:n] }
	var stack [maxNumericDepth][]float64
	sp := 0
	for _, ins := range code {
		switch ins.kind {
		case npConst:
			dst, c := scratch(sp), np.consts[ins.a]
			for k := range dst {
				dst[k] = c
			}
			stack[sp] = dst
			sp++
		case npCell, npFold:
			stack[sp] = lanes[ins.a][:n]
			sp++
		default:
			// A work lane is only ever held by its own stack level, so dst
			// aliases at most l, element for element.
			sp--
			dst := scratch(sp - 1)
			l, r := stack[sp-1][:len(dst)], stack[sp][:len(dst)]
			switch ins.kind {
			case npAdd:
				for k := range dst {
					dst[k] = l[k] + r[k]
				}
			case npSub:
				for k := range dst {
					dst[k] = l[k] - r[k]
				}
			case npMul:
				for k := range dst {
					dst[k] = l[k] * r[k]
				}
			default: // npDiv
				bad := bad[:len(dst)]
				for k := range dst {
					if r[k] == 0 {
						bad[k] = true
					}
					dst[k] = l[k] / r[k]
				}
			}
			stack[sp-1] = dst
		}
	}
	return stack[0]
}

// NumericChain reports whether the plan is a recurrence, prev ⊕ X — its root
// one + - * /, one child the cell operand one row up in the anchor's own
// column, the other, X, an expression that does not read it — and which of
// CellOps() prev is. A span of such a program that reads its own column
// nowhere else runs NumericChainRows.
func (p *Program) NumericChain() (op int, ok bool) {
	if p.numeric == nil {
		return 0, false
	}
	return p.numeric.chain.op, p.numeric.chain.ok
}

// NumericChainRows runs a recurrence (NumericChain) down n rows from prev, the
// value of the row above the first: X over the lanes as NumericSweepRows runs
// a plan (lanes[op] is not read; work and bad as there), then prev carried
// from row to row, row k's value being prev ⊕ X[k], or X[k] ⊕ prev with prev on
// the right, written to out[k] — NumericSweepRow's operation in its operand
// order, so the same bits. It stops at the first row flagged in bad or with a
// zero divisor, whose value NumericSweepRow does not give, and returns how many
// rows it wrote.
func (p *Program) NumericChainRows(lanes [][]float64, work []float64, n int, bad []bool, prev float64, out []float64) int {
	ch := &p.numeric.chain
	x := p.numeric.sweep(ch.code, lanes, work, n, bad)
	x, bad, out = x[:n], bad[:n], out[:n]
	for k := range x {
		l, r := prev, x[k]
		if ch.right {
			l, r = r, l
		}
		switch {
		case bad[k]:
			return k
		case ch.root == npAdd:
			prev = l + r
		case ch.root == npSub:
			prev = l - r
		case ch.root == npMul:
			prev = l * r
		case r == 0:
			return k
		default: // npDiv
			prev = l / r
		}
		out[k] = prev
	}
	return n
}

// scalarize coerces a stacked argument to scalar context: a range argument
// in scalar position is #VALUE!, exactly like Eval on a bare *RangeRef.
func scalarize(a arg) Value {
	if a.isRange {
		return Error(ErrValue)
	}
	return a.scalar
}

type vmState struct{ stack []arg }

var vmStatePool = sync.Pool{New: func() any {
	return &vmState{stack: make([]arg, 0, 32)}
}}

// EvalAt evaluates the program for the given anchor cell: the value Eval gives
// of the formula it was compiled from at that cell, read for read.
func (p *Program) EvalAt(res Resolver, at ref.Ref) Value {
	return p.run(res, at, nil)
}

// EvalCells is EvalAt with cell-operand reads served by the caller: read
// receives the operand's index in CellOps() and its resolved position, and
// must return exactly what res.CellValue would. The engine's run executor
// uses it to feed values from advancing slab cursors instead of per-cell
// map probes; range operands and call dispatch still go through res.
func (p *Program) EvalCells(res Resolver, at ref.Ref, read func(op int, target ref.Ref) Value) Value {
	return p.run(res, at, read)
}

func (p *Program) run(res Resolver, at ref.Ref, read func(int, ref.Ref) Value) Value {
	st := vmStatePool.Get().(*vmState)
	stack := st.stack[:0]
	for _, ins := range p.code {
		switch ins.op {
		case opConst:
			stack = append(stack, arg{scalar: p.consts[ins.a]})
		case opCell:
			target := p.cells[ins.a].At(at)
			var v Value
			if read != nil {
				v = read(int(ins.a), target)
			} else {
				v = res.CellValue(target)
			}
			stack = append(stack, arg{scalar: v})
		case opRange:
			stack = append(stack, arg{isRange: true, rng: p.ranges[ins.a].at(at)})
		case opUnary:
			stack[len(stack)-1] = arg{scalar: applyUnary(p.ops[ins.a], scalarize(stack[len(stack)-1]))}
		case opBinary:
			l, r := scalarize(stack[len(stack)-2]), scalarize(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = arg{scalar: applyBinary(p.ops[ins.a], l, r)}
		case opCall:
			ci := p.calls[ins.a]
			base := len(stack) - int(ci.argc)
			v := dispatchCall(ci, stack[base:], res)
			stack = stack[:base]
			stack = append(stack, arg{scalar: v})
		}
	}
	out := scalarize(stack[0])
	st.stack = stack
	vmStatePool.Put(st)
	return out
}

// dispatchCall runs one call site over its evaluated arguments, for the VM and
// Eval alike: the first scalar error (in argument order) propagates unless the
// builtin gives errors meaning, IF and IFERROR pick among their evaluated
// arguments, and everything else goes through the shared dispatcher.
func dispatchCall(ci callInfo, args []arg, res Resolver) Value {
	if !ci.exempt {
		for i := range args {
			if !args[i].isRange && args[i].scalar.IsError() {
				return args[i].scalar
			}
		}
	}
	switch ci.name {
	case "IF":
		if len(args) < 2 || len(args) > 3 {
			return Error(ErrNA)
		}
		cond := scalarize(args[0])
		if cond.IsError() {
			return cond
		}
		if condTruth(cond) {
			return scalarize(args[1])
		}
		if len(args) == 3 {
			return scalarize(args[2])
		}
		return Boolean(false)
	case "IFERROR":
		if len(args) != 2 {
			return Error(ErrNA)
		}
		v := scalarize(args[0])
		if v.IsError() {
			return scalarize(args[1])
		}
		return v
	}
	return callShared(ci.name, args, res)
}

// appendKey serializes the program unambiguously (every variable-length
// field is length- or tag-prefixed), producing the interning key.
func (p *Program) appendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.code)))
	for _, ins := range p.code {
		b = append(b, byte(ins.op))
		b = binary.AppendVarint(b, int64(ins.a))
	}
	b = binary.AppendUvarint(b, uint64(len(p.consts)))
	for _, v := range p.consts {
		b = append(b, byte(v.Kind))
		switch v.Kind {
		case KindNumber:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Num))
		case KindString:
			b = binary.AppendUvarint(b, uint64(len(v.Str)))
			b = append(b, v.Str...)
		case KindBool:
			if v.Bool {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case KindError:
			b = append(b, byte(v.Err))
		}
	}
	flags := func(fs ...bool) (out byte) {
		for i, f := range fs {
			if f {
				out |= 1 << i
			}
		}
		return out
	}
	b = binary.AppendUvarint(b, uint64(len(p.cells)))
	for _, c := range p.cells {
		b = append(b, flags(c.ColFixed, c.RowFixed))
		b = binary.AppendVarint(b, int64(c.DCol))
		b = binary.AppendVarint(b, int64(c.DRow))
	}
	b = binary.AppendUvarint(b, uint64(len(p.ranges)))
	for _, r := range p.ranges {
		b = append(b, flags(r.headColFixed, r.headRowFixed, r.tailColFixed, r.tailRowFixed))
		b = binary.AppendVarint(b, int64(r.headCol))
		b = binary.AppendVarint(b, int64(r.headRow))
		b = binary.AppendVarint(b, int64(r.tailCol))
		b = binary.AppendVarint(b, int64(r.tailRow))
	}
	b = binary.AppendUvarint(b, uint64(len(p.calls)))
	for _, ci := range p.calls {
		b = binary.AppendUvarint(b, uint64(len(ci.name)))
		b = append(b, ci.name...)
		b = binary.AppendVarint(b, int64(ci.argc))
	}
	b = binary.AppendUvarint(b, uint64(len(p.ops)))
	for _, op := range p.ops {
		b = binary.AppendUvarint(b, uint64(len(op)))
		b = append(b, op...)
	}
	return b
}
