package formula

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"taco/internal/ref"
)

// Native go-fuzz targets. CI smoke-runs each with a bounded -fuzztime; the
// deterministic random-input tests in fuzz_test.go stay as the always-on
// tier-1 variant.

// FuzzParse: the parser must never panic, and anything that parses must
// render (Text) and re-parse to a fixed point.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"=SUM(A1:B10)",
		"=IF(A1>0,SUM($B$1:B5)*2,\"neg\")",
		"=VLOOKUP(3,A1:C9,2)",
		"=1+(2*3)%",
		"=-A1^2&\"x\"",
		"((((",
		"=SUM(",
		"=A1:B2:C3",
		"=$Z$99+AA100",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := Parse(src)
		if err != nil {
			return
		}
		if node == nil {
			t.Fatalf("nil node without error for %q", src)
		}
		rendered := Text(node)
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip of %q -> %q failed: %v", src, rendered, err)
		}
		if Text(again) != rendered {
			t.Fatalf("unstable round trip: %q -> %q -> %q", src, rendered, Text(again))
		}
	})
}

// FuzzEval: evaluating any parse result against both a plain and a
// range-capable resolver must never panic, and the two resolver paths must
// agree — the bulk range fast path is behaviour-preserving by construction.
func FuzzEval(f *testing.F) {
	seeds := []string{
		"=SUM(A1:C20)",
		"=SUMIF(A1:A20,\">2\",B1:B20)",
		"=COUNTIF(B1:B20,0)",
		"=SUMPRODUCT(A1:A9,B1:B9)",
		"=VLOOKUP(0,A1:B20,2)",
		"=AVERAGE(A1:A20)/COUNTBLANK(B1:B20)",
		"=MIN(A1:B20)&MAX(A1:B20)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	grid := map[ref.Ref]Value{}
	for row := 1; row <= 20; row++ {
		switch row % 5 {
		case 0: // leave a gap: sparse columns
		case 1:
			grid[ref.Ref{Col: 1, Row: row}] = Num(float64(row))
		case 2:
			grid[ref.Ref{Col: 2, Row: row}] = Str("t")
		case 3:
			grid[ref.Ref{Col: 1, Row: row}] = Boolean(row%2 == 0)
			grid[ref.Ref{Col: 2, Row: row}] = Num(-float64(row))
		default:
			grid[ref.Ref{Col: 3, Row: row}] = Error(ErrDiv0)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := Parse(src)
		if err != nil {
			return
		}
		bulk := Eval(node, &colResolver{cells: grid})
		percell := Eval(node, &colResolver{cells: grid, decline: true})
		if !sameValue(bulk, percell) {
			t.Fatalf("%q: bulk=%v percell=%v", src, bulk, percell)
		}
	})
}

// FuzzBytecodeEval: the AST≡VM pin. Anything that parses and compiles must
// evaluate to the same value on the stack VM as on the AST walker — under
// both resolver variants and at a shifted anchor with the AST shifted
// alongside, which is exactly the configuration the engine's pattern-run
// drain evaluates (one interned program, many anchors).
func FuzzBytecodeEval(f *testing.F) {
	seeds := []string{
		"=A1*B1+C1",
		"=SUM(A1:C20)%",
		"=IF(A1>0,SUM($B$1:B5)*2,\"neg\")",
		"=SUMIF(A1:A20,\">2\",B1:B20)",
		"=SUMPRODUCT(A1:A9,B1:B9)",
		"=IFERROR(1/C3,VLOOKUP(0,A1:B20,2))",
		"=MIN(A1:B20)&MAX(A1:B20)&NOSUCH(A2)",
		"=-$A$3^2&CONCAT(B2,\"x\")",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	grid := map[ref.Ref]Value{}
	for row := 1; row <= 20; row++ {
		switch row % 5 {
		case 0: // gap
		case 1:
			grid[ref.Ref{Col: 1, Row: row}] = Num(float64(row) * 1.5)
		case 2:
			grid[ref.Ref{Col: 2, Row: row}] = Str("t")
		case 3:
			grid[ref.Ref{Col: 1, Row: row}] = Boolean(row%2 == 0)
			grid[ref.Ref{Col: 2, Row: row}] = Num(-float64(row))
		default:
			grid[ref.Ref{Col: 3, Row: row}] = Error(ErrDiv0)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := Parse(src)
		if err != nil {
			return
		}
		anchor := ref.Ref{Col: 4, Row: 7}
		p := Compile(node, anchor)
		if p == nil {
			t.Fatalf("%q: parsed but did not compile", src)
		}
		walker, vm := &readLog{cells: grid}, &readLog{cells: grid}
		Eval(node, walker)
		p.EvalAt(vm, anchor)
		if !slices.Equal(walker.reads, vm.reads) {
			t.Fatalf("%q: Eval read %v, the VM %v", src, walker.reads, vm.reads)
		}
		for _, decline := range []bool{false, true} {
			want := Eval(node, &colResolver{cells: grid, decline: decline})
			got := p.EvalAt(&colResolver{cells: grid, decline: decline}, anchor)
			if !sameValue(got, want) {
				t.Fatalf("%q (decline=%v): VM=%v AST=%v", src, decline, got, want)
			}
		}
		shifted := Shift(node, 1, 3)
		at2 := ref.Ref{Col: anchor.Col + 1, Row: anchor.Row + 3}
		p2 := Compile(shifted, at2)
		if p2 == nil {
			t.Fatalf("%q: original compiled but shifted copy did not", src)
		}
		want := Eval(shifted, &colResolver{cells: grid})
		if got := p2.EvalAt(&colResolver{cells: grid}, at2); !sameValue(got, want) {
			t.Fatalf("%q shifted: VM=%v AST=%v", src, got, want)
		}
	})
}

// FuzzShapeRender: the shape key loses nothing. For every source the parser
// accepts, at a fuzzed anchor, ParseShape accepts it too, its shape renders
// the source back byte for byte, reports the references Refs does and runs the
// program Compile makes of it, and the intern table holds the shape with the
// table's program for those bytes; and the same fill's text at a second
// anchor — wherever it compiles to that program — is the same *Shape.
func FuzzShapeRender(f *testing.F) {
	seeds := []string{
		"=A1*B1*$H$1",
		"(A1*B1)*$H$1",
		"= A1 * B1 * $H$1",
		"  = sum(a1:B9) ",
		"=D4+C5",
		"=SUM(A$1:A7)",
		"=A$10:A1",
		"=$A5:B$1+aB3-A07",
		`=IF(A1>0,"x""y",C3)&"A1"`,
		"=LOG10(A1)*1E5/E5",
		"=A1:B2:C3",
	}
	for i, s := range seeds {
		f.Add(s, uint16(3+i), uint32(7+i), int16(1), int16(i))
	}
	f.Fuzz(func(t *testing.T, src string, col uint16, row uint32, dcol, drow int16) {
		at := ref.Ref{Col: 1 + int(col)%2000, Row: 1 + int(row)%200_000}
		node, perr := Parse(src)
		s, err := ParseShape(src, at)
		if (perr == nil) != (err == nil) {
			t.Fatalf("%q at %v: Parse says %v, ParseShape %v", src, at, perr, err)
		}
		if err != nil {
			return
		}
		if got := s.Source(at); got != src {
			t.Fatalf("%q at %v renders %q", src, at, got)
		}
		if got, want := s.AppendRefs(nil, at), Refs(node); !slices.Equal(got, want) {
			t.Fatalf("%q at %v: refs %v, want %v", src, at, got, want)
		}
		if !sameBytes(Compile(node, at), s.Program()) {
			t.Fatalf("%q at %v: the shape's program is another formula's", src, at)
		}
		internTable.RLock()
		held, prog := internTable.shapes[s.key], internTable.progs[string(s.Program().appendKey(nil))]
		internTable.RUnlock()
		if len(s.key) <= internMaxKey && (held != s || prog != s.Program()) {
			t.Fatalf("%q at %v: the table does not hold the shape with its program for its bytes", src, at)
		}
		at2 := ref.Ref{Col: at.Col + int(dcol), Row: at.Row + int(drow)}
		if !at2.Valid() || len(s.key) > internMaxKey {
			return
		}
		src2 := s.Source(at2)
		node2, err := Parse(src2)
		if err != nil || !sameBytes(Compile(node2, at2), s.Program()) {
			return // not the same fill there
		}
		if s2, err := ParseShape(src2, at2); err != nil || s2 != s {
			t.Fatalf("%q at %v and %q at %v: two shapes (%v)", src, at, src2, at2, err)
		}
	})
}

// FuzzNumericLanes: NumericSweepRows ≡ NumericSweepRow on operands the fuzzer
// writes bit by bit. prog picks a program of the numeric corpus, every eight
// bytes of data are one float64, dealt out row-major; a row the bytes do not
// reach reads its operands off the specials.
func FuzzNumericLanes(f *testing.F) {
	progs := numericPrograms(f)
	var seed []byte
	for _, v := range laneSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for i := range progs {
		f.Add(uint8(i), uint16(1+i*7), seed[8*(i%len(laneSpecials)):])
	}
	f.Fuzz(func(t *testing.T, prog uint8, rows uint16, data []byte) {
		p := progs[int(prog)%len(progs)]
		nin := len(p.CellOps()) + len(p.FoldOps())
		checkNumericLanes(t, p, 1+int(rows)%300, func(i, k int) float64 {
			if at := 8 * (k*nin + i); at+8 <= len(data) {
				return math.Float64frombits(binary.LittleEndian.Uint64(data[at:]))
			}
			return laneSpecials[(k*nin+i)%len(laneSpecials)]
		})
	})
}
