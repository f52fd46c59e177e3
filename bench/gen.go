package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"taco/internal/ref"
	"taco/internal/workload"
)

// sizes fixes how much work each workload holds. They are constants of the
// benchmark, not flags: two runs are comparable only at equal sizes. The
// full sizes are chosen so that one run of any workload (generation, the
// set-ups, the timed phase and the oracle) ends well inside 30 s on a
// 2-core host. The tests swap in tiny ones.
type sizes struct {
	corpusScale    float64 // Enron+Github CorpusSpec scale
	queriesPerSh   int     // QueryStream cells per corpus sheet
	editsPerSheet  int     // EditStreamMix edits per corpus sheet
	ledgerRows     int     // rows of the ledger sheet
	sessions       int     // serve_interactive and serve_durable_churn
	sessionRows    int     // rows of each scenario sheet
	maxResident    int     // serve_durable_churn residency cap
	opsPerClient   int     // length of each client's op list (cycled)
	readsPerClient int     // serve_big_drain reader's op list
	replayAll      bool    // traced runs replay every op of a replay epoch, not 1 in k
	yardPasses     int     // passes of the yardstick per reading of the host's speed
}

var sz = sizes{
	corpusScale:    1,
	queriesPerSh:   14,
	editsPerSheet:  48,
	ledgerRows:     20_000,
	sessions:       64,
	sessionRows:    200,
	maxResident:    16,
	opsPerClient:   4096,
	readsPerClient: 1024,
	yardPasses:     7,
}

const (
	batchSize = 8  // edits per POST in the serve workloads
	epochs    = 5  // the timed phase is split into this many
	readRows  = 20 // GET cells block, rows x cols
	readCols  = 5
)

// opHash accumulates a digest of a generated op stream, so that two runs can
// be shown to have driven the program with identical inputs.
type opHash struct{ h hash.Hash64 }

func newOpHash() opHash { return opHash{fnv.New64a()} }

func (o opHash) add(format string, args ...any) { fmt.Fprintf(o.h, format+"\n", args...) }

func (o opHash) String() string { return fmt.Sprintf("%016x", o.h.Sum64()) }

// Ledger column layout.
const (
	colA = iota + 1
	colB
	colC
	colD
	colE
	colF
	colG
	colH
)

const (
	ledgerChain  = 256  // the running sum in D restarts every this many rows
	ledgerWindow = 7    // E sums this many rows of C
	ledgerBlock  = 1000 // F holds one subtotal of C per this many rows
)

var rateCell = ref.Ref{Col: colH, Row: 1}

// ledgerFormulaC is the numeric pattern run of column C; ledgerAltC is the
// other shape a formula rewrite swaps in (different references, so the
// compressed run is split and later merged back).
func ledgerFormulaC(r int) string { return fmt.Sprintf("A%d*B%d*$H$1", r, r) }
func ledgerAltC(r int) string     { return fmt.Sprintf("B%d*2", r) }

// ledgerSheet builds the sheet shared by engine_recalc and serve_big_drain:
//
//	A, B  data
//	C     =A*B*$H$1                      numeric pattern run (RR + FF)
//	D     running sum of C, restarted every 256 rows (RR-Chain, 256 levels)
//	E     =SUM(C[k-6]:C[k])              sliding window (RR)
//	F     one SUM per 1000 rows of C     block subtotals
//	G1    =SUM(F)                        grand total
//	H1    the rate every C cell reads
//
// A point edit of A[k] dirties about 270 cells; an edit of H1 dirties 3 per
// row.
func ledgerSheet(rows int, rng *rand.Rand) *workload.Sheet {
	s := workload.NewSheet("ledger")
	for r := 1; r <= rows; r++ {
		s.SetValue(ref.Ref{Col: colA, Row: r}, float64(rng.Intn(1000))+0.5)
		s.SetValue(ref.Ref{Col: colB, Row: r}, float64(rng.Intn(100))+0.25)
		s.SetFormula(ref.Ref{Col: colC, Row: r}, ledgerFormulaC(r))
		if (r-1)%ledgerChain == 0 {
			s.SetFormula(ref.Ref{Col: colD, Row: r}, fmt.Sprintf("C%d", r))
		} else {
			s.SetFormula(ref.Ref{Col: colD, Row: r}, fmt.Sprintf("D%d+C%d", r-1, r))
		}
		if r >= ledgerWindow {
			s.SetFormula(ref.Ref{Col: colE, Row: r}, fmt.Sprintf("SUM(C%d:C%d)", r-ledgerWindow+1, r))
		}
	}
	blocks := 0
	for b := 1; b <= rows; b += ledgerBlock {
		blocks++
		s.SetFormula(ref.Ref{Col: colF, Row: blocks}, fmt.Sprintf("SUM(C%d:C%d)", b, min(b+ledgerBlock-1, rows)))
	}
	s.SetFormula(ref.Ref{Col: colG, Row: 1}, fmt.Sprintf("SUM(F1:F%d)", blocks))
	s.SetValue(rateCell, 1.05)
	return s
}

// corpusSheets generates the Enron and Github corpora with the specs' own
// seeds: every -seed gets the same sheets and draws its own query and edit
// streams over them. The corpora are heavy-tailed by design (a few sheets
// hold most of the dependencies, and each sheet draws its own number and
// kind of formula columns), so corpora drawn per seed differ from each other
// by tens of percent in every total and no two seeds would be comparable.
func corpusSheets(scale float64) []*workload.Sheet {
	return append(workload.Generate(workload.EnronSpec(scale)), workload.Generate(workload.GithubSpec(scale))...)
}

// planningQuarters caps the planning scenario. Its budget row is a chain of
// multiplications by one growth cell, and the edit streams write values up
// to 1e4 anywhere: past 76 quarters such a write overflows the chain to
// +Inf, which the server cannot encode (it answers 200 with an empty body).
// Workloads must not contain failing operations.
const planningQuarters = 48

// scenarioSheets generates the session contents of the serve workloads: the
// four workload scenarios in turn, each with its own data.
func scenarioSheets(n, rows int, seed int64) ([]*workload.Sheet, error) {
	out := make([]*workload.Sheet, n)
	for i := range out {
		name, size := workload.ScenarioNames[i%len(workload.ScenarioNames)], rows
		if name == "planning" {
			size = min(rows, planningQuarters)
		}
		s, err := workload.BuildScenario(name, size, rand.New(rand.NewSource(seed*1_000_003+int64(i)*7919)))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// bounds returns the populated rectangle of a sheet.
func bounds(s *workload.Sheet) ref.Range {
	var b ref.Range
	first := true
	for at := range s.Cells {
		if first {
			b, first = ref.CellRange(at), false
		} else {
			b = b.Bound(ref.CellRange(at))
		}
	}
	return b
}

// zipf draws indices in [0, n) with probability proportional to
// 1/(rank+1)^s. math/rand's Zipf needs s > 1; the churn workload wants 0.9.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
