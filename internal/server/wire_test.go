package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/workload"
)

// batchDiff describes the first difference between two decoded batches,
// values compared by their float bits, or returns nil.
func batchDiff(a, b EditBatch) error {
	if (a.Edits == nil) != (b.Edits == nil) || len(a.Edits) != len(b.Edits) {
		return fmt.Errorf("%d ops (nil %v) against %d (nil %v)", len(a.Edits), a.Edits == nil, len(b.Edits), b.Edits == nil)
	}
	for i, x := range a.Edits {
		y := b.Edits[i]
		sameStr := func(p, q *string) bool { return (p == nil) == (q == nil) && (p == nil || *p == *q) }
		sameNum := (x.Value == nil) == (y.Value == nil) &&
			(x.Value == nil || math.Float64bits(*x.Value) == math.Float64bits(*y.Value))
		if x.Cell != y.Cell || x.Clear != y.Clear || !sameNum || !sameStr(x.Text, y.Text) || !sameStr(x.Formula, y.Formula) {
			return fmt.Errorf("op %d: %s against %s", i, opString(x), opString(y))
		}
	}
	return nil
}

func opString(op EditOp) string {
	s := fmt.Sprintf("{cell %q clear %v", op.Cell, op.Clear)
	if op.Value != nil {
		s += fmt.Sprintf(" value %v (%#x)", *op.Value, math.Float64bits(*op.Value))
	}
	if op.Text != nil {
		s += fmt.Sprintf(" text %q", *op.Text)
	}
	if op.Formula != nil {
		s += fmt.Sprintf(" formula %q", *op.Formula)
	}
	return s + "}"
}

// randomBatch draws a batch of every op kind, with strings that need every
// escape json.Marshal writes: quotes, backslashes, control bytes, <, > and &,
// U+2028 and non-ASCII text.
func randomBatch(rng *rand.Rand) EditBatch {
	pieces := []string{"A1", "SUM(B1:B9)", `"q"`, `\`, "\n\t", "\x01", "<", ">", "&", "\u2028", "\u00e9", "\u65e5\u672c", "IF(D1<$G$1,1,0)", "\u2029"}
	text := func() string {
		var sb strings.Builder
		for range rng.Intn(4) {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	nums := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-7, 1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64}
	b := EditBatch{Edits: make([]EditOp, rng.Intn(6))}
	for i := range b.Edits {
		op := EditOp{Cell: ref.FormatA1(ref.Ref{Col: 1 + rng.Intn(30), Row: 1 + rng.Intn(999)})}
		switch rng.Intn(5) {
		case 0:
			v := nums[rng.Intn(len(nums))]
			if rng.Intn(2) == 0 {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
			op.Value = &v
		case 1:
			t := text()
			op.Text = &t
		case 2:
			f := text()
			op.Formula = &f
		case 3:
			op.Clear = true
		default: // two payloads: the decoder keeps both, parseBatch refuses
			v, f := float64(rng.Intn(100)), text()
			op.Value, op.Formula = &v, &f
		}
		b.Edits[i] = op
	}
	return b
}

// FuzzWireDecode holds the handler's decode to json.Unmarshal: for any
// bytes it accepts exactly when Unmarshal does, and yields the same batch,
// values bit for bit. Every json.Marshal seed must take the hand path.
func FuzzWireDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		body, err := json.Marshal(randomBatch(rng))
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := scanBatch(body); !ok {
			f.Fatalf("json.Marshal output declined by the hand path: %s", body)
		}
		f.Add(body)
	}
	for _, s := range []string{
		` { "edits" : [ { "cell" : "A1" , "value" : -0.0e+0 } ] } `,
		"{\"edits\":[{\"cell\":\"A1\",\"formula\":\"IF(D1\\u003c$G$1,1,0)\"}]}\n",
		"{\"edits\":[{\"cell\":\"A1\",\"text\":\"\U0001F600 \\ud800 \\udc00x \u00e9\\/\\b\\f\\ud83d\\ude00\"}]}",
		`{"edits":[{"cell":"A1","value":1}]}{"edits":[{"cell":"A2","value":2}]}`,
		`{"Edits":[{"Cell":"A1","VALUE":1}]}`,
		`{"edits":[{"cell":"A1","value":1,"value":2}]}`,
		`{"edits":[{"cell":"A1","value":null}]}`,
		`{"edits":null}`,
		`{"edits":[{"cell":"A1","other":1}]}`,
		"{\"edits\":[{\"cell\":\"A\xff1\",\"clear\":true}]}",
		`{"edits":[{"cell":"A1","value":1e400}]}`,
		`{"edits":[{"cell":"A1","value":01}]}`,
		`{"edits":[{"cell":"A1","clear":false},]}`,
		`{"edits":[{}]}`,
		`{"edits":[]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeBatch(body)
		var want EditBatch
		werr := json.Unmarshal(body, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeBatch(%q) err %v, json.Unmarshal err %v", body, err, werr)
		}
		if err == nil {
			if d := batchDiff(got, want); d != nil {
				t.Fatalf("decodeBatch(%q) differs from json.Unmarshal: %v", body, d)
			}
		}
	})
}

// clientBatches marshals the batches the load drivers send for a scenario:
// the whole-sheet load the benchmark posts for its 200-row sessions, then
// cmd/tacoload's edit stream at its default of eight ops a batch.
func clientBatches(t testing.TB, name string, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sheet, err := workload.BuildScenario(name, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	var load EditBatch
	for at, c := range sheet.Cells {
		op := EditOp{Cell: ref.FormatA1(at)}
		switch {
		case c.IsFormula():
			op.Formula = &c.Formula
		case c.Value.Kind == formula.KindString:
			op.Text = &c.Value.Str
		default:
			op.Value = &c.Value.Num
		}
		load.Edits = append(load.Edits, op)
	}
	batches := []EditBatch{load}
	stream := workload.EditStreamMix(sheet, 400, rng, 0.5)
	for lo := 0; lo < len(stream); lo += 8 {
		var eb EditBatch
		for _, e := range stream[lo:min(lo+8, len(stream))] {
			op := EditOp{Cell: ref.FormatA1(e.At)}
			switch e.Kind {
			case workload.EditValue:
				v := e.Value
				op.Value = &v
			case workload.EditFormula:
				f := e.Formula
				op.Formula = &f
			case workload.EditClear:
				op.Clear = true
			}
			eb.Edits = append(eb.Edits, op)
		}
		batches = append(batches, eb)
	}
	out := make([][]byte, len(batches))
	for i, b := range batches {
		if out[i], err = json.Marshal(b); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLoadDriverBatchesTakeHandPath: every batch the load driver sends, the
// loads with their escaped formulas included, is decoded without
// encoding/json, to what encoding/json decodes.
func TestLoadDriverBatchesTakeHandPath(t *testing.T) {
	escaped := 0
	for _, name := range workload.ScenarioNames {
		for _, body := range clientBatches(t, name, 7) {
			got, ok := scanBatch(body)
			if !ok {
				t.Fatalf("%s: batch declined by the hand path: %.200s", name, body)
			}
			var want EditBatch
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			if d := batchDiff(got, want); d != nil {
				t.Fatalf("%s: %v", name, d)
			}
			if bytes.Contains(body, []byte(`\u003c`)) || bytes.Contains(body, []byte(`\u003e`)) {
				escaped++
			}
		}
	}
	if escaped == 0 {
		t.Error("no batch held an escaped < or >: the scenarios no longer exercise the escape path")
	}
}

// TestScanBatchAllocations pins what a decoded batch costs: its ops, its
// value and string arrays, and one allocation a string field.
func TestScanBatchAllocations(t *testing.T) {
	body := clientBatches(t, "financial", 3)[0]
	b, ok := scanBatch(body)
	if !ok {
		t.Fatal("load batch declined")
	}
	strs := 0
	for _, op := range b.Edits {
		strs++ // the cell
		if op.Text != nil || op.Formula != nil {
			strs++
		}
	}
	allocs := testing.AllocsPerRun(20, func() { scanBatch(body) })
	if limit := float64(strs + 3); allocs > limit {
		t.Errorf("scanBatch of %d ops allocates %.0f times, want at most %.0f", len(b.Edits), allocs, limit)
	}
}

// TestBraceFloodAllocatesLittle: a body that opens a batch and then holds
// only braces is refused at its second brace having allocated a small
// multiple of its own size. Presizing the ops from its brace count reserved
// some 72 bytes a byte of it, so a body at the upload cap could ask for
// gigabytes.
func TestBraceFloodAllocatesLittle(t *testing.T) {
	srv, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{}, &info)
	// A mebibyte in all, so the body is read into one buffer sized from its
	// Content-Length and the rest of what it costs is the decode's.
	body := []byte(`{"edits":[`)
	body = append(body, bytes.Repeat([]byte{'{'}, 1<<20-len(body))...)
	req := httptest.NewRequest("POST", "/sessions/"+info.ID+"/edits", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "decode batch") {
		t.Fatalf("status %d, body %s; want 400 decode batch", rec.Code, rec.Body)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(body)); got > limit {
		t.Errorf("refusing a %d-byte brace flood allocated %d bytes, want at most %d", len(body), got, limit)
	}
}

// BenchmarkDecodeBatch decodes one whole-sheet load batch, the largest body
// the load drivers send, on the hand path and through json.Unmarshal.
func BenchmarkDecodeBatch(b *testing.B) {
	body := clientBatches(b, "inventory", 1)[0]
	b.Run("hand", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, ok := scanBatch(body); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var eb EditBatch
			if err := json.Unmarshal(body, &eb); err != nil {
				b.Fatal(err)
			}
		}
	})
}
