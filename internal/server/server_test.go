package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/workload"
	"taco/internal/xlsx"
)

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func newTestServer(t *testing.T, opts Options) (*Server, *testClient) {
	t.Helper()
	if opts.Store.MaxResident > 0 && opts.Store.SpillDir == "" {
		opts.Store.SpillDir = t.TempDir()
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, &testClient{t: t, base: hs.URL, c: hs.Client()}
}

func (tc *testClient) do(method, path string, body any, out any) int {
	tc.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			tc.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, tc.base+path, rd)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			tc.t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

func num(v float64) *float64 { return &v }
func str(s string) *string   { return &s }

func TestCreateBlankAndEdit(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	if code := tc.do("POST", "/sessions", CreateRequest{Name: "t"}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if info.ID == "" || info.Cells != 0 {
		t.Fatalf("info = %+v", info)
	}

	// First batch against a fresh session takes the bulk path.
	batch := EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(2)},
		{Cell: "A2", Value: num(3)},
		{Cell: "B1", Formula: str("A1*10")},
		{Cell: "B2", Formula: str("A2*10")},
	}}
	var res EditResult
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits", batch, &res); code != http.StatusOK {
		t.Fatalf("edits: status %d", code)
	}
	if !res.Bulk || res.Applied != 4 || res.Rev != 1 {
		t.Fatalf("res = %+v", res)
	}

	var cells CellsResult
	if code := tc.do("GET", "/sessions/"+info.ID+"/cells?range=A1:B2", nil, &cells); code != http.StatusOK {
		t.Fatalf("cells: status %d", code)
	}
	byCell := map[string]CellOut{}
	for _, c := range cells.Cells {
		byCell[c.Cell] = c
	}
	if byCell["B1"].Num != 20 || byCell["B2"].Num != 30 {
		t.Fatalf("cells = %+v", byCell)
	}

	// Incremental edit: change A1, B1 recalculates in the background; the
	// wait=1 read gives read-your-writes.
	res = EditResult{}
	tc.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(5)}}}, &res)
	if res.Bulk || res.DirtyCells != 1 || res.Rev != 2 {
		t.Fatalf("res = %+v", res)
	}
	cells = CellsResult{}
	tc.do("GET", "/sessions/"+info.ID+"/cells?at=B1&wait=1", nil, &cells)
	if cells.Rev != 2 || cells.Pending != 0 || len(cells.Cells) != 1 || cells.Cells[0].Num != 50 {
		t.Fatalf("B1 = %+v", cells)
	}

	// Dependents of A1 are exactly B1.
	var q QueryResult
	if code := tc.do("GET", "/sessions/"+info.ID+"/dependents?of=A1", nil, &q); code != http.StatusOK {
		t.Fatalf("dependents: status %d", code)
	}
	if q.Cells != 1 || len(q.Ranges) != 1 || q.Ranges[0] != "B1" {
		t.Fatalf("dependents = %+v", q)
	}
	q = QueryResult{}
	tc.do("GET", "/sessions/"+info.ID+"/precedents?of=B2", nil, &q)
	if q.Cells != 1 || q.Ranges[0] != "A2" {
		t.Fatalf("precedents = %+v", q)
	}
}

// TestBulkBatchRepeatedRefLaterWins: a first batch that writes one ref more
// than once still takes the bulk path, and reads back what applying the ops
// one after another would have left — the later op, whatever its kind.
func TestBulkBatchRepeatedRefLaterWins(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Name: "dup"}, &info)
	batch := EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(1)},
		{Cell: "B1", Formula: str("A1*10")},
		{Cell: "C1", Formula: str("A1+1")},
		{Cell: "A1", Value: num(7)},
		{Cell: "C1", Value: num(4)},
		{Cell: "D1", Value: num(5)},
		{Cell: "D1", Formula: str("A1+B1")},
	}}
	var res EditResult
	if code := tc.do("POST", "/sessions/"+info.ID+"/edits", batch, &res); code != http.StatusOK {
		t.Fatalf("edits: status %d", code)
	}
	if !res.Bulk || res.Applied != len(batch.Edits) {
		t.Fatalf("res = %+v", res)
	}
	var cells CellsResult
	tc.do("GET", "/sessions/"+info.ID+"/cells?range=A1:D1&wait=1", nil, &cells)
	byCell := map[string]CellOut{}
	for _, c := range cells.Cells {
		byCell[c.Cell] = c
	}
	if len(byCell) != 4 || byCell["A1"].Num != 7 || byCell["B1"].Num != 70 ||
		byCell["C1"].Num != 4 || byCell["C1"].Formula != "" ||
		byCell["D1"].Num != 77 || byCell["D1"].Formula != "A1+B1" {
		t.Fatalf("cells = %+v", byCell)
	}
	tc.do("GET", "/sessions/"+info.ID, nil, &info)
	if info.Cells != 4 || info.Formulas != 2 {
		t.Fatalf("info = %+v, want 4 cells and 2 formulas", info)
	}
}

func TestCreateFromScenario(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	code := tc.do("POST", "/sessions", CreateRequest{Scenario: "financial", Rows: 50, Seed: 9}, &info)
	if code != http.StatusCreated {
		t.Fatalf("status %d", code)
	}
	if info.Cells == 0 || info.Formulas == 0 || info.Graph == nil {
		t.Fatalf("info = %+v", info)
	}
	if info.Graph.Edges >= info.Graph.Dependencies {
		t.Fatalf("scenario graph not compressed: %+v", *info.Graph)
	}
	// Editing a revenue cell dirties the derived columns.
	var res EditResult
	tc.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "B1", Value: num(9999)}}}, &res)
	if res.DirtyCells < 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCreateFromXLSX(t *testing.T) {
	sheet := workload.Gradebook(25, rand.New(rand.NewSource(2)))
	path := filepath.Join(t.TempDir(), "g.xlsx")
	if err := xlsx.WriteFile(path, []*workload.Sheet{sheet}, xlsx.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	if code := tc.do("POST", "/sessions/xlsx", raw, &info); code != http.StatusCreated {
		t.Fatalf("status %d", code)
	}
	if info.Name != "gradebook" || info.Formulas == 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestBadRequests(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{}, &info)

	cases := []struct {
		name string
		code int
		do   func() int
	}{
		{"unknown scenario", http.StatusBadRequest, func() int {
			return tc.do("POST", "/sessions", CreateRequest{Scenario: "nope"}, nil)
		}},
		{"missing session", http.StatusNotFound, func() int {
			return tc.do("GET", "/sessions/doesnotexist", nil, nil)
		}},
		{"empty batch", http.StatusBadRequest, func() int {
			return tc.do("POST", "/sessions/"+info.ID+"/edits", EditBatch{}, nil)
		}},
		{"bad cell", http.StatusBadRequest, func() int {
			return tc.do("POST", "/sessions/"+info.ID+"/edits",
				EditBatch{Edits: []EditOp{{Cell: "!!", Value: num(1)}}}, nil)
		}},
		{"two payloads", http.StatusBadRequest, func() int {
			return tc.do("POST", "/sessions/"+info.ID+"/edits",
				EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(1), Clear: true}}}, nil)
		}},
		{"bad formula", http.StatusBadRequest, func() int {
			return tc.do("POST", "/sessions/"+info.ID+"/edits",
				EditBatch{Edits: []EditOp{{Cell: "A1", Formula: str("SUM(")}}}, nil)
		}},
		{"bad range", http.StatusBadRequest, func() int {
			return tc.do("GET", "/sessions/"+info.ID+"/cells?range=zzz!", nil, nil)
		}},
		{"no query", http.StatusBadRequest, func() int {
			return tc.do("GET", "/sessions/"+info.ID+"/dependents", nil, nil)
		}},
		{"bad xlsx", http.StatusBadRequest, func() int {
			return tc.do("POST", "/sessions/xlsx", []byte("not a zip"), nil)
		}},
		{"formula nested past formula.MaxNesting", http.StatusBadRequest, func() int {
			// Each about 1 MB: under formula.MaxTextBytes, so only the parser's
			// nesting bounds refuse them — parentheses its recursion, a chain
			// of postfix % or of sums, built in a loop, the AST's depth.
			code := http.StatusBadRequest
			for _, deep := range []string{
				strings.Repeat("(", 500000) + "1" + strings.Repeat(")", 500000),
				"1" + strings.Repeat("%", 1000000),
				strings.Repeat("1+", 500000) + "1",
			} {
				if _, err := parseBatch([]EditOp{{Cell: "A1", Formula: &deep}}); !errors.As(err, new(*formula.ErrNesting)) {
					t.Errorf("parseBatch of %.8s…: %v, want a *formula.ErrNesting", deep, err)
				}
				if got := tc.do("POST", "/sessions/"+info.ID+"/edits",
					EditBatch{Edits: []EditOp{{Cell: "A1", Formula: &deep}}}, nil); got != code {
					code = got
				}
			}
			return code
		}},
		{"oversized text payload", http.StatusBadRequest, func() int {
			big := strings.Repeat("x", formula.MaxTextBytes+1)
			return tc.do("POST", "/sessions/"+info.ID+"/edits",
				EditBatch{Edits: []EditOp{{Cell: "A1", Text: &big}}}, nil)
		}},
		{"oversized xlsx text", http.StatusBadRequest, func() int {
			// Text one byte past the edit limit in A1, read by B1: under the
			// snapshot's string limit, so only the edit limit refuses it.
			sheet := workload.NewSheet("big")
			sheet.SetText(ref.MustCell("A1"), strings.Repeat("x", formula.MaxTextBytes+1))
			sheet.SetFormula(ref.MustCell("B1"), "A1")
			var buf bytes.Buffer
			if err := xlsx.Write(&buf, []*workload.Sheet{sheet}, xlsx.WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			resp, err := tc.c.Post(tc.base+"/sessions/xlsx", "application/octet-stream", &buf)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if body, _ := io.ReadAll(resp.Body); !strings.Contains(string(body), "cell A1 ") {
				t.Errorf("oversized xlsx text: answer %q names no cell A1", body)
			}
			return resp.StatusCode
		}},
		{"rows beyond cap", http.StatusBadRequest, func() int {
			return tc.do("POST", "/sessions", CreateRequest{Scenario: "financial", Rows: 1 << 30}, nil)
		}},
		{"range beyond cap", http.StatusBadRequest, func() int {
			return tc.do("GET", "/sessions/"+info.ID+"/cells?range=A1:XFD1048576", nil, nil)
		}},
	}
	for _, c := range cases {
		if got := c.do(); got != c.code {
			t.Errorf("%s: status %d, want %d", c.name, got, c.code)
		}
	}
}

func TestBatchAtomicity(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{}, &info)
	tc.do("POST", "/sessions/"+info.ID+"/edits",
		EditBatch{Edits: []EditOp{{Cell: "A1", Value: num(1)}}}, nil)

	// A batch with a bad op anywhere applies nothing: A1 keeps its value and
	// the revision counter does not advance.
	code := tc.do("POST", "/sessions/"+info.ID+"/edits", EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(777)},
		{Cell: "B1", Formula: str("SUM(")},
	}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d", code)
	}
	var cells CellsResult
	tc.do("GET", "/sessions/"+info.ID+"/cells?at=A1", nil, &cells)
	if len(cells.Cells) != 1 || cells.Cells[0].Num != 1 {
		t.Fatalf("A1 = %+v after rejected batch", cells)
	}
	var si SessionInfo
	tc.do("GET", "/sessions/"+info.ID, nil, &si)
	if si.Rev != 1 {
		t.Fatalf("rev = %d after rejected batch", si.Rev)
	}
}

// TestNonFiniteNumberReads: a number that overflowed to ±Inf or NaN has no
// JSON form; every read path reports it as #NUM! in a parseable 200 (the
// encoder used to fail after the header, leaving a 200 with an empty body).
func TestNonFiniteNumberReads(t *testing.T) {
	_, tc := newTestServer(t, Options{Store: StoreOptions{Shards: 1, MaxResident: 1}})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{}, &info)
	tc.do("POST", "/sessions/"+info.ID+"/edits", EditBatch{Edits: []EditOp{
		{Cell: "A1", Formula: str("=1E308*10")}, // +Inf
		{Cell: "A2", Formula: str("A1-A1")},     // NaN
		{Cell: "A3", Value: num(7)},
	}}, nil)
	read := func(path string) {
		t.Helper()
		var cells CellsResult
		if code := tc.do("GET", "/sessions/"+info.ID+path, nil, &cells); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		if len(cells.Cells) != 3 {
			t.Fatalf("GET %s: %d cells, want 3", path, len(cells.Cells))
		}
		for _, c := range cells.Cells[:2] {
			if c.Kind != "error" || c.Error != "#NUM!" {
				t.Errorf("GET %s: %s = %+v, want #NUM!", path, c.Cell, c)
			}
		}
		if c := cells.Cells[2]; c.Kind != "number" || c.Num != 7 {
			t.Errorf("GET %s: A3 = %+v", path, c)
		}
	}
	read("/cells?range=A1:A3&wait=1")
	read("/cells?range=A1:A3")
	tc.do("POST", "/sessions", CreateRequest{}, nil) // evicts the first session
	read("/cells?range=A1:A3")
}

// TestWriteJSONEncodeFailure: a value the encoder rejects is a 500 with an
// error body, whatever status the handler asked for.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.Inf(1))
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("body %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
}

func TestListDoesNotRestoreSpilled(t *testing.T) {
	srv, tc := newTestServer(t, Options{Store: StoreOptions{Shards: 2, MaxResident: 1}})
	var a SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Scenario: "financial", Rows: 10}, &a)
	tc.do("POST", "/sessions", CreateRequest{Scenario: "inventory", Rows: 10}, nil)

	var list []SessionInfo
	tc.do("GET", "/sessions", nil, &list)
	resident := 0
	for _, si := range list {
		if si.Resident {
			resident++
		}
	}
	if resident != 1 {
		t.Fatalf("list reports %d resident, want 1: %+v", resident, list)
	}
	// Neither the listing nor a single-session stats read faulted the
	// spilled session back in.
	tc.do("GET", "/sessions/"+a.ID, nil, nil)
	if st := srv.Store().Stats(); st.Restores != 0 {
		t.Fatalf("metadata reads caused %d restores", st.Restores)
	}
}

func TestDeleteSession(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{Scenario: "inventory", Rows: 10}, &info)
	if code := tc.do("DELETE", "/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := tc.do("GET", "/sessions/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
	if code := tc.do("DELETE", "/sessions/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("second delete: status %d", code)
	}
}

func TestListAndStoreStats(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		tc.do("POST", "/sessions", CreateRequest{Name: fmt.Sprintf("s%d", i)}, nil)
	}
	var list []SessionInfo
	if code := tc.do("GET", "/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 3 {
		t.Fatalf("list = %d sessions", len(list))
	}
	var st StoreStats
	tc.do("GET", "/stats", nil, &st)
	if st.Sessions != 3 || st.Resident != 3 || st.Spilled != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEditBatchTrailingData: a body that holds a batch and more after it is
// refused whole, on the hand path and on json.Unmarshal's alike; before,
// the decoder stopped at the first batch and dropped the second silently.
func TestEditBatchTrailingData(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/sessions", CreateRequest{}, &info)
	for _, body := range []string{
		`{"edits":[{"cell":"A1","value":1}]}{"edits":[{"cell":"A2","value":2}]}`,
		`{"Edits":[{"cell":"A1","value":1}]} {"edits":[{"cell":"A2","value":2}]}`,
		`{"edits":[{"cell":"A1","value":1}]} x`,
	} {
		resp, err := tc.c.Post(tc.base+"/sessions/"+info.ID+"/edits", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(eb.Error, "decode batch: ") {
			t.Errorf("%s: status %d, error %q; want 400 decode batch: ...", body, resp.StatusCode, eb.Error)
		}
	}
	var got SessionInfo
	tc.do("GET", "/sessions/"+info.ID, nil, &got)
	if got.Rev != 0 || got.Cells != 0 {
		t.Errorf("after refused batches: rev %d, %d cells; want nothing applied", got.Rev, got.Cells)
	}
}
