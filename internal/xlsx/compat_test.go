package xlsx

import (
	"archive/zip"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// buildPackage assembles an xlsx zip from raw part bodies, letting tests
// exercise reader tolerance for files written by other producers.
func buildPackage(t *testing.T, parts map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for name, body := range parts {
		w, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const minimalWorkbook = `<?xml version="1.0"?>
<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheets><sheet name="S1" sheetId="1" r:id="rId1" xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships"/></sheets>
</workbook>`

func TestReaderFallsBackWithoutRels(t *testing.T) {
	// No workbook.xml.rels: the reader falls back to positional sheet paths.
	data := buildPackage(t, map[string]string{
		"xl/workbook.xml": minimalWorkbook,
		"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1"><c r="A1"><v>42</v></c></row></sheetData></worksheet>`,
	})
	sheets, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sheets) != 1 || sheets[0].Name != "S1" {
		t.Fatalf("sheets = %v", sheets)
	}
	if v := sheets[0].Cells[ref.MustCell("A1")].Value; v.Num != 42 {
		t.Fatalf("A1 = %v", v)
	}
}

func TestReaderInlineStrings(t *testing.T) {
	data := buildPackage(t, map[string]string{
		"xl/workbook.xml": minimalWorkbook,
		"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1">
<c r="A1" t="inlineStr"><is><t>hello inline</t></is></c>
<c r="B1" t="str"><v>formula-cached-text</v></c>
</row></sheetData></worksheet>`,
	})
	sheets, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	s := sheets[0]
	if s.Cells[ref.MustCell("A1")].Value.Str != "hello inline" {
		t.Fatalf("A1 = %+v", s.Cells[ref.MustCell("A1")])
	}
	if s.Cells[ref.MustCell("B1")].Value.Str != "formula-cached-text" {
		t.Fatalf("B1 = %+v", s.Cells[ref.MustCell("B1")])
	}
}

func TestReaderRichTextSharedStrings(t *testing.T) {
	data := buildPackage(t, map[string]string{
		"xl/workbook.xml": minimalWorkbook,
		"xl/sharedStrings.xml": `<?xml version="1.0"?>
<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" count="1" uniqueCount="1">
<si><r><t>rich </t></r><r><t>text</t></r></si></sst>`,
		"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1"><c r="A1" t="s"><v>0</v></c></row></sheetData></worksheet>`,
	})
	sheets, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sheets[0].Cells[ref.MustCell("A1")].Value.Str; got != "rich text" {
		t.Fatalf("rich text = %q", got)
	}
}

func TestReaderSkipsEmptyAndUnknownCells(t *testing.T) {
	data := buildPackage(t, map[string]string{
		"xl/workbook.xml": minimalWorkbook,
		"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1">
<c r="A1"/>
<c r="B1"><v>7</v></c>
</row></sheetData></worksheet>`,
	})
	sheets, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, present := sheets[0].Cells[ref.MustCell("A1")]; present {
		t.Fatal("empty cell should be skipped")
	}
	if sheets[0].Cells[ref.MustCell("B1")].Value.Num != 7 {
		t.Fatal("numeric cell lost")
	}
}

func TestReaderErrors(t *testing.T) {
	cases := map[string]map[string]string{
		"missing workbook": {
			"xl/worksheets/sheet1.xml": `<worksheet/>`,
		},
		"missing worksheet part": {
			"xl/workbook.xml": minimalWorkbook,
		},
		"bad shared string index": {
			"xl/workbook.xml": minimalWorkbook,
			"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1"><c r="A1" t="s"><v>99</v></c></row></sheetData></worksheet>`,
		},
		"bad cell reference": {
			"xl/workbook.xml": minimalWorkbook,
			"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1"><c r="NOT-A-REF"><v>1</v></c></row></sheetData></worksheet>`,
		},
		"orphan shared formula": {
			"xl/workbook.xml": minimalWorkbook,
			"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1"><c r="A1"><f t="shared" si="9"/></c></row></sheetData></worksheet>`,
		},
		"bad number": {
			"xl/workbook.xml": minimalWorkbook,
			"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1"><c r="A1"><v>abc</v></c></row></sheetData></worksheet>`,
		},
	}
	for name, parts := range cases {
		data := buildPackage(t, parts)
		if _, err := Read(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestReaderBooleanCells(t *testing.T) {
	data := buildPackage(t, map[string]string{
		"xl/workbook.xml": minimalWorkbook,
		"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData><row r="1">
<c r="A1" t="b"><v>1</v></c><c r="B1" t="b"><v>0</v></c>
</row></sheetData></worksheet>`,
	})
	sheets, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	a := sheets[0].Cells[ref.MustCell("A1")].Value
	b := sheets[0].Cells[ref.MustCell("B1")].Value
	if a.Kind != formula.KindBool || !a.Bool || b.Kind != formula.KindBool || b.Bool {
		t.Fatalf("bools = %v %v", a, b)
	}
}

// TestReaderSharedFormulaCrossingItsFixedRow: a running total filled down
// past its own `$` row. Each follower is the master shifted; from the row
// where the relative corner passes the fixed one the corners trade places,
// and the `$` must come out on the corner Excel leaves it on.
func TestReaderSharedFormulaCrossingItsFixedRow(t *testing.T) {
	data := buildPackage(t, map[string]string{
		"xl/workbook.xml": minimalWorkbook,
		"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData>
<row r="1"><c r="B1"><f t="shared" ref="B1:B5" si="0">SUM(A1:A$3)</f></c></row>
<row r="2"><c r="B2"><f t="shared" si="0"/></c></row>
<row r="3"><c r="B3"><f t="shared" si="0"/></c></row>
<row r="4"><c r="B4"><f t="shared" si="0"/></c></row>
<row r="5"><c r="B5"><f t="shared" si="0"/></c></row>
</sheetData></worksheet>`,
	})
	sheets, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for cell, want := range map[string]string{
		"B2": "SUM(A2:A$3)", "B3": "SUM(A3:A$3)", "B4": "SUM(A$3:A4)", "B5": "SUM(A$3:A5)",
	} {
		if got := sheets[0].Cells[ref.MustCell(cell)].Formula; got != want {
			t.Errorf("%s = %s, want %s", cell, got, want)
		}
	}
}

// TestReaderSharedFormulaLongChain: a shared formula as deep as the parser
// accepts — a sum of formula.MaxNesting terms, each + one level — imports its
// followers as the master shifted and rendered, and each rendering parses.
func TestReaderSharedFormulaLongChain(t *testing.T) {
	chain := "A1" + strings.Repeat("+A1", formula.MaxNesting-1)
	data := buildPackage(t, map[string]string{
		"xl/workbook.xml": minimalWorkbook,
		"xl/worksheets/sheet1.xml": `<?xml version="1.0"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData>
<row r="1"><c r="B1"><f t="shared" ref="B1:B3" si="0">` + chain + `</f></c></row>
<row r="2"><c r="B2"><f t="shared" si="0"/></c></row>
<row r="3"><c r="B3"><f t="shared" si="0"/></c></row>
</sheetData></worksheet>`,
	})
	sheets, err := Read(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 3; r++ {
		src := sheets[0].Cells[ref.Ref{Col: 2, Row: r}].Formula
		want := formula.Text(formula.MustParse(strings.ReplaceAll(chain, "A1", fmt.Sprintf("A%d", r))))
		if n, err := formula.Parse(src); err != nil || formula.Text(n) != want {
			t.Fatalf("B%d: %d-byte formula does not re-parse to the shifted chain: %v", r, len(src), err)
		}
	}
}
