package engine

import (
	"fmt"
	"sort"

	"taco/internal/core"
	"taco/internal/workload"
)

// Book is a multi-sheet workbook: each sheet runs its own engine with its
// own TACO formula graph, matching the paper's single-sheet graph scope
// (cross-sheet references are out of scope, as in the evaluation).
type Book struct {
	sheets map[string]*Engine
	order  []string
}

// NewBook returns an empty workbook.
func NewBook() *Book {
	return &Book{sheets: make(map[string]*Engine)}
}

// AddSheet creates an empty sheet backed by a fresh TACO graph. It returns
// an error if the name is taken.
func (b *Book) AddSheet(name string) (*Engine, error) {
	if _, dup := b.sheets[name]; dup {
		return nil, fmt.Errorf("engine: duplicate sheet %q", name)
	}
	e := New(nil)
	b.sheets[name] = e
	b.order = append(b.order, name)
	return e, nil
}

// Sheet returns the engine for a sheet name, or nil when absent.
func (b *Book) Sheet(name string) *Engine { return b.sheets[name] }

// Names returns the sheet names in insertion order.
func (b *Book) Names() []string { return append([]string(nil), b.order...) }

// NumSheets returns the number of sheets.
func (b *Book) NumSheets() int { return len(b.sheets) }

// LoadBook builds a workbook from parsed sheets (e.g. an xlsx file), each
// with its own TACO graph, and evaluates all formulae.
func LoadBook(sheets []*workload.Sheet) (*Book, error) {
	b := NewBook()
	for i, s := range sheets {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("Sheet%d", i+1)
		}
		if _, dup := b.sheets[name]; dup {
			return nil, fmt.Errorf("engine: duplicate sheet %q", name)
		}
		e, err := Load(s, nil)
		if err != nil {
			return nil, fmt.Errorf("engine: sheet %q: %w", name, err)
		}
		b.sheets[name] = e
		b.order = append(b.order, name)
	}
	return b, nil
}

// Stats returns per-sheet graph statistics keyed by sheet name. Only sheets
// backed by a TACO graph report; the map is sorted-key iterable via Names.
func (b *Book) Stats() map[string]core.Stats {
	out := make(map[string]core.Stats, len(b.sheets))
	names := b.Names()
	sort.Strings(names)
	for _, name := range names {
		if st, ok := b.sheets[name].GraphStats(); ok {
			out[name] = st
		}
	}
	return out
}
