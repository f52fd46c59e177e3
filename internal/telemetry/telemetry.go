// Package telemetry is the process-wide metrics core: atomic counters and
// gauges, sharded lock-free histograms with fixed log-spaced bounds, label
// support, and Prometheus text-format exposition — with zero dependencies
// beyond the standard library.
//
// The package exists because the serving stack's only windows used to be a
// JSON /stats snapshot and the load driver's client-side percentiles:
// nothing revealed where time goes inside a drain, how long session-lock
// holds last, or whether the parse cache and spill path behave under load.
// Every layer now registers its instruments here and GET /metrics exposes
// them in the text format every Prometheus-compatible scraper understands.
//
// Design constraints, in order:
//
//   - The write path must be safe to call from the hottest code in the
//     process (the recalculation drain, the parse cache). Counters and
//     gauges are single atomic adds; Histogram.Observe is a binary search
//     over a small fixed bounds slice plus two atomic operations on a
//     striped shard — no locks, no allocation, no time lookup.
//   - Exposition is the slow path. WriteText takes the registry lock,
//     snapshots every instrument, and renders deterministically (families
//     and label sets sorted), so golden tests and diff-based linters work.
//   - Registration happens in package var blocks. Duplicate or invalid
//     names panic at init time — a misnamed metric is a programming error,
//     not a runtime condition.
//
// Instruments registered through the top-level constructors (NewCounter,
// NewGauge, NewHistogram, ...) land in Default, the process-wide registry
// that Handler serves; NewRegistry gives tests an isolated one.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// metric is one registered exposition family. writeTo renders the family's
// HELP/TYPE header and samples in the text format.
type metric interface {
	metricName() string
	writeTo(b *strings.Builder)
}

// Registry holds a set of registered metrics and renders them as Prometheus
// text exposition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry. Most code should register into
// Default instead; isolated registries are for tests.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Default is the process-wide registry served by Handler. The runtime
// collector (go_goroutines, go_memstats_*, go_gc_*) registers itself here at
// init.
var Default = NewRegistry()

// nameValid reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* for metrics, and the same minus ':' is legal for
// labels (we accept ':' for both; the exposition linter is stricter).
func nameValid(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register adds m, panicking on duplicate or invalid names — registration is
// an init-time act, and a bad name is a bug.
func (r *Registry) register(m metric) {
	name := m.metricName()
	if !nameValid(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.metrics[name] = m
}

// Names returns the registered family names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// WriteText renders every registered metric in the Prometheus text format
// (version 0.0.4), families sorted by name, samples sorted by label values —
// deterministic output for a fixed metric state.
func (r *Registry) WriteText(w io.Writer) error {
	names := r.Names()
	ordered := make([]metric, len(names))
	r.mu.Lock()
	for i, name := range names {
		ordered[i] = r.metrics[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range ordered {
		m.writeTo(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeLabelValue escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// renderLabels renders a {k="v",...} block from parallel name/value slices,
// or "" when empty.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func writeHeader(b *strings.Builder, name, help, typ string) {
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}
