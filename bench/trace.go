package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's side
// of the call. Root spans (Parent < 0) are live operations against the
// program; every other span is the same operation replayed against a shadow
// instance of a lower layer, and names as Parent the span whose work contains
// it. Parentage is logical, not temporal: replays run after the live call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type callAcc struct {
	seconds float64
	calls   int
}

// maxSpans bounds the trace file; the per-call sums keep counting past it.
const maxSpans = 200_000

// tracer is an in-memory span recorder plus per-call accumulators. One
// tracer belongs to one goroutine; clients merge theirs when an epoch ends.
type tracer struct {
	t0    time.Time
	spans []span
	acc   map[string]*callAcc // "<layer>.<call>"
	vals  map[string]float64  // per-layer metrics that are not timed calls
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, acc: map[string]*callAcc{}, vals: map[string]float64{}}
}

// val adds v to the per-layer metric name.
func (t *tracer) val(name string, v float64) { t.vals[name] += v }

// add accumulates a timed call that is not part of a span tree (one-shot
// probes and reference implementations).
func (t *tracer) add(layer, name string, d time.Duration, calls int) {
	t.bump(layer+"."+name, d.Seconds(), calls)
}

func (t *tracer) bump(key string, seconds float64, calls int) {
	a := t.acc[key]
	if a == nil {
		a = &callAcc{}
		t.acc[key] = a
	}
	a.seconds += seconds
	a.calls += calls
}

// record stores a finished span and accumulates it.
func (t *tracer) record(parent int32, op int64, layer, name string, start, end time.Time) int32 {
	t.add(layer, name, end.Sub(start), 1)
	if len(t.spans) >= maxSpans {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// child times fn as a span under parent.
func (t *tracer) child(parent int32, op int64, layer, name string, fn func()) int32 {
	start := time.Now()
	fn()
	return t.record(parent, op, layer, name, start, time.Now())
}

func (t *tracer) merge(o *tracer) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if len(t.spans) >= maxSpans {
			break
		}
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	for k, a := range o.acc {
		t.bump(k, a.seconds, a.calls)
	}
	for k, v := range o.vals {
		t.vals[k] += v
	}
}

// attribution is the per-layer self time of the recorded span trees.
type attribution struct {
	self         map[string]float64 // layer -> seconds not covered by child spans
	root         float64            // summed duration of root spans
	unattributed float64            // seconds by which children exceeded their parent
}

// attribute computes self time: a span's duration minus its children's. A
// child that took longer than its parent means the shadow replay was not
// representative of the live call; the excess is counted as unattributed
// instead of as negative self time.
func (t *tracer) attribute() attribution {
	a := attribution{self: map[string]float64{}}
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && int(s.Parent) < len(t.spans) {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			a.root += float64(d) / 1e9
		}
		self := d - childSum[i]
		if self < 0 {
			a.unattributed += float64(-self) / 1e9
			self = 0
		}
		a.self[s.Layer] += float64(self) / 1e9
	}
	return a
}

func (a attribution) unattributedFraction() float64 {
	if a.root == 0 {
		return 0
	}
	return a.unattributed / a.root
}

func (a attribution) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "  self time per layer, %s (replayed sample, %.4fs of root spans):\n", workload, a.root)
	layers := make([]string, 0, len(a.self))
	for l := range a.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		share := 0.0
		if a.root > 0 {
			share = a.self[l] / a.root
		}
		fmt.Fprintf(w, "    %-8s %10.6fs %6.1f%%\n", l, a.self[l], 100*share)
	}
	fmt.Fprintf(w, "    %-8s %10.6fs %6.1f%%\n", "(excess)", a.unattributed, 100*a.unattributedFraction())
	verdict := "ok"
	if a.unattributedFraction() > maxUnattributed {
		verdict = "FAILED: the shadow replay does not represent the live calls"
	}
	fmt.Fprintf(w, "    attribution check (excess <= %.0f%% of root spans): %s\n", 100*maxUnattributed, verdict)
}

// maxUnattributed is the share of root-span time by which replayed children
// may exceed their parents before the per-layer table is not to be trusted.
const maxUnattributed = 0.15

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
