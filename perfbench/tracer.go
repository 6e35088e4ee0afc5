package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the public function it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the top of an op or probe
	Op     int    `json:"op"`     // shared by the spans of one op; -1 for probes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and counter samples in memory; write dumps them
// when the run ends. A nil *tracer records nothing, so untraced code
// paths share the traced ones without cost beyond a nil check.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), op: -1, counts: map[string][]float64{}}
}

// setOp tags the spans that follow with an op id (-1 for probes).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// count records one sample of a per-layer counter or ratio.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = append(t.counts[name], v)
	}
}

// durations returns the durations of every span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes sums, per span name, the span's duration minus the part
// of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// writeSelfTimes prints the per-layer self-time table, largest first.
func (t *tracer) writeSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-22s %12s %8s\n", "layer", "self_ms", "calls")
	for _, n := range names {
		fmt.Fprintf(w, "%-22s %12.3f %8d\n", n, float64(self[n])/1e6, len(t.durations(n)))
	}
}

// write dumps every span as one JSON document.
func (t *tracer) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans  []span               `json:"spans"`
		Counts map[string][]float64 `json:"counts"`
	}{t.spans, t.counts})
}
