// Package trace records the micro-commands a quantum system
// controller would issue to execute a mapped circuit: qubit moves,
// turns, and gate-level operations (§IV.A of the QSPR paper).
//
// A complete computational solution in the paper is the pair (initial
// placement, micro-command trace). The MVFB placer additionally needs
// the *reverse* of a trace: because quantum computation is
// reversible, running the inverse operations in reverse time order
// executes the uncompute graph, and the paper reports "reverse of
// T'_k" as the solution when a backward computation wins.
//
// Capture is allocation-free in steady state: an Op stores its one or
// two qubits inline (no per-op slice) and a Trace reused via Reset
// keeps its Op storage warm, so the engine's reusable Sim can record
// thousands of candidate runs without garbage. Clone snapshots a
// pooled trace into an independently-owned one for results that
// outlive the simulator.
//
// Entry points: a Trace is built by the engine via Add and finished
// with Sort; Reverse implements the MVFB backward-solution
// conversion; Validate audits internal consistency (used by the
// engine's post-run invariant checks and tests); Counts/GateOps feed
// the mapping statistics; String and WriteJSON (json.go) render the
// trace for cmd/qspr's -trace and -json flags, and package viz draws
// Gantt timelines and heatmaps from it.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/gates"
)

// OpKind classifies a micro-command.
type OpKind uint8

// Micro-command kinds.
const (
	OpMove OpKind = iota // a qubit advances through a channel segment
	OpTurn               // a qubit changes direction at a junction
	OpGate               // a gate-level operation inside a trap
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpMove:
		return "move"
	case OpTurn:
		return "turn"
	case OpGate:
		return "gate"
	}
	return "?"
}

// MaxQubits is the most qubits one micro-command can involve (the
// two operands of a two-qubit gate).
const MaxQubits = 2

// Op is one timed micro-command. The participating qubits are stored
// inline (Qs/NumQubits), so an Op is a plain comparable value with no
// heap references; use Qubits for a slice view and SetQubits (or the
// chainable WithQubits) to assign.
type Op struct {
	Kind OpKind
	// Start and End bound the command in simulated time, Start < End
	// except for zero-duration bookkeeping ops.
	Start, End gates.Time
	// Qs holds the participating qubit indices inline; only the first
	// NumQubits entries are valid (one for moves and turns; one or
	// two for gates).
	Qs [MaxQubits]int
	// NumQubits is the number of valid entries in Qs.
	NumQubits uint8
	// Gate is the gate kind for OpGate commands.
	Gate gates.Kind
	// Node is the QIDG node ID for OpGate commands, -1 otherwise.
	Node int
	// Trap is the fabric trap where an OpGate executes, -1 otherwise.
	Trap int
	// Edge is the routing-graph edge for moves/turns, -1 otherwise.
	Edge int
}

// Qubits returns the participating qubit indices as a slice view of
// the inline storage. The view is read-only by convention; it aliases
// the receiver's array.
func (o *Op) Qubits() []int { return o.Qs[:o.NumQubits] }

// SetQubits assigns the participating qubits. It panics beyond
// MaxQubits — no micro-command involves more than two qubits.
func (o *Op) SetQubits(qs ...int) {
	if len(qs) > MaxQubits {
		panic(fmt.Sprintf("trace: op with %d qubits", len(qs)))
	}
	o.NumQubits = uint8(copy(o.Qs[:], qs))
}

// WithQubits returns a copy of the op with the given qubits assigned;
// it exists so op literals can be built in one expression.
func (o Op) WithQubits(qs ...int) Op {
	o.SetQubits(qs...)
	return o
}

// Duration returns End-Start.
func (o Op) Duration() gates.Time { return o.End - o.Start }

// String renders a compact human-readable command.
func (o Op) String() string {
	switch o.Kind {
	case OpGate:
		return fmt.Sprintf("[%6d,%6d] %s q%v @trap%d", o.Start, o.End, o.Gate, o.Qubits(), o.Trap)
	default:
		return fmt.Sprintf("[%6d,%6d] %s q%v edge%d", o.Start, o.End, o.Kind, o.Qubits(), o.Edge)
	}
}

// Trace is a time-ordered sequence of micro-commands.
type Trace struct {
	Ops []Op
	// Latency is the completion time of the last command.
	Latency gates.Time
}

// Add appends an op and advances Latency.
func (t *Trace) Add(o Op) {
	t.Ops = append(t.Ops, o)
	if o.End > t.Latency {
		t.Latency = o.End
	}
}

// Reset empties the trace for reuse, retaining the Op backing array
// so steady-state capture does not allocate.
func (t *Trace) Reset() {
	t.Ops = t.Ops[:0]
	t.Latency = 0
}

// Clone returns an independently-owned copy. The engine's pooled Sim
// hands Clones to callers so a retained Result survives the pool's
// next Reset.
func (t *Trace) Clone() *Trace {
	c := &Trace{Latency: t.Latency}
	if len(t.Ops) > 0 {
		c.Ops = make([]Op, len(t.Ops))
		copy(c.Ops, t.Ops) // Ops hold no slices, so a flat copy owns everything
	}
	return c
}

// Sort orders ops by start time (stable on end time, then kind) so a
// trace assembled from interleaved per-qubit streams reads naturally.
func (t *Trace) Sort() {
	slices.SortStableFunc(t.Ops, func(a, b Op) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
}

// Reverse returns the reversed trace: each command c becomes its
// inverse over the mirrored interval [L-End, L-Start], where L is the
// trace latency. Gate commands are replaced by their inverse gates;
// moves and turns are their own inverses (traversed backwards).
func (t *Trace) Reverse() *Trace {
	r := &Trace{Latency: t.Latency}
	r.Ops = make([]Op, len(t.Ops))
	for i, o := range t.Ops {
		ro := o // value copy carries the inline qubits
		ro.Start = t.Latency - o.End
		ro.End = t.Latency - o.Start
		if o.Kind == OpGate {
			ro.Gate = o.Gate.Inverse()
		}
		r.Ops[i] = ro
	}
	r.Sort()
	return r
}

// GateOps returns only the gate commands, in time order.
func (t *Trace) GateOps() []Op {
	var out []Op
	for _, o := range t.Ops {
		if o.Kind == OpGate {
			out = append(out, o)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Counts tallies micro-commands by kind.
func (t *Trace) Counts() (moves, turns, gateOps int) {
	for _, o := range t.Ops {
		switch o.Kind {
		case OpMove:
			moves++
		case OpTurn:
			turns++
		case OpGate:
			gateOps++
		}
	}
	return
}

// Validate checks per-qubit non-overlap: a qubit cannot execute two
// micro-commands at once. It also checks interval sanity.
func (t *Trace) Validate() error {
	type iv struct {
		s, e gates.Time
		op   int
	}
	perQubit := map[int][]iv{}
	for i := range t.Ops {
		o := &t.Ops[i]
		if o.End < o.Start {
			return fmt.Errorf("trace: op %d has negative duration", i)
		}
		if o.End > t.Latency {
			return fmt.Errorf("trace: op %d ends after latency %v", i, t.Latency)
		}
		for _, q := range o.Qubits() {
			perQubit[q] = append(perQubit[q], iv{o.Start, o.End, i})
		}
	}
	for q, ivs := range perQubit {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].s < ivs[i-1].e {
				return fmt.Errorf("trace: qubit %d overlaps ops %d and %d ([%d,%d] vs [%d,%d])",
					q, ivs[i-1].op, ivs[i].op, ivs[i-1].s, ivs[i-1].e, ivs[i].s, ivs[i].e)
			}
		}
	}
	return nil
}

// String renders the whole trace, one command per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, o := range t.Ops {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "latency: %v\n", t.Latency)
	return b.String()
}
