// Package engine executes one mapped computation: it couples the
// instruction scheduler, the congestion-aware router and the
// discrete-event simulator over an ion-trap fabric, producing a
// micro-command trace, the total execution latency and the final
// placement of all qubits.
//
// This is the inner loop of the QSPR tool (§III-§IV): "our approach
// schedules new instruction(s) after routing of each issued
// instruction". The MVFB placer (package place) calls it repeatedly,
// forward on the QIDG and backward on the UIDG; the QUALE baseline
// (package quale) calls it with different knobs (ALAP priorities,
// turn-blind metric, capacity-1 channels, single moving operand).
//
// Two entry points run a mapping:
//
//   - Sim, the reusable simulator core (sim.go). A Sim owns every
//     piece of per-run state — typed event queue, ready/busy queues,
//     placement and reservation bookkeeping, pooled trace — and
//     recycles all of it across runs, so a steady-state Sim.Run
//     performs no allocations beyond the returned Result. Search
//     loops (MVFB, Monte-Carlo, the portfolio) give each worker its
//     own Sim and run candidates with Config.CollectTrace=false,
//     re-running only the winner with capture on; trace writes are
//     side-effect-free, so the replay is byte-identical.
//   - Run, the one-shot compatibility wrapper: a fresh Sim per call
//     with trace capture always on, exactly the pre-Sim behaviour.
package engine

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qidg"
	"repro/internal/routegraph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Placement maps each qubit to the fabric trap it rests in.
type Placement []int

// Clone copies a placement.
func (p Placement) Clone() Placement { return append(Placement(nil), p...) }

// Validate checks that the placement fits the fabric: trap IDs in
// range and no trap loaded beyond capacity.
func (p Placement) Validate(f *fabric.Fabric, trapCapacity int) error {
	load := make([]int, len(f.Traps))
	for q, t := range p {
		if t < 0 || t >= len(f.Traps) {
			return fmt.Errorf("engine: qubit %d placed at invalid trap %d", q, t)
		}
		load[t]++
		if load[t] > trapCapacity {
			return fmt.Errorf("engine: trap %d holds more than %d qubits", t, trapCapacity)
		}
	}
	return nil
}

// Config selects the mapping policy knobs.
type Config struct {
	Fabric *fabric.Fabric
	Tech   gates.Tech

	// Policy and Weights drive instruction extraction (§III). When
	// ForcedOrder is non-nil it overrides Policy: instructions are
	// prioritized by their rank in the slice (used by the MVFB
	// backward pass to replay the forward schedule in reverse).
	Policy      sched.Policy
	Weights     sched.Weights
	ForcedOrder []int

	// TurnAware selects the Fig. 5.c routing metric; TieSeed feeds
	// the arbitrary choice among equal-cost paths.
	TurnAware bool
	TieSeed   int64

	// Landmarks controls the routing graph's ALT goal-directed search
	// (see routegraph.Options.Landmarks): 0 auto-enables it on graphs
	// past the size threshold, >0 forces it with that many landmarks,
	// <0 forces plain Dijkstra.
	Landmarks int

	// DefectiveChannels and DefectiveJunctions mark unusable fabric
	// elements (see routegraph.Options); qubits must not be placed on
	// traps whose access channel is defective.
	DefectiveChannels  []int
	DefectiveJunctions []int

	// BothMove moves both operands of a two-qubit gate toward the
	// target trap simultaneously (a QSPR contribution). When false
	// only the source (control) qubit moves to the destination
	// qubit's trap, as in QUALE/QPOS.
	BothMove bool

	// MedianTarget picks the gate trap near the median of the two
	// operand locations (§IV.B). When false the destination qubit's
	// own trap is used whenever it has room.
	MedianTarget bool

	// CollectTrace enables micro-command capture on Sim.Run. With it
	// false the simulator runs against a null trace sink: latency,
	// issue order, final placement and stats are bit-identical (trace
	// writes have no side effects) but Result.Trace is nil and the
	// run allocates nothing for capture. Search loops run candidates
	// traceless and re-run only the winner with CollectTrace=true;
	// determinism makes the replayed trace byte-identical to one
	// captured during the search. The compatibility wrapper Run
	// ignores this field and always captures.
	CollectTrace bool

	// MaxEvents guards the simulator; 0 means the default guard.
	MaxEvents int

	// RouteGraph optionally supplies a pre-built routing graph to
	// reuse across runs instead of rebuilding CSR arrays and search
	// state per Run. It must describe the same fabric, technology and
	// routing options as this config (build it with BuildRouteGraph);
	// Run resets its occupancy and tie-break rng, so results are
	// bit-identical to a fresh graph while its route cache and
	// buffers stay warm. A graph must not be shared by concurrent
	// runs — give each worker its own. A Sim reused across runs keeps
	// its own warm graph automatically, so setting this is only
	// useful to share one graph between several sequential Sims.
	RouteGraph *routegraph.Graph
}

// BuildRouteGraph constructs the routing graph exactly as Run would,
// for callers that execute many runs over one config (MVFB,
// Monte-Carlo) and want to reuse it via Config.RouteGraph.
func (c *Config) BuildRouteGraph() *routegraph.Graph {
	return routegraph.New(c.Fabric, c.Tech, routegraph.Options{
		TurnAware: c.TurnAware, TieSeed: c.TieSeed, Landmarks: c.Landmarks,
		DefectiveChannels: c.DefectiveChannels, DefectiveJunctions: c.DefectiveJunctions,
	})
}

// routeGraphCompatible reports whether a graph built for cfg a can be
// reused (after Reset) for cfg b without changing any routing result.
func routeGraphCompatible(a, b *Config) bool {
	return a.Fabric == b.Fabric && a.Tech == b.Tech &&
		a.TurnAware == b.TurnAware && a.TieSeed == b.TieSeed &&
		a.Landmarks == b.Landmarks &&
		slices.Equal(a.DefectiveChannels, b.DefectiveChannels) &&
		slices.Equal(a.DefectiveJunctions, b.DefectiveJunctions)
}

// checkRouteGraph rejects a supplied graph that was not built from
// this config — silently accepting one would change routing results.
func (c *Config) checkRouteGraph(rg *routegraph.Graph) error {
	ok := rg.Fabric == c.Fabric && rg.Tech == c.Tech &&
		rg.Opts.TurnAware == c.TurnAware && rg.Opts.TieSeed == c.TieSeed &&
		rg.Opts.Landmarks == c.Landmarks &&
		slices.Equal(rg.Opts.DefectiveChannels, c.DefectiveChannels) &&
		slices.Equal(rg.Opts.DefectiveJunctions, c.DefectiveJunctions)
	if !ok {
		return fmt.Errorf("engine: RouteGraph was built for a different fabric/tech/options")
	}
	return nil
}

func (c *Config) validate() error {
	if c.Fabric == nil {
		return fmt.Errorf("engine: nil fabric")
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	return nil
}

// Stats aggregates mapping statistics.
type Stats struct {
	// Moves and Turns are total relocation micro-commands.
	Moves, Turns int
	// RoutedQubitTrips counts individual qubit journeys.
	RoutedQubitTrips int
	// Blocked counts issue attempts deferred to the busy queue: every
	// time an instruction fails to issue it increments, so one
	// instruction parked through k retry rounds contributes k. It is
	// a pressure metric (deferral events), not a count of distinct
	// blocked instructions.
	Blocked int
	// Evictions counts bystander relocations performed to break
	// trap-capacity deadlocks (cf. QPOS's deadlock prevention).
	Evictions int
	// RoutingDelay sums the physical travel time of all trips
	// (the realized T_routing of Eq. 1).
	RoutingDelay gates.Time
	// CongestionDelay sums the time issued instructions spent
	// waiting in the busy queue (the realized T_congestion): for each
	// instruction, the span from its first failed issue attempt to
	// the moment it settles — a one-qubit gate when it starts, a
	// two-qubit instruction when its last mover is dispatched. A
	// two-qubit instruction whose operands are already co-resident in
	// the chosen target issues through the zero-mover fast path and
	// never settles a congestion span (preserved pre-refactor
	// behaviour, pinned by the engine fingerprints).
	CongestionDelay gates.Time
	// GateDelay sums T_gate over all executed instructions.
	GateDelay gates.Time
}

// Result is one complete computational solution: the paper's pair
// (initial placement, control trace) plus derived data.
type Result struct {
	Latency gates.Time
	// Trace is the captured micro-command trace; nil when the run was
	// executed with Config.CollectTrace false.
	Trace *trace.Trace
	// Initial and Final are the qubit placements before and after
	// the computation (the final placement seeds the next MVFB
	// half-iteration).
	Initial, Final Placement
	// IssueOrder is the realized total order S of instruction issue.
	IssueOrder []int
	Stats      Stats
}

// Run executes the graph on the fabric from the given initial
// placement and returns the complete solution.
//
// Run is the one-shot compatibility wrapper around Sim: it builds a
// fresh simulator per call and always captures the trace (ignoring
// cfg.CollectTrace), exactly the pre-Sim behaviour. Callers running
// many mappings should hold a Sim per worker instead — its event
// queue, search state, routing graph and trace storage stay warm
// across runs.
func Run(g *qidg.Graph, cfg Config, initial Placement) (*Result, error) {
	cfg.CollectTrace = true
	s := NewSim()
	// Nothing reuses the Sim after this call, so the Result can own
	// the pooled trace's ops instead of paying for a clone.
	s.donateTrace = true
	return s.Run(g, cfg, initial)
}

// instPlan is the routing plan of one two-qubit instruction. The
// target trap is chosen once (seats for all incoming operands are
// reserved at that moment) and the operands are dispatched as soon as
// the router finds each a path. Dispatching the movers independently
// is essential: with channel capacity 1 both operands need the target
// trap's single access channel, so reserving both full journeys at
// once could never succeed — the qubits use the channel one after the
// other instead. The movers live inline (at most the two operands),
// so a plan holds no heap references and the plans slice is reused
// across runs.
type instPlan struct {
	target  int    // chosen gate trap, -1 until decided
	movers  [2]int // operands that must travel, in dispatch order
	nMovers uint8  // valid entries in movers
	next    uint8  // index of the next mover to dispatch
}

// instState tracks one instruction through the simulation.
type instState uint8

const (
	instWaiting instState = iota // dependencies unresolved
	instReady                    // in ready or busy queue
	instRouting                  // operands traveling / gate running
	instDone
)
