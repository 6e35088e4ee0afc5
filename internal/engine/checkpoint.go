package engine

// Incremental re-simulation: checkpoint/fork support for Sim.
//
// A placement search (MVFB refinement, simulated annealing) evaluates
// thousands of placements that differ from the last evaluated one by a
// handful of qubits. Cold re-simulation repays the entire event
// history each time; this file makes the engine pay only for the
// suffix that can depend on the moved qubits.
//
// Mechanism. RunRecorded executes a normal run while (a) capturing a
// Checkpoint — a complete copy of the Sim's mutable per-run state —
// before every Stride-th event dispatch (plus the end state), and (b)
// recording a conservative *dependency frontier*: for every cell of
// placement state, the index of the first event whose outcome could
// depend on it. RunFrom(cp, delta) then restores a checkpoint taken at
// or before the frontier of the delta, patches the placement cells the
// delta changes, and replays only the remaining events.
//
// Correctness argument (docs/ARCHITECTURE.md states it in full). The
// perturbed run's state at any boundary equals the baseline state plus
// a pure patch on {trapOf[q] for moved q} ∪ {trapLoad[t] for traps
// with nonzero net} as long as no dispatched event has *read* a
// patched cell. All reads are funneled through three sites, each of
// which records a touch:
//
//   - tryIssue / tryIssueTwoQubit read the operands' resting traps at
//     entry (touchQubit);
//   - the trap-fit predicate reads trapLoad[t], but its boolean
//     outcome changes under a net load shift of ±1 only when the
//     baseline sum sits exactly on the capacity edge (noteLoadRead
//     records marginal reads per direction, plus an unconditional
//     read mark for |net| >= 2 deltas);
//   - tryEvict scans all placement state (touchGlobal).
//
// Writes need no tracking: a prefix event writing a patched cell is
// always preceded by one of the reads above in the same dispatch, and
// trapLoad writes are increments/decrements, which commute with the
// patch. Scheduling state (priorities, readiness, the event queue) is
// placement-independent until an issue attempt — which is a read.
//
// Ownership. A CheckpointLog and its Checkpoints belong to the Sim
// that recorded them, for one run generation: every Reset bumps the
// generation, and RunFrom rejects a stale or foreign checkpoint with
// an error *before* mutating anything, leaving the Sim fully usable.
// Like the Sim itself, checkpoints are single-threaded state — never
// share them across InnerParallel workers (docs/CONCURRENCY.md).

import (
	"fmt"
	"sort"

	"repro/internal/events"
	"repro/internal/gates"
	"repro/internal/qidg"
	"repro/internal/routegraph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Move relocates one qubit of a recorded run's initial placement to a
// new trap.
type Move struct {
	Qubit int
	To    int
}

// Delta is a set of initial-placement perturbations, at most one per
// qubit. The moves describe the *initial* placement of the forked run
// relative to the recorded baseline's initial placement.
type Delta []Move

// Checkpoint is a complete snapshot of a Sim's mutable per-run state
// at an event boundary, generation-stamped against later Resets. All
// storage is pooled: recapturing into an existing Checkpoint reuses
// its buffers, so steady-state recording allocates nothing.
type Checkpoint struct {
	sim    *Sim
	log    *CheckpointLog // nil for manual Sim.Checkpoint captures
	runGen uint64
	index  int // events dispatched before this state

	queue events.State
	ready sched.ReadyState
	rg    routegraph.State

	blocked         []int
	blockedSince    []gates.Time
	blockedGen      []uint64
	state           []instState
	predsLeft       []int
	plans           []instPlan
	pendingArrivals []int
	trapOf          []int
	pinned          []int
	order           []int

	// Sparse trap loads: only nonzero entries, as (trap, load) pairs.
	loadT []int32
	loadV []int32

	evicting  bool
	stats     Stats
	done      int
	latency   gates.Time
	trOps     []trace.Op
	trLatency gates.Time
}

// Index returns the number of events dispatched before this state was
// captured. Index 0 is the armed post-Reset state, before any event.
func (cp *Checkpoint) Index() int { return cp.index }

// unset marks an untouched frontier cell (no constraint).
const unset = int32(-1)

// CheckpointLog records one RunRecorded execution: its checkpoints,
// its initial placement, and the dependency frontier of every
// placement cell. A log is reusable across runs (buffers stay warm)
// but is bound to the Sim and run generation that last recorded into
// it.
type CheckpointLog struct {
	// Stride is the checkpoint sampling interval in events: a
	// checkpoint is captured before events 0, Stride, 2*Stride, …,
	// and always at the end state. Zero or negative means 1 (every
	// boundary). Denser logs fork closer to the frontier but cost
	// more to record.
	Stride int

	sim     *Sim
	runGen  uint64
	valid   bool
	stride  int
	initial []int // baseline initial placement (pooled copy)
	events  int   // total events the recorded run dispatched
	cps     []*Checkpoint
	n       int
	idx     int // index of the event currently dispatching

	// Frontier state, generation-stamped per recording so arming is
	// O(1) on warm buffers. A cell is touched iff its stamp equals
	// the current one; the At value is the event index of the first
	// touch.
	stamp      uint32
	qStamp     []uint32 // per qubit: first trapOf read
	qAt        []int32
	readStamp  []uint32 // per trap: first load read of any kind
	readAt     []int32
	plusStamp  []uint32 // per trap: first read that flips under net +1
	plusAt     []int32
	minusStamp []uint32 // per trap: first read that flips under net -1
	minusAt    []int32
	global     int32 // first global scan (eviction); unset if none

	// Traps that ever held load this run (superset of nonzero-load
	// traps at any boundary), for sparse checkpoint capture.
	loadedStamp []uint32
	loaded      []int32

	// Frontier() scratch: per-trap net shifts of the delta under
	// evaluation, deduped by linear scan (deltas are tiny).
	netT []int32
	netV []int32

	// Replay profile: cumulative dispatched-event counts across every
	// evaluation routed through this log, split into events actually
	// simulated (replayed) and events a cold evaluation would have
	// simulated (total). Diagnostic only — never part of a Result —
	// and deliberately NOT reset by re-recording, so a search loop's
	// aggregate suffix-replay savings can be read off at the end.
	profReplayed int64
	profTotal    int64
}

// CanFork reports whether the log holds a completed recording that is
// still valid to fork from (the owning Sim has not been Reset since).
func (log *CheckpointLog) CanFork() bool {
	return log.valid && log.sim != nil && log.runGen == log.sim.runGen
}

// Initial returns the recorded run's initial placement as a read-only
// view of pooled storage; it is valid until the next RunRecorded into
// this log.
func (log *CheckpointLog) Initial() Placement { return Placement(log.initial) }

// Events returns the total number of events the recorded run
// dispatched.
func (log *CheckpointLog) Events() int { return log.events }

// Checkpoints returns the number of captured checkpoints.
func (log *CheckpointLog) Checkpoints() int { return log.n }

// At returns the i-th checkpoint, in increasing event-index order.
func (log *CheckpointLog) At(i int) *Checkpoint { return log.cps[i] }

// Profile returns the cumulative dispatched-event counts of every
// evaluation recorded into or forked from this log since the last
// ResetProfile: replayed is the number of events actually simulated,
// total the number a cold evaluation of the same placements would have
// simulated. total-replayed is the work suffix replay skipped. The
// counters are diagnostics for benchmarks and never influence results.
func (log *CheckpointLog) Profile() (replayed, total int64) {
	return log.profReplayed, log.profTotal
}

// ResetProfile zeroes the replay profile counters.
func (log *CheckpointLog) ResetProfile() {
	log.profReplayed, log.profTotal = 0, 0
}

// arm rebinds the log to a new recording run of s.
func (log *CheckpointLog) arm(s *Sim, initial Placement) {
	log.stride = log.Stride
	if log.stride <= 0 {
		log.stride = 1
	}
	log.sim = s
	log.runGen = s.runGen
	log.valid = false
	log.events = 0
	log.n = 0
	log.idx = 0
	log.initial = append(log.initial[:0], initial...)

	nq := len(initial)
	nt := len(s.cfg.Fabric.Traps)
	log.qStamp = grow(log.qStamp, nq)
	log.qAt = grow(log.qAt, nq)
	log.readStamp = grow(log.readStamp, nt)
	log.readAt = grow(log.readAt, nt)
	log.plusStamp = grow(log.plusStamp, nt)
	log.plusAt = grow(log.plusAt, nt)
	log.minusStamp = grow(log.minusStamp, nt)
	log.minusAt = grow(log.minusAt, nt)
	log.loadedStamp = grow(log.loadedStamp, nt)
	log.stamp++
	if log.stamp == 0 { // wrap: old stamps could collide, wipe them
		clear(log.qStamp)
		clear(log.readStamp)
		clear(log.plusStamp)
		clear(log.minusStamp)
		clear(log.loadedStamp)
		log.stamp = 1
	}
	log.global = unset
	log.loaded = log.loaded[:0]
	for _, t := range initial {
		log.noteLoaded(t)
	}
}

// maybeSnapshot captures a checkpoint at the current boundary if it is
// on the stride (or force is set) and not already captured.
func (log *CheckpointLog) maybeSnapshot(s *Sim, force bool) {
	if log.n > 0 && log.cps[log.n-1].index == s.fired {
		return
	}
	if !force && s.fired%log.stride != 0 {
		return
	}
	var cp *Checkpoint
	if log.n < len(log.cps) {
		cp = log.cps[log.n]
	} else {
		cp = &Checkpoint{}
		log.cps = append(log.cps, cp)
	}
	log.n++
	cp.capture(s, log)
}

// touchQubit records the first read of qubit q's resting trap.
func (log *CheckpointLog) touchQubit(q int) {
	if log.qStamp[q] != log.stamp {
		log.qStamp[q] = log.stamp
		log.qAt[q] = int32(log.idx)
	}
}

// noteLoadRead records a trap-fit load read: sum is the would-be
// occupancy (current load plus incoming operands) compared against
// capacity. The read's outcome flips under a net initial-load shift
// of +1 iff sum == capacity (pass turns to fail) and under -1 iff
// sum == capacity+1 (fail turns to pass); reads anywhere else on the
// scale are insensitive to a ±1 shift. The unconditional mark covers
// deltas shifting a trap by two or more.
func (log *CheckpointLog) noteLoadRead(t, sum, capacity int) {
	if log.readStamp[t] != log.stamp {
		log.readStamp[t] = log.stamp
		log.readAt[t] = int32(log.idx)
	}
	if sum == capacity && log.plusStamp[t] != log.stamp {
		log.plusStamp[t] = log.stamp
		log.plusAt[t] = int32(log.idx)
	}
	if sum == capacity+1 && log.minusStamp[t] != log.stamp {
		log.minusStamp[t] = log.stamp
		log.minusAt[t] = int32(log.idx)
	}
}

// touchGlobal records a global placement scan (eviction).
func (log *CheckpointLog) touchGlobal() {
	if log.global == unset {
		log.global = int32(log.idx)
	}
}

// noteLoaded adds trap t to the loaded set.
func (log *CheckpointLog) noteLoaded(t int) {
	if log.loadedStamp[t] != log.stamp {
		log.loadedStamp[t] = log.stamp
		log.loaded = append(log.loaded, int32(t))
	}
}

// Frontier returns the deepest valid fork boundary for delta: every
// checkpoint with Index <= Frontier(delta) restores to a state the
// perturbed run would also have reached (up to the patched cells
// themselves). A move to a qubit's current trap constrains nothing; a
// trap whose incoming and outgoing moves cancel (net zero) constrains
// nothing either, so swaps keep deep frontiers.
func (log *CheckpointLog) Frontier(delta Delta) int {
	f := int32(log.events)
	log.netT = log.netT[:0]
	log.netV = log.netV[:0]
	for _, m := range delta {
		from := log.initial[m.Qubit]
		if from == m.To {
			continue
		}
		if log.qStamp[m.Qubit] == log.stamp && log.qAt[m.Qubit] < f {
			f = log.qAt[m.Qubit]
		}
		log.addNet(int32(from), -1)
		log.addNet(int32(m.To), +1)
	}
	for i, t := range log.netT {
		var at int32 = unset
		switch net := log.netV[i]; {
		case net == 0:
			continue
		case net == 1:
			if log.plusStamp[t] == log.stamp {
				at = log.plusAt[t]
			}
		case net == -1:
			if log.minusStamp[t] == log.stamp {
				at = log.minusAt[t]
			}
		default:
			if log.readStamp[t] == log.stamp {
				at = log.readAt[t]
			}
		}
		if at != unset && at < f {
			f = at
		}
	}
	if log.global != unset && log.global < f {
		f = log.global
	}
	return int(f)
}

func (log *CheckpointLog) addNet(t, d int32) {
	for i, u := range log.netT {
		if u == t {
			log.netV[i] += d
			return
		}
	}
	log.netT = append(log.netT, t)
	log.netV = append(log.netV, d)
}

// Before returns the deepest checkpoint at or before the delta's
// dependency frontier, or nil when the log cannot be forked from.
func (log *CheckpointLog) Before(delta Delta) *Checkpoint {
	if !log.CanFork() {
		return nil
	}
	f := log.Frontier(delta)
	i := sort.Search(log.n, func(i int) bool { return log.cps[i].index > f })
	if i == 0 {
		return nil // cannot happen in practice: index 0 is always <= f
	}
	return log.cps[i-1]
}

// capture copies the Sim's complete mutable run state into cp.
func (cp *Checkpoint) capture(s *Sim, log *CheckpointLog) {
	cp.sim = s
	cp.log = log
	cp.runGen = s.runGen
	cp.index = s.fired
	s.q.Save(&cp.queue)
	s.ready.Save(&cp.ready)
	s.rg.SaveState(&cp.rg)
	cp.blocked = append(cp.blocked[:0], s.blocked...)
	cp.blockedSince = append(cp.blockedSince[:0], s.blockedSince...)
	cp.blockedGen = append(cp.blockedGen[:0], s.blockedGen...)
	cp.state = append(cp.state[:0], s.state...)
	cp.predsLeft = append(cp.predsLeft[:0], s.predsLeft...)
	cp.plans = append(cp.plans[:0], s.plans...)
	cp.pendingArrivals = append(cp.pendingArrivals[:0], s.pendingArrivals...)
	cp.trapOf = append(cp.trapOf[:0], s.trapOf...)
	cp.pinned = append(cp.pinned[:0], s.pinned...)
	cp.order = append(cp.order[:0], s.order...)
	cp.loadT = cp.loadT[:0]
	cp.loadV = cp.loadV[:0]
	if log != nil {
		for _, t := range log.loaded {
			if v := s.trapLoad[t]; v != 0 {
				cp.loadT = append(cp.loadT, t)
				cp.loadV = append(cp.loadV, int32(v))
			}
		}
	} else {
		for t, v := range s.trapLoad {
			if v != 0 {
				cp.loadT = append(cp.loadT, int32(t))
				cp.loadV = append(cp.loadV, int32(v))
			}
		}
	}
	cp.evicting = s.evicting
	cp.stats = s.stats
	cp.done = s.done
	cp.latency = s.latency
	cp.trOps = cp.trOps[:0]
	if s.collect {
		cp.trOps = append(cp.trOps, s.tr.Ops...)
		cp.trLatency = s.tr.Latency
	}
}

// restoreFrom rewinds the Sim to the checkpoint's state. Only mutable
// per-run state is restored; configuration, graph, priority and
// routing-graph *bindings* are untouched — they are guaranteed
// unchanged because no Reset has intervened (enforced by the caller's
// generation check).
func (s *Sim) restoreFrom(cp *Checkpoint) {
	s.q.Restore(&cp.queue)
	s.ready.Restore(&cp.ready)
	s.rg.RestoreState(&cp.rg)
	s.blocked = append(s.blocked[:0], cp.blocked...)
	s.blockedSince = append(s.blockedSince[:0], cp.blockedSince...)
	s.blockedGen = append(s.blockedGen[:0], cp.blockedGen...)
	s.state = append(s.state[:0], cp.state...)
	s.predsLeft = append(s.predsLeft[:0], cp.predsLeft...)
	s.plans = append(s.plans[:0], cp.plans...)
	s.pendingArrivals = append(s.pendingArrivals[:0], cp.pendingArrivals...)
	s.trapOf = append(s.trapOf[:0], cp.trapOf...)
	s.pinned = append(s.pinned[:0], cp.pinned...)
	s.order = append(s.order[:0], cp.order...)
	clear(s.trapLoad)
	for i, t := range cp.loadT {
		s.trapLoad[t] = int(cp.loadV[i])
	}
	s.evicting = cp.evicting
	s.stats = cp.stats
	s.done = cp.done
	s.latency = cp.latency
	if s.collect {
		s.tr.Ops = append(s.tr.Ops[:0], cp.trOps...)
		s.tr.Latency = cp.trLatency
	}
	s.fired = cp.index
	s.rec = nil
}

// Checkpoint captures the Sim's current run state into cp, reusing
// cp's buffers. It is the manual counterpart of RunRecorded's
// automatic boundary capture: without a recording log there is no
// dependency frontier, so RunFrom accepts a manual checkpoint only at
// index 0 (the armed post-Reset state), where any admissible delta is
// trivially safe. Taken right after Reset, one armed Sim can evaluate
// many perturbed placements without re-validating configuration.
func (s *Sim) Checkpoint(cp *Checkpoint) {
	cp.capture(s, nil)
}

// RunRecorded is Run plus checkpoint/frontier recording into log (nil
// log degrades to a plain Run). The returned Result is byte-identical
// to Run's; afterwards log.Before(delta) selects fork points for
// RunFrom. Recording costs one state copy per log.Stride events; with
// CollectTrace set the copies include the trace so far (quadratic in
// trace length — record without capture and replay the winner
// instead, as the placers do).
func (s *Sim) RunRecorded(g *qidg.Graph, cfg Config, initial Placement, log *CheckpointLog) (*Result, error) {
	if log == nil {
		return s.Run(g, cfg, initial)
	}
	if err := s.Reset(g, cfg, initial); err != nil {
		return nil, err
	}
	log.arm(s, initial)
	s.rec = log
	err := s.runLoop()
	s.rec = nil
	if err != nil {
		return nil, err
	}
	log.events = s.fired
	log.valid = true
	log.profReplayed += int64(s.fired)
	log.profTotal += int64(s.fired)
	return s.finishRun(initial)
}

// RunFrom re-runs the recorded simulation with the initial placement
// perturbed by delta, restoring cp and replaying only the suffix. The
// Result is byte-identical to a cold Run of the perturbed placement —
// guaranteed by the dependency frontier (see the package comment);
// the property test in fork_property_test.go pins it.
//
// Validation happens before any mutation: on error (foreign or stale
// checkpoint, malformed delta, frontier violation, over-capacity
// perturbed placement) the Sim's state is exactly as the caller left
// it, so an invalidated checkpoint is recoverable by re-recording.
// Steady-state forks allocate nothing beyond the returned Result.
func (s *Sim) RunFrom(cp *Checkpoint, delta Delta) (*Result, error) {
	if cp == nil {
		return nil, fmt.Errorf("engine: RunFrom on a nil checkpoint")
	}
	if cp.sim != s {
		return nil, fmt.Errorf("engine: checkpoint belongs to a different Sim")
	}
	if cp.runGen != s.runGen {
		return nil, fmt.Errorf("engine: stale checkpoint: Sim was Reset after it was taken (generation %d, now %d)", cp.runGen, s.runGen)
	}
	log := cp.log
	var base []int
	if log != nil {
		if !log.valid || log.sim != s || log.runGen != s.runGen {
			return nil, fmt.Errorf("engine: checkpoint's recording log is stale or incomplete")
		}
		base = log.initial
	} else {
		if cp.index != 0 {
			return nil, fmt.Errorf("engine: manual checkpoint at event %d: deltas require a recording log (RunRecorded); manual forks must start at index 0", cp.index)
		}
		base = cp.trapOf // at index 0 the resting traps ARE the initial placement
	}
	if err := s.validateDelta(base, delta); err != nil {
		return nil, err
	}
	if log != nil {
		if f := log.Frontier(delta); cp.index > f {
			return nil, fmt.Errorf("engine: checkpoint at event %d is past the dependency frontier %d of this delta", cp.index, f)
		}
	}

	// Build the perturbed initial placement in pooled storage (cloned
	// into the Result by finishRun).
	s.forkInitial = append(s.forkInitial[:0], base...)
	for _, m := range delta {
		s.forkInitial[m.Qubit] = m.To
	}

	// ---- mutation starts here: all validation has passed ----
	s.restoreFrom(cp)
	for _, m := range delta {
		if m.To == base[m.Qubit] {
			continue // a no-op move, unconstrained as in Frontier
		}
		from := s.trapOf[m.Qubit]
		if from != base[m.Qubit] {
			return nil, fmt.Errorf("engine: internal: qubit %d moved before the frontier (at trap %d, baseline %d)", m.Qubit, from, base[m.Qubit])
		}
		s.trapOf[m.Qubit] = m.To
		s.trapLoad[from]--
		s.trapLoad[m.To]++
	}
	// Audit the patched loads only after the whole delta is applied: a
	// swap at capacity is valid even though its first move transiently
	// overfills the partner trap. validateDelta proved the final loads
	// admissible, so a violation here is a genuine internal fault.
	for _, m := range delta {
		if s.trapLoad[base[m.Qubit]] < 0 || s.trapLoad[m.To] > s.cfg.Tech.TrapCapacity {
			return nil, fmt.Errorf("engine: internal: patched load out of range at trap %d/%d", base[m.Qubit], m.To)
		}
	}
	if err := s.runLoop(); err != nil {
		return nil, err
	}
	if log != nil {
		log.profReplayed += int64(s.fired - cp.index)
		log.profTotal += int64(s.fired)
	}
	return s.finishRun(Placement(s.forkInitial))
}

// validateDelta checks delta against the baseline initial placement:
// qubits and traps in range, no qubit moved twice, and the perturbed
// initial placement within every trap's capacity.
func (s *Sim) validateDelta(base []int, delta Delta) error {
	nt := len(s.cfg.Fabric.Traps)
	for i, m := range delta {
		if m.Qubit < 0 || m.Qubit >= len(base) {
			return fmt.Errorf("engine: delta moves unknown qubit %d", m.Qubit)
		}
		if m.To < 0 || m.To >= nt {
			return fmt.Errorf("engine: delta moves qubit %d to invalid trap %d", m.Qubit, m.To)
		}
		for _, p := range delta[:i] {
			if p.Qubit == m.Qubit {
				return fmt.Errorf("engine: delta moves qubit %d twice", m.Qubit)
			}
		}
	}
	// Capacity at time zero: only traps with net inflow can overflow.
	for _, m := range delta {
		if base[m.Qubit] == m.To {
			continue
		}
		t := m.To
		load := 0
		for q, bt := range base {
			at := bt
			for _, p := range delta {
				if p.Qubit == q {
					at = p.To
					break
				}
			}
			if at == t {
				load++
			}
		}
		if load > s.cfg.Tech.TrapCapacity {
			return fmt.Errorf("engine: delta overloads trap %d: %d qubits for capacity %d", t, load, s.cfg.Tech.TrapCapacity)
		}
	}
	return nil
}
