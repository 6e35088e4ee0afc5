package engine

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"weak"

	"repro/internal/events"
	"repro/internal/fabric"
	"repro/internal/qidg"
	"repro/internal/trace"
)

// resultsEqualSansTrace compares everything about two results except
// the trace pointer.
func resultsEqualSansTrace(a, b *Result) bool {
	if a.Latency != b.Latency || a.Stats != b.Stats ||
		len(a.IssueOrder) != len(b.IssueOrder) || len(a.Final) != len(b.Final) {
		return false
	}
	for i := range a.IssueOrder {
		if a.IssueOrder[i] != b.IssueOrder[i] {
			return false
		}
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] {
			return false
		}
	}
	for i := range a.Initial {
		if a.Initial[i] != b.Initial[i] {
			return false
		}
	}
	return true
}

func traceJSON(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSimReuseFingerprintIdentical is the satellite reuse matrix: one
// Sim driven through 3 consecutive Reset+run cycles on two circuits ×
// both fabrics must reproduce the one-shot engine.Run result —
// fingerprint-identical including trace bytes — on every cycle, even
// though every cycle recycles the queue, the ready heap, the routing
// graph and the trace storage, and the graph/fabric change between
// consecutive runs.
func TestSimReuseFingerprintIdentical(t *testing.T) {
	sim := NewSim()
	for round := 0; round < 3; round++ {
		for _, tc := range fingerprintCases(t) {
			cfg := qsprConfig(tc.f)
			cfg.CollectTrace = true
			p := centerPlacement(tc.f, tc.g.NumQubits)
			want, err := Run(tc.g, cfg, p) // fresh one-shot reference
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(tc.g, cfg, p)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, tc.name, err)
			}
			if !resultsEqualSansTrace(got, want) {
				t.Errorf("round %d %s: reused Sim diverged: latency %v vs %v",
					round, tc.name, got.Latency, want.Latency)
			}
			if !bytes.Equal(traceJSON(t, got.Trace), traceJSON(t, want.Trace)) {
				t.Errorf("round %d %s: trace bytes diverge on reused Sim", round, tc.name)
			}
		}
	}
}

// TestTracelessRunBitIdentical pins the null-trace-sink contract:
// with CollectTrace off the run must produce the same latency, issue
// order, final placement and stats (trace writes are side-effect
// free), Result.Trace must be nil, and a capture-enabled replay of
// the winner must produce bytes identical to a trace captured during
// the original run — the deferred-capture protocol of the search
// placers, exercised at the engine level.
func TestTracelessRunBitIdentical(t *testing.T) {
	for _, tc := range fingerprintCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := qsprConfig(tc.f)
			p := centerPlacement(tc.f, tc.g.NumQubits)

			cap1 := cfg
			cap1.CollectTrace = true
			withTrace, err := NewSim().Run(tc.g, cap1, p)
			if err != nil {
				t.Fatal(err)
			}

			sim := NewSim()
			silent := cfg
			silent.CollectTrace = false
			traceless, err := sim.Run(tc.g, silent, p)
			if err != nil {
				t.Fatal(err)
			}
			if traceless.Trace != nil {
				t.Error("CollectTrace=false returned a trace")
			}
			if !resultsEqualSansTrace(traceless, withTrace) {
				t.Errorf("traceless run diverged: latency %v vs %v, stats %+v vs %+v",
					traceless.Latency, withTrace.Latency, traceless.Stats, withTrace.Stats)
			}

			// Winner replay on the same (reused) Sim: byte-identical.
			replay, err := sim.Run(tc.g, cap1, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(traceJSON(t, replay.Trace), traceJSON(t, withTrace.Trace)) {
				t.Error("capture replay bytes differ from original capture")
			}
		})
	}
}

// TestSimRunAllocsSteadyState is the AllocsPerRun guard of the
// acceptance criteria: a warm Sim running traceless allocates only
// the returned Result — the Result struct and its three slices
// (Initial, Final, IssueOrder), 4 objects — and nothing for the
// simulation itself.
func TestSimRunAllocsSteadyState(t *testing.T) {
	const resultAllocs = 4
	for _, tc := range fingerprintCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := qsprConfig(tc.f)
			cfg.CollectTrace = false
			p := centerPlacement(tc.f, tc.g.NumQubits)
			sim := NewSim()
			// Warm: first run sizes every pool.
			if _, err := sim.Run(tc.g, cfg, p); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(50, func() {
				if _, err := sim.Run(tc.g, cfg, p); err != nil {
					t.Fatal(err)
				}
			}); avg > resultAllocs {
				t.Errorf("steady-state Sim.Run allocates %.1f objects/run, want <= %d (the returned Result)",
					avg, resultAllocs)
			}
		})
	}
}

// TestSimRunAllocsAlternatingGraphs: the MVFB shape — forward and
// backward graphs alternating, a fresh forced order each backward
// run — must also be steady-state allocation-free beyond the Results
// and the forced-order slice the caller builds anyway.
func TestSimRunAllocsAlternatingGraphs(t *testing.T) {
	f := fabric.Quale4585()
	g := graphOf(t, fig3)
	rev := g.Reverse()
	cfg := qsprConfig(f)
	cfg.CollectTrace = false
	p := centerPlacement(f, g.NumQubits)
	sim := NewSim()
	fwd, err := sim.Run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(fwd.IssueOrder))
	for i, n := range fwd.IssueOrder {
		order[len(order)-1-i] = n
	}
	bcfg := cfg
	bcfg.ForcedOrder = order
	if _, err := sim.Run(rev, bcfg, fwd.Final); err != nil {
		t.Fatal(err)
	}
	// 2 runs/cycle × 4 Result allocs, plus one slack object for the
	// forward-prio cache miss when the graph alternates.
	const budget = 2*4 + 4
	if avg := testing.AllocsPerRun(20, func() {
		fres, err := sim.Run(g, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(rev, bcfg, fres.Final); err != nil {
			t.Fatal(err)
		}
	}); avg > budget {
		t.Errorf("alternating-graph cycle allocates %.1f objects, want <= %d", avg, budget)
	}
}

// TestRunEventLimitSentinel: the engine surfaces the event-queue
// guard as an error matching events.ErrEventLimit.
func TestRunEventLimitSentinel(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	cfg := qsprConfig(f)
	cfg.MaxEvents = 3 // far too few for fig3
	_, err := Run(g, cfg, centerPlacement(f, g.NumQubits))
	if err == nil {
		t.Fatal("event-starved run succeeded")
	}
	if !errors.Is(err, events.ErrEventLimit) {
		t.Errorf("error %v does not match events.ErrEventLimit", err)
	}
}

// TestSimRouteGraphRebuildOnConfigChange: a Sim reused across
// different routing inputs must transparently rebuild its graph and
// match fresh-run results for each configuration.
func TestSimRouteGraphRebuildOnConfigChange(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	aware := qsprConfig(f)
	aware.CollectTrace = true
	blind := aware
	blind.TurnAware = false

	sim := NewSim()
	for round := 0; round < 2; round++ {
		for _, cfg := range []Config{aware, blind} {
			p := centerPlacement(f, g.NumQubits)
			want, err := Run(g, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(g, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqualSansTrace(got, want) {
				t.Errorf("round %d turnaware=%v: rebuilt-graph run diverged", round, cfg.TurnAware)
			}
		}
	}
}

// TestDonatedRunReleasesSim: the one-shot Run hands its pooled trace
// to the Result, but the Result must not keep the Sim alive. Its route
// graph, landmark tables and pooled buffers become collectable as soon
// as the run returns, while the Result and its trace live on.
func TestDonatedRunReleasesSim(t *testing.T) {
	tc := fingerprintCases(t)[0]
	res, sim := donatedRun(t, tc.g, qsprConfig(tc.f), centerPlacement(tc.f, tc.g.NumQubits))
	for i := 0; i < 5 && sim.Value() != nil; i++ {
		runtime.GC()
	}
	if sim.Value() != nil {
		t.Fatal("the Sim of a donated run is still reachable from its Result")
	}
	if res.Trace == nil || len(res.Trace.Ops) == 0 || res.Trace.Latency != res.Latency {
		t.Fatalf("donated trace lost: %+v", res.Trace)
	}
	runtime.KeepAlive(res)
}

// donatedRun maps the way Run does and returns the Result with a weak
// reference to the Sim that produced it.
func donatedRun(t *testing.T, g *qidg.Graph, cfg Config, p Placement) (*Result, weak.Pointer[Sim]) {
	t.Helper()
	s := NewSim()
	s.donateTrace = true
	cfg.CollectTrace = true
	res, err := s.Run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, weak.Make(s)
}
