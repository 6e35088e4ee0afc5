package repro

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qidg"
	"repro/internal/routegraph"
	"repro/internal/sched"
)

// TestRouteWorkCounts pins the routing work of one Table-2 cell,
// [[23,1,7]] under QSPR (MVFB, m=3, seed 1) on the 45×85 fabric: the
// searches, route-cache hits, failed queries, settled nodes and tie
// coins its route graph accumulates. The counts are exact and do not
// depend on the machine, so a change that makes routing do more work
// fails here even when timings are too noisy to show it. A change that
// lowers them on purpose updates the want value; the golden check ties
// the counts to the pinned Table-2 result.
func TestRouteWorkCounts(t *testing.T) {
	const name = "[[23,1,7]]"
	b, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(b.Program)
	if err != nil {
		t.Fatal(err)
	}
	// core's QSPR configuration, with the route graph supplied so its
	// counters can be read after the search.
	cfg := engine.Config{
		Fabric: fabric.Quale4585(), Tech: gates.Default(),
		Policy: sched.QSPR, Weights: sched.DefaultWeights(),
		TurnAware: true, BothMove: true, MedianTarget: true,
	}
	cfg.RouteGraph = cfg.BuildRouteGraph()
	sol, err := place.MVFB(g, cfg, place.MVFBOptions{Seeds: 3, Patience: 3, MaxRunsPerSeed: 50, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden := table2Goldens[name]
	if st := sol.Result.Stats; sol.Result.Latency != golden.qspr || st.Moves != golden.qsprMoves || st.Turns != golden.qsprTurns {
		t.Fatalf("latency %v moves %d turns %d, want golden %v / %d / %d",
			sol.Result.Latency, st.Moves, st.Turns, golden.qspr, golden.qsprMoves, golden.qsprTurns)
	}
	want := routegraph.Work{Searches: 2098, CacheHits: 73, Failures: 904, Settled: 472758, Coins: 150403}
	if got := cfg.RouteGraph.Work(); got != want {
		t.Errorf("route work %+v, want %+v", got, want)
	}
}

// TestRouteWorkCountsALT pins the routing work of one QSPR-center
// mapping on a 101×101 generated grid, whose route graph is past the
// node count where routing switches to ALT, next to its latency. ALT
// answers a query whose source or destination channel is full without
// a search, so none of the 64 failed queries here costs a search.
func TestRouteWorkCountsALT(t *testing.T) {
	fab, _, err := fabric.Resolve("grid(rows=101,cols=101)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := circuits.Resolve("rand(q=20,g=150,seed=1)")
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(b.Program)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Fabric: fab, Tech: gates.Default(),
		Policy: sched.QSPR, Weights: sched.DefaultWeights(),
		TurnAware: true, BothMove: true, MedianTarget: true,
	}
	cfg.RouteGraph = cfg.BuildRouteGraph()
	if !cfg.RouteGraph.ALTEnabled() {
		t.Fatal("the 101×101 grid should route with ALT")
	}
	p, err := place.Center(fab, g.NumQubits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 4338 {
		t.Fatalf("latency %v, want 4338µs", res.Latency)
	}
	want := routegraph.Work{Searches: 121, CacheHits: 0, Failures: 64}
	if got := cfg.RouteGraph.Work(); got != want {
		t.Errorf("route work %+v, want %+v", got, want)
	}
}
