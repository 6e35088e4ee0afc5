package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// workload is one named input set; gen builds its op list from the
// workload seed.
type workload struct {
	name string
	gen  func(seed int64) (bench, error)
	// tailPermille is the op_tail_ms percentile in tenths of a percent:
	// the highest of tailLadder that leaves at least ten samples beyond
	// it in the shortest run the workload is sized for (the ops of one
	// pass times the passes a 15-second run holds on a slow host), and
	// that falls inside one op's cluster of samples rather than on the
	// border between two.
	tailPermille int
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
// README.md records why each was chosen.
var workloads = []workload{
	{"paper_table2", genPaperTable2, 900}, // 12 ops × ≥9 passes: 10 beyond p90
	{"grid_scale", genGridScale, 950},     // 64 ops × ≥8 passes: 25 beyond p95
	{"anneal_fork", genAnnealFork, 950},   // 24 ops × ≥15 passes: 18 beyond p95
	{"serve_mix", genServeMix, 990},       // 2000 requests × ≥15 passes: 300 beyond p99
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mapSeed draws a mapping seed: core rejects negative seeds and
// coerces 0 to 1, so draws stay in [1, 2^31).
func mapSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<31-1) }

// paperCircuits are the six QECC encoders of the paper's Table 2.
var paperCircuits = []string{"[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]", "[[14,8,3]]", "[[19,1,7]]", "[[23,1,7]]"}

// genPaperTable2 is Table 2: every encoder under QUALE and under QSPR
// with m=25 on the 45×85 fabric, one sweep cell per op. The seed picks
// the sweep's MVFB permutation seed.
func genPaperTable2(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	s := mapSeed(rng)
	b := &ionBench{fabSpec: "quale45x85", sweep: true, seed: seed}
	for _, c := range paperCircuits {
		for _, h := range []core.Heuristic{core.QUALE, core.QSPR} {
			b.specs = append(b.specs, c)
			b.opts = append(b.opts, core.Options{Heuristic: h, Seeds: 25, Seed: s, InnerParallel: 1})
		}
	}
	return b, nil
}

// gridOps is the size of one grid_scale pass.
const gridOps = 64

// genGridScale maps seeded random Clifford circuits, with every eighth
// op a brickwork circuit, with QSPR-center on a 101×101 generated grid
// (2,602 route-graph nodes, past the 2,048-node threshold where
// routing switches to ALT). Circuit sizes are fixed so that the seed
// changes which circuits run, not how large they are.
func genGridScale(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &ionBench{fabSpec: "grid(rows=101,cols=101)", seed: seed}
	for k := 0; k < gridOps; k++ {
		spec := fmt.Sprintf("rand(q=20,g=150,seed=%d)", mapSeed(rng))
		if k%8 == 7 {
			spec = fmt.Sprintf("brickwork(q=%d,layers=3)", 16+k/8)
		}
		b.specs = append(b.specs, spec)
		b.opts = append(b.opts, core.Options{Heuristic: core.QSPRCenter, InnerParallel: 1})
	}
	return b, nil
}

// annealCircuits are the encoders anneal_fork anneals; each appears
// annealRepeats times per pass with its own seed.
var annealCircuits = []string{"[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]", "[[14,8,3]]"}

const annealRepeats = 6

// genAnnealFork runs the annealing placer with a small move budget,
// two restart chains and one worker on a warm Mapper.
func genAnnealFork(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &ionBench{fabSpec: "quale45x85", seed: seed}
	for r := 0; r < annealRepeats; r++ {
		for _, c := range annealCircuits {
			b.specs = append(b.specs, c)
			b.opts = append(b.opts, core.Options{
				Heuristic: core.Anneal, AnnealMoves: 24, AnnealRestarts: 2,
				Seed: mapSeed(rng), InnerParallel: 1,
			})
		}
	}
	return b, nil
}
