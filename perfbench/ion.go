package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
)

// ionBench maps a seeded list of (circuit spec, options) ops onto one
// fabric. With sweep set, each op is one cell of a qsprbench sweep run
// through experiment.Execute with one worker, the path
// `qsprbench -parallel 1` takes; otherwise each op is a Map call on one
// warm core.Mapper.
type ionBench struct {
	fabSpec string
	specs   []string
	opts    []core.Options
	sweep   bool
	seed    int64 // probe stream seed

	// set up
	fc     experiment.FabricChoice
	bms    []circuits.Benchmark
	mapper *core.Mapper
	spec   experiment.Spec // sweep mode: run index i is op i

	// checking
	refs  []*core.Result
	texts []string // distinct programs in text form, for qasm.parse
	outs  []*core.Result
	mets  []*experiment.Metrics

	// traced runs
	sim *engine.Sim
	rng *rand.Rand
}

func (b *ionBench) labels() []string {
	out := make([]string, len(b.specs))
	for i, s := range b.specs {
		o := b.opts[i]
		out[i] = fmt.Sprintf("%s on %s: %s m=%d seed=%d moves=%d restarts=%d", s, b.fabSpec,
			o.Heuristic, o.Seeds, o.Seed, o.AnnealMoves, o.AnnealRestarts)
	}
	return out
}

// warmupCircuit is the warm-up op's circuit: the same small encoder
// for every seed, so set-up time does not depend on the op list.
const warmupCircuit = "[[5,1,3]]"

func (b *ionBench) setup() error {
	fc, err := experiment.LoadFabric(b.fabSpec)
	if err != nil {
		return err
	}
	b.fc = fc
	b.bms = make([]circuits.Benchmark, len(b.specs))
	for i, s := range b.specs {
		if b.bms[i], err = circuits.Resolve(s); err != nil {
			return err
		}
		if q := b.bms[i].Program.NumQubits(); q > len(fc.Fabric.Traps) {
			return fmt.Errorf("%s: %d qubits exceed the %d traps of %s", s, q, len(fc.Fabric.Traps), fc.Name)
		}
	}
	warm, err := circuits.Resolve(warmupCircuit)
	if err != nil {
		return err
	}
	b.outs = make([]*core.Result, len(b.specs))
	b.mets = make([]*experiment.Metrics, len(b.specs))
	// The warm-up op maps the warm-up circuit the way the last op
	// does, under the default seed so that its work is the same for
	// every workload seed. It builds the route graph (and its ALT
	// landmarks on a large fabric).
	wopts := b.opts[len(b.opts)-1]
	wopts.Seed = 1
	if b.sweep {
		if err := b.buildSpec(); err != nil {
			return err
		}
		spec := b.spec
		spec.Circuits, spec.Heuristics, spec.Seed = []circuits.Benchmark{warm}, []core.Heuristic{wopts.Heuristic}, wopts.Seed
		_, err = experiment.Execute(context.Background(), spec, experiment.Options{Workers: 1})
		return err
	}
	b.mapper = core.NewMapper()
	_, err = b.mapper.Map(warm.Program, fc.Fabric, wopts)
	return err
}

// buildSpec lays the ops out as one sweep whose run index i is op i:
// circuits (outer) × heuristics (inner), one seed.
func (b *ionBench) buildSpec() error {
	var hs []core.Heuristic
	seen := map[core.Heuristic]bool{}
	for _, o := range b.opts {
		if !seen[o.Heuristic] {
			seen[o.Heuristic] = true
			hs = append(hs, o.Heuristic)
		}
	}
	var bms []circuits.Benchmark
	for i := 0; i < len(b.bms); i += len(hs) {
		bms = append(bms, b.bms[i])
	}
	b.spec = experiment.Spec{
		Circuits: bms, Fabrics: []experiment.FabricChoice{b.fc}, Heuristics: hs,
		SeedCounts: []int{b.opts[0].Seeds}, Seed: b.opts[0].Seed, InnerParallel: 1,
	}
	runs, err := b.spec.Runs()
	if err != nil {
		return err
	}
	if len(runs) != len(b.specs) {
		return fmt.Errorf("sweep has %d runs for %d ops", len(runs), len(b.specs))
	}
	for i, r := range runs {
		if r.Circuit.Name != b.bms[i].Name || r.Heuristic != b.opts[i].Heuristic || r.Seed != b.opts[i].Seed {
			return fmt.Errorf("sweep run %d is %s/%s, op is %s/%s", i, r.Circuit.Name, r.Heuristic, b.bms[i].Name, b.opts[i].Heuristic)
		}
	}
	return nil
}

func (b *ionBench) prepare() error {
	b.refs = make([]*core.Result, len(b.specs))
	seen := map[string]bool{}
	b.texts = nil
	for i, bm := range b.bms {
		res, err := core.Map(bm.Program, b.fc.Fabric, b.opts[i])
		if err != nil {
			return fmt.Errorf("%s: %w", b.labels()[i], err)
		}
		if err := oracle(bm.Program, res); err != nil {
			return fmt.Errorf("%s: %w", b.labels()[i], err)
		}
		b.refs[i] = res
		if !seen[bm.Name] {
			seen[bm.Name] = true
			text, err := qasmText(bm.Program)
			if err != nil {
				return err
			}
			b.texts = append(b.texts, text)
		}
	}
	b.sim = engine.NewSim()
	b.rng = rand.New(rand.NewSource(b.seed))
	return nil
}

func (b *ionBench) startPass() {}

func (b *ionBench) run(i int) error {
	if b.sweep {
		rep, err := experiment.Execute(context.Background(), b.spec, experiment.Options{Workers: 1, Indices: []int{i}})
		if err != nil {
			return err
		}
		if len(rep.Results) != 1 || rep.Results[0].Err != "" {
			return fmt.Errorf("%s: sweep cell failed: %+v", b.labels()[i], rep.Results)
		}
		b.mets[i] = rep.Results[0].Metrics
		return nil
	}
	res, err := b.mapper.Map(b.bms[i].Program, b.fc.Fabric, b.opts[i])
	b.outs[i] = res
	return err
}

func (b *ionBench) verify(i int) error {
	if b.sweep {
		if !reflect.DeepEqual(b.mets[i], experiment.MetricsFrom(b.refs[i])) {
			return fmt.Errorf("%s: sweep metrics differ from core.Map", b.labels()[i])
		}
		return nil
	}
	if err := sameResult(b.outs[i], b.refs[i]); err != nil {
		return fmt.Errorf("%s: warm Mapper vs core.Map: %w", b.labels()[i], err)
	}
	return nil
}

func (b *ionBench) simLatencyUS(i int) float64 { return float64(b.refs[i].Latency) }

func (b *ionBench) traced(i int, tr *tracer) error {
	// The sweep maps every cell cold, as core.Map does; the other ops
	// run on one warm Mapper.
	sim := b.sim
	if b.sweep {
		sim = nil
	}
	res, err := breakdown(tr, sim, b.bms[i].Program, b.fc.Fabric, b.opts[i])
	if err != nil {
		return fmt.Errorf("%s: %w", b.labels()[i], err)
	}
	if err := sameMapping(res, b.refs[i]); err != nil {
		return fmt.Errorf("%s: layer breakdown vs core.Map: %w", b.labels()[i], err)
	}
	return nil
}

// engineProbesPerCall bounds the engine probes per probe call; the
// calls rotate through the op list.
const engineProbesPerCall = 4

func (b *ionBench) probe(tr *tracer, k int) error {
	if err := probeInputs(tr, b.specs, b.texts); err != nil {
		return err
	}
	if err := probeFabric(tr, b.fc.Fabric, b.rng); err != nil {
		return err
	}
	var qspr []int
	for i, o := range b.opts {
		if o.Heuristic != core.QUALE {
			qspr = append(qspr, i)
		}
	}
	for j := 0; j < engineProbesPerCall && j < len(qspr); j++ {
		i := qspr[(k*engineProbesPerCall+j)%len(qspr)]
		if err := probeEngine(tr, b.sim, b.bms[i].Program, b.fc.Fabric, b.refs[i].Mapping.Initial, b.rng); err != nil {
			return fmt.Errorf("%s: engine probe: %w", b.labels()[i], err)
		}
	}
	if err := probeRender(tr, b.report()); err != nil {
		return err
	}
	// The layers this workload's ops do not call, probed on its
	// smallest circuit so they stay cheap.
	small := b.smallest()
	prog := b.bms[small].Program
	has := map[core.Heuristic]bool{}
	for _, o := range b.opts {
		has[o.Heuristic] = true
	}
	probes := []core.Options{{Heuristic: core.QSPRCenter, Backend: "swap"}}
	if !has[core.QSPR] {
		probes = append(probes, core.Options{Heuristic: core.QSPR, Seeds: 1, Seed: b.opts[small].Seed})
	}
	if !has[core.QSPRCenter] {
		probes = append(probes, core.Options{Heuristic: core.QSPRCenter})
	}
	if !has[core.Anneal] {
		probes = append(probes, core.Options{Heuristic: core.Anneal, AnnealMoves: 6, AnnealRestarts: 1, Seed: b.opts[small].Seed})
	}
	if !has[core.QUALE] {
		probes = append(probes, core.Options{Heuristic: core.QUALE})
	}
	for _, o := range probes {
		res, err := breakdown(tr, b.sim, prog, b.fc.Fabric, o)
		if err != nil {
			return fmt.Errorf("%s probe on %s: %w", o.Heuristic, b.specs[small], err)
		}
		if o.Backend == "swap" {
			if err := probeTrace(tr, res.Mapping, prog.NumQubits()); err != nil {
				return err
			}
		}
	}
	return probeServe(tr, b.specs[small], "qspr-center")
}

// smallest returns the op whose circuit has the fewest instructions.
func (b *ionBench) smallest() int {
	best := 0
	for i, bm := range b.bms {
		if len(bm.Program.Instrs) < len(b.bms[best].Program.Instrs) {
			best = i
		}
	}
	return best
}

// report assembles the reference results as a sweep report.
func (b *ionBench) report() *experiment.Report {
	rep := &experiment.Report{}
	for i, res := range b.refs {
		rep.Results = append(rep.Results, experiment.RunResult{
			Run: experiment.Run{
				Index: i, Circuit: b.bms[i], Fabric: b.fc, Heuristic: b.opts[i].Heuristic,
				Seeds: b.opts[i].Seeds, Seed: b.opts[i].Seed,
				AnnealMoves: b.opts[i].AnnealMoves, AnnealRestarts: b.opts[i].AnnealRestarts,
			},
			Metrics: experiment.MetricsFrom(res),
		})
	}
	return rep
}

var _ bench = (*ionBench)(nil)
