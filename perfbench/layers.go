package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/place"
	"repro/internal/qasm"
	"repro/internal/qidg"
	"repro/internal/quale"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/swapmap"
	"repro/internal/tableau"
)

// qsprConfig is the engine configuration core uses for every QSPR
// flow (QSPR, QSPR-center, Anneal). The traced run checks it by
// reproducing core.Map's results exactly through it.
func qsprConfig(fab *fabric.Fabric, tech gates.Tech) engine.Config {
	return engine.Config{
		Fabric:       fab,
		Tech:         tech,
		Policy:       sched.QSPR,
		Weights:      sched.DefaultWeights(),
		TurnAware:    true,
		BothMove:     true,
		MedianTarget: true,
	}
}

// breakdown maps prog through the public layer calls core's backends
// make — qidg.Build, then the placer or mapper the heuristic selects,
// with the engine configuration core uses — recording a span around
// each. sim is the warm simulator, nil for core.Map's cold path. The
// result must equal core.Map's for the same inputs.
func breakdown(tr *tracer, sim *engine.Sim, prog *qasm.Program, fab *fabric.Fabric, opts core.Options) (*core.Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	tech := gates.Default()
	sp := tr.begin("qidg.build")
	g, err := qidg.Build(prog)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	res := &core.Result{Heuristic: opts.Heuristic, Ideal: g.CriticalPathLatency(tech)}
	cfg := qsprConfig(fab, tech)
	if opts.Backend == "swap" {
		trials := 1
		if opts.Heuristic != core.QSPRCenter {
			trials = opts.Seeds
		}
		sp := tr.begin("swapmap.map")
		sol, err := swapmap.Map(g, fab, swapmap.Options{Tech: tech, Trials: trials, Seed: opts.Seed, Workers: 1})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tr.count("swapmap.swaps", float64(sol.Result.Stats.Moves))
		res.Mapping, res.Runs = sol.Result, sol.Runs
		res.Latency = res.Mapping.Latency
		return res, nil
	}
	switch opts.Heuristic {
	case core.QSPR:
		sp := tr.begin("place.mvfb")
		sol, err := place.MVFB(g, cfg, place.MVFBOptions{
			Seeds: opts.Seeds, Patience: opts.Patience, MaxRunsPerSeed: 50,
			Seed: opts.Seed, Workers: 1, Sim: sim,
		})
		d := tr.end(sp)
		if err != nil {
			return nil, err
		}
		tr.count("place.runs", float64(sol.Runs))
		tr.count("place.us_per_run", d.Seconds()*1e6/float64(sol.Runs))
		res.Mapping, res.Runs, res.BackwardWinner = sol.Result, sol.Runs, sol.Backward
	case core.QSPRCenter:
		sp := tr.begin("place.center")
		p, err := place.Center(fab, g.NumQubits)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		// core runs the center placement on the warm Sim with capture
		// on, or through engine.Run when it has none.
		ccfg := cfg
		ccfg.CollectTrace = true
		sp = tr.begin("engine.trace")
		var r *engine.Result
		if sim != nil {
			r, err = sim.Run(g, ccfg, p)
		} else {
			r, err = engine.Run(g, cfg, p)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		res.Mapping, res.Runs = r, 1
	case core.Anneal:
		sp := tr.begin("place.anneal")
		sol, err := place.Anneal(g, cfg, place.AnnealOptions{
			Moves: opts.AnnealMoves, Restarts: opts.AnnealRestarts,
			Seed: opts.Seed, Cooling: opts.AnnealCooling, Workers: 1, Sim: sim,
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tr.count("place.anneal_runs", float64(sol.Runs))
		res.Mapping, res.Runs = sol.Result, sol.Runs
	case core.QUALE:
		sp := tr.begin("quale.map")
		r, err := quale.Map(g, fab)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		res.Mapping, res.Runs = r, 1
	default:
		return nil, fmt.Errorf("perfbench: no layer breakdown for heuristic %s", opts.Heuristic)
	}
	res.Latency = res.Mapping.Latency
	return res, nil
}

// sameMapping reports how got differs from core.Map's result want, in
// the fields the traced run must reproduce: latency, Stats and Runs.
func sameMapping(got, want *core.Result) error {
	switch {
	case got.Latency != want.Latency:
		return fmt.Errorf("latency %v, core.Map %v", got.Latency, want.Latency)
	case got.Mapping.Stats != want.Mapping.Stats:
		return fmt.Errorf("stats %+v, core.Map %+v", got.Mapping.Stats, want.Mapping.Stats)
	case got.Runs != want.Runs:
		return fmt.Errorf("runs %d, core.Map %d", got.Runs, want.Runs)
	}
	return nil
}

// sameResult compares two results of one mapping field by field,
// trace included.
func sameResult(got, want *core.Result) error {
	if err := sameMapping(got, want); err != nil {
		return err
	}
	switch {
	case got.Ideal != want.Ideal || got.BackwardWinner != want.BackwardWinner:
		return fmt.Errorf("ideal/backward %v/%v, want %v/%v", got.Ideal, got.BackwardWinner, want.Ideal, want.BackwardWinner)
	case !reflect.DeepEqual(got.Mapping.Initial, want.Mapping.Initial):
		return fmt.Errorf("initial placement differs")
	case !reflect.DeepEqual(got.Mapping.Trace, want.Mapping.Trace):
		return fmt.Errorf("trace differs")
	}
	return nil
}

// oracle checks one ion mapping independently of the mapper: the
// mapped trace must compute the program's quantum state on the
// stabilizer tableau, must not overlap any qubit's micro-commands,
// and its latency cannot beat the gate-delay critical path.
func oracle(prog *qasm.Program, res *core.Result) error {
	tr := res.Mapping.Trace
	if tr == nil {
		return fmt.Errorf("oracle: no trace")
	}
	if res.Latency < res.Ideal {
		return fmt.Errorf("oracle: latency %v below ideal %v", res.Latency, res.Ideal)
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	want := tableau.New(prog.NumQubits(), 1)
	if err := tableau.RunProgram(want, prog); err != nil {
		return fmt.Errorf("oracle: program: %w", err)
	}
	got := tableau.New(prog.NumQubits(), 1)
	if err := tableau.InitFromProgram(got, prog); err != nil {
		return fmt.Errorf("oracle: init: %w", err)
	}
	if err := tableau.RunTrace(got, tr); err != nil {
		return fmt.Errorf("oracle: trace replay: %w", err)
	}
	if !tableau.Equal(want, got) {
		return fmt.Errorf("oracle: mapped trace computes a different state")
	}
	return nil
}

// probeEngine times the engine layer on a QSPR-family winner: a
// traceless run of the winning placement, a recorded run for the
// event count, a fork replaying a seeded one-swap delta, and the run
// again with capture on, whose trace then feeds the trace and noise
// layers.
func probeEngine(tr *tracer, sim *engine.Sim, prog *qasm.Program, fab *fabric.Fabric, init engine.Placement, rng *rand.Rand) error {
	g, err := qidg.Build(prog)
	if err != nil {
		return err
	}
	cfg := qsprConfig(fab, gates.Default())
	sp := tr.begin("engine.run")
	r, err := sim.Run(g, cfg, init)
	d := tr.end(sp)
	if err != nil {
		return err
	}
	tr.count("engine.blocked", float64(r.Stats.Blocked))
	var log engine.CheckpointLog
	sp = tr.begin("engine.record")
	_, err = sim.RunRecorded(g, cfg, init, &log)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.count("engine.events", float64(log.Events()))
	tr.count("engine.ns_per_event", float64(d.Nanoseconds())/float64(log.Events()))
	// Swap two qubits resting in different traps. A delta must not
	// carry a move to the qubit's own trap: RunFrom refuses one whose
	// qubit moved before the fork point.
	var others []int
	a := rng.Intn(len(init))
	for q, t := range init {
		if t != init[a] {
			others = append(others, q)
		}
	}
	if len(others) > 0 {
		b := others[rng.Intn(len(others))]
		delta := engine.Delta{{Qubit: a, To: init[b]}, {Qubit: b, To: init[a]}}
		log.ResetProfile()
		cp := log.Before(delta)
		sp = tr.begin("engine.fork")
		_, err = sim.RunFrom(cp, delta)
		tr.end(sp)
		if err != nil {
			return err
		}
		replayed, total := log.Profile()
		tr.count("engine.replayed_frac", float64(replayed)/float64(total))
	}
	ccfg := cfg
	ccfg.CollectTrace = true
	sp = tr.begin("engine.trace")
	r, err = sim.Run(g, ccfg, init)
	tr.end(sp)
	if err != nil {
		return err
	}
	return probeTrace(tr, r, prog.NumQubits())
}

// probeTrace times trace rendering and noise scoring on a captured
// trace.
func probeTrace(tr *tracer, r *engine.Result, numQubits int) error {
	tr.count("trace.ops", float64(len(r.Trace.Ops)))
	sp := tr.begin("trace.json")
	_, err := json.Marshal(r.Trace)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("noise.pfail")
	_, err = noise.PFail(r.Trace, numQubits, noise.DefaultParams())
	tr.end(sp)
	return err
}

// probeInputs times the input layers on a workload's circuit specs and
// programs: registry resolution and QASM parsing of each program's
// text form.
func probeInputs(tr *tracer, specs []string, texts []string) error {
	for _, s := range specs {
		sp := tr.begin("circuits.resolve")
		_, err := circuits.Resolve(s)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for _, text := range texts {
		sp := tr.begin("qasm.parse")
		_, err := qasm.ParseString(text)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// qasmText renders a program in its text form.
func qasmText(p *qasm.Program) (string, error) {
	var b bytes.Buffer
	if err := qasm.Write(&b, p); err != nil {
		return "", err
	}
	return b.String(), nil
}

// probeFabric times the routing layer and the swap backend's coupling
// build on one fabric: a route graph built the way the engine builds
// it, then FindRoute over a seeded sample of trap pairs on the idle
// graph, each pair asked twice (the repeat is served by the route
// cache).
func probeFabric(tr *tracer, fab *fabric.Fabric, rng *rand.Rand) error {
	cfg := qsprConfig(fab, gates.Default())
	sp := tr.begin("routegraph.build")
	rg := cfg.BuildRouteGraph()
	tr.end(sp)
	n := len(fab.Traps)
	for k := 0; k < 32; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		sp = tr.begin("routegraph.route")
		_, ok := rg.FindRoute(a, b)
		tr.end(sp)
		sp = tr.begin("routegraph.route_hit")
		_, ok2 := rg.FindRoute(a, b)
		tr.end(sp)
		if ok != ok2 {
			return fmt.Errorf("routegraph: repeat query %d→%d disagrees with the first", a, b)
		}
	}
	sp = tr.begin("swapmap.couple")
	_, err := swapmap.Couple(fab)
	tr.end(sp)
	return err
}

// probeRender times the sweep report renderers on a report.
func probeRender(tr *tracer, rep *experiment.Report) error {
	sp := tr.begin("experiment.render")
	err := rep.WriteJSON(io.Discard)
	if err == nil {
		err = rep.WriteMarkdown(io.Discard)
	}
	tr.end(sp)
	return err
}

// probeServe sends a circuit to a fresh in-process qsprd three times —
// a miss, a raw-tier hit and an alternately spelled canonical-tier hit
// — and renders the same report from a direct core.Map, which the miss
// body must equal.
func probeServe(tr *tracer, spec string, heuristic string) error {
	srv := serve.New(serve.Config{Workers: 1})
	h := srv.Handler()
	rq := serve.Request{Circuit: spec, Fabric: "quale45x85", Heuristic: heuristic, M: 2}
	alt := rq
	alt.Fabric = "QUALE45x85"
	var first []byte
	for _, c := range []struct {
		name string
		rq   serve.Request
		hit  bool
	}{{"serve.miss", rq, false}, {"serve.hit", rq, true}, {"serve.canon_hit", alt, true}} {
		body, err := json.Marshal(c.rq)
		if err != nil {
			return err
		}
		got, err := serveOnce(tr, h, c.name, body, c.hit)
		if err != nil {
			return err
		}
		tr.count("serve.hit_frac", b2f(c.hit))
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			return fmt.Errorf("serve: %s body differs from the miss", c.name)
		}
	}
	b, err := circuits.Resolve(spec)
	if err != nil {
		return err
	}
	fab, _ := srv.Fabric("quale45x85")
	hh, err := experiment.ParseHeuristic(heuristic)
	if err != nil {
		return err
	}
	opts := core.Options{Heuristic: hh, Seeds: 2}
	res, err := core.Map(b.Program, fab, opts)
	if err != nil {
		return err
	}
	want, err := renderReport(tr, b.Name, "quale45x85", opts, res, false, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, first) {
		return fmt.Errorf("serve: miss body differs from the report of a direct core.Map")
	}
	return nil
}

// renderReport builds a qsprd report the way the service does and
// times it as the serve.render layer.
func renderReport(tr *tracer, circuit, fabName string, opts core.Options, res *core.Result, withTrace bool, np *noise.Params) ([]byte, error) {
	sp := tr.begin("serve.render")
	rep, err := serve.NewReport(circuit, fabName, opts, res, withTrace, np)
	var body []byte
	if err == nil {
		body, err = rep.MarshalBytes()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.count("serve.body_kb", float64(len(body))/1024)
	return body, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
