package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// bench is one workload instance, generated from a seed.
type bench interface {
	// labels names every op of one pass, in order: the op list.
	labels() []string
	// setup resolves fabrics and circuits, builds the warm mapper or
	// server, and runs one untimed warm-up op. It is timed as setup_s
	// and may run several times; the last call's state is used.
	setup() error
	// prepare computes each op's reference output — a direct
	// core.Map — and checks it with the oracle. Not part of setup_s:
	// it is the benchmark's own checking work.
	prepare() error
	// startPass runs before each pass over the op list.
	startPass()
	// run executes op i and keeps its output for verify.
	run(i int) error
	// verify checks op i's kept output against its reference.
	verify(i int) error
	// simLatencyUS is the simulated latency of op i's reference.
	simLatencyUS(i int) float64
	// traced executes op i broken into its layer calls under tr and
	// checks the pieces reproduce the reference.
	traced(i int, tr *tracer) error
	// probe times the layers the traced ops do not reach, on this
	// workload's inputs. k counts the calls, so probes can rotate
	// through the op list.
	probe(tr *tracer, k int) error
}

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 7

// outcome is everything one run measured.
type outcome struct {
	setup      []float64 // CPU seconds per set-up
	passWall   []float64 // seconds per pass
	passCPU    time.Duration
	passAlloc  uint64
	opMS       [][]float64 // CPU milliseconds per op, per pass
	attempted  int
	failed     int
	firstErr   error
	simLatency float64 // geometric mean over one pass, µs
	peakRSSMB  float64
	tracer     *tracer   // traced runs only
	tracedWall []float64 // seconds per traced pass
}

// measure runs one workload: set-up, reference preparation, then
// whole passes over the op list until the time is used. With trace
// set, untraced and traced passes alternate and probes follow each
// traced pass.
func measure(b bench, seconds time.Duration, trace bool, log io.Writer) (*outcome, error) {
	out := &outcome{}
	for k := 0; k < setupRepeats; k++ {
		c0 := cpuTime()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setup = append(out.setup, (cpuTime() - c0).Seconds())
	}
	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	n := len(b.labels())
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = b.simLatencyUS(i)
	}
	out.simLatency = geomean(lat)
	if trace {
		out.tracer = newTracer()
	}

	deadline := time.Now().Add(seconds)
	for pass := 0; ; pass++ {
		out.untracedPass(b, n)
		if trace {
			out.tracedPass(b, n, pass)
		}
		// At least three passes, so every median has a middle.
		if pass >= 2 && time.Now().After(deadline) {
			break
		}
	}
	if out.firstErr != nil {
		fmt.Fprintf(log, "perfbench: first failure: %v\n", out.firstErr)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.peakRSSMB = rss
	return out, nil
}

// untracedPass times one pass over the op list, then verifies every
// output outside the timed region.
func (out *outcome) untracedPass(b bench, n int) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	b.startPass()
	errs := make([]error, n)
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		c0 := cpuTime()
		errs[i] = b.run(i)
		times[i] = float64((cpuTime() - c0).Nanoseconds()) / 1e6
	}
	out.passWall = append(out.passWall, time.Since(start).Seconds())
	out.opMS = append(out.opMS, times)
	out.passCPU += cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	out.passAlloc += ms1.TotalAlloc - ms0.TotalAlloc
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			errs[i] = b.verify(i)
		}
		out.note(errs[i])
	}
}

// tracedPass runs every op broken into its layer calls, then the
// probes, which stay outside the traced pass's wall time.
func (out *outcome) tracedPass(b bench, n int, pass int) {
	tr := out.tracer
	start := time.Now()
	b.startPass()
	for i := 0; i < n; i++ {
		tr.setOp(i)
		sp := tr.begin("op")
		err := b.traced(i, tr)
		tr.end(sp)
		out.note(err)
	}
	out.tracedWall = append(out.tracedWall, time.Since(start).Seconds())
	tr.setOp(-1)
	sp := tr.begin("probe")
	err := b.probe(tr, pass)
	tr.end(sp)
	if err != nil {
		err = fmt.Errorf("probe: %w", err)
	}
	// The probes check what they run (reports, breakdowns, served
	// bytes), so a probe call counts as one more checked op.
	out.note(err)
}

func (out *outcome) note(err error) {
	out.attempted++
	if err != nil {
		out.failed++
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics of an untraced run.
// op_p50_ms is the median over the op list of each op's median over
// the passes: the plain median of all samples would sit on the border
// between two ops' clusters and flip between them. op_tail_ms is
// percentile tailPermille of all samples.
func (out *outcome) endToEnd(tailPermille int) (map[string]metric, tail) {
	passes := float64(len(out.passWall))
	var all []float64
	perOp := make([]float64, len(out.opMS[0]))
	for i := range perOp {
		xs := make([]float64, len(out.opMS))
		for p, times := range out.opMS {
			xs[p] = times[i]
		}
		perOp[i] = median(xs)
	}
	for _, times := range out.opMS {
		all = append(all, times...)
	}
	t := tailOf(all, tailPermille)
	ok := float64(out.attempted-out.failed) / float64(out.attempted)
	return map[string]metric{
		"setup_s":                {median(out.setup), "s"},
		"wall_s":                 {median(out.passWall), "s"},
		"cpu_s":                  {out.passCPU.Seconds() / passes, "s"},
		"op_p50_ms":              {median(perOp), "ms"},
		"op_tail_ms":             {t.value, "ms"},
		"alloc_mb":               {float64(out.passAlloc) / passes / (1 << 20), "MB"},
		"peak_rss_mb":            {out.peakRSSMB, "MB"},
		"sim_latency_geomean_us": {out.simLatency, "us"},
		"ok_frac":                {ok, "frac"},
	}, t
}

// perLayer derives the per-layer metrics of a traced run: the median
// per call of every span and counter, the serve hit fraction over all
// requests, and the tracing overhead.
func (out *outcome) perLayer() map[string]metric {
	tr := out.tracer
	m := make(map[string]metric)
	for _, l := range layerMetrics {
		var v float64
		switch {
		case l.span != "":
			ds := tr.durations(l.span)
			xs := make([]float64, len(ds))
			for i, d := range ds {
				xs[i] = float64(d.Nanoseconds()) / l.scale
			}
			v = median(xs)
		case l.name == "serve.hit_frac":
			v = mean(tr.counts[l.name])
		default:
			v = median(tr.counts[l.name])
		}
		m[l.name] = metric{v, l.unit}
	}
	m["bench.trace_overhead_s"] = metric{median(out.tracedWall) - median(out.passWall), "s"}
	return m
}

// layerMetric defines one per-layer metric: the median duration of a
// span, in units of scale nanoseconds, or the median of a counter.
type layerMetric struct {
	name  string
	unit  string
	span  string
	scale float64
}

const (
	us = 1e3
	ms = 1e6
)

// layerMetrics lists every per-layer metric in BENCHMARK.json order,
// bench.trace_overhead_s excepted (perLayer adds it).
var layerMetrics = []layerMetric{
	{"circuits.resolve_ms", "ms", "circuits.resolve", ms},
	{"qasm.parse_us", "us", "qasm.parse", us},
	{"qidg.build_us", "us", "qidg.build", us},
	{"place.mvfb_ms", "ms", "place.mvfb", ms},
	{"place.runs", "count", "", 0},
	{"place.us_per_run", "us", "", 0},
	{"place.anneal_ms", "ms", "place.anneal", ms},
	{"place.anneal_runs", "count", "", 0},
	{"place.center_us", "us", "place.center", us},
	{"quale.map_ms", "ms", "quale.map", ms},
	{"engine.run_ms", "ms", "engine.run", ms},
	{"engine.events", "count", "", 0},
	{"engine.ns_per_event", "ns", "", 0},
	{"engine.blocked", "count", "", 0},
	{"engine.fork_us", "us", "engine.fork", us},
	{"engine.replayed_frac", "frac", "", 0},
	{"engine.trace_ms", "ms", "engine.trace", ms},
	{"routegraph.build_ms", "ms", "routegraph.build", ms},
	{"routegraph.route_us", "us", "routegraph.route", us},
	{"routegraph.route_hit_us", "us", "routegraph.route_hit", us},
	{"swapmap.couple_ms", "ms", "swapmap.couple", ms},
	{"swapmap.map_ms", "ms", "swapmap.map", ms},
	{"swapmap.swaps", "count", "", 0},
	{"trace.json_us", "us", "trace.json", us},
	{"trace.ops", "count", "", 0},
	{"noise.pfail_us", "us", "noise.pfail", us},
	{"experiment.render_ms", "ms", "experiment.render", ms},
	{"serve.hit_us", "us", "serve.hit", us},
	{"serve.canon_hit_us", "us", "serve.canon_hit", us},
	{"serve.miss_ms", "ms", "serve.miss", ms},
	{"serve.render_us", "us", "serve.render", us},
	{"serve.body_kb", "KB", "", 0},
	{"serve.hit_frac", "frac", "", 0},
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
