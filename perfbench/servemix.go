package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/qasmgen"
	"repro/internal/serve"
)

// serveKeys is the number of distinct requests in one serve_mix pass;
// the stream is serveRepeat times as long, so 90% of requests repeat a
// key already answered.
const (
	serveKeys   = 200
	serveRepeat = 10
)

// serveKey is one distinct request identity.
type serveKey struct {
	rq  serve.Request
	alt serve.Request // another spelling of rq with the same canonical identity
	// filled by prepare
	prog    *qasm.Program
	circuit string
	opts    core.Options
	ref     *core.Result
	body    []byte // the report of a direct core.Map
	latency float64
}

// serveOp is one request of the stream.
type serveOp struct {
	key    int
	body   []byte // request JSON
	expect string // "serve.miss", "serve.hit" or "serve.canon_hit"
}

// serveBench drives an in-process qsprd handler from one closed-loop
// client: no sockets, one request at a time. Each pass restarts the
// service, so every key misses exactly once per pass.
type serveBench struct {
	keys []serveKey
	ops  []serveOp
	seed int64

	srv     *serve.Server
	handler http.Handler
	codes   []int
	caches  []string
	bodies  [][]byte

	texts []string
	sim   *engine.Sim
	rng   *rand.Rand
}

// genServeMix builds the seeded key set and request stream.
func genServeMix(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &serveBench{seed: seed}
	seen := map[string]bool{}
	for len(b.keys) < serveKeys {
		k, err := genKey(rng, keyShapes[len(b.keys)%len(keyShapes)])
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(k.rq)
		if err != nil {
			return nil, err
		}
		if seen[string(raw)] {
			continue
		}
		seen[string(raw)] = true
		b.keys = append(b.keys, k)
	}
	// Each key is first sent once (a miss); the remaining positions
	// repeat keys already sent, skewed toward the earliest, and one in
	// ten repeats uses the key's alternate spelling (the first such is
	// a canonical-tier hit, later ones raw-tier hits).
	n := serveKeys * serveRepeat
	sent := 0
	altSent := make([]bool, serveKeys)
	for pos := 0; pos < n; pos++ {
		op := serveOp{expect: "serve.hit"}
		var rq serve.Request
		if left := serveKeys - sent; sent == 0 || (left > 0 && rng.Intn(n-pos) < left) {
			op.key, op.expect = sent, "serve.miss"
			rq = b.keys[sent].rq
			sent++
		} else {
			if sent > 1 {
				op.key = int(rand.NewZipf(rng, 1.2, 2, uint64(sent-1)).Uint64())
			}
			rq = b.keys[op.key].rq
			if rng.Intn(10) == 0 {
				rq = b.keys[op.key].alt
				if !altSent[op.key] {
					op.expect = "serve.canon_hit"
					altSent[op.key] = true
				}
			}
		}
		body, err := json.Marshal(rq)
		if err != nil {
			return nil, err
		}
		op.body = body
		b.ops = append(b.ops, op)
	}
	return b, nil
}

// keyShape fixes everything about a key but its instance: the seed
// draws only the request seed and the generated or inline program.
// Fixed shapes keep a pass's work nearly the same from seed to seed.
type keyShape struct {
	fabric    string
	source    string // a built-in label, "rand" or "inline"
	q, g      int    // generated and inline circuit size
	heuristic string
	m         int
	backend   string
	trace     bool
	noise     bool
}

// keyShapes covers every request kind on both fabrics: built-in,
// generated and inline circuits; qspr, qspr-center and quale; the swap
// backend; traced and noise-scored requests. Only supported heuristic
// × backend pairs appear (the swap backend rejects QUALE by design),
// and every circuit fits its fabric: the small fabric has 8 traps.
var keyShapes = []keyShape{
	{fabric: "small", source: "[[5,1,3]]", heuristic: "qspr", m: 2},
	{fabric: "small", source: "rand", q: 6, g: 30, heuristic: "qspr-center"},
	{fabric: "small", source: "inline", q: 7, g: 40, heuristic: "quale"},
	{fabric: "small", source: "rand", q: 8, g: 40, heuristic: "qspr-center", backend: "swap"},
	{fabric: "small", source: "[[7,1,3]]", heuristic: "quale", trace: true},
	{fabric: "small", source: "inline", q: 5, g: 30, heuristic: "qspr", m: 2, noise: true},
	{fabric: "small", source: "rand", q: 8, g: 50, heuristic: "qspr-center", trace: true, noise: true},
	{fabric: "small", source: "rand", q: 6, g: 30, heuristic: "qspr", m: 2, backend: "swap"},
	{fabric: "quale45x85", source: "[[9,1,3]]", heuristic: "qspr-center"},
	{fabric: "quale45x85", source: "rand", q: 10, g: 60, heuristic: "qspr", m: 2},
	{fabric: "quale45x85", source: "inline", q: 12, g: 60, heuristic: "quale"},
	{fabric: "quale45x85", source: "rand", q: 12, g: 80, heuristic: "qspr-center", backend: "swap"},
	{fabric: "quale45x85", source: "[[14,8,3]]", heuristic: "quale", trace: true},
	{fabric: "quale45x85", source: "rand", q: 10, g: 60, heuristic: "qspr-center", noise: true},
	{fabric: "quale45x85", source: "inline", q: 8, g: 50, heuristic: "qspr", m: 2, trace: true},
	{fabric: "quale45x85", source: "rand", q: 14, g: 80, heuristic: "qspr-center", trace: true, noise: true},
	{fabric: "quale45x85", source: "rand", q: 12, g: 60, heuristic: "qspr", m: 2, backend: "swap", noise: true},
	{fabric: "quale45x85", source: "[[7,1,3]]", heuristic: "qspr", m: 3},
	{fabric: "quale45x85", source: "inline", q: 10, g: 60, heuristic: "qspr-center"},
	{fabric: "quale45x85", source: "rand", q: 16, g: 100, heuristic: "quale"},
}

// genKey draws one instance of shape sh.
func genKey(rng *rand.Rand, sh keyShape) (serveKey, error) {
	rq := serve.Request{
		Fabric: sh.fabric, Heuristic: sh.heuristic, M: sh.m, Seed: mapSeed(rng),
		Backend: sh.backend, Trace: sh.trace,
	}
	if sh.noise {
		p := noise.DefaultParams()
		rq.Noise = &p
	}
	switch sh.source {
	case "rand":
		rq.Circuit = fmt.Sprintf("rand(q=%d,g=%d,seed=%d)", sh.q, sh.g, mapSeed(rng))
	case "inline":
		prog, err := qasmgen.RandomClifford(sh.q, sh.g, 0.5, mapSeed(rng))
		if err != nil {
			return serveKey{}, err
		}
		if rq.QASM, err = qasmText(prog); err != nil {
			return serveKey{}, err
		}
	default:
		rq.Circuit = sh.source
	}
	alt := rq
	alt.Heuristic = strings.ToUpper(rq.Heuristic)
	alt.Fabric = strings.ToUpper(rq.Fabric)
	return serveKey{rq: rq, alt: alt}, nil
}

func (b *serveBench) labels() []string {
	out := make([]string, len(b.ops))
	for i, op := range b.ops {
		out[i] = op.expect + " " + string(op.body)
	}
	return out
}

func (b *serveBench) setup() error {
	for _, k := range b.keys {
		if k.rq.Circuit != "" {
			if _, err := circuits.Resolve(k.rq.Circuit); err != nil {
				return err
			}
		}
	}
	b.startPass()
	b.codes = make([]int, len(b.ops))
	b.caches = make([]string, len(b.ops))
	b.bodies = make([][]byte, len(b.ops))
	// The warm-up request is the same for every seed, so set-up time
	// does not depend on the key set.
	_, err := serveOnce(nil, b.handler, "", warmupRequest, false)
	return err
}

var warmupRequest = []byte(`{"circuit":"` + warmupCircuit + `","fabric":"quale45x85","heuristic":"qspr-center"}`)

// prepare maps every key directly with core.Map and renders the report
// the service must answer with.
func (b *serveBench) prepare() error {
	fabs := map[string]experiment.FabricChoice{}
	seen := map[string]bool{}
	b.texts = nil
	for i := range b.keys {
		k := &b.keys[i]
		var err error
		if k.rq.Circuit != "" {
			bm, err := circuits.Resolve(k.rq.Circuit)
			if err != nil {
				return err
			}
			k.prog, k.circuit = bm.Program, bm.Name
		} else {
			if k.prog, err = qasm.ParseString(k.rq.QASM); err != nil {
				return err
			}
			k.circuit = serve.InlineName([]byte(k.rq.QASM))
		}
		if !seen[k.circuit] {
			seen[k.circuit] = true
			text, err := qasmText(k.prog)
			if err != nil {
				return err
			}
			b.texts = append(b.texts, text)
		}
		fc, ok := fabs[k.rq.Fabric]
		if !ok {
			if fc, err = experiment.LoadFabric(k.rq.Fabric); err != nil {
				return err
			}
			fabs[k.rq.Fabric] = fc
		}
		h, err := experiment.ParseHeuristic(k.rq.Heuristic)
		if err != nil {
			return err
		}
		k.opts = core.Options{Heuristic: h, Seeds: k.rq.M, Seed: k.rq.Seed, Backend: k.rq.Backend}
		if k.ref, err = core.Map(k.prog, fc.Fabric, k.opts); err != nil {
			return fmt.Errorf("key %d (%s): %w", i, k.circuit, err)
		}
		if k.rq.Backend == "" {
			err = oracle(k.prog, k.ref)
		} else if k.ref.Latency < k.ref.Ideal {
			// Swap traces stay outside the tableau oracle until routing
			// SWAPs get their own trace op.
			err = fmt.Errorf("latency %v below ideal %v", k.ref.Latency, k.ref.Ideal)
		}
		if err != nil {
			return fmt.Errorf("key %d (%s): %w", i, k.circuit, err)
		}
		if k.body, err = renderReport(nil, k.circuit, fc.Name, k.opts, k.ref, k.rq.Trace, k.rq.Noise); err != nil {
			return err
		}
		var rep struct {
			Metrics struct {
				LatencyUS int64 `json:"latency_us"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(k.body, &rep); err != nil {
			return err
		}
		k.latency = float64(rep.Metrics.LatencyUS)
	}
	b.sim = engine.NewSim()
	b.rng = rand.New(rand.NewSource(b.seed))
	return nil
}

// startPass restarts the service: fresh caches and cold Mappers.
func (b *serveBench) startPass() {
	b.srv = serve.New(serve.Config{Workers: 1})
	b.handler = b.srv.Handler()
}

// post sends one /map request body to h in-process, under a span
// named name.
func post(tr *tracer, h http.Handler, name string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sp := tr.begin(name)
	h.ServeHTTP(rec, req)
	tr.end(sp)
	return rec
}

func (b *serveBench) run(i int) error {
	rec := post(nil, b.handler, "", b.ops[i].body)
	b.codes[i], b.caches[i], b.bodies[i] = rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes()
	return nil
}

func (b *serveBench) verify(i int) error {
	return b.check(i, b.codes[i], b.caches[i], b.bodies[i])
}

func (b *serveBench) check(i, code int, cache string, body []byte) error {
	op := b.ops[i]
	want := "hit"
	if op.expect == "serve.miss" {
		want = "miss"
	}
	switch {
	case code != http.StatusOK:
		return fmt.Errorf("request %d: status %d: %s", i, code, body)
	case cache != want:
		return fmt.Errorf("request %d: X-Cache %q, want %q", i, cache, want)
	case !bytes.Equal(body, b.keys[op.key].body):
		return fmt.Errorf("request %d: body differs from the report of a direct core.Map", i)
	}
	return nil
}

func (b *serveBench) simLatencyUS(i int) float64 { return b.keys[b.ops[i].key].latency }

func (b *serveBench) traced(i int, tr *tracer) error {
	op := b.ops[i]
	rec := post(tr, b.handler, op.expect, op.body)
	tr.count("serve.hit_frac", b2f(op.expect != "serve.miss"))
	return b.check(i, rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes())
}

// serveOnce sends one request body to h under a span and checks its
// status and cache disposition.
func serveOnce(tr *tracer, h http.Handler, name string, body []byte, hit bool) ([]byte, error) {
	rec := post(tr, h, name, body)
	want := "miss"
	if hit {
		want = "hit"
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
		return nil, fmt.Errorf("serve: %s answered %d X-Cache %q: %s", name, rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// serveProbeKeys bounds the keys each probe call breaks down; the
// calls rotate through the key set.
const serveProbeKeys = 8

func (b *serveBench) probe(tr *tracer, k int) error {
	var specs []string
	for _, key := range b.keys {
		if key.rq.Circuit != "" {
			specs = append(specs, key.rq.Circuit)
		}
	}
	if err := probeInputs(tr, specs, b.texts); err != nil {
		return err
	}
	for _, name := range []string{"quale45x85", "small"} {
		fab, _ := b.srv.Fabric(name)
		if err := probeFabric(tr, fab, b.rng); err != nil {
			return err
		}
	}
	rep := &experiment.Report{}
	for j := 0; j < serveProbeKeys; j++ {
		i := (k*serveProbeKeys + j) % len(b.keys)
		key := &b.keys[i]
		fab, _ := b.srv.Fabric(key.rq.Fabric)
		res, err := breakdown(tr, b.sim, key.prog, fab, key.opts)
		if err != nil {
			return fmt.Errorf("key %d: %w", i, err)
		}
		if err := sameMapping(res, key.ref); err != nil {
			return fmt.Errorf("key %d: layer breakdown vs core.Map: %w", i, err)
		}
		body, err := renderReport(tr, key.circuit, strings.ToLower(key.rq.Fabric), key.opts, key.ref, key.rq.Trace, key.rq.Noise)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, key.body) {
			return fmt.Errorf("key %d: rendered report differs", i)
		}
		switch {
		case key.rq.Backend == "swap":
			err = probeTrace(tr, key.ref.Mapping, key.prog.NumQubits())
		case key.opts.Heuristic != core.QUALE:
			err = probeEngine(tr, b.sim, key.prog, fab, key.ref.Mapping.Initial, b.rng)
		}
		if err != nil {
			return fmt.Errorf("key %d: %w", i, err)
		}
		rep.Results = append(rep.Results, experiment.RunResult{
			Run:     experiment.Run{Index: j, Circuit: circuits.Benchmark{Name: key.circuit, Program: key.prog}, Heuristic: key.opts.Heuristic, Seeds: key.opts.Seeds, Backend: key.opts.Backend},
			Metrics: experiment.MetricsFrom(key.ref),
		})
	}
	if err := probeRender(tr, rep); err != nil {
		return err
	}
	// The annealer is the one placer no request reaches.
	key := b.keys[(k*serveProbeKeys)%len(b.keys)]
	fab, _ := b.srv.Fabric(key.rq.Fabric)
	_, err := breakdown(tr, b.sim, key.prog, fab, core.Options{Heuristic: core.Anneal, AnnealMoves: 6, AnnealRestarts: 1})
	return err
}

var _ bench = (*serveBench)(nil)
