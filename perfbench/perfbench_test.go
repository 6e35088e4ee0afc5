package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSeedsFixTheOpList pins the seed contract: the same seed gives the
// same op list and the same sim_latency_geomean_us, bit for bit; a
// different seed gives a different op list.
func TestSeedsFixTheOpList(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.gen(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.gen(7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := w.gen(8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.labels(), b.labels()) {
				t.Fatal("same seed, different op lists")
			}
			if reflect.DeepEqual(a.labels(), c.labels()) {
				t.Fatal("seeds 7 and 8 give the same op list")
			}
			if ga, gb := simGeomean(t, a), simGeomean(t, b); ga != gb {
				t.Fatalf("same seed, sim_latency_geomean_us %v vs %v", ga, gb)
			}
		})
	}
}

func simGeomean(t *testing.T, b bench) float64 {
	t.Helper()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, len(b.labels()))
	for i := range lat {
		lat[i] = b.simLatencyUS(i)
	}
	return geomean(lat)
}

// TestEveryOpMapsAndChecks runs every workload through the shortest
// measurement, traced: every generated op must map, pass the oracle,
// match core.Map on the public path and in its layer breakdown, and the
// probes must succeed.
func TestEveryOpMapsAndChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, err := w.gen(3)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			out, err := measure(b, 0, true, &log)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("%d of %d checks failed: %s", out.failed, out.attempted, log.String())
			}
			// Three passes untraced and traced, and a probe call after
			// each traced pass.
			if want := 3 * (2*len(b.labels()) + 1); out.attempted != want {
				t.Fatalf("attempted %d checks, want %d", out.attempted, want)
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the output must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs the command end to end, untraced
// and traced, and checks the last line of its output names exactly the
// metrics BENCHMARK.json lists, with their units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench has %v", names, have)
	}
	for trace, want := range map[string]map[string]string{"0": units(spec.EndToEnd), "1": units(spec.PerLayer)} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "serve_mix", "--seed", "5", "--seconds", "1", "--trace", trace, "--spans", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("--trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("--trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("--trace %s prints %v\nBENCHMARK.json lists %v", trace, sorted(got), sorted(want))
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sorted(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" ("+v+")")
	}
	sort.Strings(out)
	return out
}

func TestTailStepsDownToTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, pm, want int }{
		{5, 990, 500}, {100, 990, 900}, {199, 950, 900}, {200, 950, 950},
		{999, 990, 950}, {1000, 990, 990}, {50000, 990, 990}, {50000, 900, 900},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		tl := tailOf(xs, c.pm)
		if tl.n != c.n || tl.pct != float64(c.want)/10 || (c.n >= 20 && tl.beyond < 10) {
			t.Fatalf("n=%d p%g: got %+v, want p%g", c.n, float64(c.pm)/10, tl, float64(c.want)/10)
		}
	}
}
