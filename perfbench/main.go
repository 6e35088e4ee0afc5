// Command perfbench is the repository's benchmark. It runs one
// workload for a fixed time, checks every output against a direct
// core.Map and the tableau oracle, and prints each metric named in
// BENCHMARK.json with its unit; the last line of standard output is
// one JSON object.
//
//	bash perfbench/run.sh --workload paper_table2 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of a traced run instead. README.md
// describes the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	// One goroutine drives every workload; GOMAXPROCS stays within the
	// host's CPUs (Go 1.24 does not read container CPU quotas).
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b, err := w.gen(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := measure(b, time.Duration(*seconds)*time.Second, *traceFlag == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	e2e, t := out.endToEnd(w.tailPermille)
	q := quartiles(out.passWall)
	fmt.Fprintf(stderr, "perfbench: %s seed=%d: %d ops/pass, %d passes (wall quartiles %.4f %.4f %.4f s), sim_latency_geomean_us=%v\n",
		w.name, *seed, len(b.labels()), len(out.passWall), q[0], q[1], q[2], e2e["sim_latency_geomean_us"].Value)
	if *traceFlag == 1 {
		res.Metrics = out.perLayer()
		for _, l := range layerMetrics {
			if l.span != "" && len(out.tracer.durations(l.span)) == 0 || l.span == "" && len(out.tracer.counts[l.name]) == 0 {
				fmt.Fprintf(stderr, "perfbench: %s: traced run recorded no %s\n", w.name, l.name)
				return 1
			}
		}
		out.tracer.writeSelfTimes(stdout)
		if err := dumpSpans(out.tracer, *spans, w.name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		res.Metrics = e2e
		fmt.Fprintf(stdout, "op_tail_ms is p%g of %d op samples (%d beyond); op_p50_ms is the median of %d per-op medians over %d passes\n",
			t.pct, t.n, t.beyond, len(b.labels()), len(out.passWall))
	}
	printTable(stdout, res.Metrics)
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s is %v\n", k, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// dumpSpans writes the traced run's spans and counters to one JSON
// file under dir.
func dumpSpans(tr *tracer, dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
