#!/usr/bin/env sh
# Regenerates the measurements tracked in BENCH_placement.json: MVFB
# intra-mapping scaling at 1/2/4 workers, the placer portfolio race,
# and the incremental re-simulation family — checkpoint/fork suffix
# replay per refinement step (engine.Sim) and the annealing placer.
# Run from the repository root. Raw `go test -bench` output is written
# to $OUT (default below) for hand-curation into BENCH_placement.json;
# latency/runs metrics must be identical at every worker count and in
# both annealing modes — any drift is a determinism bug, not noise.
set -e
OUT="${OUT:-/tmp/qspr_bench_placement.txt}"
{
  echo "== MVFB inner parallelism (10 iterations/op) =="
  go test -run '^$' -bench 'BenchmarkMVFB_InnerParallel' -benchtime 10x -benchmem .
  echo
  echo "== Placer portfolio, [[9,1,3]] (10 iterations/op) =="
  go test -run '^$' -bench 'BenchmarkPortfolio' -benchtime 10x -benchmem .
  echo
  echo "== Suffix replay per refinement step: full run vs RunFrom =="
  go test -run '^$' -bench 'BenchmarkSimFork' -benchtime 50x -benchmem ./internal/engine/
  echo
  echo "== Annealing chain, incremental vs cold (identical latency) =="
  go test -run '^$' -bench 'BenchmarkAnnealChain' -benchtime 5x ./internal/place/
  echo
  echo "== Annealing placer, full restarts + time-to-best =="
  go test -run '^$' -bench 'BenchmarkAnneal$' -benchtime 3x ./internal/place/
} | tee "$OUT"
echo
echo "raw output written to: $OUT (curate into BENCH_placement.json)"
