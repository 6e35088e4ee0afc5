#!/usr/bin/env sh
# Regenerates the "after" measurements tracked in BENCH_routing.json:
# the Fig. 5 routing microbenchmarks (cache-hit steady state and
# cache-defeated cold search) and one MVFB placement run. Run from
# the repository root. The "before" numbers in BENCH_routing.json are
# frozen — they were measured on the pre-refactor router (PR 1) and
# cannot be regenerated from this tree. The environment block of
# BENCH_routing.json records where the "after" side was taken.
set -e
OUT="${OUT:-/tmp/qspr_bench_routing.txt}"
{
  echo "== Fig. 5 routing, cache-hit steady state (50 iterations/op) =="
  go test -run '^$' -bench '^BenchmarkFig5_Routing$' -benchtime 50x -benchmem .
  echo
  echo "== Fig. 5 routing, cold congested search (2000 iterations/op) =="
  go test -run '^$' -bench '^BenchmarkFig5_RoutingCold$' -benchtime 2000x -benchmem .
  echo
  echo "== MVFB placement, [[5,1,3]] (single run) =="
  go test -run '^$' -bench 'BenchmarkTable1_MVFB/\[\[5,1,3\]\]' -benchtime 1x -benchmem .
} | tee "$OUT"
echo
echo "raw output written to: $OUT (curate the 'after' side of BENCH_routing.json)"
