#!/usr/bin/env bash
# gprof flat profile of one benchmark workload's work: builds the vodx CLI
# with -pg in <out-dir>/build (configured from this checkout through
# CMAKE_CXX_FLAGS alone), runs the workload's vodx command from <out-dir>
# at --jobs 1, and prints the top 25 rows of gprof's flat profile. The full
# profile stays in <out-dir>/flat.txt, the call graph in <out-dir>/graph.txt.
#
#   scripts/profile.sh <out-dir> [grid|pop|chaos]
#
#   grid   vodx report --seeds 43-48 (the 12 services x 14 profiles x 6
#          seeds the grid workload plays); the default
#   pop    vodx pop over four profile-14 towers for 2400 s, shared titles,
#          hardened origin, diag and timeline (the pop workload's run)
#   chaos  vodx chaos over the 4096 hardened-origin fuzz seeds the chaos
#          workload runs at seed 7
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <out-dir> [grid|pop|chaos]" >&2
  exit 2
fi
workload=${2:-grid}
case $workload in
  grid | pop | chaos) ;;
  *)
    echo "profile: unknown workload '$workload' (grid, pop or chaos)" >&2
    exit 2
    ;;
esac
repo=$(cd "$(dirname "$0")/.." && pwd -P)
out=$(realpath -m "$1")
case "$out/" in
  "$repo"/*)
    echo "profile: <out-dir> must lie outside the checkout" >&2
    exit 2
    ;;
esac
mkdir -p "$out"

cmake -S "$repo" -B "$out/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg >/dev/null
cmake --build "$out/build" --target vodx -j "$(nproc)" >/dev/null
vodx=$out/build/tools/vodx
rm -f "$out/gmon.out"
case $workload in
  grid) run=("$vodx" report --seeds 43-48 --jobs 1) ;;
  pop)
    run=("$vodx" pop --towers 14,14,14,14 --seed 7 --horizon 2400 --rate 12
         --watch-time 120 --shared-content --origin hardened --diag
         --timeline-out "$out/tl.csv" --jobs 1)
    ;;
  chaos) run=("$vodx" chaos --seeds 28672..32767 --origin hardened --jobs 1) ;;
esac
(cd "$out" && "${run[@]}" >/dev/null)
gprof -b -p "$vodx" "$out/gmon.out" >"$out/flat.txt"
gprof -b -q "$vodx" "$out/gmon.out" >"$out/graph.txt"
# The flat profile's five header lines, then its top 25 rows.
head -n 30 "$out/flat.txt"
