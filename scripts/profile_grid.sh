#!/usr/bin/env bash
# gprof flat profile of the grid benchmark's session work: builds the vodx
# CLI with -pg in <out-dir>/build (configured from this checkout through
# CMAKE_CXX_FLAGS alone), runs `vodx report --seeds 43-48 --jobs 1` (the
# 12 services x 14 profiles x 6 seeds the grid workload plays) from
# <out-dir>, and prints the top 25 rows of gprof's flat profile. The full
# profile stays in <out-dir>/flat.txt.
#
#   scripts/profile_grid.sh ../profile-out
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <out-dir>" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
case "$out/" in
  "$repo"/*)
    echo "profile_grid: <out-dir> must lie outside the checkout" >&2
    exit 2
    ;;
esac

cmake -S "$repo" -B "$out/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg >/dev/null
cmake --build "$out/build" --target vodx -j "$(nproc)" >/dev/null
rm -f "$out/gmon.out"
(cd "$out" && ./build/tools/vodx report --seeds 43-48 --jobs 1 >/dev/null)
gprof -b -p "$out/build/tools/vodx" "$out/gmon.out" >"$out/flat.txt"
# The flat profile's five header lines, then its top 25 rows.
head -n 30 "$out/flat.txt"
