#!/usr/bin/env bash
# Paired vodxbench runs from two checkouts, alternating, so that machine
# drift falls on both sides alike.
#
#   scripts/bench_pairs.sh <parent-dir> <change-dir> <workload> [pairs] [seconds]
#
# Each pair runs vodxbench (--seed 7 --trace 0) once in each checkout; odd
# pairs run the parent first, even pairs the change. The script prints each
# run's result line and warm-pass digest, then per metric each side's
# quartiles, median and interquartile range (statistics.quantiles, exclusive
# method), the change's relative median difference and the pairs it won.
# pairs defaults to 5, seconds to 10.
#
# vodxbench builds into <checkout>/.bench_build. A build directory copied
# from another checkout still compiles that checkout's sources, so the
# script refuses one whose CMakeCache.txt names another source tree.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
  echo "usage: $0 <parent-dir> <change-dir> <workload> [pairs] [seconds]" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
pairs=${4:-5}
seconds=${5:-10}

check_checkout() {
  local dir=$1
  if [[ ! -f $dir/vodxbench/run.py ]]; then
    echo "bench_pairs: $dir has no vodxbench/run.py" >&2
    exit 2
  fi
  local cache=$dir/.bench_build/CMakeCache.txt
  [[ -f $cache ]] || return 0
  local home
  home=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$cache")
  if [[ $(realpath -m "$home") != $(realpath -m "$dir/vodxbench") ]]; then
    echo "bench_pairs: $cache was configured from $home, not from" \
         "$dir/vodxbench; delete $dir/.bench_build and rerun" >&2
    exit 2
  fi
}
check_checkout "$parent"
check_checkout "$change"

results=""
run_side() {
  local side=$1 dir=$2 out
  out=$(cd "$dir" && python3 vodxbench/run.py --workload "$workload" \
        --seed 7 --seconds "$seconds" --trace 0)
  local digest result
  digest=$(grep -o 'digest [0-9a-f]*' <<<"$out" | head -n 1 || true)
  result=$(tail -n 1 <<<"$out")
  echo "$side ${digest:-digest ?} $result"
  results+="$side $result"$'\n'
}

for ((pair = 1; pair <= pairs; ++pair)); do
  echo "# pair $pair of $pairs"
  if ((pair % 2)); then
    run_side parent "$parent"
    run_side change "$change"
  else
    run_side change "$change"
    run_side parent "$parent"
  fi
done

# A pair is won when the change's value is better in the direction
# BENCHMARK.json declares for the metric.
python3 -c '
import json, statistics, sys
with open(sys.argv[1]) as f:
    spec = json.load(f)["end_to_end"]
higher = {m["name"]: m["better"] == "higher" for m in spec}
runs = {"parent": [], "change": []}
for line in sys.stdin:
    side, _, result = line.strip().partition(" ")
    if result:
        runs[side].append(json.loads(result)["metrics"])

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3

columns = ("median", "q1", "q3", "iqr")
print("%-16s" % "metric" + "".join(" %13s" % (side + "_" + c)
                                   for side in ("parent", "change")
                                   for c in columns) + " %8s %6s" % (
                                       "change", "wins"))
for name, up in higher.items():
    a = [m[name]["value"] for m in runs["parent"]]
    b = [m[name]["value"] for m in runs["change"]]
    wins = sum((y > x) if up else (y < x) for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    delta = "%+.1f%%" % (100 * (mb / ma - 1)) if ma else "-"
    print("%-16s" % name + "".join(" %13.4f" % v for v in (
        ma, a1, a3, a3 - a1, mb, b1, b3, b3 - b1)) + " %8s %3d/%d" % (
            delta, wins, len(a)))
' "$change/BENCHMARK.json" <<<"$results"
