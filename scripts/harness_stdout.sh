#!/usr/bin/env bash
# Runs every bench_* harness of a build tree and saves each one's stdout, so
# two trees can be compared with one `diff -r`:
#
#   ./scripts/harness_stdout.sh build /tmp/after
#   ./scripts/harness_stdout.sh ../parent/build /tmp/before
#   diff -r /tmp/before /tmp/after
#
# Writes <out-dir>/<harness>.txt per harness; exits non-zero (after running
# the rest) if any harness fails.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build_dir="$1"
out_dir="$2"

shopt -s nullglob
harnesses=("$build_dir"/bench/bench_*)
if [[ ${#harnesses[@]} -eq 0 ]]; then
  echo "error: no bench_* harness in $build_dir/bench" >&2
  exit 2
fi

mkdir -p "$out_dir"
failed=0
for bin in "${harnesses[@]}"; do
  [[ -x "$bin" && -f "$bin" ]] || continue
  name="$(basename "$bin")"
  if ! "$bin" > "$out_dir/$name.txt"; then
    echo "FAILED: $name" >&2
    failed=1
  fi
done
exit "$failed"
