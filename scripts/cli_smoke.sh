#!/usr/bin/env bash
# Two legs over the vodx CLI:
#
#   * Bad user input must fail cleanly: every CASES command exits 1 with an
#     `error:` line on stderr. None may abort (exit 134, SIGABRT) on an
#     internal assertion, which is what out-of-range profile ids and zero
#     durations did before the CLI checked them, and none may run with a
#     malformed integer silently read as 0 or as its numeric prefix.
#   * The happy path: every HAPPY command exits 0, and its stdout and every
#     file it writes are identical at --jobs 1 and --jobs 3.
#
#   ./scripts/cli_smoke.sh [path/to/vodx]
#
# Run by ctest as the `cli_smoke` test (label: cli).
set -uo pipefail

VODX="${1:-}"
if [[ -z "$VODX" ]]; then
  cd "$(dirname "$0")/.."
  VODX="${BUILD_DIR:-build}/tools/vodx"
fi
[[ -x "$VODX" ]] || { echo "cli_smoke: no vodx binary at $VODX" >&2; exit 2; }
VODX="$(cd "$(dirname "$VODX")" && pwd)/$(basename "$VODX")"

CASES=(
  "play H1 0"
  "play H1 7x"
  "trace 99"
  "energy H1 0"
  "diagnose H1 99"
  "diagnose H1 7 --duration 0"
  "chaos --duration 0"
  "sweep --duration 0"
  "sweep --cell-retries z"
  "pop --core bogus"
  "pop --max-sessions abc"
  "pop --seed 7x"
  "pop --jobs x"
  "pop --diag-budget abc"
  "origin --flash-arrivals many"
  "chaos --core bogus"
)

HAPPY=(
  "sweep --services H1,D2 --profiles 3,7 --duration 60 --jsonl g.jsonl --csv g.csv --metrics-out m.jsonl"
  "faults --services H1 --scenarios none,resets --duration 60"
  "report --services H1,D2 --profiles 3 --duration 60 --diag --html r.html --jsonl r.jsonl --csv c.csv"
  "diagnose --services H1,S2 --duration 60 --html d.html --jsonl d.jsonl"
  "pop --towers 3,7 --horizon 120 --diag --timeline-out tl.csv --html p.html --tower-csv t.csv"
  "origin --horizon 60"
)

failures=0
for args in "${CASES[@]}"; do
  # shellcheck disable=SC2086  # each case is a whitespace-split argv
  stderr="$("$VODX" $args 2>&1 >/dev/null)"
  status=$?
  if [[ $status -ne 1 ]] || ! grep -q '^error: ' <<<"$stderr"; then
    echo "cli_smoke: 'vodx $args' exited $status, want 1 with an error: line" >&2
    [[ -n "$stderr" ]] && echo "$stderr" | head -3 >&2
    failures=$((failures + 1))
  fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
for args in "${HAPPY[@]}"; do
  for jobs in 1 3; do
    dir="$work/jobs$jobs"
    rm -rf "$dir" && mkdir -p "$dir"
    # shellcheck disable=SC2086  # each case is a whitespace-split argv
    (cd "$dir" && "$VODX" $args --jobs "$jobs" >stdout 2>stderr)
    status=$?
    if [[ $status -ne 0 ]]; then
      echo "cli_smoke: 'vodx $args --jobs $jobs' exited $status, want 0" >&2
      head -3 "$dir/stderr" >&2
      failures=$((failures + 1))
    fi
    rm -f "$dir/stderr"
  done
  if ! diff -r "$work/jobs1" "$work/jobs3" >/dev/null; then
    echo "cli_smoke: 'vodx $args' output differs between --jobs 1 and 3" >&2
    failures=$((failures + 1))
  fi
done

total=$((${#CASES[@]} + ${#HAPPY[@]}))
if [[ $failures -gt 0 ]]; then
  echo "cli_smoke: $failures of $total checks failed" >&2
  exit 1
fi
echo "cli_smoke: ${#CASES[@]} bad inputs exit 1 with an error line;" \
  "${#HAPPY[@]} commands match at --jobs 1 and 3"
