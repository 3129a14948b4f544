#!/usr/bin/env bash
# Bad user input must fail cleanly: every command below exits 1 with an
# `error:` line on stderr. None may abort (exit 134, SIGABRT) on an internal
# assertion, which is what out-of-range profile ids and zero durations did
# before the CLI checked them.
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

CASES=(
  "play H1 0"
  "trace 99"
  "energy H1 0"
  "diagnose H1 99"
  "diagnose H1 7 --duration 0"
  "chaos --duration 0"
  "sweep --duration 0"
  "pop --core bogus"
  "chaos --core bogus"
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

if [[ $failures -gt 0 ]]; then
  echo "cli_smoke: $failures of ${#CASES[@]} bad inputs did not fail cleanly" >&2
  exit 1
fi
echo "cli_smoke: ${#CASES[@]} bad inputs exit 1 with an error line"
