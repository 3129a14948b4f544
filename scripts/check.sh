#!/usr/bin/env bash
# Configure, build and run the test suite — the tree's single pre-commit
# gate.
#
#   ./scripts/check.sh                     # RelWithDebInfo, all tests
#   ./scripts/check.sh --sanitize          # ASan+UBSan build in build-san/
#   ./scripts/check.sh --tsan              # TSan build in build-tsan/, runs
#                                          # the batch/sweep tests
#   ./scripts/check.sh --labels unit       # only tests with a matching
#                                          # ctest label (unit|integration|
#                                          # golden|faults|chaos|diag|
#                                          # simcore|pop|popobs|origin|cli|
#                                          # lint|paper; regex accepted),
#                                          # building only the executables
#                                          # those tests run
#   BUILD_DIR=out ./scripts/check.sh       # custom build directory
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CMAKE_ARGS=()
CTEST_ARGS=()
LABELS=""
NAME_FILTER=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize)
      BUILD_DIR="${BUILD_DIR}-san"
      CMAKE_ARGS+=(-DVODX_SANITIZE=address,undefined)
      export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
      export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
      ;;
    --tsan)
      # Thread-safety proof for the multi-threaded engines: build
      # everything under ThreadSanitizer and run the batch/sweep suites
      # (shared-title first builds included) plus the population runner
      # (one worker thread per tower; the pop core differential frees
      # departed sessions mid-run on two such threads).
      BUILD_DIR="${BUILD_DIR}-tsan"
      CMAKE_ARGS+=(-DVODX_SANITIZE=thread)
      export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
      NAME_FILTER='^(BatchPool|SweepEngine|SweepTitles|SweepDeterminism|SeedSensitivity|FaultSweepDeterminism|PopulationDeterminism|PopulationTimeline|PopulationOriginStopRace|PopCoreDifferential|TowerWorkCounters)'
      ;;
    --labels)
      [[ $# -ge 2 ]] || { echo "error: --labels needs a regex" >&2; exit 2; }
      LABELS="$2"
      shift
      ;;
    *)
      echo "usage: $0 [--sanitize] [--tsan] [--labels <regex>]" >&2
      exit 2
      ;;
  esac
  shift
done

[[ -n "$LABELS" ]] && CTEST_ARGS+=(-L "$LABELS")
[[ -n "$NAME_FILTER" ]] && CTEST_ARGS+=(-R "$NAME_FILTER")

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
if [[ -n "$LABELS" ]]; then
  # Configure recorded each test site's labels and executables (see
  # vodx_record_tests in CMakeLists.txt): build those of the matching ones.
  matched=0
  targets=()
  while read -r labels needs; do
    IFS=';' read -ra names <<<"$labels"
    for name in "${names[@]}"; do
      if [[ $name =~ $LABELS ]]; then
        matched=1
        read -ra site <<<"$needs"
        targets+=("${site[@]}")
        break
      fi
    done
  done <"$BUILD_DIR/test_targets.txt"
  if [[ $matched == 0 ]]; then
    echo "error: no test label matches '$LABELS'" >&2
    exit 2
  fi
  if [[ ${#targets[@]} -gt 0 ]]; then
    mapfile -t targets < <(printf '%s\n' "${targets[@]}" | sort -u)
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${targets[@]}"
  fi
else
  cmake --build "$BUILD_DIR" -j "$(nproc)"
fi
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  "${CTEST_ARGS[@]}"
