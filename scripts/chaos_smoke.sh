#!/usr/bin/env bash
# Fixed-budget fuzz smoke for vodx::chaos: 64 seeds through the chaos engine
# must produce zero invariant violations, zero watchdog aborts, and a report
# that is byte-identical across --jobs (the engine's determinism contract)
# AND across simulator cores — running the same pinned budget on the
# fixed-tick reference (--core fixed) is the fuzz-scale differential check
# of the event-driven core.
#
#   ./scripts/chaos_smoke.sh [path/to/vodx]
#
# Run by ctest as the `chaos_smoke` test (label: chaos). The seed budget and
# duration are pinned so the smoke is a fixed, reproducible workload — widen
# the net with `vodx chaos --seeds 0..1023` manually, not here.
set -euo pipefail

VODX="${1:-}"
if [[ -z "$VODX" ]]; then
  cd "$(dirname "$0")/.."
  VODX="${BUILD_DIR:-build}/tools/vodx"
fi
[[ -x "$VODX" ]] || { echo "chaos_smoke: no vodx binary at $VODX" >&2; exit 2; }

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

SEEDS="0..63"
DURATION=60

"$VODX" chaos --seeds "$SEEDS" --duration "$DURATION" --jobs 4 \
  --out "$TMP/jobs4.txt"
"$VODX" chaos --seeds "$SEEDS" --duration "$DURATION" --jobs 1 \
  --out "$TMP/jobs1.txt"

if ! cmp -s "$TMP/jobs1.txt" "$TMP/jobs4.txt"; then
  echo "chaos_smoke: report differs between --jobs 1 and --jobs 4" >&2
  diff "$TMP/jobs1.txt" "$TMP/jobs4.txt" >&2 || true
  exit 1
fi

# Differential leg: the same budget on the retained fixed-tick reference
# core must reproduce the event-core report byte for byte.
"$VODX" chaos --seeds "$SEEDS" --duration "$DURATION" --jobs 4 --core fixed \
  --out "$TMP/fixed.txt"

if ! cmp -s "$TMP/jobs4.txt" "$TMP/fixed.txt"; then
  echo "chaos_smoke: report differs between --core event and --core fixed" >&2
  diff "$TMP/jobs4.txt" "$TMP/fixed.txt" >&2 || true
  exit 1
fi

# Origin leg: the same budget with the hardened origin tier enabled — the
# generator adds origin-targeted windows (cache flushes, DC blackouts) and
# the invariant catalog checks cache consistency, bounded failover and
# coalescing on every seed. Still jobs-independent, still zero violations.
"$VODX" chaos --seeds "$SEEDS" --duration "$DURATION" --jobs 4 \
  --origin hardened --out "$TMP/origin4.txt"
"$VODX" chaos --seeds "$SEEDS" --duration "$DURATION" --jobs 1 \
  --origin hardened --out "$TMP/origin1.txt"

if ! cmp -s "$TMP/origin1.txt" "$TMP/origin4.txt"; then
  echo "chaos_smoke: origin report differs between --jobs 1 and --jobs 4" >&2
  diff "$TMP/origin1.txt" "$TMP/origin4.txt" >&2 || true
  exit 1
fi

# ... and core-independent: origin retries, failover and coalesced fills
# reach sleeping players only through completion pokes.
"$VODX" chaos --seeds "$SEEDS" --duration "$DURATION" --jobs 4 \
  --origin hardened --core fixed --out "$TMP/origin_fixed.txt"

if ! cmp -s "$TMP/origin4.txt" "$TMP/origin_fixed.txt"; then
  echo "chaos_smoke: origin report differs between --core event and --core fixed" >&2
  diff "$TMP/origin4.txt" "$TMP/origin_fixed.txt" >&2 || true
  exit 1
fi

echo "chaos_smoke: $SEEDS clean, jobs-independent and core-independent"
echo "chaos_smoke: origin leg ($SEEDS, hardened tier) clean, jobs-independent and core-independent"
