#!/usr/bin/env bash
# Guards "every value is formatted once, by its column": a fixed-width
# column of a report is a vodx::Table column with an alignment and a width
# (src/common/table.h), never a printf field width. Fails when a .cpp under
# src/ or tools/ holds a printf conversion with a field width ("%-7s",
# "%10.2f", "%8llu", ...) outside a comment. Zero-padded conversions
# ("%04x") are not columns and pass.
#
#   ./scripts/lint_tables.sh [repo-root]
#
# Run by ctest as the `lint_tables` test (label: lint).
set -uo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

# Drop // comments (a '//' at the start of a line or after whitespace, so a
# URL inside a string is kept) and "%%" escapes, then look for a conversion
# with flags other than '0' and a field width.
hits="$(find src tools -name '*.cpp' -print0 |
  sort -z |
  xargs -0 awk '{
    line = $0
    sub(/(^|[[:space:]])\/\/.*$/, "", line)
    gsub(/%%/, "", line)
    if (line ~ /%[-+ #]*[1-9][0-9]*(\.[0-9]+)?(hh|h|ll|l|z|j|t|L)?[diouxXfFeEgGsc]/) {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  }')"

if [[ -n "$hits" ]]; then
  echo "$hits" >&2
  echo "lint_tables: printf field widths in src/ or tools/; give the" \
    "column an alignment and a width on vodx::Table instead" >&2
  exit 1
fi
echo "lint_tables: no printf field widths in src/ or tools/"
