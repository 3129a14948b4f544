#!/usr/bin/env bash
# Guards "one JSON writer": every JSON object key in src/ and tools/ is
# written through vodx::JsonWriter (src/common/json.cpp), never spelled as a
# literal. Fails when a .cpp outside src/common/json.cpp holds a JSON key
# literal — an escaped "\"key\":" in an ordinary string, or "key": in a raw
# string — outside a comment.
#
#   ./scripts/lint_json.sh [repo-root]
#
# Run by ctest as the `lint_json` test (label: lint).
set -uo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

# Drop // comments (a '//' at the start of a line or after whitespace, so a
# URL inside a string is kept), then look for a key literal.
hits="$(find src tools -name '*.cpp' ! -path 'src/common/json.cpp' -print0 |
  sort -z |
  xargs -0 awk '{
    line = $0
    sub(/(^|[[:space:]])\/\/.*$/, "", line)
    if (line ~ /\\"[A-Za-z_][A-Za-z0-9_.]*\\":/ ||
        line ~ /"[A-Za-z_][A-Za-z0-9_.]*":/) {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  }')"

if [[ -n "$hits" ]]; then
  echo "$hits" >&2
  echo "lint_json: JSON key literals outside src/common/json.cpp;" \
    "write them with vodx::JsonWriter" >&2
  exit 1
fi
echo "lint_json: no JSON key literals outside src/common/json.cpp"
