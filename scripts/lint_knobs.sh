#!/usr/bin/env bash
# Guards "every knob has a caller": each field of a *Config, *Options or
# *Settings struct declared under src/ is assigned somewhere in src/, tools/,
# bench/ or vodxbench/. A field only tests set is a constant in disguise;
# turn it into a named constant at its point of use instead.
#
# A field counts as assigned when some member access ending in its name is
# the target of an assignment (`x.f = …`, `x->f += …`, `x.f.g = …`), is
# mutated in place (`x.f.push_back(…)`, `.clear()`, …), or is named in a
# designated or commented positional initialiser (`.f = …`, `/*f=*/`). The
# match is by field name, so a field shares its assignments with every
# other member of the same name.
#
#   ./scripts/lint_knobs.sh [repo-root]
#
# Run by ctest as the `lint_knobs` test (label: lint).
set -uo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

# Struct::field entries that stay without an assignment, each with its
# reason.
allowlist=(
  # vodxbench passes config.qoe_options to compute_qoe; the struct goes in
  # a change that also updates vodxbench.
  "QoeOptions::low_quality_max_height"
)

# Every field declared at the top level of a matching struct body, as
# "file:line Struct::field". Methods (a '(' on the line), nested types and
# access specifiers are skipped.
fields="$(find src \( -name '*.h' -o -name '*.cpp' \) -print0 | sort -z |
  xargs -0 awk '
    function braces(s,    opened, closed) {
      opened = gsub(/\{/, "{", s)
      closed = gsub(/\}/, "}", s)
      if (opened > 0) started = 1
      return opened - closed
    }
    FNR == 1 { depth = 0; name = ""; started = 0 }
    {
      line = $0
      sub(/\/\/.*$/, "", line)
      if (name == "") {
        if (line ~ /^[[:space:]]*struct[[:space:]]+[A-Za-z0-9_]*(Config|Options|Settings)[[:space:]]*(:[^{;]*)?\{?[[:space:]]*$/) {
          name = line
          sub(/^[[:space:]]*struct[[:space:]]+/, "", name)
          sub(/[^A-Za-z0-9_].*$/, "", name)
          started = 0
          depth = braces(line)
        }
        next
      }
      if (!started) { depth += braces(line); next }
      if (depth == 1 && line !~ /\(/ &&
          line !~ /^[[:space:]]*(static|using|friend|enum|struct|class|public|private|protected|template|typedef)[^A-Za-z0-9_]/ &&
          match(line, /[A-Za-z_][A-Za-z0-9_]*[[:space:]]*(=[^=][^;]*|\{[^;]*\})?;/)) {
        field = substr(line, RSTART, RLENGTH)
        sub(/[[:space:]]*(=|\{|;).*$/, "", field)
        printf "%s:%d %s::%s\n", FILENAME, FNR, name, field
      }
      depth += braces(line)
      if (depth <= 0) name = ""
    }')"

if [[ -z "$fields" ]]; then
  echo "lint_knobs: found no config structs under src/" >&2
  exit 2
fi

# Every member name some line outside tests/ assigns or mutates.
id='[A-Za-z_][A-Za-z0-9_]*'
assigned="$(find src tools bench vodxbench \( -name '*.h' -o -name '*.cpp' \) \
    -print0 2>/dev/null | sort -z |
  xargs -0 sed 's,\(^\|[[:space:]]\)//.*$,,' |
  grep -oE "(\.|->)$id((\.|->)$id|\[[^]=]*\])*[[:space:]]*([-+*/|&^]|<<|>>)?=[^=]|(\.|->)$id\.(push_back|emplace_back|emplace|insert|clear|assign|resize|append)\(|/\*$id=\*/" |
  grep -oE "$id" | sort -u)"

hits=""
while read -r where qualified; do
  [[ -z "$qualified" ]] && continue
  for allowed in "${allowlist[@]}"; do
    [[ "$qualified" == "$allowed" ]] && continue 2
  done
  grep -qxF "${qualified##*::}" <<<"$assigned" || hits+="$where: $qualified"$'\n'
done <<<"$fields"

if [[ -n "$hits" ]]; then
  printf '%s' "$hits" >&2
  echo "lint_knobs: fields nothing outside tests/ assigns;" \
    "make them named constants at their point of use" >&2
  exit 1
fi
echo "lint_knobs: all $(wc -l <<<"$fields") config fields have an assignment"
