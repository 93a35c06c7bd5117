#!/usr/bin/env bash
# Non-test size of the workspace crates, one command:
#
#   scripts/loc.sh
#
# Counts the lines of every crates/*/src/**/*.rs except each item behind a
# column-0 `#[cfg(test)]`: the attribute, and the item after it up to the
# first line that starts with `}`, or with code and ends in `;` (in
# rustfmt's layout, the line that ends a top-level item). Leaves out crates/core/src/engine/tests.rs (the engine's
# unit tests, a file of their own). Prints one line per crate, named by
# its package, then the total. Takes no arguments; needs awk.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -eq 0 ] || { echo "usage: $0" >&2; exit 2; }

total=0
for dir in crates/*; do
  crate=$(awk -F'"' '/^name *=/ { print $2; exit }' "$dir/Cargo.toml")
  lines=$(find "$dir/src" -name '*.rs' ! -path 'crates/core/src/engine/tests.rs' -print0 \
    | sort -z \
    | xargs -0 -r awk '
        FNR == 1 { skipping = 0 }
        /^#\[cfg\(test\)\]/ { skipping = 1; sub(/^#\[cfg\(test\)\][[:space:]]*/, "") }
        skipping {
          if (/^}/ || /^[[:alpha:]_)\]].*;[[:space:]]*$/) skipping = 0
          next
        }
        { n++ }
        END { print n + 0 }')
  printf '%-14s %7d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-14s %7d\n' total "$total"
