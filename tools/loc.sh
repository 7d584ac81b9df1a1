#!/usr/bin/env bash
# Prints the three line counts ROADMAP tracks, one `name value` pair a
# line, for the repository this script lives in:
#
#   rust_lines    raw `wc -l` of every *.rs file outside vendor/,
#                 benchmark/ and any target/ directory (blank and
#                 comment lines count);
#   vendor_lines  raw `wc -l` of every *.rs file under vendor/;
#   solver_lines  non-test lines of crates/solver/src: no blank lines,
#                 no lines that start with `//`, and nothing from a
#                 file's first `#[cfg(test)]` on.
#
# Usage: bash tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rust_lines=$(find . \( -path ./.git -o -path ./vendor -o -path ./benchmark -o -name target \) -prune \
    -o -type f -name '*.rs' -exec cat {} + | wc -l)
vendor_lines=$(find vendor -type f -name '*.rs' -exec cat {} + | wc -l)
solver_lines=$(find crates/solver/src -type f -name '*.rs' -exec awk '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')

echo "rust_lines $rust_lines"
echo "vendor_lines $vendor_lines"
echo "solver_lines $solver_lines"
