#!/bin/sh
# Counts the workspace's Rust lines, split into non-test and test code.
#
# Test lines are every line of a file under a `tests/`, `benches/` or
# `examples/` directory, plus every line from a file's first
# `#[cfg(test)]` on; all other lines are non-test. `vendor/`, `target/`
# and `reprobench/` are skipped.
#
# Usage: scripts/loc.sh [DIR]   (DIR defaults to the repository root)
set -eu
cd "${1:-$(dirname "$0")/..}"
files=$(find . \( -path ./vendor -o -path ./target -o -path ./reprobench -o -name .git \) \
    -prune -o -type f -name '*.rs' -print | sort)
awk '
    FNR == 1 { in_test = (FILENAME ~ /\/(tests|benches|examples)\//) }
    !in_test && /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    { if (in_test) test++; else code++ }
    END { printf "non-test %d\ntest     %d\ntotal    %d\n", code, test, code + test }
' $files
