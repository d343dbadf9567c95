#!/usr/bin/env bash
# Prints the size of the simulator crate: per file, and in total, the
# lines of crates/sim/src/**/*.rs above the `#[cfg(test)]` that opens
# the file's `mod tests` (all of a file that has none). The test-only
# `testkit.rs` is left out.
#
#   scripts/sim_lines.sh
set -euo pipefail
cd "$(dirname "$0")/../crates/sim/src"
find . -name '*.rs' ! -name testkit.rs | sed 's|^\./||' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ && /^[[:space:]]*mod tests[[:space:]]*\{/ {
            n = NR - 2; done = 1; exit
        }
        { prev = $0 }
        END { if (!done) n = NR; printf "%6d %s\n", n, f }
    ' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
