#!/usr/bin/env bash
# Prints the panic sites of the library code: per file (files with none
# left out), and in total, the `.unwrap()`, `.expect(`, `panic!(` and
# `unreachable!(` calls on the non-comment lines of the tracked
# crates/*/src/**/*.rs and src/**/*.rs above the `#[cfg(test)]` that
# opens the file's `mod tests` (all of a file that has none). The
# test-only `crates/sim/src/testkit.rs` is left out.
#
#   scripts/panic_sites.sh
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files 'crates/*/src/*.rs' 'src/*.rs' | grep -v '/testkit\.rs$' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ && /^[[:space:]]*mod tests[[:space:]]*\{/ {
            exit
        }
        { prev = $0 }
        /^[[:space:]]*\/\// { next }
        { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") }
        END { if (n) printf "%6d %s\n", n, f }
    ' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
