#!/usr/bin/env bash
# Prints the panic sites of the library code, in two columns: the
# `.unwrap()`, `.expect(`, `panic!(` and `unreachable!(` calls, then the
# `assert!(`, `assert_eq!(` and `assert_ne!(` calls (not their `debug_`
# forms), on the non-comment lines of the tracked crates/*/src/**/*.rs
# and src/**/*.rs above the `#[cfg(test)]` that opens the file's
# `mod tests` (all of a file that has none). One line per file with a
# site in either column, then the totals. The test-only
# `crates/sim/src/testkit.rs` is left out.
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
        {
            n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&")
            a += gsub(/(^|[^_[:alnum:]])assert(_eq|_ne)?!\(/, "&")
        }
        END { if (n || a) printf "%6d %6d %s\n", n, a, f }
    ' "$f"
done | awk '{ print; total += $1; asserts += $2 } END { printf "%6d %6d total\n", total, asserts }'
