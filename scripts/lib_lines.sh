#!/usr/bin/env bash
# Prints the size of the library code: the lines of each tracked
# crates/*/src/**/*.rs and src/**/*.rs file above the `#[cfg(test)]`
# that opens the file's `mod tests` (all of a file that has none). The
# test-only `crates/sim/src/testkit.rs` is left out.
#
#   scripts/lib_lines.sh        one line per crate (`src` is the root
#                               package's), then the total
#   scripts/lib_lines.sh DIR    one line per file of DIR/src, named
#                               relative to it, then the total
#
# `scripts/sim_lines.sh` is `scripts/lib_lines.sh crates/sim`.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then
    prefix=${1%/}/src/
    pathspecs=("$prefix*.rs")
else
    prefix=
    pathspecs=('crates/*/src/*.rs' 'src/*.rs')
fi
git ls-files "${pathspecs[@]}" | grep -v '/testkit\.rs$' | LC_ALL=C sort | while read -r f; do
    awk -v f="${f#"$prefix"}" '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ && /^[[:space:]]*mod tests[[:space:]]*\{/ {
            n = NR - 2; done = 1; exit
        }
        { prev = $0 }
        END { if (!done) n = NR; printf "%6d %s\n", n, f }
    ' "$f"
done | awk -v by_crate="$((! $#))" '
    { total += $1 }
    by_crate == 1 {
        split($2, part, "/")
        name = part[1] == "crates" ? "crates/" part[2] : part[1]
        if (!(name in size)) order[++count] = name
        size[name] += $1
        next
    }
    { print }
    END {
        for (i = 1; i <= count; i++) printf "%6d %s\n", size[order[i]], order[i]
        printf "%6d total\n", total
    }
'
