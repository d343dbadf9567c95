#!/usr/bin/env bash
# Prints the size of the simulator crate: per file, and in total, the
# lines of crates/sim/src/**/*.rs above the `#[cfg(test)]` that opens
# the file's `mod tests` (all of a file that has none). The test-only
# `testkit.rs` is left out. The rule is written once, in
# scripts/lib_lines.sh; this is that rule restricted to crates/sim.
#
#   scripts/sim_lines.sh
set -euo pipefail
exec "$(dirname "$0")/lib_lines.sh" crates/sim
