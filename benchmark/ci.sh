#!/usr/bin/env bash
# The benchmark's own CI leg: its unit tests, then every workload and
# its traced rep at 1/50 size (`--quick`, well under 30 s). Wiring this
# into .github/workflows/ci.yml is left to a later PR: that file is
# outside the benchmark's paths.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --quiet
cargo run --release --quiet -- --quick --trace 1
