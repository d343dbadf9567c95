#!/usr/bin/env bash
# Where one benchmark workload spends its CPU time: a flat sample
# profile with inlined frames and source lines, from plain cc, cargo
# and addr2line.
#
#   scripts/profile.sh WORKLOAD [SECONDS]
#
# Builds the `benchmark` package in release with frame pointers and
# debug info (`-C force-frame-pointers=yes -g`) into its own target dir,
# target/profile/build, so no other build is disturbed; builds the
# sampler scripts/sigprof.c with the system cc; then runs WORKLOAD for
# SECONDS (default 5) with the sampler preloaded, from
# target/profile/run. The sampler arms ITIMER_PROF on that process only
# (1 kHz of CPU time, all its threads) and records the interrupted
# program counter; nothing outside the process is traced. The whole run
# is sampled — setup, warm-up and every rep — so a workload whose setup
# is long shows it.
#
# Prints the samples' total and the share outside the program, then the
# top addresses resolved by `addr2line -i`: each with its innermost
# inlined frame and line, the chain of inlined callers up to the
# function the code sits in; then the top functions by that outermost
# frame; then the same functions' shares of the samples outside the
# harness's host-speed calibration (an address any of whose frames is
# in `benchmark::calib`). The calibration kernels bracket every timed
# rep and take a sixth or so of a sampled run, none of it inside
# `wall_s`, so the second list is the one to read against `wall_s`.
#
# Reading it: a sample names the instruction the CPU was held at when
# the timer fired, not the one that caused the wait (skid). A store
# that misses the cache retires at once into the store buffer, and its
# stall surfaces at the next instruction that must drain the buffer —
# a locked read-modify-write such as a mutex unlock or an atomic
# increment. So samples on an uncontended unlock right after a push
# into a cold buffer are the push's cache miss, not the lock's work.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 WORKLOAD [SECONDS]" >&2
    exit 2
fi
workload=$1 seconds=${2:-5}
cd "$(dirname "$0")/.."
out=$PWD/target/profile
mkdir -p "$out/run"
cc -O2 -shared -fPIC -o "$out/sigprof.so" scripts/sigprof.c
RUSTFLAGS="-C force-frame-pointers=yes -g" CARGO_TARGET_DIR="$out/build" \
    cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin=$out/build/release/benchmark

cd "$out/run"
rm -f sigprof.*
LD_PRELOAD="$out/sigprof.so" "$bin" --workload "$workload" --seconds "$seconds" --trace 0 \
    > benchmark.log
cat sigprof.* > samples
rm -f sigprof.*

grep '^0x' samples | sort | uniq -c | sort -rn > counts
awk '$1 == "other" { other += $2 } $1 ~ /^0x/ { inside++ }
     END { total = inside + other
           printf "%s: %d samples, %.1f %% outside the program\n", "'"$workload"'", total,
                  total ? 100 * other / total : 0 }' samples

# One block per address: the address, then a (function, file:line) pair
# per inlined frame, innermost first.
awk '{ print $2 }' counts | addr2line -e "$bin" -a -f -i -C > frames
awk -v top=30 '
    FNR == NR { count[$2] = $1; total += $1; next }
    /^0x/ { addr = $1; depth = 0; next }
    {
        fn = $0; getline where
        sub(/^.*\//, "", where)
        depth++
        if (depth == 1) inner[addr] = fn " (" where ")"
        else chain[addr] = chain[addr] " < " fn
        outer[addr] = fn
        if (fn ~ /benchmark::calib::/) calib[addr] = 1
    }
    END {
        for (a in count) { by_line[inner[a]] += count[a]; by_fn[outer[a]] += count[a] }
        for (a in count) if (!(a in calib)) { timed += count[a]; by_fn_timed[outer[a]] += count[a] }
        printf "\ntop inlined frames (innermost, with line; < its inlined callers)\n"
        for (a in count) printf "%d\t%s%s\n", count[a], inner[a], chain[a] | "sort -rn | head -n " top
        close("sort -rn | head -n " top)
        printf "\ntop functions (the frame the code sits in)\n"
        for (f in by_fn) printf "%6.2f %%  %s\n", 100 * by_fn[f] / total, f | "sort -rn | head -n " top
        close("sort -rn | head -n " top)
        printf "\ntop functions outside benchmark::calib (%.1f %% of the samples are calibration)\n",
               total ? 100 * (total - timed) / total : 0
        for (f in by_fn_timed) printf "%6.2f %%  %s\n", 100 * by_fn_timed[f] / timed, f | "sort -rn | head -n " top
        close("sort -rn | head -n " top)
    }' counts frames
