#!/usr/bin/env bash
# Interleaved parent-vs-change runs of one benchmark workload, read
# against the ROADMAP speed gate.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]
#
# PARENT_BIN and CHANGE_BIN are two built `benchmark` binaries (the
# benchmark package's release build of each tree). Each pair runs both
# once on WORKLOAD (SEED: the benchmark's default when omitted), the
# parent first in odd pairs and the change first in even ones, each run
# as long as the benchmark's own default unless BENCH_SECONDS sets its
# `--seconds` (the same on both sides). One row per pair gives
# wall_s, setup_s, peak_rss_mb, transmissions and the output digest of
# both sides; the summary gives the wall_s medians, the change's wins,
# the parent's inter-quartile range and whether counts and digests were
# equal in every pair — the gate's inputs for a wall_s claim (>= 10
# pairs, >= 9 / 10 wins, a median gap larger than the parent's IQR,
# identical counts and digests).
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4
args=(--workload "$workload" --trace 0)
if [ $# -eq 5 ]; then
    args+=(--seed "$5")
fi
if [ -n "${BENCH_SECONDS:-}" ]; then
    args+=(--seconds "$BENCH_SECONDS")
fi

# One run: prints `wall_s setup_s peak_rss_mb transmissions digest`.
run() {
    "$1" "${args[@]}" |
        awk '$1 == "wall_s" { w = $2 } $1 == "setup_s" { s = $2 }
             $1 == "peak_rss_mb" { r = $2 } $1 == "transmissions" { t = $2 }
             $1 == "msgs_total" { for (i = 1; i < NF; i++) if ($i == "output") d = $(i + 1) }
             END { if (w == "" || d == "") exit 1; print w, s, r, t, d }'
}

rows=()
printf '%4s  %-6s %9s %9s %9s %12s  %-16s\n' pair side wall_s setup_s rss_mb transmissions digest
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        p=$(run "$parent") c=$(run "$change")
    else
        c=$(run "$change") p=$(run "$parent")
    fi
    for side in parent change; do
        if [ "$side" = parent ]; then set -- $p; else set -- $c; fi
        printf '%4d  %-6s %9s %9s %9s %12s  %-16s\n' "$i" "$side" "$1" "$2" "$3" "$4" "$5"
    done
    rows+=("$p $c")
done

printf '%s\n' "${rows[@]}" | awk -v workload="$workload" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Linear interpolation between the closest ranks of a sorted array.
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    {
        n++; pw[n] = $1; cw[n] = $6
        ps[n] = $2; cs[n] = $7; pr[n] = $3; cr[n] = $8
        if ($1 > $6) wins++
        if ($4 != $9) counts_differ++
        if ($5 != $10) digests_differ++
    }
    END {
        sort(pw, n); sort(cw, n); sort(ps, n); sort(cs, n); sort(pr, n); sort(cr, n)
        pm = quantile(pw, n, 0.5); cm = quantile(cw, n, 0.5)
        iqr = quantile(pw, n, 0.75) - quantile(pw, n, 0.25)
        printf "\n%s, %d pairs\n", workload, n
        printf "wall_s median      parent %.4f  change %.4f  (%+.1f %%)\n", pm, cm, 100 * (cm - pm) / pm
        printf "setup_s median     parent %.4f  change %.4f  (%+.1f %%)\n", quantile(ps, n, 0.5), quantile(cs, n, 0.5), 100 * (quantile(cs, n, 0.5) - quantile(ps, n, 0.5)) / quantile(ps, n, 0.5)
        printf "peak_rss_mb median parent %.3f  change %.3f  (%+.1f %%)\n", quantile(pr, n, 0.5), quantile(cr, n, 0.5), 100 * (quantile(cr, n, 0.5) - quantile(pr, n, 0.5)) / quantile(pr, n, 0.5)
        printf "change wins        %d / %d (lower wall_s)\n", wins, n
        printf "parent wall_s IQR  %.4f; median gap %.4f (%s)\n", iqr, pm - cm, (pm - cm > iqr) ? "larger" : "not larger"
        printf "transmissions      %s\n", counts_differ ? "DIFFER in " counts_differ " pairs" : "equal in every pair"
        printf "output digests     %s\n", digests_differ ? "DIFFER in " digests_differ " pairs" : "equal in every pair"
        pass = n >= 10 && wins >= 0.9 * n && (pm - cm > iqr) && !counts_differ && !digests_differ
        printf "speed gate         %s\n", pass ? "PASS" : "not passed"
    }'
