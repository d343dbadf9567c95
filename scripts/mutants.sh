#!/usr/bin/env bash
# The standing mutation suite: every mutant must be killed.
#
#   scripts/mutants.sh [NAME...]
#
# Each mutants/NAME.patch is a bug put back on purpose — a skip rule, a
# fast path or a cache broken the way a refactor could break it. Its
# first line is the one `cargo test ... --release ...` command that must
# fail on it, then `#` lines saying what the mutant breaks, then a patch
# `git apply` takes. For every patch (or only the NAMEs given) the script
# checks out HEAD into a throwaway `git worktree` under
# target/mutants/, applies the patch, builds the command's tests
# (`--no-run`; a mutant that does not build is a stale patch, not a
# kill), and runs the command. It prints one line per mutant and exits
# non-zero if any mutant survives or does not apply or build; each
# run's output is kept in target/mutants/NAME.log. All worktrees share
# one build dir, target/mutants/build.
#
# Uncommitted changes are not seen: the mutants apply to HEAD.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
work=$root/target/mutants
mkdir -p "$work"
export CARGO_TARGET_DIR=$work/build

if [ $# -gt 0 ]; then
    patches=()
    for name in "$@"; do patches+=("mutants/$name.patch"); done
else
    patches=(mutants/*.patch)
fi

failed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    cmd=$(head -n 1 "$patch")
    case $cmd in
        "cargo test "*" --release"*) ;;
        *)
            echo "BROKEN   $name: its first line is no \`cargo test --release\` command"
            failed=1
            continue
            ;;
    esac
    tree=$work/$name
    log=$work/$name.log
    git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    git worktree add --detach --quiet "$tree" HEAD
    if ! git -C "$tree" apply "$root/$patch" 2> "$log"; then
        echo "BROKEN   $name: does not apply to HEAD (see $log)"
        failed=1
    elif ! (cd "$tree" && eval "${cmd%% -- *} --no-run") >> "$log" 2>&1; then
        echo "BROKEN   $name: does not build (see $log)"
        failed=1
    elif (cd "$tree" && eval "$cmd") >> "$log" 2>&1; then
        echo "SURVIVED $name: \`$cmd\` passes on it"
        failed=1
    else
        echo "killed   $name"
    fi
    git worktree remove --force "$tree"
done
git worktree prune
exit $failed
