#!/usr/bin/env bash
# Alternating parent/change pairs of the repository's benchmark, the way the
# choosing-metrics guide (§8) wants a gain shown in a small sandbox:
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SEED0]
#
# PARENT_DIR and CHANGE_DIR are two checkouts (make the parent's with
# `git clone` or `git archive`). Pair i runs
#
#   bash bench/run.sh -workload WORKLOAD -seconds 10 -trace 0 -seed SEED0+i-1
#
# once in each, the parent first on odd pairs and the change first on even
# ones, and keeps the one-line JSON result each run ends with. Then, per
# end-to-end metric: every run, both medians and quartiles (linear
# interpolation between order statistics), the change's wins and the ties,
# and the verdict — a gain only when the change wins at least nine tenths of
# all pairs (a tie counts for neither side) and the medians differ by more
# than the distance between the parent's quartiles. Which direction is better,
# and the bound past which a worse median is flagged, are read from the
# parent's BENCHMARK.json. A run whose oracle fails ends the
# script: a gain does not count on wrong output. The statistics are
# scripts/pairs.awk's, shared with scripts/eval_pairs.sh.
#
# Needs bash and a POSIX awk. Each checkout builds into its own .bench_build/.
set -euo pipefail

if [ $# -lt 4 ]; then
    sed -n '2,24p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) workload=$3 pairs=$4 seed0=${5:-101}
here=$(cd "$(dirname "$0")" && pwd)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

run_one() { # side dir pair seed
    local line
    line=$(cd "$2" && bash bench/run.sh -workload "$workload" -seconds 10 -trace 0 -seed "$4" | tail -n 1)
    case $line in
    '{'*) printf '%s %s %s %s\n' "$1" "$3" "$4" "$line" >>"$runs" ;;
    *) echo "bench_pairs: $1 run, pair $3, seed $4: no result line" >&2; exit 1 ;;
    esac
    echo "pair $3 seed $4 $1: $line" >&2
}

for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run_one parent "$parent" "$i" "$seed"
        run_one change "$change" "$i" "$seed"
    else
        run_one change "$change" "$i" "$seed"
        run_one parent "$parent" "$i" "$seed"
    fi
done

echo "== $workload: $pairs alternating pairs, seeds $seed0..$((seed0 + pairs - 1)), parent $parent, change $change"
awk -v pairs="$pairs" -v tagname=seed -f "$here/pairs.awk" -f /dev/stdin "$parent/BENCHMARK.json" "$runs" <<'AWK'
FNR == NR { # the parent checkout's BENCHMARK.json: end-to-end metric -> better
    if ($0 ~ /"end_to_end"/) inE2E = 1
    if ($0 ~ /"per_layer"/) inE2E = 0
    if (inE2E && match($0, /"name": *"[^"]+"/)) { name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name); order[++nm] = name }
    if (inE2E && match($0, /"better": *"[^"]+"/)) { b = substr($0, RSTART, RLENGTH); gsub(/"better": *"|"/, "", b); better[name] = b }
    if (inE2E && match($0, /"bound": *[0-9.]+/)) { b = substr($0, RSTART, RLENGTH); sub(/.*: */, "", b); bound[name] = b + 0 }
    next
}
{
    side = $1; pair = $2; tag[pair] = $3
    for (m = 1; m <= nm; m++) {
        if (!match($0, "\"" order[m] "\":\\{\"value\":[^,}]+")) continue
        v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
        val[side, order[m], pair] = v + 0; seen[order[m]] = 1
    }
    if (match($0, /"failed":[0-9]+/)) failed[side] += substr($0, RSTART + 9, RLENGTH - 9)
    if (match($0, /"attempted":[0-9]+/)) attempted[side] += substr($0, RSTART + 12, RLENGTH - 12)
}
END {
    printf "failed ops: parent %d of %d, change %d of %d\n", failed["parent"], attempted["parent"], failed["change"], attempted["change"]
    for (m = 1; m <= nm; m++)
        if (seen[order[m]]) report(order[m], better[order[m]], bound[order[m]], pairs)
}
AWK
