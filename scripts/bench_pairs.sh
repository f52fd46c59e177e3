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
# script: a gain does not count on wrong output.
#
# Needs bash and a POSIX awk. Each checkout builds into its own .bench_build/.
set -euo pipefail

if [ $# -lt 4 ]; then
    sed -n '2,23p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) workload=$3 pairs=$4 seed0=${5:-101}
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
awk -v pairs="$pairs" '
function quantile(v, n, p,    pos, lo) { # v[1..n] ascending
    pos = 1 + (n - 1) * p; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, dst, n,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
FNR == NR { # the parent checkout'"'"'s BENCHMARK.json: end-to-end metric -> better
    if ($0 ~ /"end_to_end"/) inE2E = 1
    if ($0 ~ /"per_layer"/) inE2E = 0
    if (inE2E && match($0, /"name": *"[^"]+"/)) { name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name); order[++nm] = name }
    if (inE2E && match($0, /"better": *"[^"]+"/)) { b = substr($0, RSTART, RLENGTH); gsub(/"better": *"|"/, "", b); better[name] = b }
    if (inE2E && match($0, /"bound": *[0-9.]+/)) { b = substr($0, RSTART, RLENGTH); sub(/.*: */, "", b); bound[name] = b + 0 }
    next
}
{
    side = $1; pair = $2; seeds[pair] = $3
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
    for (m = 1; m <= nm; m++) {
        name = order[m]; if (!seen[name]) continue
        sign = better[name] == "higher" ? 1 : -1
        printf "\n%s (%s is better)\n  %4s %6s %14s %14s  %s\n", name, better[name], "pair", "seed", "parent", "change", "winner"
        wins = ties = 0
        for (i = 1; i <= pairs; i++) {
            p[i] = val["parent", name, i]; c[i] = val["change", name, i]
            w = "tie"; if (sign * (c[i] - p[i]) > 0) { w = "change"; wins++ } else if (c[i] == p[i]) ties++; else w = "parent"
            printf "  %4d %6d %14.6g %14.6g  %s\n", i, seeds[i], p[i], c[i], w
        }
        sorted(p, sp, pairs); sorted(c, sc, pairs)
        pm = quantile(sp, pairs, 0.5); cm = quantile(sc, pairs, 0.5)
        p1 = quantile(sp, pairs, 0.25); p3 = quantile(sp, pairs, 0.75)
        printf "  parent median %.6g  quartiles [%.6g, %.6g]\n", pm, p1, p3
        printf "  change median %.6g  quartiles [%.6g, %.6g]  (%+.1f%% against the parent median)\n", cm, quantile(sc, pairs, 0.25), quantile(sc, pairs, 0.75), pm ? 100 * (cm - pm) / pm : 0
        gap = sign * (cm - pm)
        if (pm && -gap / pm > bound[name]) printf "  WORSE than the parent median by more than the bound %g\n", bound[name]
        verdict = (wins >= 0.9 * pairs && gap > p3 - p1) ? "GAIN" : "no gain shown"
        printf "  change wins %d of %d, %d ties; median gap %.6g vs parent inter-quartile distance %.6g: %s\n", wins, pairs, ties, gap, p3 - p1, verdict
    }
}' "$parent/BENCHMARK.json" "$runs"
