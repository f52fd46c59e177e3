#!/usr/bin/env bash
# Alternating parent/change pairs of BenchmarkEvalShape (internal/engine), the
# gate on the eval shapes' timings, taken against a parent on the same host:
#
#   scripts/eval_pairs.sh PARENT_DIR CHANGE_DIR N
#
# PARENT_DIR and CHANGE_DIR are two checkouts (make the parent's with
# `git clone` or `git archive`). Each one's engine test binary is built once;
# pair i runs both at -test.benchtime 1s, the parent first on odd pairs and
# the change first on even ones. Then, per shape and path: every run's ns/op,
# both medians and quartiles, the change's wins and ties (scripts/pairs.awk,
# shared with scripts/bench_pairs.sh). It exits 1 when a change median is
# more than 25 % above the parent's, or when a shape the parent has is gone.
# A shape the parent does not have is reported "absent in parent" and gates
# nothing. A run whose two paths disagree fails its benchmark, which ends the
# script.
#
# Needs bash, go and a POSIX awk.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) pairs=$3
here=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$parent" && go test -c -o "$work/parent.test" ./internal/engine)
(cd "$change" && go test -c -o "$work/change.test" ./internal/engine)

run_one() { # side dir pair
    (cd "$2/internal/engine" && "$work/$1.test" -test.run '^$' -test.bench '^BenchmarkEvalShape$' \
        -test.benchtime 1s -test.timeout 30m) >"$work/out"
    awk -v side="$1" -v pair="$3" '/^BenchmarkEvalShape\//{ print side, pair, $0 }' "$work/out" | tee -a "$work/runs" >&2
}

: >"$work/runs"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_one parent "$parent" "$i"
        run_one change "$change" "$i"
    else
        run_one change "$change" "$i"
        run_one parent "$parent" "$i"
    fi
done

echo "== BenchmarkEvalShape: $pairs alternating pairs, parent $parent, change $change"
awk -v pairs="$pairs" -v tagname=first -f "$here/pairs.awk" -f /dev/stdin "$work/runs" <<'AWK'
BEGIN { for (i = 1; i <= pairs; i++) tag[i] = i % 2 ? "parent" : "change" }
{ # side pair BenchmarkEvalShape/<shape>-<procs> N <sum> ns/op, then value-unit pairs
    shape = $3; sub(/^BenchmarkEvalShape\//, "", shape); sub(/-[0-9]+$/, "", shape)
    for (f = 7; f < NF; f += 2) {
        if ($(f + 1) !~ /-ns\/op$/) continue
        name = shape " " $(f + 1)
        if (!(name in seen)) { seen[name] = 1; order[++nm] = name }
        val[$1, name, $2] = $f + 0; ran[$1, name] = 1
    }
}
END {
    for (m = 1; m <= nm; m++) {
        name = order[m]
        if (!ran["parent", name]) {
            for (i = 1; i <= pairs; i++) c[i] = val["change", name, i]
            sorted(c, sc, pairs)
            printf "\n%s: absent in parent; change median %.6g, quartiles [%.6g, %.6g]\n", name, quantile(sc, pairs, 0.5), quantile(sc, pairs, 0.25), quantile(sc, pairs, 0.75)
        } else if (!ran["change", name]) {
            printf "\n%s: absent in change\n", name; bad = 1
        } else if (report(name, "lower", 0.25, pairs)) bad = 1
    }
    if (bad) { print "\neval_pairs: REGRESSION"; exit 1 }
    print "\neval_pairs: no regression"
}
AWK
