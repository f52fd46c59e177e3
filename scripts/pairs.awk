# The statistics of alternating parent/change pairs, loaded by both pair
# scripts (awk -f scripts/pairs.awk -f <script's own part>): bench_pairs.sh
# over the benchmark's end-to-end metrics, eval_pairs.sh over the eval
# shapes' ns/op. The caller fills val[side, name, i] for side "parent" and
# "change" and pair i = 1..pairs, and tag[i], printed beside pair i under the
# heading tagname.

function quantile(v, n, p,    pos, lo) { # v[1..n] ascending
    pos = 1 + (n - 1) * p; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}

function sorted(src, dst, n,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}

# report prints metric name's runs, both medians and quartiles (linear
# interpolation between order statistics), the change's wins and ties and the
# verdict: a gain only when the change wins at least nine tenths of all pairs
# (a tie counts for neither side) and the medians differ by more than the
# distance between the parent's quartiles. better is "higher" or "lower". It
# returns 1, after saying so, when the change median is worse than the
# parent's by more than the fraction bound.
function report(name, better, bound, pairs,    sign, i, w, wins, ties, p, c, sp, sc, pm, cm, p1, p3, gap, worse) {
    sign = better == "higher" ? 1 : -1
    printf "\n%s (%s is better)\n  %4s %6s %14s %14s  %s\n", name, better, "pair", tagname, "parent", "change", "winner"
    wins = ties = 0
    for (i = 1; i <= pairs; i++) {
        p[i] = val["parent", name, i]; c[i] = val["change", name, i]
        w = "tie"; if (sign * (c[i] - p[i]) > 0) { w = "change"; wins++ } else if (c[i] == p[i]) ties++; else w = "parent"
        printf "  %4d %6s %14.6g %14.6g  %s\n", i, tag[i], p[i], c[i], w
    }
    sorted(p, sp, pairs); sorted(c, sc, pairs)
    pm = quantile(sp, pairs, 0.5); cm = quantile(sc, pairs, 0.5)
    p1 = quantile(sp, pairs, 0.25); p3 = quantile(sp, pairs, 0.75)
    printf "  parent median %.6g  quartiles [%.6g, %.6g]\n", pm, p1, p3
    printf "  change median %.6g  quartiles [%.6g, %.6g]  (%+.1f%% against the parent median)\n", cm, quantile(sc, pairs, 0.25), quantile(sc, pairs, 0.75), pm ? 100 * (cm - pm) / pm : 0
    gap = sign * (cm - pm)
    worse = pm && -gap / pm > bound
    if (worse) printf "  WORSE than the parent median by more than the bound %g\n", bound
    printf "  change wins %d of %d, %d ties; median gap %.6g vs parent inter-quartile distance %.6g: %s\n", wins, pairs, ties, gap, p3 - p1, (wins >= 0.9 * pairs && gap > p3 - p1) ? "GAIN" : "no gain shown"
    return worse
}
