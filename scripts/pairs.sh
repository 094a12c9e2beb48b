#!/usr/bin/env bash
# pairs.sh REV WORKLOAD N [SECONDS] runs N alternating pairs of one
# benchmark workload, REV against the working tree, and prints per
# end-to-end metric of BENCHMARK.json: both sides' medians and quartiles,
# the ratio of the medians (tree/REV), how many pairs the tree won, an
# exact two-sided sign-test p over the pairs that were not tied, and how
# often the side that ran first won (an order diagnostic: near 0.5 when
# run order does not matter).
#
# REV is extracted with `git archive` into a temporary directory, and
# pair i runs `bash bench/run.sh --workload WORKLOAD --seed i --seconds
# SECONDS --trace 0` in both trees, REV first on odd i and the tree first
# on even i. SECONDS defaults to 10. Only the temporary directory and the
# two trees' bench/out/ are written; no machine setting is touched. The
# exit status is 1 when a run fails or prints no result.
#
# A pair's second run tends to win: A/A runs (REV = HEAD against an
# unchanged tree, 10 pairs of 10 s) showed no bias toward either side,
# but the first runner won only 2 to 4 of 10 pairs. So a result must come
# from alternated pairs, as these are, never from one side run first.
#
#   scripts/pairs.sh HEAD~1 fwd-tcp 10
set -u

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 REV WORKLOAD N [SECONDS]" >&2
    exit 2
fi
rev=$1 workload=$2 n=$3 seconds=${4:-10}
case "$n" in '' | *[!0-9]* | 0) echo "pairs: N must be a positive whole number" >&2; exit 2 ;; esac
case "$seconds" in '' | *[!0-9.]*) echo "pairs: SECONDS must be a number" >&2; exit 2 ;; esac

tree=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/rev"
if ! git -C "$tree" archive "$rev" | tar -x -C "$tmp/rev" || [ "${PIPESTATUS[0]}" -ne 0 ]; then
    echo "pairs: cannot extract $rev" >&2
    exit 2
fi

# run SIDE DIR I: one run, its result line appended to $tmp/SIDE.jsonl.
run() {
    local log="$tmp/$1-$3.log"
    if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
        echo "pairs: $1 run $3 failed:" >&2
        tail -n 5 "$log" >&2
        exit 1
    fi
    local line
    line=$(grep '^{' "$log" | tail -n 1)
    if [ -z "$line" ]; then
        echo "pairs: $1 run $3 printed no result" >&2
        exit 1
    fi
    echo "$line" >>"$tmp/$1.jsonl"
}

for ((i = 1; i <= n; i++)); do
    if [ $((i % 2)) -eq 1 ]; then
        run rev "$tmp/rev" "$i"
        run tree "$tree" "$i"
    else
        run tree "$tree" "$i"
        run rev "$tmp/rev" "$i"
    fi
    echo "pair $i/$n done" >&2
done

echo "$workload: $rev vs working tree, $n pairs of ${seconds}s ($rev first on odd pairs)"
awk -v n="$n" '
# BENCHMARK.json: the end-to-end metrics and which way is better.
FILENAME ~ /BENCHMARK\.json$/ {
    if ($0 ~ /"end_to_end"/) { inE2E = 1; next }
    if (inE2E && $0 ~ /^[[:space:]]*\]/) { inE2E = 0 }
    if (inE2E && match($0, /"name": *"[^"]*"/)) {
        s = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", s); sub(/"$/, "", s)
        names[++m] = s
    }
    if (inE2E && match($0, /"better": *"[^"]*"/)) {
        s = substr($0, RSTART, RLENGTH); sub(/"better": *"/, "", s); sub(/"$/, "", s)
        better[names[m]] = s
    }
    next
}
{
    side = (FILENAME ~ /rev\.jsonl$/) ? "rev" : "tree"
    run = ++runs[side]
    if (match($0, /"attempted":[0-9]+/)) attempted[side] += substr($0, RSTART + 12, RLENGTH - 12)
    if (match($0, /"failed":[0-9]+/)) failed[side] += substr($0, RSTART + 9, RLENGTH - 9)
    for (k = 1; k <= m; k++) {
        if (match($0, "\"" names[k] "\":\\{\"value\":[-0-9.eE+]+")) {
            s = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", s)
            val[side, names[k], run] = s + 0
            has[side, names[k], run] = 1
        }
    }
}
function sortcopy(side, name,    i, j, c, t) {
    c = 0
    for (i = 1; i <= n; i++) if (has[side, name, i]) buf[++c] = val[side, name, i]
    for (i = 2; i <= c; i++) { t = buf[i]; for (j = i - 1; j >= 1 && buf[j] > t; j--) buf[j + 1] = buf[j]; buf[j + 1] = t }
    return c
}
function quant(c, q,    h, lo) {
    h = 1 + q * (c - 1); lo = int(h)
    return lo >= c ? buf[c] : buf[lo] + (h - lo) * (buf[lo + 1] - buf[lo])
}
# signp: exact two-sided sign-test p for k wins of t untied pairs.
function signp(k, t,    lo, i, c, s, p) {
    if (t == 0) return 1
    lo = k < t - k ? k : t - k
    c = 1; s = 0
    for (i = 0; i <= lo; i++) { s += c; c = c * (t - i) / (i + 1) }
    p = 2 * s / 2 ^ t
    return p > 1 ? 1 : p
}
END {
    printf "failed requests: %s %d/%d, tree %d/%d\n", "rev", failed["rev"], attempted["rev"], failed["tree"], attempted["tree"]
    printf "%-22s %-36s %-36s %7s %6s %7s %6s\n", "metric", "rev median [q1 q3]", "tree median [q1 q3]", "ratio", "wins", "p", "first"
    for (k = 1; k <= m; k++) {
        name = names[k]
        c = sortcopy("rev", name); if (c == 0) continue
        rq1 = quant(c, .25); rmed = quant(c, .5); rq3 = quant(c, .75)
        c = sortcopy("tree", name); if (c == 0) continue
        tq1 = quant(c, .25); tmed = quant(c, .5); tq3 = quant(c, .75)
        wins = 0; untied = 0; firstwins = 0
        for (i = 1; i <= n; i++) {
            if (!has["rev", name, i] || !has["tree", name, i]) continue
            d = val["tree", name, i] - val["rev", name, i]
            if (better[name] == "lower") d = -d
            if (d == 0) continue
            untied++
            if (d > 0) wins++
            # REV runs first on odd pairs, the tree on even ones.
            if ((i % 2 == 1) == (d < 0)) firstwins++
        }
        printf "%-22s %-36s %-36s %7.3f %3d/%-2d %7.4f %3d/%-2d\n", name,
            sprintf("%.6g [%.6g %.6g]", rmed, rq1, rq3), sprintf("%.6g [%.6g %.6g]", tmed, tq1, tq3),
            rmed == 0 ? 0 : tmed / rmed, wins, n, signp(wins, untied), firstwins, untied
    }
}' "$tree/BENCHMARK.json" "$tmp/rev.jsonl" "$tmp/tree.jsonl"
