#!/usr/bin/env bash
# stress.sh PKG TEST COUNT BUSY runs one test COUNT times, each run a
# fresh `go test -run '^TEST$' -count=1 PKG`, beside BUSY busy-loop
# subshells of its own, and prints how many runs failed: a way to
# reproduce a load-dependent failure on demand and to measure its rate.
# BUSY is capped at the number of CPUs (nproc). The busy loops are this
# script's children and are killed when it exits; no machine setting is
# touched. Each failing run prints its first failure line; the exit
# status is 1 when any run failed.
#
#   scripts/stress.sh ./server TestChaosShardedOwnerCrash 100 2
set -u

if [ $# -ne 4 ]; then
    echo "usage: $0 PKG TEST COUNT BUSY" >&2
    exit 2
fi
pkg=$1 test=$2 count=$3 busy=$4
case "$count" in '' | *[!0-9]*) echo "stress: COUNT must be a whole number" >&2; exit 2 ;; esac
case "$busy" in '' | *[!0-9]*) echo "stress: BUSY must be a whole number" >&2; exit 2 ;; esac
if [ "$busy" -gt "$(nproc)" ]; then
    busy=$(nproc)
fi

log=$(mktemp)
pids=()
cleanup() {
    if [ ${#pids[@]} -gt 0 ]; then
        kill "${pids[@]}" 2>/dev/null
        wait "${pids[@]}" 2>/dev/null
    fi
    rm -f "$log"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for ((i = 0; i < busy; i++)); do
    (while :; do :; done) &
    pids+=($!)
done

fails=0
for ((i = 1; i <= count; i++)); do
    if ! go test -run "^${test}\$" -count=1 "$pkg" >"$log" 2>&1; then
        fails=$((fails + 1))
        line=$(grep -m1 -E '^[[:space:]]+[^[:space:]]+\.go:[0-9]+: ' "$log" || tail -n 1 "$log")
        echo "run $i failed: ${line#"${line%%[![:space:]]*}"}"
    fi
done
echo "$fails/$count failed: $test in $pkg beside $busy busy loops"
[ "$fails" -eq 0 ]
