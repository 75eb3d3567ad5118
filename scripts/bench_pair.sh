#!/bin/sh
# bench_pair.sh: a same-host, same-window BENCH snapshot pair for
# `make benchcheck`. It builds the root benchmark suite twice, once from
# a parent revision and once from the working tree, and runs the two
# binaries in alternating rounds, so that a host whose speed drifts over
# minutes slows both sides alike. Each round runs the suite once per
# side, then the $ISOLATED benchmarks $ISOLATEDCOUNT times per side, each
# sample in a process of its own (the Makefile's bench target explains
# why they are set apart). benchjson keeps each benchmark's fastest
# sample, so every entry is a min over $ROUNDS (isolated ones:
# $ROUNDS x $ISOLATEDCOUNT) interleaved samples.
#
# Both sides run the working tree's bench_test.go, so the parent must
# build it. The parent's snapshot is written first, so the change's
# sorts last and benchcheck compares the two.
#
#   sh scripts/bench_pair.sh <parent-rev>
set -eu

GO=${GO:-go}
BENCHTIME=${BENCHTIME:-1s}
ROUNDS=${ROUNDS:-3}
ISOLATED=${ISOLATED:-ClusterAdmit|AdmitThroughputSharded}
ISOLATEDCOUNT=${ISOLATEDCOUNT:-3}
if [ $# -ne 1 ]; then
    echo "usage: sh scripts/bench_pair.sh <parent-rev>" >&2
    exit 2
fi
PARENT=$1
ROOT=$(pwd)
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

mkdir "$DIR/parent"
git archive "$PARENT" | tar -x -C "$DIR/parent"
cp bench_test.go "$DIR/parent/bench_test.go"
(cd "$DIR/parent" && "$GO" test -c -o "$DIR/parent.test" .)
"$GO" test -c -o "$DIR/change.test" .
"$GO" build -o "$DIR/benchjson" ./tools/benchjson

# side runs one side's binary from its own source tree.
side() {
    name=$1
    shift
    if [ "$name" = parent ]; then src="$DIR/parent"; else src="$ROOT"; fi
    (cd "$src" && "$DIR/$name.test" -test.run '^$' -test.timeout 60m -test.benchmem -test.benchtime "$BENCHTIME" "$@") >>"$DIR/$name.out" 2>&1
}

r=1
while [ "$r" -le "$ROUNDS" ]; do
    if [ $((r % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for s in $order; do
        echo "bench-pair: round $r/$ROUNDS, $s suite" >&2
        side "$s" -test.bench . -test.skip "^Benchmark($ISOLATED)\$"
    done
    c=1
    while [ "$c" -le "$ISOLATEDCOUNT" ]; do
        echo "bench-pair: round $r/$ROUNDS, isolated sample $c/$ISOLATEDCOUNT" >&2
        for s in $order; do
            side "$s" -test.bench "^Benchmark($ISOLATED)\$"
        done
        c=$((c + 1))
    done
    r=$((r + 1))
done

"$DIR/benchjson" <"$DIR/parent.out" >"$DIR/parent.json" 2>/dev/null
"$DIR/benchjson" <"$DIR/change.out" >"$DIR/change.json" 2>/dev/null
stamp=$(date -u +%Y-%m-%dT%H%M%SZ)
cp "$DIR/parent.json" "BENCH_$stamp.json"
sleep 1
stamp2=$(date -u +%Y-%m-%dT%H%M%SZ)
cp "$DIR/change.json" "BENCH_$stamp2.json"
echo "wrote BENCH_$stamp.json (parent $PARENT) and BENCH_$stamp2.json (working tree)"
