#!/bin/sh
# Seed self-test of the benchmark. Run from the repository root:
#
#   sh perfbench/selftest.sh
#
# reproduce-cold and reproduce-warm must print the same fingerprint
# under two seeds (their inputs do not depend on --seed). serve-mixed
# must print the same fingerprint twice under one seed, and different
# trace digests under another seed. Every run must report correct.
set -eu

# Prints the value after `$3` on the output of one short run.
field() {
    out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds 1 --trace 0)
    case $(printf '%s\n' "$out" | tail -n 1) in
    *'"correct": true'*) ;;
    *) echo "FAIL $1 seed $2: not correct" >&2; exit 1 ;;
    esac
    printf '%s\n' "$out" | sed -n "s/^$3 //p"
}

check() {
    if [ "$2" = "$3" ]; then
        echo "ok   $1 ($2)"
    else
        echo "FAIL $1 ($2 vs $3)" >&2
        exit 1
    fi
}

for w in reproduce-cold reproduce-warm; do
    check "$w: fingerprint identical under seeds 1 and 2" \
        "$(field "$w" 1 fingerprint)" "$(field "$w" 2 fingerprint)"
done
check "serve-mixed: fingerprint repeats under seed 1" \
    "$(field serve-mixed 1 fingerprint)" "$(field serve-mixed 1 fingerprint)"
a=$(field serve-mixed 1 trace_digests)
b=$(field serve-mixed 2 trace_digests)
if [ "$a" = "$b" ]; then
    echo "FAIL serve-mixed: seeds 1 and 2 give the same trace digests ($a)" >&2
    exit 1
fi
echo "ok   serve-mixed: seeds 1 and 2 give different trace digests ($a, $b)"
