#!/bin/sh
# Smoke-run the repository benchmark: every perfbench workload for one
# measured second through perfbench/run.sh (which builds the benchmark and
# sdsd from this checkout), asserting each run's result line reports a
# checked, failure-free run. Vetting and testing perfbench/ only proves it
# compiles; this proves it still runs against the current code.
# Usage, from the repository root: scripts/smoke_perfbench.sh
set -eu

tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT INT TERM

for w in wire-bin wire-csv grid cloudsim; do
    bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 >"$tmp/$w.out" 2>&1 || {
        echo "smoke-perfbench: $w failed" >&2
        cat "$tmp/$w.out" >&2
        exit 1
    }
    last=$(tail -n 1 "$tmp/$w.out")
    case "$last" in
    *'"correct":true'*) ;;
    *)
        echo "smoke-perfbench: $w did not report correct:true: $last" >&2
        exit 1
        ;;
    esac
    echo "$last" | grep -Eq '"failed":0[,}]' || {
        echo "smoke-perfbench: $w reported failed operations: $last" >&2
        exit 1
    }
    echo "smoke-perfbench: $w ok"
done
