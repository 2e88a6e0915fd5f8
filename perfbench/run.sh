#!/usr/bin/env bash
# Builds the benchmark and the sdsd daemon from the checkout it sits in, then
# runs one workload. Build outputs and the Go build cache stay under
# .bench_build/ at the checkout root, so a run reads and writes nothing
# outside the checkout. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload wire-bin --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"

# The benchmark measures the repository's own code; without the module next
# to it there is nothing to measure.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sdsd" ]; then
	echo "perfbench: no sds module at $root" >&2
	exit 2
fi

mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/sdsd" github.com/memdos/sds/cmd/sdsd) >&2
cd "$root"
exec "$out/perfbench" -sdsd "$out/sdsd" -out "$out/trace" "$@"
