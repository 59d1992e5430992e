#!/usr/bin/env bash
# Runs every workload once per seed and stores each run's output as
# OUTDIR/<workload>/<seed>.out, the layout --compare reads.
#
#   bash perfbench/sweep.sh OUTDIR SEED...
set -euo pipefail
out="$1"
shift
cd "$(dirname "$0")/.."
for wl in solve-hit solve-miss simulate control-epoch; do
	mkdir -p "$out/$wl"
	for seed in "$@"; do
		bash perfbench/run.sh --workload "$wl" --seed "$seed" >"$out/$wl/$seed.out"
	done
done
