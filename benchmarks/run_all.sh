#!/bin/sh
# Every workload on one seed: untraced (end-to-end metrics), then traced
# (per-layer metrics). Run from the repository root:
#     sh benchmarks/run_all.sh [SEED] [SECONDS]
set -e
seed=${1:-1}
seconds=${2:-20}
for workload in oracle-ties sweep-grid simulate-drift cli-mix; do
    for trace in 0 1; do
        python3 benchmarks/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
