#!/usr/bin/env bash
# Runs the benchmark once per seed on one workload and keeps each run's
# output as <dir>/<workload>.<seed>.out, the input of the spread report.
# Run from the repository root:
#
#   bash perfbench/runset.sh /tmp/setA cold-select 1 2 3 4 5 6 7 8 9 10
set -euo pipefail
dir=$1 workload=$2
shift 2
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")
mkdir -p "$dir"
for seed in "$@"; do
  bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$dir/$workload.$seed.out"
  tail -n 1 "$dir/$workload.$seed.out"
done
