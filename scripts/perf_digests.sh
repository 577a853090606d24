#!/usr/bin/env bash
# Prints the perfbench sim_digest of every workload at seeds 1 and 90210.
#
#   scripts/perf_digests.sh [BUILD_DIR]
#
# Run from anywhere inside a checkout. Builds perfbench once (Release) into
# BUILD_DIR (default: .bench_build at the checkout's root, the directory
# perfbench/run.py uses), then runs each workload for 1 s untraced and prints
# one "<workload> <seed> <sim_digest>" line per run. A change meant to leave
# the simulated results alone must print the same lines as its parent:
#
#   scripts/perf_digests.sh > change.txt
#   (cd ../parent && scripts/perf_digests.sh) > parent.txt
#   diff parent.txt change.txt
#
# The run outputs go to a temporary directory, removed at exit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$root/.bench_build}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" --target perfbench -j 4 >/dev/null

for workload in replay fleet-rebuild mc-campaign; do
  for seed in 1 90210; do
    line="$("$build/perfbench" --workload "$workload" --seed "$seed" --seconds 1 \
      --trace 0 --out-dir "$out" | tail -n 1)"
    digest="$(printf '%s\n' "$line" | sed -n 's/.*"sim_digest":"\([^"]*\)".*/\1/p')"
    if [[ -z "$digest" ]]; then
      echo "perf_digests: no sim_digest from $workload seed $seed" >&2
      exit 1
    fi
    echo "$workload $seed $digest"
  done
done
