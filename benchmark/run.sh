#!/usr/bin/env bash
# One command: build the benchmark, run all five workloads untraced
# (end-to-end metrics) and traced (per-layer metrics), verify every
# round, and write benchmark/out/result.json.
#
#   SEED=42 RUNS=1 benchmark/run.sh
#
# RUNS > 1 repeats every run so that compare.sh can tell "within" from
# "unresolved". Each run is its own process (bench.peak_rss_mb is
# per workload).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pwsr_benchmark"
out=benchmark/out
mkdir -p "$out"
rm -f "$out"/run-*.json
for i in $(seq 1 "${RUNS:-1}"); do
  for workload in occ_hot occ_durable stream_local stream_cross recover_replay; do
    for trace in 0 1; do
      # Everything but the driver's JSON line, which the run file holds.
      "$bin" --workload "$workload" --seed "${SEED:-42}" --trace "$trace" | grep -v '^{'
      mv "$out/run-$workload-t$trace.json" "$out/run-$workload-t$trace-$i.json"
    done
  done
done
python3 benchmark/results.py merge "$out" > "$out/result.json"
echo "wrote $out/result.json"
