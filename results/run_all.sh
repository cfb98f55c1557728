#!/bin/sh
# Regenerates every paper table/figure (plus the ablation study).
# Full quality takes ~40-60 min on a laptop core; set FOOTPRINT_QUICK=1
# for a ~5-minute smoke pass of the heavy figures.
set -e
cd "$(dirname "$0")/.."
cargo build --release -p footprint-bench
# One binary per source file in crates/bench/src/bin (the benchmark is a
# directory there and has its own driver).
for src in crates/bench/src/bin/*.rs; do
  exp=$(basename "$src" .rs)
  echo "=== $exp ==="
  ./target/release/"$exp" > "results/$exp.txt" 2>&1
  echo "    -> results/$exp.txt"
done
