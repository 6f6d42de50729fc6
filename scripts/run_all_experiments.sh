#!/usr/bin/env bash
# Regenerates every experiment result in results/ (release build).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p tsm-bench --bins
mkdir -p results
for e in exp_table1 exp_fig6 exp_fig7 exp_fig8 exp_fig9 \
         exp_efficiency exp_tuning exp_gating exp_characteristics exp_whole_vs_subseq; do
  echo "=== $e ==="
  "${CARGO_TARGET_DIR:-target}/release/$e" | tee "results/$e.txt"
done
