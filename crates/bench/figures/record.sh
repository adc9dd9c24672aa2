#!/bin/sh
# Regenerate the figure record: every paper-set binary's stdout and CSV
# in quick mode (NORNS_QUICK=1), written to crates/bench/figures/quick/.
# Run from anywhere after `cargo build --release -p norns-bench --bins`;
# it runs from the workspace root, where `fig4` reads BENCH_control.json.
# CI regenerates the record and fails on any difference from the
# committed copy: a change that moves a figure on purpose commits the
# regenerated record with it.
set -eu
cd "$(dirname "$0")/../../.."
out=crates/bench/figures/quick
mkdir -p "$out"
for bin in fig1a fig1b fig4 fig5 fig6 fig7 fig8 table3 table4 table5 ablation_sched ablation_affinity; do
    NORNS_QUICK=1 NORNS_RESULTS_DIR="$out" "target/release/$bin" > "$out/$bin.stdout"
done
