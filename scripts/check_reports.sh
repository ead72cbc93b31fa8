#!/usr/bin/env bash
# Byte-identity gate for the committed reports:
#
#   scripts/check_reports.sh
#
# Builds in release, reruns at full scale every experiment whose report
# reproduces byte-for-byte from its seed, writing into a temporary
# directory, and compares the fresh output against results/: each
# report JSON, the forensics/heat/move-plan artifacts, and each text
# table minus its "wrote <path>" line (the path names the output
# directory). Any difference fails the gate, so a refactor that claims
# to preserve behaviour can prove it.
#
# The other 8 experiments (a1, c2, c3, c10, c11, c12, f2, f3) drive
# real threads whose interleaving makes two same-seed runs differ; they
# join the list once their runs are deterministic.

set -euo pipefail
cd "$(dirname "$0")/.."

EXPERIMENTS=(
  exp_c1_cache_ratio
  exp_c4_timestamps
  exp_c5_buffer_policies
  exp_c6_cache_vs_offload
  exp_c7_durability
  exp_c8_availability
  exp_c9_indexes
  exp_c13_chaos
  exp_e1_reshard
  exp_f1_pooling
  exp_o1_contention
  exp_o2_timeline
  exp_o3_watchdog
  exp_o4_tailpath
  exp_o5_heatmap
)

ARTIFACTS=(
  exp_o4_tailpath_exemplars.json
  exp_o5_heatmap_heat.json
  exp_o5_heatmap_moveplan.json
)

echo "== build (release) =="
cargo build --release -q

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

failed=0
same() {
  if cmp -s "$1" "$2"; then
    echo "same  $3"
  else
    echo "DIFF  $3"
    failed=1
  fi
}

for exp in "${EXPERIMENTS[@]}"; do
  BENCH_RESULTS_DIR="$OUT" "./target/release/$exp" >"$OUT/$exp.stdout"
  same "results/$exp.json" "$OUT/$exp.json" "$exp.json"
  if [ -f "results/$exp.txt" ]; then
    grep -v '^wrote ' "results/$exp.txt" >"$OUT/$exp.want.txt" || true
    grep -v '^wrote ' "$OUT/$exp.stdout" >"$OUT/$exp.got.txt" || true
    same "$OUT/$exp.want.txt" "$OUT/$exp.got.txt" "$exp.txt"
  fi
done
for artifact in "${ARTIFACTS[@]}"; do
  same "results/$artifact" "$OUT/$artifact" "$artifact"
done

if [ "$failed" -ne 0 ]; then
  echo "check_reports: FAILED — output differs from the committed results/"
  exit 1
fi
echo "check_reports: all ${#EXPERIMENTS[@]} reports, ${#ARTIFACTS[@]} artifacts and text tables byte-identical"
