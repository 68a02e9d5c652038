#!/usr/bin/env bash
# Figure gate: regenerate every figure and ablation CSV with the bench
# binaries of a build tree and compare each, byte for byte, with the
# checked-in copy under data/.
#
#   tools/check_figures.sh [build-dir]    (default: build)
#
# Run from the repository root with a configured build tree; the script
# builds the bench targets it runs. Fails when a produced CSV differs from
# data/, when a checked-in figure CSV was not produced, or when
# data/description.csv (one "name,N rows" line per CSV) disagrees with the
# rows the run wrote there. One bench runs twice, so a second run that adds
# a row instead of replacing its own fails the gate. Not compared: the
# perf_*.csv wall-clock tables (host timings, written by
# perf_wallclock/perf_server) and fig09_exact_point.csv (written only by
# `fig09_alltoall_scalability --exact-point`, a long single-point run).
set -euo pipefail

build=${1:-build}
benches=(
  table1_systems fig03_intranode_pingpong fig04_lumi_gpu_pairs
  fig05_intranode_alltoall fig06_intranode_allreduce fig07_internode_pingpong
  fig08_network_distance fig09_alltoall_scalability fig10_allreduce_scalability
  fig11_rccl_vs_mpi_ratio fig12_service_levels fig13_noise_at_scale
  ablation_tuning expected_goodput discussion_fat_tree ablation_routing
  gpcnet_style ablation_allreduce_algo noise_trace fault_degradation
)

cmake --build "$build" -j "$(nproc)" --target "${benches[@]}" > /dev/null

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for b in "${benches[@]}"; do
  start=$(date +%s%N)
  if ! GPUCOMM_DATA_DIR="$out" "$build/bench/$b" > "$out/$b.log" 2>&1; then
    echo "FAIL $b exited non-zero; last lines:"
    tail -n 5 "$out/$b.log"
    status=1
  fi
  ms=$((($(date +%s%N) - start) / 1000000))
  printf '%-30s %4d.%03d s\n' "$b" $((ms / 1000)) $((ms % 1000))
done

# A rerun must replace its description row, not append a second one.
GPUCOMM_DATA_DIR="$out" "$build/bench/table1_systems" > /dev/null 2>&1
dups=$(cut -d, -f1 "$out/description.csv" | sort | uniq -d)
if [ -n "$dups" ]; then
  echo "FAIL description.csv lists a CSV more than once after a rerun:"
  echo "$dups"
  status=1
fi
while IFS= read -r row; do
  if ! grep -Fxq "$row" data/description.csv; then
    echo "FAIL data/description.csv lacks the row '$row'"
    status=1
  fi
done < "$out/description.csv"

for csv in "$out"/*.csv; do
  name=$(basename "$csv")
  [ "$name" = description.csv ] && continue
  if [ ! -f "data/$name" ]; then
    echo "FAIL $name produced but not checked in under data/"
    status=1
  elif ! cmp -s "$csv" "data/$name"; then
    echo "FAIL $name differs from data/$name:"
    diff "data/$name" "$csv" | head -n 10
    status=1
  fi
done

checked=0
for csv in data/*.csv; do
  name=$(basename "$csv")
  case "$name" in
    description.csv | perf_*.csv | fig09_exact_point.csv) continue ;;
  esac
  checked=$((checked + 1))
  if [ ! -f "$out/$name" ]; then
    echo "FAIL data/$name was not produced by any bench"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "figure gate: all $checked checked-in figure CSVs regenerated byte-identically"
fi
exit "$status"
