#!/usr/bin/env bash
# Regenerates every committed device-time baseline (benchmarks/BENCH_*.json)
# in fast mode and compares each against its committed file with
# `bench_compare --threshold 0`. The compared metrics are simulated device
# time from seeded RNG streams, so they reproduce exactly on any host: any
# drift is a change in behaviour. Names every baseline that drifted (or
# whose experiment failed) and exits 1 if any did.
#
# Usage: ./scripts/check_baselines.sh [BIN_DIR]   (default: target/release)
#
# Builds nothing; run `cargo build --release -p sero-bench --bins` first.
# The regenerated BENCH_*.json, sched_trace.json and fleet_trace.json land
# in the repository root (git-ignored), where the perf-baselines CI job
# uploads them.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN_DIR="$(cd "${1:-$ROOT/target/release}" && pwd)"
cd "$ROOT"

checked=0
drifted=()
for baseline in benchmarks/BENCH_*.json; do
  name="$(basename "$baseline" .json)"
  name="${name#BENCH_}"
  echo "== $name: regenerating with exp_$name (fast mode)"
  # A stale regenerated file must never stand in for a fresh one.
  rm -f "BENCH_$name.json"
  checked=$((checked + 1))
  if ! SERO_BENCH_FAST=1 "$BIN_DIR/exp_$name"; then
    drifted+=("$name (exp_$name failed)")
    continue
  fi
  if ! "$BIN_DIR/bench_compare" "$baseline" "BENCH_$name.json" --threshold 0; then
    drifted+=("$name")
  fi
done

if [ "$checked" -eq 0 ]; then
  echo "check_baselines: no baselines found under benchmarks/" >&2
  exit 1
fi
if [ "${#drifted[@]}" -gt 0 ]; then
  echo "check_baselines: ${#drifted[@]} of $checked baselines drifted:" >&2
  for name in "${drifted[@]}"; do
    echo "  - $name" >&2
  done
  exit 1
fi
echo "check_baselines: all $checked baselines reproduce exactly"
