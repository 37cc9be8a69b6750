#!/usr/bin/env bash
# Builds the benchmark (offline) and runs it. See benchmark/README.md.
#
#   benchmark/run.sh [--quick] [--seed N] [--workload NAME] [--out FILE]
#       Runs every workload (or NAME), prints every metric with its unit,
#       median and quartiles, and writes the results JSON to FILE
#       (default benchmark/target/results.json). --quick makes one timed
#       rep per workload.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run of one workload; the last line of standard output is its
#       JSON result (end-to-end metrics, or per-layer ones with --trace 1).
#
# Both exit nonzero when the build or a built-in check fails.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
  -p hero-benchmark -p hero-serve --bins >&2
bin="$CARGO_TARGET_DIR/release/hero-benchmark"

for arg in "$@"; do
  case "$arg" in
    --seconds | --trace) exec "$bin" run "$@" ;;
  esac
done
sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$bin" report --sha "$sha" "$@"
