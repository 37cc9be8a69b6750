#!/usr/bin/env bash
# Smoke test: every experiment binary must run at a tiny budget with
# --telemetry-out/--trace-out and emit a non-empty telemetry.jsonl (the
# one per-run artifact) and Chrome trace, nothing else, and (for the
# skill-bootstrapping first run) per-layer gradient diagnostics.
#
# Usage: scripts/smoke_telemetry.sh [workdir]
# Exits non-zero on the first binary that fails or emits no telemetry.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d /tmp/hero-smoke.XXXXXX)}"
OUT="$WORK/experiments" # shared so the skill checkpoint is trained once
BINS=(
    fig7_learning_curves
    fig8_lowlevel_skills
    fig10_opponent_loss
    fig11_mean_speed
    table1_hyperparams
    table2_realworld
    ablation_opponent_model
    ablation_hierarchy
    ablation_termination
    diag_hero
)

cargo build --release -p hero-bench --bins

first=1
for bin in "${BINS[@]}"; do
    tel="$WORK/telemetry/$bin"
    echo "== smoke: $bin"
    cargo run --release -q -p hero-bench --bin "$bin" -- \
        --episodes 2 --eval-episodes 1 --skill-episodes 2 --batch-size 8 \
        --seed 7 --out "$OUT" --telemetry-out "$tel" \
        --trace-out "$tel/trace.json" >/dev/null
    for artifact in telemetry.jsonl trace.json; do
        if [ ! -s "$tel/$artifact" ]; then
            echo "FAIL: $bin produced empty or missing $tel/$artifact" >&2
            exit 1
        fi
    done
    extra=$(ls "$tel" | grep -vxE 'telemetry\.jsonl|trace\.json' || true)
    if [ -n "$extra" ]; then
        echo "FAIL: $bin wrote artifacts beside telemetry.jsonl: $extra" >&2
        exit 1
    fi
    # Any run that timed spans must have matching begin events in the
    # trace (table1_hyperparams runs no spans — just prints a table).
    if grep -q '"type":"span"' "$tel/telemetry.jsonl" \
        && ! grep -q '"ph":"B"' "$tel/trace.json"; then
        echo "FAIL: $bin trace.json has no begin events" >&2
        exit 1
    fi
    # The first binary trains the shared skill checkpoint, so its run must
    # contain per-layer gradient diagnostics from the SAC optimizers.
    if [ "$first" = 1 ] && ! grep -q '"name":"grad_norm/' "$tel/telemetry.jsonl"; then
        echo "FAIL: $bin emitted no per-layer gradient diagnostics" >&2
        exit 1
    fi
    first=0
    lines=$(wc -l <"$tel/telemetry.jsonl")
    echo "   ok: $lines telemetry records"
done

echo "telemetry smoke test passed for ${#BINS[@]} binaries (artifacts in $WORK)"
