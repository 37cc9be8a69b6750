#!/usr/bin/env bash
# hero-sim's format gate, the tier-1 gate, the benchmark's build and
# helper tests, telemetry smoke test, the learning-dynamics golden diff,
# the policy-serving lane, and a quick benchmark pass. Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

# Every lane works in a directory under one work directory, removed on
# exit whether CI passes or fails, so a run leaves nothing in /tmp.
WORK=$(mktemp -d /tmp/hero-ci.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

# Fails unless counter NAME in DIR/telemetry.jsonl satisfies
# `test TOTAL OP WANT` (an absent counter reads as 0); WHY explains the
# expectation. Prints every counter of the run on failure.
expect_counter() {
    local dir=$1 name=$2 op=$3 want=$4 why=$5 got
    got=$(sed -n "s|^{\"type\":\"counter\",\"name\":\"$name\",\"total\":\([0-9]*\),.*|\1|p" \
        "$dir/telemetry.jsonl")
    test "${got:-0}" "$op" "$want" || {
        echo "expected $name $op $want ($why), got ${got:-0}"
        grep '"type":"counter"' "$dir/telemetry.jsonl"
        exit 1
    }
}

echo "=== format gate: hero-sim"
# hero-sim is rustfmt-clean; keep it so. The other crates are not yet
# (a formatting-only change will bring them under this gate).
cargo fmt -p hero-sim -- --check

echo "=== tier-1: cargo build --release"
cargo build --release

echo "=== tier-1: cargo test -q"
cargo test -q

echo "=== benchmark builds against the crates"
# benchmark/ compiles against the crates' public items and pins its own
# Cargo.lock. Build it and run its helper tests right after tier-1, so a
# crate change that stops it compiling, or would rewrite its lock
# (--locked), fails here in about a minute, before the soak lanes.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "=== workspace tests"
cargo test --workspace -q

echo "=== simulator differential equivalence"
# The bit-exactness contract of the simulator's kernels: every world of a
# BatchWorld, and the one-world LaneChangeEnv handle, must match the
# test-only scalar reference world (crates/sim/tests/oracle/) bit-for-bit
# (observations, rewards, RNG streams, termination). The workspace tests
# already run this suite; rerun it by name so a contract break is
# unmissable in the CI log.
cargo test -q --release -p hero-sim --test batch_equivalence

echo "=== GEMM kernel contract"
# Every kernel path (tiles, the narrow-column loop over NR-row panels, the
# edge rows) computes each element as the same ascending-p f32 chain, so
# a product's row r never depends on how many rows the batch holds.
# Tier-1 already runs these suites; rerun them by name, optimized as the
# program ships, so a contract break is unmissable in the CI log.
cargo test -q --release -p hero-autograd --test matmul_kernel_props --test infer_forward

echo "=== telemetry smoke"
scripts/smoke_telemetry.sh "$WORK/smoke"

echo "=== learning-dynamics golden diff"
# Rerun the seeded diagnostics experiment into a FRESH output directory
# (so the skill library retrains instead of loading a checkpoint, which
# would change the telemetry) and gate against the committed baseline.
# Only seed-deterministic statistics are compared; see DESIGN.md.
cargo build --release -q -p hero-bench --bin fig10_opponent_loss \
    -p hero-inspect --bin hero-inspect
DIAG=$WORK/diag
mkdir "$DIAG"
./target/release/fig10_opponent_loss \
    --episodes 6 --eval-episodes 1 --skill-episodes 2 --batch-size 8 \
    --update-every 1 --seed 7 --out "$DIAG/exp" \
    --telemetry-out "$DIAG/tel" >/dev/null
./target/release/hero-inspect diff \
    tests/golden/diag_baseline.jsonl "$DIAG/tel" --fail-on-regression
./target/release/hero-inspect doctor "$DIAG/tel"

echo "=== actor/learner serial-mode golden diff"
# Serial mode (--batch-worlds 1, the default) must be bit-identical to
# the sequential trainer for any actor count: the same seeded experiment
# on 2 actor threads diffs clean against the sequential golden. Stall
# bookkeeping (actor/) is excluded — it only fires on injected faults.
./target/release/fig10_opponent_loss \
    --episodes 6 --eval-episodes 1 --skill-episodes 2 --batch-size 8 \
    --update-every 1 --seed 7 --actors 2 --out "$DIAG/exp-actors" \
    --telemetry-out "$DIAG/tel-actors" >/dev/null
./target/release/hero-inspect diff \
    tests/golden/diag_baseline.jsonl "$DIAG/tel-actors" \
    --ignore actor/ --ignore live/ --fail-on-regression

echo "=== live metrics exporter smoke"
# Run a longer 2-actor experiment with the runtime exporter attached
# (ephemeral port, discovered via <out>/metrics_addr) and scrape
# GET /metrics mid-run: the exposition must be well-formed Prometheus
# text with the live/ rollout gauges populated. A twin run without the
# exporter must then diff bit-identical (counters AND value statistics)
# — scraping is read-only. 120 episodes (~2s) so the scraper has a
# comfortable mid-run window; the 6-episode golden run is too short.
# Like the kill-and-resume smoke, both compared runs load one shared
# skill bootstrap: a fresh bootstrap trains the two skills on parallel
# threads whose sac.* diagnostic values interleave into shared
# histograms, so fresh-bootstrap value sums are scheduling-sensitive at
# the last ULP and never zero-tol comparable across runs.
LIVE=$WORK/live
mkdir "$LIVE"
LIVE_FLAGS=(--episodes 120 --eval-episodes 1 --skill-episodes 2 --batch-size 8
            --update-every 1 --seed 7 --actors 2)
./target/release/fig10_opponent_loss \
    --episodes 2 --eval-episodes 1 --skill-episodes 2 --batch-size 8 \
    --update-every 1 --seed 7 --out "$LIVE/shared" \
    --telemetry-out "$LIVE/tel-warm" >/dev/null
./target/release/fig10_opponent_loss "${LIVE_FLAGS[@]}" \
    --out "$LIVE/shared" --telemetry-out "$LIVE/tel" \
    --metrics-addr 127.0.0.1:0 \
    >/dev/null 2>"$LIVE/stderr.log" &
live_pid=$!
for _ in $(seq 1 100); do
    [ -f "$LIVE/shared/metrics_addr" ] && break
    kill -0 "$live_pid" 2>/dev/null || { cat "$LIVE/stderr.log"; exit 1; }
    sleep 0.1
done
ADDR=$(cat "$LIVE/shared/metrics_addr")
python3 - "$ADDR" <<'EOF'
import sys, time, urllib.request

addr = sys.argv[1].strip()
deadline = time.monotonic() + 30
last = ""
while time.monotonic() < deadline:
    try:
        with urllib.request.urlopen(f"http://{addr}/metrics", timeout=2) as r:
            last = r.read().decode()
    except OSError:
        if last:
            break  # run (and exporter) finished; judge the last scrape
        time.sleep(0.05)  # exporter not up yet (or gone before first hit)
        continue
    live = {}
    for ln in last.splitlines():
        if not ln or ln.startswith("#"):
            continue
        name, _, value = ln.rpartition(" ")
        assert name, f"malformed sample line: {ln!r}"
        float(value)  # every sample line ends in a number
        if ln.startswith("hero_gauge") and 'name="live/' in ln:
            live[name] = float(value)
    if live and any(v > 0 for v in live.values()):
        print(f"  scraped {addr}: {len(last.splitlines())} lines, "
              f"{len(live)} live gauges, e.g. {sorted(live)[0]}")
        sys.exit(0)
    time.sleep(0.1)
sys.exit(f"never saw a nonzero live/ gauge at {addr}; last scrape:\n{last}")
EOF
wait "$live_pid"
# Twin run, identical flags, no exporter: zero-tolerance diff proves the
# scraped run's telemetry is untouched by a live scraper.
./target/release/fig10_opponent_loss "${LIVE_FLAGS[@]}" \
    --out "$LIVE/shared" --telemetry-out "$LIVE/tel-plain" >/dev/null
./target/release/hero-inspect diff "$LIVE/tel-plain" "$LIVE/tel" \
    --tol-value 0 --tol-count 0 --tol-counter 0 --abs-floor 0 \
    --ignore actor/ --ignore live/ --fail-on-regression
# hero-top renders a frame from the finished telemetry directory.
./target/release/hero-inspect watch "$LIVE/tel" --frames 1 | grep -q "hero-top" \
    || { echo "hero-inspect watch failed to render from $LIVE/tel"; exit 1; }

echo "=== kill-and-resume smoke"
# A seeded run crashed mid-training (injected kill, exit 137) and resumed
# from its checkpoint must be indistinguishable from an uninterrupted run:
# zero-tolerance telemetry diff (checkpoint/ bookkeeping excluded) and
# byte-identical figure CSVs. Then corrupt the newest checkpoint and prove
# resume falls back to the previous good one.
CRASH=$WORK/crash
mkdir "$CRASH"
RUN_FLAGS=(--episodes 6 --eval-episodes 1 --skill-episodes 2 --batch-size 8
           --update-every 1 --seed 7 --checkpoint-every 2)
# Reuse one skill bootstrap for every run: the library is trained once,
# checkpointed under --out, and loaded (bit-identically) thereafter.
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-warm" \
    --checkpoint-dir "$CRASH/ckpt-warm" >/dev/null

# Run A: uninterrupted.
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-a" \
    --checkpoint-dir "$CRASH/ckpt-a" >/dev/null
cp "$CRASH/shared/fig10_opponent_loss.csv" "$CRASH/fig10_a.csv"

# Run B: killed at episode 3 (expected exit 137), then resumed. The
# killed run needs telemetry installed too — checkpoints embed the live
# registry state so the resumed run's totals cover the whole run.
rc=0
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-b1" \
    --checkpoint-dir "$CRASH/ckpt-b" \
    --fault-plan kill@ep:3 >/dev/null || rc=$?
test "$rc" -eq 137 || { echo "expected exit 137 from injected kill, got $rc"; exit 1; }
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-b" \
    --checkpoint-dir "$CRASH/ckpt-b" --resume >/dev/null

# Bit-identical telemetry (counters AND value statistics) and CSVs.
./target/release/hero-inspect diff "$CRASH/tel-a" "$CRASH/tel-b" \
    --tol-value 0 --tol-count 0 --tol-counter 0 --abs-floor 0 \
    --ignore checkpoint/ --ignore live/ --fail-on-regression
cmp "$CRASH/fig10_a.csv" "$CRASH/shared/fig10_opponent_loss.csv"

# Corrupt the newest checkpoint of run B; resume must fall back to the
# previous good one and count the recovery.
newest=$(ls "$CRASH/ckpt-b/HERO"/ckpt-*.hero | sort | tail -n 1)
truncate -s 64 "$newest"
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-c" \
    --checkpoint-dir "$CRASH/ckpt-b" --resume >/dev/null
expect_counter "$CRASH/tel-c" checkpoint/fallback -eq 1 "after corrupting the newest checkpoint"

# The same drill on the batched engine (2 actors x 2 worlds), whose
# resume also restores every world's RNG stream and option vector from
# the checkpoint's workers section: killed and resumed, it must match an
# uninterrupted batched run (batched runs interleave episodes, so they
# are compared with each other, not with the sequential runs above).
BATCHED=(--actors 2 --batch-worlds 2)
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" "${BATCHED[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-batched-a" \
    --checkpoint-dir "$CRASH/ckpt-batched-a" >/dev/null
cp "$CRASH/shared/fig10_opponent_loss.csv" "$CRASH/fig10_batched_a.csv"
rc=0
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" "${BATCHED[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-batched-b1" \
    --checkpoint-dir "$CRASH/ckpt-batched-b" \
    --fault-plan kill@ep:3 >/dev/null || rc=$?
test "$rc" -eq 137 || { echo "expected exit 137 from the batched kill, got $rc"; exit 1; }
./target/release/fig10_opponent_loss "${RUN_FLAGS[@]}" "${BATCHED[@]}" \
    --out "$CRASH/shared" --telemetry-out "$CRASH/tel-batched-b" \
    --checkpoint-dir "$CRASH/ckpt-batched-b" --resume >/dev/null
./target/release/hero-inspect diff "$CRASH/tel-batched-a" "$CRASH/tel-batched-b" \
    --tol-value 0 --tol-count 0 --tol-counter 0 --abs-floor 0 \
    --ignore checkpoint/ --ignore live/ --fail-on-regression
cmp "$CRASH/fig10_batched_a.csv" "$CRASH/shared/fig10_opponent_loss.csv"

echo "=== chaos soak (actor supervision)"
# The self-healing ladder under a combined fault schedule on a 3-actor
# serial run: actor 1 panics at startup, actor 2 freezes (stall), actor 0
# is slowed on every reply, and checkpoint save 1 hits a full disk (all
# its retries fail, so it degrades to a counted drop — never the final
# save, which must survive for the byte comparison). The supervisor must
# respawn both failed actors and the run must end indistinguishable from
# its fault-free twin: zero-tolerance telemetry diff (only the fault-local
# actor/, supervisor/, checkpoint/ namespaces excluded), byte-identical
# figure CSVs, and a byte-identical final checkpoint.
CHAOS=$WORK/chaos
mkdir "$CHAOS"
CHAOS_PLAN='panic@actor:1,stall@actor:2,slow@actor:0:2,disk-full@save:1'
CHAOS_FLAGS=(--episodes 6 --eval-episodes 1 --skill-episodes 2 --batch-size 8
             --update-every 1 --seed 7 --actors 3 --checkpoint-every 2
             --stall-timeout-ms 2000 --respawn-backoff-ms 0)
# One shared skill bootstrap, as in the other lanes.
./target/release/fig10_opponent_loss "${CHAOS_FLAGS[@]}" \
    --out "$CHAOS/shared" --telemetry-out "$CHAOS/tel-warm" \
    --checkpoint-dir "$CHAOS/ckpt-warm" >/dev/null

# Fault-free twin, then the chaos run (telemetry installed for the diff).
./target/release/fig10_opponent_loss "${CHAOS_FLAGS[@]}" \
    --out "$CHAOS/shared" --telemetry-out "$CHAOS/tel-clean" \
    --checkpoint-dir "$CHAOS/ckpt-clean-tel" >/dev/null
cp "$CHAOS/shared/fig10_opponent_loss.csv" "$CHAOS/fig10_clean.csv"
./target/release/fig10_opponent_loss "${CHAOS_FLAGS[@]}" \
    --out "$CHAOS/shared" --telemetry-out "$CHAOS/tel-chaos" \
    --checkpoint-dir "$CHAOS/ckpt-chaos-tel" \
    --fault-plan "$CHAOS_PLAN" >/dev/null

# The faults must actually have fired and been healed.
expect_counter "$CHAOS/tel-chaos" actor/panicked -eq 1 "from panic@actor:1"
expect_counter "$CHAOS/tel-chaos" actor/respawned -ge 2 "actors 1 and 2 replaced"
expect_counter "$CHAOS/tel-chaos" checkpoint/dropped -eq 1 "from disk-full@save:1"

# Zero-tolerance diff: faults may touch nothing outside their own
# bookkeeping namespaces. CSVs must be byte-identical.
./target/release/hero-inspect diff "$CHAOS/tel-clean" "$CHAOS/tel-chaos" \
    --tol-value 0 --tol-count 0 --tol-counter 0 --abs-floor 0 \
    --ignore actor/ --ignore supervisor/ --ignore checkpoint/ --ignore live/ \
    --fail-on-regression
cmp "$CHAOS/fig10_clean.csv" "$CHAOS/shared/fig10_opponent_loss.csv"
# Doctor surfaces the healed actor faults as warnings; the one critical
# it must raise (hence exit 1) is the disk-full-induced checkpoint drop —
# a dropped snapshot is a real pathology even when injected.
doctor_rc=0
doctor_out=$(./target/release/hero-inspect doctor "$CHAOS/tel-chaos") || doctor_rc=$?
test "$doctor_rc" -eq 1 \
    || { echo "doctor must exit 1 on the dropped checkpoint (got $doctor_rc)"; \
         echo "$doctor_out"; exit 1; }
grep -q 'WARN  actor/respawned' <<<"$doctor_out" \
    || { echo "doctor must flag the respawns"; echo "$doctor_out"; exit 1; }
test "$(grep -c '^CRIT' <<<"$doctor_out")" -eq 1 \
    && grep -q 'CRIT  checkpoint/dropped' <<<"$doctor_out" \
    || { echo "the only critical must be the injected checkpoint drop"; \
         echo "$doctor_out"; exit 1; }

# Byte-identical final checkpoint: rerun both without telemetry (an
# active sink embeds wall-clock histograms in the checkpoint's telemetry
# section, so only sink-free checkpoint files are comparable).
./target/release/fig10_opponent_loss "${CHAOS_FLAGS[@]}" \
    --out "$CHAOS/shared" --checkpoint-dir "$CHAOS/ckpt-clean" >/dev/null
./target/release/fig10_opponent_loss "${CHAOS_FLAGS[@]}" \
    --out "$CHAOS/shared" --checkpoint-dir "$CHAOS/ckpt-chaos" \
    --fault-plan "$CHAOS_PLAN" >/dev/null
newest_clean=$(ls "$CHAOS/ckpt-clean/HERO"/ckpt-*.hero | sort | tail -n 1)
newest_chaos=$(ls "$CHAOS/ckpt-chaos/HERO"/ckpt-*.hero | sort | tail -n 1)
test "$(basename "$newest_clean")" = "$(basename "$newest_chaos")" \
    || { echo "final checkpoint index differs: $newest_clean vs $newest_chaos"; exit 1; }
cmp "$newest_clean" "$newest_chaos" \
    || { echo "chaos-run final checkpoint differs from the fault-free twin"; exit 1; }

echo "=== serving lane (hero-serve + hero-load)"
# End-to-end policy serving against a real trainer checkpoint: a short
# seeded run writes a registry, hero-serve loads the newest checkpoint on
# an ephemeral port, a hero-load burst must complete every request, one
# hot-reload must succeed under the same registry, and shutdown must be
# clean, leaving the daemon's telemetry.jsonl for hero-inspect doctor.
SERVE=$WORK/serve
mkdir "$SERVE"
cargo build --release -q -p hero-serve --bins
./target/release/fig10_opponent_loss \
    --episodes 2 --eval-episodes 1 --skill-episodes 2 --batch-size 8 \
    --update-every 1 --seed 7 --checkpoint-every 1 \
    --out "$SERVE/exp" --checkpoint-dir "$SERVE/ckpt" >/dev/null
./target/release/hero-serve \
    --checkpoint-dir "$SERVE/ckpt/HERO" --addr 127.0.0.1:0 \
    --out "$SERVE/daemon" >"$SERVE/daemon.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$SERVE/daemon/serve_addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$SERVE/daemon.log"; exit 1; }
    sleep 0.1
done
SERVE_ADDR=$(cat "$SERVE/daemon/serve_addr")
./target/release/hero-load \
    --addr "$SERVE_ADDR" --rate 400 --requests 120 --concurrency 8 \
    >"$SERVE/load.json"
python3 - "$SERVE/load.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    load = json.load(f)
assert load["completed"] > 0, f"serve lane completed no requests: {load}"
assert load["errors"] == 0, f"serve lane saw request errors: {load}"
print(f"  {load['completed']} requests @ {load['rps']} req/s, "
      f"p99 {load['p99_us']}us, mean batch {load['mean_batch']}")
EOF
reload_status=$(curl -s -o "$SERVE/reload.json" -w '%{http_code}' \
    -X POST "http://$SERVE_ADDR/reload")
test "$reload_status" = 200 \
    || { echo "POST /reload returned $reload_status"; cat "$SERVE/reload.json"; exit 1; }
curl -sf -X POST "http://$SERVE_ADDR/shutdown" >/dev/null
wait "$serve_pid"
grep -q '"name":"live/serve/max_batch","value":32}' "$SERVE/daemon/telemetry.jsonl" \
    || { echo "daemon telemetry lacks its max_batch gauge"; \
         cat "$SERVE/daemon/telemetry.jsonl"; exit 1; }
./target/release/hero-inspect doctor "$SERVE/daemon"

echo "=== repository benchmark"
# benchmark/ is the one performance measurement (see benchmark/README.md).
# Its build and helper tests ran right after tier-1; here one quick pass:
# run.sh exits nonzero when any built-in check fails (state digests,
# bitwise logits, reloads, stage sums).
BENCH=$WORK/bench
mkdir "$BENCH"
bash benchmark/run.sh --quick --out "$BENCH/results.json"
# Pin the seed-1 state digests: the reps only compare with each other, so
# without this a change that silently alters training numerics at Table I
# shapes would pass. A deliberate numerics change records new values here.
python3 - "$BENCH/results.json" <<'EOF'
import json, sys
want = {"train-table1": "3c43d0b232306fa4", "train-wave": "46d66e300d4a4eda"}
with open(sys.argv[1]) as f:
    workloads = json.load(f)["workloads"]
for name, digest in want.items():
    got = workloads[name]["detail"].get("state_digest")
    assert got == digest, f"{name}: state_digest {got}, pinned {digest}"
print("  seed-1 state digests match the pinned values")
EOF

echo "=== CI passed"
