//! # hero-bench
//!
//! The experiment harness regenerating every table and figure of the HERO
//! paper's evaluation (Sec. V). Performance is measured by the
//! repository benchmark (`benchmark/run.sh`), not by this crate.
//!
//! One binary per experiment (see `DESIGN.md` for the full index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_hyperparams` | Table I (hyper-parameters) |
//! | `fig7_learning_curves` | Fig. 7(a–c) learning curves |
//! | `fig8_lowlevel_skills` | Fig. 8 skill-training rewards |
//! | `fig10_opponent_loss` | Fig. 10 opponent-model losses |
//! | `fig11_mean_speed` | Fig. 11 mean speeds |
//! | `table2_realworld` | Table II sim-to-real evaluation |
//! | `ablation_opponent_model` | opponent-model ablation |
//! | `ablation_hierarchy` | hierarchy-vs-flat ablation |
//! | `ablation_termination` | async-vs-sync termination ablation |
//!
//! Every binary takes `--episodes N --seed S --out DIR` (and
//! `--paper-scale` for the full Table I budget) and writes CSV series
//! under `target/experiments/`. Passing `--telemetry-out DIR`
//! additionally records span timings, counters, and throughput gauges
//! (see `hero_rl::telemetry`) and writes them to `DIR/telemetry.jsonl`
//! on exit (read it with `hero-inspect`); passing
//! `--trace-out FILE` records Chrome trace events for every span and
//! writes a Perfetto-loadable `trace.json` to `FILE`; passing
//! `--metrics-addr HOST:PORT` serves the live registry over HTTP for the
//! lifetime of the run (`GET /metrics` Prometheus text format,
//! `GET /snapshot` JSONL — scrape with `hero-inspect watch HOST:PORT`),
//! with the bound address written to `<out>/metrics_addr`. A malformed
//! flag exits with status 2 before any work starts, naming the flag and
//! its value.
//!
//! Crash-safe training: `--checkpoint-every N --checkpoint-dir DIR`
//! snapshots the full HERO trainer state every `N` episodes into a
//! rotating set of atomic, CRC-checked checkpoint files, `--resume`
//! continues bit-identically from the newest valid one, and
//! `--fault-plan SPEC` (e.g. `kill@ep:3,truncate@save:1`) injects
//! deterministic crashes, IO errors, checkpoint corruption, and NaN
//! gradients for recovery drills. Injected kills exit with code 137.
//!
//! Distributed rollout: `--actors N` moves environment stepping onto `N`
//! actor threads and `--batch-worlds M` gives each actor `M` world
//! replicas stepped as one struct-of-arrays batch
//! (`hero_core::rollout`). With `M == 1` the run stays bit-identical to
//! the sequential trainer for any `N`; with `M > 1` episodes interleave
//! across `N×M` worlds for throughput (self-reproducible, resumable).
//! HERO only — the flat baselines ignore both flags.

#![warn(missing_docs)]

pub mod args;
pub mod harness;

pub use args::ExperimentArgs;
pub use harness::{
    build_method, evaluate_baseline, exit_on_train_error, train_baseline, train_baseline_faulted,
    train_policy, train_policy_checkpointed, train_policy_distributed, BaselineTrainOptions,
    Method, MethodParams, TrainedPolicy,
};

use std::sync::Arc;

use hero_baselines::sac::SacConfig;
use hero_core::skills::{SkillLibrary, SkillTrainingConfig};
use hero_sim::env::EnvConfig;

/// Default skill-training budget when no checkpoint is available
/// (override per run with `--skill-episodes`).
pub const SKILL_BOOTSTRAP_EPISODES: usize = 1_000;

/// Live telemetry session of one experiment run: the installed registry
/// guard plus, when `--metrics-addr` was given, the background metrics
/// exporter serving it. Keep it alive for the whole run — dropping it
/// shuts the exporter down, flushes the emitter outputs, and uninstalls
/// the sink (field order: the exporter thread stops before its registry
/// flushes).
pub struct TelemetrySession {
    _exporter: Option<hero_rl::telemetry::exporter::MetricsExporter>,
    _guard: hero_rl::telemetry::InstallGuard,
}

/// Installs the telemetry subsystem for one experiment run when the user
/// passed `--telemetry-out DIR`, `--trace-out FILE`, and/or
/// `--metrics-addr HOST:PORT`. Keep the returned session alive for the
/// whole run: dropping it flushes `telemetry.jsonl` into the directory
/// (when `--telemetry-out` was given), writes the Chrome trace to the file
/// (when `--trace-out` was given), shuts down the HTTP exporter (when
/// `--metrics-addr` was given), and uninstalls the sink. Returns `None`
/// (telemetry stays disabled, with near-zero overhead) when all three
/// flags were absent.
///
/// With `--metrics-addr` the resolved address (port `0` becomes the real
/// ephemeral port) is printed to stderr and written to
/// `<out>/metrics_addr` so scrapers and `hero-inspect watch` can discover
/// it.
///
/// # Panics
///
/// Panics when `--metrics-addr` cannot be bound — a monitoring run that
/// silently isn't being monitored is worse than a loud early exit.
pub fn init_telemetry(args: &ExperimentArgs, run_label: &str) -> Option<TelemetrySession> {
    if args.telemetry_out.is_none() && args.trace_out.is_none() && args.metrics_addr.is_none() {
        return None;
    }
    let mut cfg = hero_rl::telemetry::TelemetryConfig {
        run_label: run_label.into(),
        out_dir: args.telemetry_out.clone(),
        ..Default::default()
    };
    if let Some(path) = &args.trace_out {
        cfg = cfg.with_trace(path.clone());
    }
    let guard = hero_rl::telemetry::install(cfg);
    let exporter = args.metrics_addr.as_deref().map(|addr| {
        let exporter =
            hero_rl::telemetry::exporter::serve(Arc::clone(guard.registry()), addr)
                .unwrap_or_else(|e| panic!("cannot bind --metrics-addr {addr}: {e}"));
        let bound = exporter.local_addr();
        eprintln!("metrics exporter listening on http://{bound}/metrics");
        let discovery = args.out.join("metrics_addr");
        if let Some(parent) = discovery.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&discovery, format!("{bound}\n")) {
            eprintln!("cannot write {}: {e}", discovery.display());
        }
        exporter
    });
    Some(TelemetrySession { _exporter: exporter, _guard: guard })
}

/// Loads the shared low-level skill library from
/// `<out>/skills.ckpt`, or trains it (Fig. 8 / Algorithm 2) and saves the
/// checkpoint for the other experiment binaries to reuse.
pub fn load_or_train_skills(args: &ExperimentArgs, env_cfg: EnvConfig) -> Arc<SkillLibrary> {
    let ckpt = args.out_file("skills.ckpt");
    let defaults = SacConfig::default();
    let sac = SacConfig {
        batch_size: args.batch_size,
        // As in `build_method`: clamp warm-up to one mini-batch so tiny
        // smoke runs exercise the SAC update (and its diagnostics).
        warmup: defaults.warmup.min(args.batch_size),
        ..defaults
    };
    if ckpt.exists() {
        let mut lib = SkillLibrary::untrained(env_cfg, sac, args.seed);
        match lib.load(&ckpt) {
            Ok(()) => {
                eprintln!("loaded skill checkpoint from {}", ckpt.display());
                return Arc::new(lib);
            }
            Err(e) => eprintln!("checkpoint {} unusable ({e}); retraining", ckpt.display()),
        }
    }
    let episodes = args.skill_episodes;
    eprintln!("training low-level skills for {episodes} episodes (one-time bootstrap)");
    let _span = hero_rl::telemetry::span("skill_bootstrap");
    let (lib, _) = SkillLibrary::train(
        env_cfg,
        SkillTrainingConfig {
            vision: false,
            episodes,
            updates_per_episode: 2,
            sac,
        },
        args.seed,
    );
    lib.save(&ckpt).expect("save skill checkpoint");
    Arc::new(lib)
}

/// Prints a labelled evaluation row in the Table II layout.
pub fn print_eval_row(label: &str, stats: &hero_core::trainer::EvalStats) {
    println!(
        "{label:<18} collision_rate={:.3}  success_rate={:.3}  mean_speed={:.4}  mean_reward={:.4}",
        stats.collision_rate, stats.success_rate, stats.mean_speed, stats.mean_reward
    );
}
