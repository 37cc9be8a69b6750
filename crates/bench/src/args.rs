//! Minimal command-line parsing shared by the experiment binaries. Every
//! binary accepts `--episodes N --eval-episodes N --seed S --out DIR
//! --update-every K --batch-size N --skill-episodes N
//! --telemetry-out DIR --trace-out FILE --metrics-addr HOST:PORT
//! --paper-scale --checkpoint-every N --checkpoint-dir DIR
//! --checkpoint-retain K --checkpoint-retry N --resume --fault-plan SPEC
//! --actors N --batch-worlds N --stall-timeout-ms MS --max-respawns N
//! --respawn-backoff-ms MS --kernel-mode strict|fast --gemm-threads N`.

use std::path::PathBuf;

use hero_autograd::KernelMode;
use hero_core::rollout::RolloutOptions;
use hero_core::CheckpointConfig;
use hero_faultplan::{FaultPlan, KillMode};

/// Parsed experiment arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentArgs {
    /// Training episodes per method.
    pub episodes: usize,
    /// Greedy evaluation episodes.
    pub eval_episodes: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Environment steps between gradient updates.
    pub update_every: usize,
    /// Mini-batch size for the learners.
    pub batch_size: usize,
    /// Episodes for the one-time low-level skill bootstrap when no
    /// checkpoint exists (Algorithm 2).
    pub skill_episodes: usize,
    /// When set, install the telemetry subsystem and write
    /// `telemetry.jsonl` into this directory on exit.
    pub telemetry_out: Option<PathBuf>,
    /// When set, record Chrome trace events for every span and write a
    /// Perfetto-loadable `trace.json` to this file on exit.
    pub trace_out: Option<PathBuf>,
    /// When set, serve the live telemetry registry over HTTP
    /// (`GET /metrics` Prometheus, `GET /snapshot` JSONL) from this
    /// address for the lifetime of the run; port `0` binds an ephemeral
    /// port, written to `<out>/metrics_addr` for scrapers to discover.
    pub metrics_addr: Option<String>,
    /// Save a full trainer checkpoint every this many episodes
    /// (`0` disables checkpointing).
    pub checkpoint_every: usize,
    /// Directory for rotating checkpoint files.
    pub checkpoint_dir: Option<PathBuf>,
    /// How many good checkpoints to retain per training run.
    pub checkpoint_retain: usize,
    /// Resume from the newest valid checkpoint in `--checkpoint-dir`.
    pub resume: bool,
    /// Unparsed fault-injection spec (see [`hero_faultplan::FaultPlan`]),
    /// e.g. `kill@ep:3,truncate@save:1`.
    pub fault_plan: Option<String>,
    /// Rollout actor threads for HERO training (`1` = the plain
    /// sequential loop unless `--batch-worlds` asks for more worlds).
    pub actors: usize,
    /// World replicas per actor; `> 1` switches HERO training to the
    /// batched actor/learner engine.
    pub batch_worlds: usize,
    /// How long the learner waits on an actor reply before declaring it
    /// stalled, in milliseconds.
    pub stall_timeout_ms: u64,
    /// How many times the supervisor respawns a failed actor slot before
    /// retiring it permanently.
    pub max_respawns: usize,
    /// Base of the deterministic exponential respawn backoff in
    /// milliseconds (`0` disables the sleep).
    pub respawn_backoff_ms: u64,
    /// How many times a failed checkpoint save is retried (on top of the
    /// first attempt), with a deterministic exponential backoff counted
    /// under `checkpoint/retries`.
    pub checkpoint_retry: usize,
    /// GEMM kernel tier: `strict` (default, bitwise-deterministic) or
    /// `fast` (packed FMA kernels; requires a `--features fast-math`
    /// build). Recorded in telemetry and checkpoint metadata — resuming a
    /// checkpoint under the other mode is refused.
    pub kernel_mode: KernelMode,
    /// Thread budget for fast-tier GEMMs (ignored in strict mode; never
    /// changes result bytes, only wall-clock).
    pub gemm_threads: usize,
}

impl ExperimentArgs {
    /// Defaults tuned so each binary finishes in minutes on a laptop; use
    /// `--paper-scale` for the full Table I budget (14 000 episodes,
    /// batch 1024).
    pub fn defaults(episodes: usize) -> Self {
        Self {
            episodes,
            eval_episodes: 20,
            seed: 7,
            out: PathBuf::from("target/experiments"),
            update_every: 4,
            batch_size: 128,
            skill_episodes: 1_000,
            telemetry_out: None,
            trace_out: None,
            metrics_addr: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_retain: 3,
            resume: false,
            fault_plan: None,
            actors: 1,
            batch_worlds: 1,
            stall_timeout_ms: 30_000,
            max_respawns: RolloutOptions::default().max_respawns,
            respawn_backoff_ms: RolloutOptions::default().respawn_backoff_ms,
            checkpoint_retry: hero_core::checkpoint::DEFAULT_SAVE_ATTEMPTS - 1,
            kernel_mode: KernelMode::Strict,
            gemm_threads: 1,
        }
    }

    /// Parses `std::env::args`-style strings after the program name.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse(defaults: Self, args: impl IntoIterator<Item = String>) -> Self {
        let mut out = defaults;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .unwrap_or_else(|| panic!("flag {name} requires a value"))
            };
            match flag.as_str() {
                "--episodes" => out.episodes = value("--episodes").parse().expect("usize"),
                "--eval-episodes" => {
                    out.eval_episodes = value("--eval-episodes").parse().expect("usize")
                }
                "--seed" => out.seed = value("--seed").parse().expect("u64"),
                "--out" => out.out = PathBuf::from(value("--out")),
                "--update-every" => {
                    out.update_every = value("--update-every").parse().expect("usize")
                }
                "--batch-size" => out.batch_size = value("--batch-size").parse().expect("usize"),
                "--skill-episodes" => {
                    out.skill_episodes = value("--skill-episodes").parse().expect("usize")
                }
                "--telemetry-out" => {
                    out.telemetry_out = Some(PathBuf::from(value("--telemetry-out")))
                }
                "--trace-out" => out.trace_out = Some(PathBuf::from(value("--trace-out"))),
                "--metrics-addr" => out.metrics_addr = Some(value("--metrics-addr")),
                "--checkpoint-every" => {
                    out.checkpoint_every = value("--checkpoint-every").parse().expect("usize")
                }
                "--checkpoint-dir" => {
                    out.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")))
                }
                "--checkpoint-retain" => {
                    out.checkpoint_retain = value("--checkpoint-retain").parse().expect("usize")
                }
                "--resume" => out.resume = true,
                "--fault-plan" => out.fault_plan = Some(value("--fault-plan")),
                "--actors" => out.actors = value("--actors").parse().expect("usize"),
                "--batch-worlds" => {
                    out.batch_worlds = value("--batch-worlds").parse().expect("usize")
                }
                "--stall-timeout-ms" => {
                    out.stall_timeout_ms = value("--stall-timeout-ms").parse().expect("u64")
                }
                "--max-respawns" => {
                    out.max_respawns = value("--max-respawns").parse().expect("usize")
                }
                "--respawn-backoff-ms" => {
                    out.respawn_backoff_ms = value("--respawn-backoff-ms").parse().expect("u64")
                }
                "--checkpoint-retry" => {
                    out.checkpoint_retry = value("--checkpoint-retry").parse().expect("usize")
                }
                "--kernel-mode" => {
                    let raw = value("--kernel-mode");
                    out.kernel_mode = raw
                        .parse()
                        .unwrap_or_else(|e| panic!("--kernel-mode {raw}: {e}"));
                }
                "--gemm-threads" => {
                    out.gemm_threads = value("--gemm-threads").parse().expect("usize")
                }
                "--paper-scale" => {
                    out.episodes = 14_000;
                    out.batch_size = 1024;
                    out.update_every = 1;
                }
                other => panic!(
                    "unknown flag {other}; expected --episodes/--eval-episodes/--seed/--out/--update-every/--batch-size/--skill-episodes/--telemetry-out/--trace-out/--metrics-addr/--checkpoint-every/--checkpoint-dir/--checkpoint-retain/--resume/--fault-plan/--actors/--batch-worlds/--stall-timeout-ms/--max-respawns/--respawn-backoff-ms/--checkpoint-retry/--kernel-mode/--gemm-threads/--paper-scale"
                ),
            }
        }
        out
    }

    /// Parses the current process arguments.
    pub fn from_env(defaults: Self) -> Self {
        Self::parse(defaults, std::env::args().skip(1))
    }

    /// Builds the [`CheckpointConfig`] for one training run. `scope`
    /// isolates runs that share a binary (multi-method figures checkpoint
    /// each method under `<checkpoint-dir>/<scope>`). Kills from the
    /// fault plan terminate the whole process with exit code 137 so CI
    /// can distinguish an injected crash from a real failure.
    ///
    /// # Panics
    ///
    /// Panics with the parse error when `--fault-plan` is malformed.
    pub fn checkpoint_config(&self, scope: &str) -> CheckpointConfig {
        let fault_plan = match &self.fault_plan {
            Some(spec) => FaultPlan::parse(spec)
                .unwrap_or_else(|e| panic!("invalid --fault-plan {spec:?}: {e}")),
            None => FaultPlan::none(),
        };
        CheckpointConfig {
            every: self.checkpoint_every,
            dir: self.checkpoint_dir.as_ref().map(|d| d.join(scope)),
            resume: self.resume,
            retain: self.checkpoint_retain,
            fault_plan,
            kill_mode: KillMode::Exit,
            save_attempts: self.checkpoint_retry + 1,
            ..CheckpointConfig::default()
        }
    }

    /// Builds the [`RolloutOptions`] for HERO training from `--actors` /
    /// `--batch-worlds` and the supervision knobs (`--stall-timeout-ms`,
    /// `--max-respawns`, `--respawn-backoff-ms`).
    pub fn rollout_options(&self) -> RolloutOptions {
        RolloutOptions {
            actors: self.actors.max(1),
            batch_worlds: self.batch_worlds.max(1),
            stall_timeout: std::time::Duration::from_millis(self.stall_timeout_ms.max(1)),
            max_respawns: self.max_respawns,
            respawn_backoff_ms: self.respawn_backoff_ms,
            ..RolloutOptions::default()
        }
    }

    /// Applies `--kernel-mode` / `--gemm-threads` to the process-global
    /// kernel dispatch (call once per binary, after
    /// [`crate::init_telemetry`] so the mode is visible in the run's
    /// telemetry). In fast mode, emits `kernel/fast_math` and
    /// `kernel/gemm_threads` counters; strict mode emits nothing so
    /// strict goldens are unaffected.
    ///
    /// # Panics
    ///
    /// Panics when `--kernel-mode fast` is requested in a build compiled
    /// without the `fast-math` cargo feature — a run that silently fell
    /// back to strict would corrupt the bench trajectory.
    pub fn apply_kernel_mode(&self) {
        hero_autograd::set_gemm_threads(self.gemm_threads);
        if let Err(e) = hero_autograd::set_kernel_mode(self.kernel_mode) {
            panic!("--kernel-mode {}: {e}", self.kernel_mode);
        }
        if self.kernel_mode == KernelMode::Fast {
            hero_rl::telemetry::counter_add("kernel/fast_math", 1);
            hero_rl::telemetry::counter_add("kernel/gemm_threads", self.gemm_threads.max(1) as u64);
        }
    }

    /// Ensures the output directory exists and returns the path of a file
    /// inside it.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn out_file(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create output directory");
        self.out.join(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_overrides_defaults() {
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(100),
            strs(&["--episodes", "5", "--seed", "9", "--out", "/tmp/x"]),
        );
        assert_eq!(a.episodes, 5);
        assert_eq!(a.seed, 9);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.eval_episodes, 20, "untouched default");
        assert_eq!(a.telemetry_out, None, "telemetry stays off by default");
    }

    #[test]
    fn telemetry_and_skill_flags_parse() {
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(100),
            strs(&["--telemetry-out", "/tmp/tel", "--skill-episodes", "3"]),
        );
        assert_eq!(a.telemetry_out, Some(PathBuf::from("/tmp/tel")));
        assert_eq!(a.trace_out, None, "trace capture stays off by default");
        assert_eq!(a.skill_episodes, 3);
    }

    #[test]
    fn trace_out_parses_independently_of_telemetry_out() {
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(100),
            strs(&["--trace-out", "/tmp/tel/trace.json"]),
        );
        assert_eq!(a.trace_out, Some(PathBuf::from("/tmp/tel/trace.json")));
        assert_eq!(a.telemetry_out, None);
    }

    #[test]
    fn metrics_addr_parses_independently_of_other_telemetry_flags() {
        let d = ExperimentArgs::defaults(100);
        assert_eq!(d.metrics_addr, None, "exporter stays off by default");
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(100),
            strs(&["--metrics-addr", "127.0.0.1:0"]),
        );
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.telemetry_out, None);
        assert_eq!(a.trace_out, None);
    }

    #[test]
    fn paper_scale_sets_table_one_budget() {
        let a = ExperimentArgs::parse(ExperimentArgs::defaults(100), strs(&["--paper-scale"]));
        assert_eq!(a.episodes, 14_000);
        assert_eq!(a.batch_size, 1024);
        assert_eq!(a.update_every, 1);
    }

    #[test]
    fn rollout_flags_parse_and_default_to_sequential() {
        let d = ExperimentArgs::defaults(10);
        assert_eq!(d.actors, 1);
        assert_eq!(d.batch_worlds, 1);
        assert!(!d.rollout_options().is_distributed());
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--actors", "3", "--batch-worlds", "4"]),
        );
        let ro = a.rollout_options();
        assert_eq!(ro.actors, 3);
        assert_eq!(ro.batch_worlds, 4);
        assert!(ro.is_distributed());
    }

    #[test]
    fn supervision_flags_parse_and_reach_rollout_options() {
        let d = ExperimentArgs::defaults(10);
        assert_eq!(d.stall_timeout_ms, 30_000);
        assert_eq!(d.max_respawns, RolloutOptions::default().max_respawns);
        assert_eq!(d.respawn_backoff_ms, RolloutOptions::default().respawn_backoff_ms);
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&[
                "--stall-timeout-ms",
                "250",
                "--max-respawns",
                "5",
                "--respawn-backoff-ms",
                "0",
            ]),
        );
        let ro = a.rollout_options();
        assert_eq!(ro.stall_timeout, std::time::Duration::from_millis(250));
        assert_eq!(ro.max_respawns, 5);
        assert_eq!(ro.respawn_backoff_ms, 0);
        // A zero timeout would spin the learner; it is clamped to 1 ms.
        let z = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--stall-timeout-ms", "0"]),
        );
        assert_eq!(z.rollout_options().stall_timeout, std::time::Duration::from_millis(1));
    }

    #[test]
    fn checkpoint_retry_flag_sets_save_attempts() {
        let d = ExperimentArgs::defaults(10);
        assert_eq!(
            d.checkpoint_config("HERO").save_attempts,
            hero_core::checkpoint::DEFAULT_SAVE_ATTEMPTS,
            "the default retry budget matches the store's"
        );
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--checkpoint-retry", "4"]),
        );
        assert_eq!(a.checkpoint_retry, 4);
        assert_eq!(a.checkpoint_config("HERO").save_attempts, 5, "N retries = N + 1 attempts");
        let none = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--checkpoint-retry", "0"]),
        );
        assert_eq!(none.checkpoint_config("HERO").save_attempts, 1, "0 = single attempt");
    }

    #[test]
    fn kernel_mode_flags_parse_and_default_to_strict() {
        let d = ExperimentArgs::defaults(10);
        assert_eq!(d.kernel_mode, KernelMode::Strict);
        assert_eq!(d.gemm_threads, 1);
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--kernel-mode", "fast", "--gemm-threads", "4"]),
        );
        assert_eq!(a.kernel_mode, KernelMode::Fast);
        assert_eq!(a.gemm_threads, 4);
        let s = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--kernel-mode", "strict"]),
        );
        assert_eq!(s.kernel_mode, KernelMode::Strict);
    }

    #[test]
    #[should_panic(expected = "unknown kernel mode")]
    fn bogus_kernel_mode_rejected() {
        ExperimentArgs::parse(
            ExperimentArgs::defaults(1),
            strs(&["--kernel-mode", "loose"]),
        );
    }

    #[cfg(not(feature = "fast-math"))]
    #[test]
    #[should_panic(expected = "fast-math kernels are not compiled")]
    fn fast_mode_without_feature_fails_loudly() {
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(1),
            strs(&["--kernel-mode", "fast"]),
        );
        a.apply_kernel_mode();
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_rejected() {
        ExperimentArgs::parse(ExperimentArgs::defaults(1), strs(&["--bogus"]));
    }

    #[test]
    fn checkpoint_flags_parse_and_scope_the_directory() {
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&[
                "--checkpoint-every",
                "2",
                "--checkpoint-dir",
                "/tmp/ckpts",
                "--checkpoint-retain",
                "5",
                "--resume",
                "--fault-plan",
                "kill@ep:3,truncate@save:1",
            ]),
        );
        assert_eq!(a.checkpoint_every, 2);
        assert_eq!(a.checkpoint_dir, Some(PathBuf::from("/tmp/ckpts")));
        assert!(a.resume);
        let cfg = a.checkpoint_config("HERO");
        assert_eq!(cfg.every, 2);
        assert_eq!(cfg.retain, 5);
        assert_eq!(cfg.dir, Some(PathBuf::from("/tmp/ckpts/HERO")));
        assert!(cfg.resume);
        assert!(cfg.fault_plan.should_kill(3));
        assert!(!cfg.fault_plan.should_kill(2));
    }

    #[test]
    fn checkpointing_stays_off_by_default() {
        let a = ExperimentArgs::defaults(10);
        let cfg = a.checkpoint_config("HERO");
        assert_eq!(cfg.every, 0);
        assert_eq!(cfg.dir, None);
        assert!(!cfg.resume);
        assert!(cfg.fault_plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid --fault-plan")]
    fn malformed_fault_plan_rejected() {
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(1),
            strs(&["--fault-plan", "explode@never"]),
        );
        a.checkpoint_config("HERO");
    }
}
