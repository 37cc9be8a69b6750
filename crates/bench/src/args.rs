//! Minimal command-line parsing shared by the experiment binaries, which
//! all accept the flags in `USAGE`. Flags are untrusted input: a
//! malformed one is a typed error naming the flag and its value, reported
//! before any training starts.

use std::path::PathBuf;
use std::str::FromStr;

use hero_core::rollout::RolloutOptions;
use hero_core::CheckpointConfig;
use hero_faultplan::{FaultPlan, KillMode};

/// The flags every experiment binary accepts, printed after a parse error.
const USAGE: &str = "\
flags: --episodes N --eval-episodes N --seed S --out DIR --update-every K
       --batch-size N --skill-episodes N --paper-scale
       --telemetry-out DIR --trace-out FILE --metrics-addr HOST:PORT
       --checkpoint-every N --checkpoint-dir DIR --checkpoint-retain K
       --checkpoint-retry N --resume --fault-plan SPEC
       --actors N --batch-worlds N --stall-timeout-ms MS --max-respawns N
       --respawn-backoff-ms MS";

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
    /// Fault-injection plan from `--fault-plan`, e.g.
    /// `kill@ep:3,truncate@save:1` (empty when the flag is absent).
    pub fault_plan: FaultPlan,
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
            fault_plan: FaultPlan::none(),
            actors: 1,
            batch_worlds: 1,
            stall_timeout_ms: 30_000,
            max_respawns: RolloutOptions::default().max_respawns,
            respawn_backoff_ms: RolloutOptions::default().respawn_backoff_ms,
            checkpoint_retry: hero_core::checkpoint::DEFAULT_SAVE_ATTEMPTS - 1,
        }
    }

    /// Parses `std::env::args`-style strings after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the flag and the offending value when a flag is
    /// unknown, lacks its value, has a value that does not parse, is `0`
    /// where training needs at least 1 (`--update-every`, `--batch-size`),
    /// or (for `--fault-plan`) names an invalid plan.
    pub fn parse(defaults: Self, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = defaults;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("flag {flag} requires a value"));
            match flag.as_str() {
                "--episodes" => out.episodes = number(&flag, value()?)?,
                "--eval-episodes" => out.eval_episodes = number(&flag, value()?)?,
                "--seed" => out.seed = number(&flag, value()?)?,
                "--out" => out.out = PathBuf::from(value()?),
                "--update-every" => out.update_every = positive(&flag, value()?)?,
                "--batch-size" => out.batch_size = positive(&flag, value()?)?,
                "--skill-episodes" => out.skill_episodes = number(&flag, value()?)?,
                "--telemetry-out" => out.telemetry_out = Some(PathBuf::from(value()?)),
                "--trace-out" => out.trace_out = Some(PathBuf::from(value()?)),
                "--metrics-addr" => out.metrics_addr = Some(value()?),
                "--checkpoint-every" => out.checkpoint_every = number(&flag, value()?)?,
                "--checkpoint-dir" => out.checkpoint_dir = Some(PathBuf::from(value()?)),
                "--checkpoint-retain" => out.checkpoint_retain = number(&flag, value()?)?,
                "--resume" => out.resume = true,
                "--fault-plan" => {
                    let spec = value()?;
                    out.fault_plan = FaultPlan::parse(&spec)
                        .map_err(|e| format!("invalid --fault-plan {spec:?}: {e}"))?;
                }
                "--actors" => out.actors = number(&flag, value()?)?,
                "--batch-worlds" => out.batch_worlds = number(&flag, value()?)?,
                "--stall-timeout-ms" => out.stall_timeout_ms = number(&flag, value()?)?,
                "--max-respawns" => out.max_respawns = number(&flag, value()?)?,
                "--respawn-backoff-ms" => out.respawn_backoff_ms = number(&flag, value()?)?,
                "--checkpoint-retry" => out.checkpoint_retry = number(&flag, value()?)?,
                "--paper-scale" => {
                    out.episodes = 14_000;
                    out.batch_size = 1024;
                    out.update_every = 1;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }

    /// Parses the current process arguments. A malformed flag prints the
    /// error and the flag list to stderr and exits with status 2.
    pub fn from_env(defaults: Self) -> Self {
        Self::parse(defaults, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Builds the [`CheckpointConfig`] for one training run. `scope`
    /// isolates runs that share a binary (multi-method figures checkpoint
    /// each method under `<checkpoint-dir>/<scope>`). Kills from the
    /// fault plan terminate the whole process with exit code 137 so CI
    /// can distinguish an injected crash from a real failure.
    pub fn checkpoint_config(&self, scope: &str) -> CheckpointConfig {
        CheckpointConfig {
            every: self.checkpoint_every,
            dir: self.checkpoint_dir.as_ref().map(|d| d.join(scope)),
            resume: self.resume,
            retain: self.checkpoint_retain,
            fault_plan: self.fault_plan.clone(),
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

/// Parses `raw`, the value given to `flag`, as a number.
fn number<T: FromStr>(flag: &str, raw: String) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("flag {flag} expects a non-negative integer, got {raw:?}"))
}

/// Parses `raw`, the value given to `flag`, as a count of at least 1.
fn positive(flag: &str, raw: String) -> Result<usize, String> {
    match raw.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "flag {flag} expects a positive integer, got {raw:?}"
        )),
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
        ).unwrap();
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
        ).unwrap();
        assert_eq!(a.telemetry_out, Some(PathBuf::from("/tmp/tel")));
        assert_eq!(a.trace_out, None, "trace capture stays off by default");
        assert_eq!(a.skill_episodes, 3);
    }

    #[test]
    fn trace_out_parses_independently_of_telemetry_out() {
        let a = ExperimentArgs::parse(
            ExperimentArgs::defaults(100),
            strs(&["--trace-out", "/tmp/tel/trace.json"]),
        ).unwrap();
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
        ).unwrap();
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.telemetry_out, None);
        assert_eq!(a.trace_out, None);
    }

    #[test]
    fn paper_scale_sets_table_one_budget() {
        let a = ExperimentArgs::parse(ExperimentArgs::defaults(100), strs(&["--paper-scale"])).unwrap();
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
        ).unwrap();
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
        ).unwrap();
        let ro = a.rollout_options();
        assert_eq!(ro.stall_timeout, std::time::Duration::from_millis(250));
        assert_eq!(ro.max_respawns, 5);
        assert_eq!(ro.respawn_backoff_ms, 0);
        // A zero timeout would spin the learner; it is clamped to 1 ms.
        let z = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--stall-timeout-ms", "0"]),
        ).unwrap();
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
        ).unwrap();
        assert_eq!(a.checkpoint_retry, 4);
        assert_eq!(a.checkpoint_config("HERO").save_attempts, 5, "N retries = N + 1 attempts");
        let none = ExperimentArgs::parse(
            ExperimentArgs::defaults(10),
            strs(&["--checkpoint-retry", "0"]),
        ).unwrap();
        assert_eq!(none.checkpoint_config("HERO").save_attempts, 1, "0 = single attempt");
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
        ).unwrap();
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
    fn malformed_flags_are_errors_naming_the_flag_and_value() {
        for (args, needles) in [
            (&["--episodes"][..], &["--episodes", "requires a value"][..]),
            (&["--episodes", "abc"], &["--episodes", "\"abc\""]),
            (&["--seed", "-1"], &["--seed", "\"-1\""]),
            (&["--update-every", "0"], &["--update-every", "\"0\""]),
            (&["--batch-size", "0"], &["--batch-size", "\"0\""]),
            (&["--bogus"], &["unknown flag --bogus"]),
            (&["--fault-plan", "bogus"], &["--fault-plan", "\"bogus\""]),
        ] {
            let err = ExperimentArgs::parse(ExperimentArgs::defaults(1), strs(args)).unwrap_err();
            for needle in needles {
                assert!(err.contains(needle), "{args:?}: {err:?} lacks {needle:?}");
            }
        }
    }
}
