//! Reproducibility guarantees: identical seeds give identical learning
//! curves, and checkpoints restore byte-identical policies.

use hero::prelude::*;
use hero_autograd::serialize::{load_params, save_params};
use hero_baselines::dqn::{DqnAgent, DqnConfig};
use hero_baselines::sac::SacConfig;
use hero_bench::{build_method, train_policy, Method, MethodParams};
use hero_sim::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn dqn_training_is_deterministic_under_seed() {
    let cfg = EnvConfig {
        max_steps: 6,
        ..EnvConfig::default()
    };
    let run = || {
        let mut env = scenario::two_vehicle_merge(cfg, 17);
        let mut policy = build_method(
            Method::Dqn,
            MethodParams {
                n_agents: 2,
                obs_dim: cfg.high_dim(),
                batch_size: 8,
                seed: 17,
            },
            None,
        );
        let rec = train_policy(&mut policy, &mut env, 4, 2, 17);
        rec.series("reward").unwrap().to_vec()
    };
    assert_eq!(run(), run());
}

#[test]
fn hero_training_is_deterministic_under_seed() {
    let cfg = EnvConfig {
        max_steps: 6,
        ..EnvConfig::default()
    };
    let run = || {
        let skills = std::sync::Arc::new(SkillLibrary::untrained(
            cfg,
            SacConfig {
                hidden: 8,
                ..SacConfig::default()
            },
            23,
        ));
        let hero_cfg = HeroConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..HeroConfig::default()
        };
        let mut env = scenario::congestion(cfg, 23);
        let mut policy = build_method(
            Method::Hero,
            MethodParams {
                n_agents: 3,
                obs_dim: cfg.high_dim(),
                batch_size: 8,
                seed: 23,
            },
            Some((skills, hero_cfg)),
        );
        let rec = train_policy(&mut policy, &mut env, 3, 2, 23);
        rec.series("reward").unwrap().to_vec()
    };
    assert_eq!(run(), run());
}

/// Two trainer runs with the same seed must produce bit-identical
/// episode-metric series AND identical telemetry counter totals (env
/// steps, episodes, sampled transitions, gradient updates). Uses a
/// thread-scoped telemetry sink so concurrently running tests cannot
/// contaminate each other's registries.
#[test]
fn hero_training_metrics_and_telemetry_are_deterministic() {
    use hero_rl::telemetry;

    let cfg = EnvConfig {
        max_steps: 6,
        ..EnvConfig::default()
    };
    let run = || {
        let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let skills = std::sync::Arc::new(SkillLibrary::untrained(
            cfg,
            SacConfig {
                hidden: 8,
                ..SacConfig::default()
            },
            23,
        ));
        let hero_cfg = HeroConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..HeroConfig::default()
        };
        let mut env = scenario::congestion(cfg, 23);
        let mut policy = build_method(
            Method::Hero,
            MethodParams {
                n_agents: 3,
                obs_dim: cfg.high_dim(),
                batch_size: 8,
                seed: 23,
            },
            Some((skills, hero_cfg)),
        );
        let rec = train_policy(&mut policy, &mut env, 3, 2, 23);
        let series: Vec<(String, Vec<f32>)> = rec
            .names()
            .iter()
            .map(|&n| (n.to_string(), rec.series(n).unwrap().to_vec()))
            .collect();
        (series, sink.snapshot().counter_totals())
    };
    let (series_a, counters_a) = run();
    let (series_b, counters_b) = run();
    assert_eq!(series_a, series_b, "episode-metric series must be bit-identical");
    assert_eq!(counters_a, counters_b, "telemetry counter totals must match");
    // The run must actually have been observed: 3 episodes of at most 6
    // steps each (collisions may end an episode early).
    assert_eq!(counters_a["episodes"], 3);
    assert!((3..=18).contains(&counters_a["env_steps"]), "{counters_a:?}");
    assert!(counters_a.contains_key("lidar_scans"));
}

/// Builds the same tiny HERO training setup every time it is called, so a
/// killed-and-resumed process (modelled here as a fresh team + env fed
/// from the checkpoint) starts from exactly the state a real restart
/// would reconstruct.
fn hero_crash_fixture(seed: u64) -> (hero_sim::env::LaneChangeEnv, hero_core::HeroTeam) {
    let cfg = EnvConfig {
        max_steps: 6,
        ..EnvConfig::default()
    };
    let skills = std::sync::Arc::new(SkillLibrary::untrained(
        cfg,
        SacConfig {
            hidden: 8,
            ..SacConfig::default()
        },
        seed,
    ));
    let hero_cfg = HeroConfig {
        hidden: 8,
        batch_size: 8,
        warmup: 8,
        ..HeroConfig::default()
    };
    let env = scenario::congestion(cfg, seed);
    let team = hero_core::HeroTeam::new(3, cfg.high_dim(), skills, hero_cfg, seed);
    (env, team)
}

fn crash_opts(episodes: usize, seed: u64) -> hero_core::trainer::TrainOptions {
    hero_core::trainer::TrainOptions {
        episodes,
        update_every: 2,
        seed,
    }
}

/// Deterministic non-`checkpoint/` telemetry: counter totals plus the
/// order-independent fields of every value histogram.
type TelemetryFingerprint = (
    std::collections::BTreeMap<String, u64>,
    std::collections::BTreeMap<String, (u64, f64, f64, f64)>,
);

fn telemetry_fingerprint(snap: &hero_rl::telemetry::Snapshot) -> TelemetryFingerprint {
    let counters = snap
        .counter_totals()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("checkpoint/"))
        .collect();
    let values = snap
        .values
        .iter()
        .map(|(name, v)| (name.clone(), (v.count, v.mean, v.min, v.max)))
        .collect();
    (counters, values)
}

/// [`telemetry_fingerprint`], additionally ignoring the fault-local
/// supervision counters (`actor/*`, `supervisor/*`) — the only telemetry
/// a fault is allowed to touch.
fn supervision_free_fingerprint(snap: &hero_rl::telemetry::Snapshot) -> TelemetryFingerprint {
    let (counters, values) = telemetry_fingerprint(snap);
    let counters = counters
        .into_iter()
        .filter(|(name, _)| !name.starts_with("actor/") && !name.starts_with("supervisor/"))
        .collect();
    (counters, values)
}

fn recorder_series(rec: &hero_rl::metrics::Recorder) -> Vec<(String, Vec<f32>)> {
    rec.names()
        .iter()
        .map(|&n| (n.to_string(), rec.series(n).unwrap().to_vec()))
        .collect()
}

/// The tentpole guarantee: a seeded HERO run killed mid-training and
/// resumed from its checkpoint produces bit-identical metric series AND
/// bit-identical telemetry (counters and value statistics, modulo the
/// `checkpoint/*` bookkeeping) to the same run left uninterrupted.
#[test]
fn hero_kill_and_resume_is_bit_identical() {
    use hero_core::trainer::{train_team_checkpointed, CheckpointConfig};
    use hero_faultplan::{FaultPlan, KillMode};
    use hero_rl::telemetry;

    let base = std::env::temp_dir().join(format!("hero_resume_it_{}", std::process::id()));
    let dir_a = base.join("uninterrupted");
    let dir_b = base.join("crashed");
    let seed = 23;
    let episodes = 6;

    // Run A: uninterrupted, checkpointing every 2 episodes.
    let (series_a, telem_a) = {
        let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_checkpointed(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig {
                every: 2,
                dir: Some(dir_a.clone()),
                ..CheckpointConfig::default()
            },
        )
        .expect("run must not abort");
        assert!(out.completed);
        assert_eq!(out.episodes_run, episodes);
        (recorder_series(&out.recorder), telemetry_fingerprint(&sink.snapshot()))
    };

    // Run B1: identical setup, killed at the start of episode 3 — after
    // the episode-1 checkpoint, so episode 2's work is lost and must be
    // redone identically on resume.
    {
        let _sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_checkpointed(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig {
                every: 2,
                dir: Some(dir_b.clone()),
                fault_plan: FaultPlan::parse("kill@ep:3").unwrap(),
                kill_mode: KillMode::Return,
                ..CheckpointConfig::default()
            },
        )
        .expect("run must not abort");
        assert!(!out.completed, "the injected kill must stop the run");
        assert_eq!(out.episodes_run, 3);
    }

    // Run B2: fresh process state, resumed from the crashed run's
    // newest checkpoint.
    let (series_b, telem_b, loaded) = {
        let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_checkpointed(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig {
                every: 2,
                dir: Some(dir_b.clone()),
                resume: true,
                ..CheckpointConfig::default()
            },
        )
        .expect("run must not abort");
        assert!(out.completed);
        assert!(out.episodes_run < episodes, "resume must skip completed episodes");
        let snap = sink.snapshot();
        let loaded = snap.counter_totals().get("checkpoint/loaded").copied();
        (recorder_series(&out.recorder), telemetry_fingerprint(&snap), loaded)
    };

    assert_eq!(loaded, Some(1), "the resume must come from a checkpoint");
    assert_eq!(series_a, series_b, "metric series must be bit-identical");
    assert_eq!(telem_a.0, telem_b.0, "counter totals must be bit-identical");
    assert_eq!(telem_a.1, telem_b.1, "value statistics must be bit-identical");
    std::fs::remove_dir_all(&base).ok();
}

/// When the newest checkpoint file is corrupted, resume must fall back to
/// the previous good one (counting the skip) instead of failing or
/// silently restarting from scratch.
#[test]
fn hero_resume_falls_back_past_corrupt_newest_checkpoint() {
    use hero_core::trainer::{train_team_checkpointed, CheckpointConfig};
    use hero_faultplan::{corrupt_file, CorruptMode};
    use hero_rl::telemetry;

    let dir = std::env::temp_dir().join(format!("hero_fallback_it_{}", std::process::id()));
    let seed = 29;

    {
        let _sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_checkpointed(
            &mut team,
            &mut env,
            &crash_opts(4, seed),
            &CheckpointConfig {
                every: 1,
                dir: Some(dir.clone()),
                ..CheckpointConfig::default()
            },
        )
        .expect("run must not abort");
        assert!(out.completed);
    }

    // Corrupt the newest checkpoint file on disk.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "hero"))
        .max()
        .expect("checkpoints were written");
    corrupt_file(&newest, CorruptMode::Truncate).unwrap();

    let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
    let (mut env, mut team) = hero_crash_fixture(seed);
    let out = train_team_checkpointed(
        &mut team,
        &mut env,
        &crash_opts(6, seed),
        &CheckpointConfig {
            every: 2,
            dir: Some(dir.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    )
    .expect("run must not abort");
    assert!(out.completed);
    let counters = sink.snapshot().counter_totals();
    assert_eq!(counters.get("checkpoint/loaded"), Some(&1), "{counters:?}");
    assert_eq!(counters.get("checkpoint/fallback"), Some(&1), "{counters:?}");
    assert!(
        counters.get("checkpoint/corrupt_skipped").copied().unwrap_or(0) >= 1,
        "{counters:?}"
    );
    // Resumed from episode 3 (the surviving checkpoint), finished all 6.
    assert_eq!(out.recorder.series("reward").unwrap().len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dqn_checkpoint_restores_identical_greedy_policy() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut trained = DqnAgent::new(
        6,
        4,
        DqnConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..DqnConfig::default()
        },
        &mut rng,
    );
    // Make the weights non-trivial with a few updates.
    for i in 0..32 {
        trained.observe(hero_rl::transition::DiscreteTransition {
            obs: vec![(i % 5) as f32 / 5.0; 6],
            action: i % 4,
            reward: (i % 3) as f32,
            next_obs: vec![((i + 1) % 5) as f32 / 5.0; 6],
            done: i % 7 == 0,
        });
    }
    for _ in 0..10 {
        trained.update(&mut rng);
    }
    let path = std::env::temp_dir().join(format!("hero_dqn_ckpt_{}.bin", std::process::id()));
    save_params(&path, &trained.parameters()).unwrap();

    let mut restored = DqnAgent::new(
        6,
        4,
        DqnConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..DqnConfig::default()
        },
        &mut rng,
    );
    load_params(&path, &restored.parameters()).unwrap();
    for i in 0..20 {
        let obs = vec![i as f32 / 20.0; 6];
        assert_eq!(trained.q_values(&obs), restored.q_values(&obs));
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn skill_checkpoint_restores_identical_commands() {
    let cfg = EnvConfig::default();
    let lib = SkillLibrary::untrained(cfg, SacConfig::default(), 41);
    let path = std::env::temp_dir().join(format!("hero_skills_it_{}.bin", std::process::id()));
    lib.save(&path).unwrap();
    let mut other = SkillLibrary::untrained(cfg, SacConfig::default(), 999);
    other.load(&path).unwrap();

    let obs = Observation {
        lidar: vec![1.0; cfg.lidar.beams],
        image: vec![0.0; cfg.camera.image_len()],
        speed_norm: 0.5,
        lane_norm: 0.0,
        lane_id: 0,
        speed: 0.1,
    };
    let state = hero::sim::VehicleState {
        s: 0.0,
        d: 0.2,
        heading: 0.0,
        speed: 0.1,
    };
    let mut rng_a = StdRng::seed_from_u64(0);
    let mut rng_b = StdRng::seed_from_u64(0);
    for option in [DrivingOption::SlowDown, DrivingOption::Accelerate, DrivingOption::LaneChange] {
        let a = lib.command(option, &obs, &state, 0.6, &mut rng_a, false);
        let b = other.command(option, &obs, &state, 0.6, &mut rng_b, false);
        assert_eq!(a, b, "{option}");
    }
    std::fs::remove_file(path).ok();
}

/// Reads the bytes of the newest checkpoint file (`ckpt-<i>.hero` with
/// the largest `i`) in `dir`.
fn newest_checkpoint_bytes(dir: &std::path::Path) -> Vec<u8> {
    let mut files: Vec<(usize, std::path::PathBuf)> = std::fs::read_dir(dir)
        .expect("checkpoint dir must exist")
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?.to_string();
            let index = name.strip_prefix("ckpt-")?.strip_suffix(".hero")?.parse().ok()?;
            Some((index, path))
        })
        .collect();
    files.sort();
    let (_, newest) = files.last().expect("at least one checkpoint file");
    std::fs::read(newest).expect("read checkpoint file")
}

/// Checkpoint bytes are a format contract: a seeded run must write the
/// same newest checkpoint on every build, so a refactor that changes
/// what lands on disk fails here instead of in a later resume. Telemetry
/// stays off, because the telemetry section holds skill-worker sums whose
/// order is not yet reproducible. If the format changes on purpose,
/// record the new length and hash in the same change.
#[test]
fn hero_checkpoint_bytes_are_pinned() {
    use hero_core::trainer::{train_team_checkpointed, CheckpointConfig};

    const PINNED_LEN: usize = 64_978;
    const PINNED_FNV1A: u64 = 0xa55c_f2e1_f8ab_5afb;

    let dir = std::env::temp_dir().join(format!("hero_pinned_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let seed = 31;
    let (mut env, mut team) = hero_crash_fixture(seed);
    let out = train_team_checkpointed(
        &mut team,
        &mut env,
        &crash_opts(4, seed),
        &CheckpointConfig {
            every: 1,
            dir: Some(dir.clone()),
            ..CheckpointConfig::default()
        },
    )
    .expect("run must not abort");
    assert!(out.completed);
    let bytes = newest_checkpoint_bytes(&dir);
    let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        (bytes.len(), fnv1a),
        (PINNED_LEN, PINNED_FNV1A),
        "checkpoint bytes changed: (len, FNV-1a) = ({}, {fnv1a:#018x})",
        bytes.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Serial-mode actor/learner training (`batch_worlds == 1`) is the
/// sequential trainer with environment stepping moved onto actor
/// threads: for any actor count it must reproduce the sequential run
/// bit-for-bit — metric series, telemetry totals, and checkpoint bytes.
#[test]
fn hero_actor_learner_serial_matches_sequential_trainer() {
    use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
    use hero_core::trainer::{train_team_checkpointed, CheckpointConfig};
    use hero_rl::telemetry;

    let base = std::env::temp_dir().join(format!("hero_al_serial_{}", std::process::id()));
    let dir_seq = base.join("sequential");
    let dir_al = base.join("actor_learner");
    let seed = 29;
    let episodes = 6;
    let ckpt = |dir: &std::path::Path| CheckpointConfig {
        every: 2,
        dir: Some(dir.to_path_buf()),
        ..CheckpointConfig::default()
    };
    let rollout = RolloutOptions {
        actors: 2,
        batch_worlds: 1,
        ..RolloutOptions::default()
    };

    // Pass 1 (scoped telemetry sinks): metric series and telemetry
    // totals. The sinks record wall-clock histograms into the
    // checkpointed telemetry state, so the files written here are not
    // expected to be comparable — only the in-memory results are.
    let (series_seq, telem_seq) = {
        let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_checkpointed(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &ckpt(&dir_seq),
        )
        .expect("run must not abort");
        assert!(out.completed);
        (recorder_series(&out.recorder), telemetry_fingerprint(&sink.snapshot()))
    };
    let (series_al, telem_al) = {
        let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_actor_learner(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &ckpt(&dir_al),
            &rollout,
        )
        .expect("run must not abort");
        assert!(out.completed);
        assert_eq!(out.episodes_run, episodes);
        (recorder_series(&out.recorder), telemetry_fingerprint(&sink.snapshot()))
    };
    assert_eq!(series_seq, series_al, "metric series must match the sequential trainer");
    assert_eq!(telem_seq.0, telem_al.0, "counter totals must match the sequential trainer");
    assert_eq!(telem_seq.1, telem_al.1, "value statistics must match the sequential trainer");

    // Pass 2 (no sink): with telemetry disabled the exported state embeds
    // no wall-clock data, so the final checkpoint files themselves must
    // be byte-identical.
    std::fs::remove_dir_all(&base).ok();
    let (mut env, mut team) = hero_crash_fixture(seed);
    let out = train_team_checkpointed(
        &mut team,
        &mut env,
        &crash_opts(episodes, seed),
        &ckpt(&dir_seq),
    )
    .expect("run must not abort");
    assert!(out.completed);
    let (mut env, mut team) = hero_crash_fixture(seed);
    let out = train_team_actor_learner(
        &mut team,
        &mut env,
        &crash_opts(episodes, seed),
        &ckpt(&dir_al),
        &rollout,
    )
    .expect("run must not abort");
    assert!(out.completed);
    assert_eq!(
        newest_checkpoint_bytes(&dir_seq),
        newest_checkpoint_bytes(&dir_al),
        "serial-mode checkpoints must be byte-identical to sequential ones"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Batched rollout (`batch_worlds > 1`) interleaves episodes across
/// worlds, so it is compared against itself: a batched run killed
/// mid-training and resumed from its checkpoint must reproduce the
/// uninterrupted batched run bit-for-bit. This exercises the per-worker
/// RNG streams stored in the checkpoint's `workers` section.
#[test]
fn hero_actor_learner_batched_kill_and_resume_is_bit_identical() {
    use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
    use hero_core::trainer::CheckpointConfig;
    use hero_faultplan::{FaultPlan, KillMode};
    use hero_rl::telemetry;

    let base = std::env::temp_dir().join(format!("hero_al_batched_{}", std::process::id()));
    let dir_a = base.join("uninterrupted");
    let dir_b = base.join("crashed");
    let seed = 31;
    let episodes = 6;
    let rollout = RolloutOptions {
        actors: 2,
        batch_worlds: 2,
        ..RolloutOptions::default()
    };

    // Run A: uninterrupted batched training.
    let (series_a, telem_a) = {
        let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_actor_learner(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig {
                every: 2,
                dir: Some(dir_a.clone()),
                ..CheckpointConfig::default()
            },
            &rollout,
        )
        .expect("run must not abort");
        assert!(out.completed);
        (recorder_series(&out.recorder), telemetry_fingerprint(&sink.snapshot()))
    };

    // Run B1: identical setup, killed at the start of episode 3.
    {
        let _sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_actor_learner(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig {
                every: 2,
                dir: Some(dir_b.clone()),
                fault_plan: FaultPlan::parse("kill@ep:3").unwrap(),
                kill_mode: KillMode::Return,
                ..CheckpointConfig::default()
            },
            &rollout,
        )
        .expect("run must not abort");
        assert!(!out.completed, "the injected kill must stop the run");
    }

    // Run B2: fresh process state, resumed from the crashed run's newest
    // checkpoint.
    let (series_b, telem_b, loaded) = {
        let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_actor_learner(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig {
                every: 2,
                dir: Some(dir_b.clone()),
                resume: true,
                ..CheckpointConfig::default()
            },
            &rollout,
        )
        .expect("run must not abort");
        assert!(out.completed);
        assert!(out.episodes_run < episodes, "resume must skip completed episodes");
        let snap = sink.snapshot();
        let loaded = snap.counter_totals().get("checkpoint/loaded").copied();
        (recorder_series(&out.recorder), telemetry_fingerprint(&snap), loaded)
    };

    assert_eq!(loaded, Some(1), "the resume must come from a checkpoint");
    assert_eq!(series_a, series_b, "metric series must be bit-identical");
    assert_eq!(telem_a.0, telem_b.0, "counter totals must be bit-identical");
    assert_eq!(telem_a.1, telem_b.1, "value statistics must be bit-identical");
    std::fs::remove_dir_all(&base).ok();
}

/// An actor frozen by a `stall@actor:N` fault must be detected by the
/// learner's stall timeout and its work re-dispatched to a live actor;
/// in serial mode the surviving run stays bit-identical to the
/// sequential trainer.
#[test]
fn hero_actor_learner_survives_stalled_actor_bit_identically() {
    use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
    use hero_core::trainer::{train_team_checkpointed, CheckpointConfig};
    use hero_faultplan::FaultPlan;
    use hero_rl::telemetry;
    use std::time::Duration;

    let seed = 37;
    let episodes = 4;

    let series_seq = {
        let _sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_checkpointed(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig::default(),
        )
        .expect("run must not abort");
        assert!(out.completed);
        recorder_series(&out.recorder)
    };

    let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
    let (mut env, mut team) = hero_crash_fixture(seed);
    let out = train_team_actor_learner(
        &mut team,
        &mut env,
        &crash_opts(episodes, seed),
        &CheckpointConfig {
            fault_plan: FaultPlan::parse("stall@actor:1").unwrap(),
            ..CheckpointConfig::default()
        },
        &RolloutOptions {
            actors: 2,
            batch_worlds: 1,
            stall_timeout: Duration::from_millis(500),
            ..RolloutOptions::default()
        },
    )
    .expect("run must not abort");
    assert!(out.completed, "the live actor must absorb the stalled actor's work");
    assert_eq!(out.episodes_run, episodes);
    let stalled = sink.snapshot().counter_totals().get("actor/stalled").copied();
    assert!(
        stalled.is_some_and(|n| n >= 1),
        "the stall must be detected and counted (got {stalled:?})"
    );
    assert_eq!(
        series_seq,
        recorder_series(&out.recorder),
        "the surviving run must stay bit-identical to the sequential trainer"
    );
}

/// When every actor is stalled and the respawn budget is zero, the
/// supervisor must escalate to a typed [`TrainError::FleetLost`] abort
/// instead of deadlocking or returning a silent partial run. With no
/// checkpoint store configured there is nothing to emergency-save.
#[test]
fn hero_actor_learner_aborts_typed_when_all_actors_stall() {
    use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
    use hero_core::trainer::{CheckpointConfig, TrainError};
    use hero_faultplan::FaultPlan;
    use hero_rl::telemetry;
    use std::time::Duration;

    let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
    let (mut env, mut team) = hero_crash_fixture(43);
    let err = train_team_actor_learner(
        &mut team,
        &mut env,
        &crash_opts(3, 43),
        &CheckpointConfig {
            fault_plan: FaultPlan::parse("stall@actor:0").unwrap(),
            ..CheckpointConfig::default()
        },
        &RolloutOptions {
            actors: 1,
            batch_worlds: 1,
            stall_timeout: Duration::from_millis(150),
            max_respawns: 0,
            ..RolloutOptions::default()
        },
    )
    .expect_err("an all-stalled fleet with no respawn budget must abort");
    match err {
        TrainError::FleetLost { episodes_run, emergency_checkpoint_saved } => {
            assert_eq!(episodes_run, 0);
            assert!(!emergency_checkpoint_saved, "no store configured, nothing to save");
        }
        other => panic!("expected FleetLost, got {other}"),
    }
    let counters = sink.snapshot().counter_totals();
    assert_eq!(counters.get("supervisor/degraded"), Some(&1), "{counters:?}");
    assert_eq!(counters.get("supervisor/fleet_lost"), Some(&1), "{counters:?}");
}

/// With the default respawn budget a stalled lone actor is harvested and
/// respawned (faults are injected into generation 0 only), so the run
/// self-heals and completes instead of aborting.
#[test]
fn hero_actor_learner_respawns_stalled_lone_actor_and_completes() {
    use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
    use hero_core::trainer::CheckpointConfig;
    use hero_faultplan::FaultPlan;
    use hero_rl::telemetry;
    use std::time::Duration;

    let seed = 43;
    let episodes = 3;

    let series_seq = {
        let _sink = telemetry::scoped(telemetry::TelemetryConfig::default());
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = hero_core::trainer::train_team_checkpointed(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &CheckpointConfig::default(),
        )
        .expect("run must not abort");
        assert!(out.completed);
        recorder_series(&out.recorder)
    };

    let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
    let (mut env, mut team) = hero_crash_fixture(seed);
    let out = train_team_actor_learner(
        &mut team,
        &mut env,
        &crash_opts(episodes, seed),
        &CheckpointConfig {
            fault_plan: FaultPlan::parse("stall@actor:0").unwrap(),
            ..CheckpointConfig::default()
        },
        &RolloutOptions {
            actors: 1,
            batch_worlds: 1,
            stall_timeout: Duration::from_millis(150),
            respawn_backoff_ms: 0,
            ..RolloutOptions::default()
        },
    )
    .expect("the supervisor must respawn the stalled actor");
    assert!(out.completed, "a respawned fleet must finish the run");
    assert_eq!(out.episodes_run, episodes);
    let counters = sink.snapshot().counter_totals();
    assert!(
        counters.get("actor/respawned").is_some_and(|&n| n >= 1),
        "the respawn must be counted: {counters:?}"
    );
    assert_eq!(
        series_seq,
        recorder_series(&out.recorder),
        "the self-healed run must stay bit-identical to the sequential trainer"
    );
}

/// The chaos acceptance drill: `panic@actor:1` plus `stall@actor:2` on a
/// 3-actor serial run. The supervisor harvests both failures, respawns
/// both actors, and the run completes all episodes with metric series,
/// non-supervision telemetry, and final checkpoint bytes identical to
/// the same-seed fault-free twin.
#[test]
fn hero_supervised_chaos_run_is_bit_identical_to_fault_free_twin() {
    use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
    use hero_core::trainer::CheckpointConfig;
    use hero_faultplan::FaultPlan;
    use hero_rl::telemetry;
    use std::time::Duration;

    let base = std::env::temp_dir().join(format!("hero_chaos_it_{}", std::process::id()));
    let dir_clean = base.join("clean");
    let dir_chaos = base.join("chaos");
    std::fs::remove_dir_all(&base).ok();
    let seed = 47;
    let episodes = 6;
    let ckpt = |dir: &std::path::Path, plan: &str| CheckpointConfig {
        every: 2,
        dir: Some(dir.to_path_buf()),
        fault_plan: FaultPlan::parse(plan).unwrap(),
        ..CheckpointConfig::default()
    };
    let rollout = RolloutOptions {
        actors: 3,
        batch_worlds: 1,
        stall_timeout: Duration::from_millis(300),
        respawn_backoff_ms: 0,
        ..RolloutOptions::default()
    };

    // Faults touch only the supervision counters, so pass 1 compares
    // everything else under scoped sinks.
    let run = |dir: &std::path::Path, plan: &str, sink: bool| {
        let sink = sink.then(|| telemetry::scoped(telemetry::TelemetryConfig::default()));
        let (mut env, mut team) = hero_crash_fixture(seed);
        let out = train_team_actor_learner(
            &mut team,
            &mut env,
            &crash_opts(episodes, seed),
            &ckpt(dir, plan),
            &rollout,
        )
        .expect("the supervisor must keep the chaos run alive");
        assert!(out.completed, "every episode must finish despite the faults");
        assert_eq!(out.episodes_run, episodes);
        let fingerprint = sink.map(|s| {
            let snap = s.snapshot();
            let respawned = snap.counter_totals().get("actor/respawned").copied();
            (supervision_free_fingerprint(&snap), respawned)
        });
        (recorder_series(&out.recorder), fingerprint)
    };

    // Pass 1: metric series + telemetry fingerprints (scoped sinks).
    let (series_clean, fp_clean) = run(&dir_clean, "", true);
    let (series_chaos, fp_chaos) = run(&dir_chaos, "panic@actor:1,stall@actor:2", true);
    let (fp_clean, _) = fp_clean.unwrap();
    let (fp_chaos, respawned) = fp_chaos.unwrap();
    assert!(
        respawned.is_some_and(|n| n >= 2),
        "both faulted actors must be respawned (got {respawned:?})"
    );
    assert_eq!(series_clean, series_chaos, "metric series must be bit-identical");
    assert_eq!(fp_clean.0, fp_chaos.0, "counter totals must match modulo supervision");
    assert_eq!(fp_clean.1, fp_chaos.1, "value statistics must be bit-identical");

    // Pass 2 (no sink): the final checkpoint files must be byte-identical.
    std::fs::remove_dir_all(&base).ok();
    let _ = run(&dir_clean, "", false);
    let _ = run(&dir_chaos, "panic@actor:1,stall@actor:2", false);
    assert_eq!(
        newest_checkpoint_bytes(&dir_clean),
        newest_checkpoint_bytes(&dir_chaos),
        "chaos-run checkpoints must be byte-identical to the fault-free twin"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Exhausting the respawn budget with a checkpoint store configured
/// writes a boundary-clean emergency checkpoint before the typed abort,
/// and a plain `--resume` run picks up from it and finishes.
#[test]
fn hero_fleet_lost_emergency_checkpoint_resumes_cleanly() {
    use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
    use hero_core::trainer::{CheckpointConfig, TrainError};
    use hero_faultplan::FaultPlan;
    use hero_rl::telemetry;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("hero_fleetlost_it_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let seed = 53;
    let episodes = 4;

    let sink = telemetry::scoped(telemetry::TelemetryConfig::default());
    let (mut env, mut team) = hero_crash_fixture(seed);
    let err = train_team_actor_learner(
        &mut team,
        &mut env,
        &crash_opts(episodes, seed),
        &CheckpointConfig {
            every: 1,
            dir: Some(dir.clone()),
            fault_plan: FaultPlan::parse("stall@actor:0").unwrap(),
            ..CheckpointConfig::default()
        },
        &RolloutOptions {
            actors: 1,
            batch_worlds: 1,
            stall_timeout: Duration::from_millis(150),
            max_respawns: 0,
            ..RolloutOptions::default()
        },
    )
    .expect_err("a zero-respawn budget must abort the all-stalled run");
    match err {
        TrainError::FleetLost { emergency_checkpoint_saved, .. } => {
            assert!(emergency_checkpoint_saved, "a store is configured, so it must save");
        }
        other => panic!("expected FleetLost, got {other}"),
    }
    let counters = sink.snapshot().counter_totals();
    assert_eq!(counters.get("supervisor/emergency_saved"), Some(&1), "{counters:?}");
    drop(sink);

    // The emergency checkpoint is loadable: a resume run (healthy fleet)
    // finishes the remaining episodes.
    let _sink = telemetry::scoped(telemetry::TelemetryConfig::default());
    let (mut env, mut team) = hero_crash_fixture(seed);
    let out = train_team_actor_learner(
        &mut team,
        &mut env,
        &crash_opts(episodes, seed),
        &CheckpointConfig {
            every: 1,
            dir: Some(dir.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
        &RolloutOptions {
            actors: 1,
            batch_worlds: 1,
            ..RolloutOptions::default()
        },
    )
    .expect("a healthy resume must not abort");
    assert!(out.completed, "the resumed run must finish the remaining episodes");
    std::fs::remove_dir_all(&dir).ok();
}
