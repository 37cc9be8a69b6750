//! Checkpoint kernel-mode refusal. Every trainer checkpoint carries a
//! one-byte `kernel_mode` section holding 0 (strict). A section holding 1
//! marks weights trained by the retired fast-math GEMM tier: resuming
//! them under strict kernels would diverge from the run that wrote them
//! while looking perfectly healthy, and falling back to a fresh run would
//! silently discard the checkpointed progress — so the trainer fails
//! loudly with a typed [`TrainError::ResumeRefused`].

use std::sync::Arc;

use hero_autograd::serialize::{find_section, KERNEL_MODE_SECTION};
use hero_autograd::CheckpointError;
use hero_baselines::sac::SacConfig;
use hero_core::checkpoint::{CheckpointStore, TrainerSnapshot};
use hero_core::trainer::{
    train_team_checkpointed, CheckpointConfig, HeroTeam, TrainError, TrainOptions,
};
use hero_core::{HeroConfig, SkillLibrary};
use hero_faultplan::FaultPlan;
use hero_rl::metrics::Recorder;
use hero_sim::env::{EnvConfig, LaneChangeEnv};
use hero_sim::scenario;

/// The tiny team and world every test trains; a resume rebuilds the same
/// pair and restores the checkpoint into it.
fn fixture() -> (HeroTeam, LaneChangeEnv) {
    let env_cfg = EnvConfig {
        max_steps: 4,
        ..EnvConfig::default()
    };
    let skills = Arc::new(SkillLibrary::untrained(
        env_cfg,
        SacConfig {
            hidden: 8,
            ..SacConfig::default()
        },
        0,
    ));
    let cfg = HeroConfig {
        hidden: 8,
        batch_size: 8,
        warmup: 8,
        ..HeroConfig::default()
    };
    let team = HeroTeam::new(2, env_cfg.high_dim(), skills, cfg, 1);
    (team, scenario::two_vehicle_merge(env_cfg, 3))
}

/// A checkpoint of [`fixture`] two episodes in, as the trainer writes it.
fn snapshot() -> TrainerSnapshot {
    let (team, _) = fixture();
    TrainerSnapshot {
        next_episode: 2,
        step_counter: 16,
        update_counter: 16,
        trainer_rng: [1, 2, 3, 4],
        env_rng: vec![5, 6, 7, 8],
        recorder: Recorder::new(),
        telemetry: None,
        workers: None,
        team_sections: team.save_state(),
    }
}

/// The snapshot's sections with the `kernel_mode` section's bytes
/// replaced by `mode` (`None` drops the section, as in checkpoints
/// written before it existed).
fn sections_with_mode(mode: Option<&[u8]>) -> Vec<(String, Vec<u8>)> {
    snapshot()
        .to_sections()
        .into_iter()
        .filter_map(|(name, bytes)| {
            if name == KERNEL_MODE_SECTION {
                mode.map(|m| (name, m.to_vec()))
            } else {
                Some((name, bytes))
            }
        })
        .collect()
}

#[test]
fn snapshots_stamp_strict_kernels() {
    let sections = snapshot().to_sections();
    assert_eq!(
        find_section(&sections, KERNEL_MODE_SECTION),
        Some(&[0u8][..])
    );
}

#[test]
fn only_an_absent_or_strict_kernel_mode_section_decodes() {
    TrainerSnapshot::from_sections(&sections_with_mode(None)).expect("absent section loads");
    TrainerSnapshot::from_sections(&sections_with_mode(Some(&[0]))).expect("strict loads");
    let err = TrainerSnapshot::from_sections(&sections_with_mode(Some(&[1]))).unwrap_err();
    assert!(matches!(err, CheckpointError::KernelModeMismatch), "{err}");
    for junk in [&[9u8][..], &[], &[0, 0]] {
        let err = TrainerSnapshot::from_sections(&sections_with_mode(Some(junk))).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Malformed(what) if what.contains("kernel_mode")),
            "{junk:?}: {err}"
        );
    }
}

/// Runs a tiny resuming training job against a checkpoint directory
/// holding one checkpoint made of `sections`.
fn resume_from(tag: &str, sections: &[(String, Vec<u8>)]) -> Result<(), TrainError> {
    let dir = std::env::temp_dir().join(format!("hero-modeckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir, 2).unwrap();
    assert!(store.save(sections, &FaultPlan::none()));

    let (mut team, mut env) = fixture();
    let outcome = train_team_checkpointed(
        &mut team,
        &mut env,
        &TrainOptions {
            episodes: 3,
            update_every: 4,
            seed: 7,
        },
        &CheckpointConfig {
            dir: Some(dir.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    outcome.map(|out| {
        assert_eq!(
            out.episodes_run, 1,
            "the run must continue from episode 2, not start fresh"
        );
    })
}

#[test]
fn resume_refuses_a_fast_math_checkpoint() {
    let err = resume_from("fast", &sections_with_mode(Some(&[1])))
        .expect_err("resume must refuse a fast-math checkpoint instead of starting fresh");
    assert!(
        matches!(
            err,
            TrainError::ResumeRefused(CheckpointError::KernelModeMismatch)
        ),
        "{err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("refusing to resume") && msg.contains("kernel mode `fast`"),
        "refusal message should name the cause: {msg}"
    );
}

/// The refusal is specific, not blanket: a strict checkpoint, and one
/// written before the section existed, both resume.
#[test]
fn resume_accepts_strict_and_unstamped_checkpoints() {
    resume_from("strict", &sections_with_mode(Some(&[0]))).expect("strict checkpoint resumes");
    resume_from("unstamped", &sections_with_mode(None)).expect("unstamped checkpoint resumes");
}
