//! Corrupt checkpoint *sections*, not files. A truncated or bit-flipped
//! file fails its CRC footer before any section decoder runs, so these
//! tests put damaged section bytes inside a well-formed container, as an
//! encoder bug or a hostile but CRC-valid file would. Whatever the damage,
//! `TrainerSnapshot::from_sections` and then `HeroTeam::load_state` must
//! return `Ok` or a typed `CheckpointError`, and never panic. Undamaged,
//! every section must re-encode to the bytes it was decoded from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use hero_autograd::CheckpointError;
use hero_baselines::sac::SacConfig;
use hero_core::checkpoint::{TrainerSnapshot, WorkerStates};
use hero_core::opponent::OpponentSample;
use hero_core::trainer::{train_team, HeroTeam, TrainOptions};
use hero_core::{HeroConfig, SkillLibrary};
use hero_rl::buffer::ReplayBuffer;
use hero_rl::snapshot::{decode_replay, encode_replay, Codec};
use hero_rl::telemetry::{self, TelemetryConfig};
use hero_rl::transition::OptionTransition;
use hero_sim::env::{CooperativeWorld, EnvConfig, LaneChangeEnv};
use hero_sim::scenario;
use proptest::prelude::*;

const SEED: u64 = 31;

fn env_cfg() -> EnvConfig {
    EnvConfig {
        max_steps: 6,
        ..EnvConfig::default()
    }
}

/// A fresh three-agent team of the shape every checkpoint here is for.
fn team() -> HeroTeam {
    static SKILLS: OnceLock<Arc<SkillLibrary>> = OnceLock::new();
    let skills = SKILLS.get_or_init(|| {
        Arc::new(SkillLibrary::untrained(
            env_cfg(),
            SacConfig {
                hidden: 8,
                ..SacConfig::default()
            },
            SEED,
        ))
    });
    let cfg = HeroConfig {
        hidden: 8,
        batch_size: 8,
        warmup: 8,
        ..HeroConfig::default()
    };
    HeroTeam::new(3, env_cfg().high_dim(), Arc::clone(skills), cfg, SEED)
}

/// The sections of one seeded HERO checkpoint carrying every section a
/// trainer checkpoint can hold: `meta`, `rngs`, `recorder`, `telemetry`,
/// `workers`, `kernel_mode`, and per agent the learner's and opponent
/// model's parameters, optimizers (`opts` included) and replay buffers,
/// and the agent's `bookkeeping`.
fn sections() -> &'static [(String, Vec<u8>)] {
    static SECTIONS: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    SECTIONS.get_or_init(|| {
        let sink = telemetry::scoped(TelemetryConfig::default());
        let mut team = team();
        let mut env: LaneChangeEnv = scenario::congestion(env_cfg(), SEED);
        let recorder = train_team(
            &mut team,
            &mut env,
            &TrainOptions {
                episodes: 3,
                update_every: 2,
                seed: SEED,
            },
        );
        let env_rng = env.rng_state();
        TrainerSnapshot {
            next_episode: 3,
            step_counter: 17,
            update_counter: 8,
            trainer_rng: [1, 2, 3, 4],
            env_rng: env_rng.clone(),
            recorder,
            telemetry: Some(sink.registry().export_state()),
            workers: Some(WorkerStates {
                rngs: vec![env_rng.clone(), env_rng],
                last_options: vec![vec![0, 1, 2], vec![3, 0, 1]],
            }),
            team_sections: team.save_state(),
        }
        .to_sections()
    })
}

/// Decodes `sections` the way a resume does: the snapshot, then its team
/// sections into a fresh team. A panic fails the calling test with the
/// damage that caused it.
fn decode(sections: &[(String, Vec<u8>)], damage: &str) -> Result<(), CheckpointError> {
    catch_unwind(AssertUnwindSafe(|| {
        let snapshot = TrainerSnapshot::from_sections(sections)?;
        team().load_state(&snapshot.team_sections)
    }))
    .unwrap_or_else(|_| panic!("decoding panicked on {damage}"))
}

/// `sections` with section `index`'s bytes replaced by `bytes`.
fn with_section(index: usize, bytes: Vec<u8>) -> Vec<(String, Vec<u8>)> {
    let mut out = sections().to_vec();
    out[index].1 = bytes;
    out
}

#[test]
fn fixture_carries_every_section() {
    let names: Vec<&str> = sections().iter().map(|(n, _)| n.as_str()).collect();
    for want in [
        "meta",
        "rngs",
        "recorder",
        "telemetry",
        "workers",
        "kernel_mode",
        "team/last_options",
    ] {
        assert!(names.contains(&want), "missing {want}: {names:?}");
    }
    for k in 0..3 {
        for part in [
            "high/params",
            "high/critic_target",
            "high/actor_opt",
            "high/critic_opt",
            "high/buffer",
            "opp/params",
            "opp/opts",
            "opp/buffer",
            "bookkeeping",
        ] {
            let want = format!("agent{k}/{part}");
            assert!(names.contains(&want.as_str()), "missing {want}");
        }
    }
    let buffers = sections().iter().filter(|(n, _)| n.ends_with("/buffer"));
    assert!(buffers.clone().count() == 6 && buffers.clone().all(|(_, b)| b.len() > 100));
}

#[test]
fn every_section_reencodes_byte_identically() {
    let snapshot = TrainerSnapshot::from_sections(sections()).expect("fixture decodes");
    assert_eq!(
        snapshot.to_sections(),
        sections(),
        "trainer sections re-encode"
    );
    let mut team = team();
    team.load_state(&snapshot.team_sections)
        .expect("team sections decode");
    assert_eq!(
        team.save_state(),
        snapshot.team_sections,
        "team sections re-encode"
    );
}

#[test]
fn every_section_survives_truncation_and_bitflips() {
    for (index, (name, bytes)) in sections().iter().enumerate() {
        let len = bytes.len();
        for cut in [0, len / 3, len / 2, len.saturating_sub(1)] {
            if cut < len {
                let _ = decode(
                    &with_section(index, bytes[..cut].to_vec()),
                    &format!("{name} cut at {cut}"),
                );
            }
        }
        for pos in [0, len / 2, len.saturating_sub(1)] {
            if pos < len {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 0x80;
                let _ = decode(
                    &with_section(index, flipped),
                    &format!("{name} flipped at {pos}"),
                );
            }
        }
        let mut longer = bytes.clone();
        longer.push(0);
        let _ = decode(
            &with_section(index, longer),
            &format!("{name} with a trailing byte"),
        );
    }
}

/// `sections` with replay item 0 of section `name` changed by `edit`,
/// re-encoded into a well-formed buffer.
fn with_replay_item<T: Codec + Clone>(
    name: &str,
    edit: impl FnOnce(&mut T),
) -> Vec<(String, Vec<u8>)> {
    let index = sections()
        .iter()
        .position(|(n, _)| n == name)
        .expect("fixture section");
    let buffer: ReplayBuffer<T> = decode_replay(&sections()[index].1).expect("fixture decodes");
    let mut items = buffer.items().to_vec();
    edit(&mut items[0]);
    let edited =
        ReplayBuffer::from_parts(buffer.capacity(), items, buffer.head()).expect("same shape");
    with_section(index, encode_replay(&edited))
}

fn assert_malformed(sections: &[(String, Vec<u8>)], damage: &str) {
    let err = decode(sections, damage).expect_err(damage);
    assert!(
        matches!(err, CheckpointError::Malformed(_)),
        "{damage}: {err}"
    );
}

/// A replayed option segment the high-level update cannot build rows from
/// is refused at load: before, an option of 9 out of 4 loaded and then
/// panicked the next update in `push_one_hot`.
#[test]
fn replayed_segment_that_does_not_fit_the_learner_is_refused() {
    let refused = |damage: &str, edit: fn(&mut OptionTransition)| {
        assert_malformed(&with_replay_item("agent0/high/buffer", edit), damage);
    };
    refused("option 9 of 4", |t| t.option = 9);
    refused("other option 9 of 4", |t| t.other_options[0] = 9);
    refused("an extra other option", |t| t.other_options.push(0));
    refused("a short state", |t| {
        t.obs.pop();
    });
    refused("a long next state", |t| t.next_obs.push(0.0));
}

/// The same for the opponent model's replayed samples.
#[test]
fn replayed_opponent_sample_that_does_not_fit_the_model_is_refused() {
    let refused = |damage: &str, edit: fn(&mut OpponentSample)| {
        assert_malformed(&with_replay_item("agent0/opp/buffer", edit), damage);
    };
    refused("option 9 of 4", |s| s.options[0] = 9);
    refused("a missing option", |s| {
        s.options.pop();
    });
    refused("a long state", |s| s.obs.push(0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One section, truncated at or bit-flipped near a random position,
    /// decodes to `Ok` or a typed error and never panics.
    fn damaged_section_never_panics(
        section in 0usize..1024,
        at in 0.0f64..1.0,
        bit in 0u8..8,
        truncate in 0u8..2,
    ) {
        let index = section % sections().len();
        let (name, bytes) = &sections()[index];
        let pos = (bytes.len() as f64 * at) as usize;
        let (damaged, damage) = if truncate == 1 || bytes.is_empty() {
            (bytes[..pos.min(bytes.len())].to_vec(), format!("{name} cut at {pos}"))
        } else {
            let mut flipped = bytes.clone();
            flipped[pos.min(bytes.len() - 1)] ^= 1 << bit;
            (flipped, format!("{name} bit {bit} flipped at {pos}"))
        };
        let _ = decode(&with_section(index, damaged), &damage);
    }
}
