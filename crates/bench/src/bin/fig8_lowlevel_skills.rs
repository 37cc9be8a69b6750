//! Fig. 8 — episode reward while learning the low-level skills (lane
//! tracking and lane change) with soft actor–critic in parallel
//! single-vehicle environments.
//!
//! Reproduces the figure's shape: both curves converge; the lane-change
//! curve stays low for longer (exploration of the maneuver under the
//! maximum-entropy objective) before climbing to the success plateau.

use hero_baselines::sac::SacConfig;
use hero_bench::ExperimentArgs;
use hero_core::skills::{SkillLibrary, SkillTrainingConfig};
use hero_rl::metrics::summarize;
use hero_sim::env::EnvConfig;

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(1_500));
    let _telemetry = hero_bench::init_telemetry(&args, "fig8");
    let cfg = SkillTrainingConfig {
        vision: false,
        episodes: args.episodes,
        updates_per_episode: 2,
        sac: SacConfig {
            batch_size: args.batch_size,
            ..SacConfig::default()
        },
    };
    eprintln!(
        "fig8: training both skills for {} episodes (seed {})",
        args.episodes, args.seed
    );
    let (skills, rec) = SkillLibrary::train(EnvConfig::default(), cfg, args.seed);

    let path = args.out_file("fig8_lowlevel_skills.csv");
    rec.write_csv(&path).expect("write csv");
    let ckpt = args.out_file("skills.ckpt");
    skills.save(&ckpt).expect("save skill checkpoint");

    println!("Fig. 8: episode reward of learning low-level skills (window-100 means)");
    for name in ["skill/driving-in-lane", "skill/lane-change"] {
        let raw = rec.series(name).expect("series recorded");
        let early = summarize(&raw[..raw.len().min(100)]).expect("data");
        let late_start = raw.len().saturating_sub(100);
        let late = summarize(&raw[late_start..]).expect("data");
        println!(
            "{name:<24} first-100 mean {:>8.3}   last-100 mean {:>8.3}",
            early.mean, late.mean
        );
    }
    if let Some(success) = rec.tail_mean("skill/lane-change-success", 100) {
        println!("lane-change success rate (last 100 episodes): {success:.3}");
    }
    println!("series written to {}", path.display());
    println!("skill checkpoint written to {}", ckpt.display());
}
