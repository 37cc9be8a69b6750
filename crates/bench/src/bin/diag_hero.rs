//! Policy inspector: trains HERO, then narrates greedy episodes and
//! classifies collision causes (wall vs vehicle-vehicle) — handy when
//! tuning scenarios or debugging learned behavior.

use hero_bench::{exit_on_train_error, load_or_train_skills, ExperimentArgs};
use hero_core::config::HeroConfig;
use hero_core::trainer::{HeroTeam, TrainOptions};
use hero_sim::env::EnvConfig;
use hero_sim::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(100));
    let _telemetry = hero_bench::init_telemetry(&args, "diag");
    let env_cfg = EnvConfig::default();
    let skills = load_or_train_skills(&args, env_cfg);
    let _ = &skills;
    let cfg = HeroConfig {
        batch_size: args.batch_size,
        ..HeroConfig::default()
    };
    let mut env = scenario::congestion(env_cfg, args.seed);
    let mut team = HeroTeam::new(3, env_cfg.high_dim(), skills.clone(), cfg, args.seed);
    let _ = exit_on_train_error(hero_core::rollout::train_team_actor_learner(
        &mut team,
        &mut env,
        &TrainOptions {
            episodes: args.episodes,
            update_every: 4,
            seed: args.seed,
        },
        &args.checkpoint_config("HERO"),
        &args.rollout_options(),
    ));

    // Greedy probes with narration.
    let mut rng = StdRng::seed_from_u64(123);
    let mut wall = 0;
    let mut v2v = 0;
    let mut none = 0;
    for ep in 0..10 {
        let mut obs = env.reset();
        team.begin_episode();
        let mut log: Vec<String> = Vec::new();
        while !env.is_done() {
            let cmds = team.decide(&env, &obs, &mut rng, false);
            let opts: Vec<String> = team
                .cursor()
                .agents()
                .iter()
                .map(|a| a.current_option().map(|o| format!("{o}")).unwrap_or_default())
                .collect();
            let out = env.step(&cmds);
            team.record(&env, &obs, &out.rewards, &out.observations, out.done);
            log.push(format!(
                "opts=[{}] d=[{:.2},{:.2},{:.2}] col={:?}",
                opts.join(","),
                env.vehicle_state(0).d,
                env.vehicle_state(1).d,
                env.vehicle_state(2).d,
                out.collisions
            ));
            obs = out.observations;
        }
        let track_w = env_cfg.track.width();
        let mut kind = "none";
        for i in 0..env.num_vehicles() {
            if env.has_collided(i) {
                let d = env.vehicle_state(i).d;
                if d < 0.12 || d > track_w - 0.12 {
                    kind = "wall";
                } else if kind == "none" {
                    kind = "v2v";
                }
            }
        }
        match kind {
            "wall" => wall += 1,
            "v2v" => v2v += 1,
            _ => none += 1,
        }
        if ep < 3 {
            println!("--- episode {ep} ({kind}) ---");
            for l in &log {
                println!("  {l}");
            }
        }
    }
    println!("\n10 greedy episodes: wall={wall} v2v={v2v} clean={none}");
}
