//! Fig. 7(a–c) — learning curves of HERO vs Independent DQN, COMA,
//! MADDPG, and MAAC in the four-vehicle congestion scenario (Fig. 9
//! layout): mean episode reward, collision rate, and lane-change success
//! rate over training.
//!
//! Emits one CSV with columns `<metric>/<method>` per training episode
//! and prints the final-window comparison the figure's right edge shows.

use hero_bench::{
    build_method, load_or_train_skills, exit_on_train_error, train_policy_distributed, ExperimentArgs, Method,
    MethodParams,
};
use hero_core::config::HeroConfig;
use hero_rl::metrics::Recorder;
use hero_sim::env::EnvConfig;
use hero_sim::scenario;

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(600));
    let _telemetry = hero_bench::init_telemetry(&args, "fig7");
    let env_cfg = EnvConfig::default();
    let skills = load_or_train_skills(&args, env_cfg);
    let hero_cfg = HeroConfig::default();

    let mut combined = Recorder::new();
    println!(
        "Fig. 7: learning curves over {} episodes in the congestion scenario",
        args.episodes
    );
    println!(
        "{:<8} {:>14} {:>16} {:>14}",
        "method", "final reward", "final collision", "final success"
    );
    for method in Method::ALL {
        let mut env = scenario::congestion(env_cfg, args.seed);
        let mut policy = build_method(
            method,
            MethodParams {
                n_agents: 3,
                obs_dim: env_cfg.high_dim(),
                batch_size: args.batch_size,
                seed: args.seed,
            },
            Some((skills.clone(), hero_cfg)),
        );
        eprintln!("fig7: training {}...", method.name());
        let rec = exit_on_train_error(train_policy_distributed(
            &mut policy,
            &mut env,
            args.episodes,
            args.update_every,
            args.seed,
            &args.checkpoint_config(method.name()),
            &args.rollout_options(),
        ));
        for metric in ["reward", "collision", "success", "mean_speed"] {
            if let Some(series) = rec.smoothed(metric, 100) {
                for v in series {
                    combined.push(&format!("{metric}/{}", method.name()), v);
                }
            }
        }
        let window = (args.episodes / 5).max(1);
        println!(
            "{:<8} {:>14.4} {:>16.3} {:>14.3}",
            method.name(),
            rec.tail_mean("reward", window).unwrap_or(f32::NAN),
            rec.tail_mean("collision", window).unwrap_or(f32::NAN),
            rec.tail_mean("success", window).unwrap_or(f32::NAN),
        );
    }
    let path = args.out_file("fig7_learning_curves.csv");
    combined.write_csv(&path).expect("write csv");
    println!("smoothed series written to {}", path.display());
}
