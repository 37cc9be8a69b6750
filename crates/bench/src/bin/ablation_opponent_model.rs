//! Ablation — HERO with vs without the opponent model. The paper's
//! Sec. III-C argues the opponent model stabilizes training against
//! non-stationarity; this ablation trains both variants in the congestion
//! scenario and compares learning curves and final greedy metrics.

use hero_bench::{
    build_method, load_or_train_skills, print_eval_row, exit_on_train_error, train_policy_distributed, ExperimentArgs,
    Method, MethodParams,
};
use hero_core::config::HeroConfig;
use hero_rl::metrics::Recorder;
use hero_sim::env::EnvConfig;
use hero_sim::scenario;

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(600));
    let _telemetry = hero_bench::init_telemetry(&args, "abl_opponent");
    let env_cfg = EnvConfig::default();
    let skills = load_or_train_skills(&args, env_cfg);

    let variants = [
        ("HERO", HeroConfig::default()),
        (
            "HERO-no-opponent",
            HeroConfig {
                use_opponent_model: false,
                ..HeroConfig::default()
            },
        ),
    ];
    let mut combined = Recorder::new();
    println!("Ablation: opponent model on/off ({} episodes)", args.episodes);
    for (label, cfg) in variants {
        let mut env = scenario::congestion(env_cfg, args.seed);
        let mut policy = build_method(
            Method::Hero,
            MethodParams {
                n_agents: 3,
                obs_dim: env_cfg.high_dim(),
                batch_size: args.batch_size,
                seed: args.seed,
            },
            Some((skills.clone(), cfg)),
        );
        eprintln!("ablation: training {label}...");
        let rec = exit_on_train_error(train_policy_distributed(
            &mut policy,
            &mut env,
            args.episodes,
            args.update_every,
            args.seed,
            &args.checkpoint_config(label),
            &args.rollout_options(),
        ));
        for metric in ["reward", "collision", "success"] {
            if let Some(series) = rec.smoothed(metric, 100) {
                for v in series {
                    combined.push(&format!("{metric}/{label}"), v);
                }
            }
        }
        let stats = policy.evaluate(&mut env, args.eval_episodes, args.seed ^ 0xAB1);
        print_eval_row(label, &stats);
    }
    let path = args.out_file("ablation_opponent_model.csv");
    combined.write_csv(&path).expect("write csv");
    println!("series written to {}", path.display());
}
