//! Fig. 11 — mean vehicle speed achieved by each method after training in
//! the simulated congestion scenario (the paper reports ≈0.08 for HERO,
//! the highest, and ≈0.048 for MAAC, the lowest).

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
    let _telemetry = hero_bench::init_telemetry(&args, "fig11");
    let env_cfg = EnvConfig::default();
    let skills = load_or_train_skills(&args, env_cfg);
    let hero_cfg = HeroConfig::default();

    let mut rec = Recorder::new();
    println!(
        "Fig. 11: mean speed after {} training episodes ({} greedy eval episodes)",
        args.episodes, args.eval_episodes
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
        eprintln!("fig11: training {}...", method.name());
        let _ = exit_on_train_error(train_policy_distributed(
            &mut policy,
            &mut env,
            args.episodes,
            args.update_every,
            args.seed,
            &args.checkpoint_config(method.name()),
            &args.rollout_options(),
        ));
        let stats = policy.evaluate(&mut env, args.eval_episodes, args.seed ^ 0x51ED);
        print_eval_row(method.name(), &stats);
        rec.push("mean_speed", stats.mean_speed);
    }
    let path = args.out_file("fig11_mean_speed.csv");
    rec.write_csv(&path).expect("write csv");
    println!("bar values written to {}", path.display());
}
