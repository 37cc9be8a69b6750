//! Table II — "real-world" evaluation: every method is trained in the
//! plain simulator, then its frozen greedy policy runs 20 episodes on the
//! sim-to-real testbed proxy (sensor noise, actuation latency/noise,
//! per-episode gain, heading drift) with random initial positions.
//! Reported metrics match the paper: collision rate, lane-merge success
//! rate, mean speed.

use hero_bench::{
    build_method, load_or_train_skills, print_eval_row, exit_on_train_error, train_policy_distributed, ExperimentArgs,
    Method, MethodParams,
};
use hero_core::config::HeroConfig;
use hero_rl::metrics::Recorder;
use hero_sim::env::EnvConfig;
use hero_sim::scenario;
use hero_sim::sim2real::{SimToRealConfig, SimToRealEnv};

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(600));
    let _telemetry = hero_bench::init_telemetry(&args, "table2");
    let env_cfg = EnvConfig::default();
    let skills = load_or_train_skills(&args, env_cfg);
    let hero_cfg = HeroConfig::default();

    let mut rec = Recorder::new();
    println!(
        "Table II: performance on the real-world testbed proxy ({} episodes per method)",
        args.eval_episodes
    );
    for method in Method::ALL {
        let mut sim = scenario::congestion(env_cfg, args.seed);
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
        eprintln!("table2: training {} in simulation...", method.name());
        let _ = exit_on_train_error(train_policy_distributed(
            &mut policy,
            &mut sim,
            args.episodes,
            args.update_every,
            args.seed,
            &args.checkpoint_config(method.name()),
            &args.rollout_options(),
        ));
        // Deploy: same scenario behind the domain gap.
        let mut testbed = SimToRealEnv::new(
            env_cfg,
            scenario::congestion_spawns(),
            SimToRealConfig::default(),
            args.seed ^ 0xBED,
        );
        let stats = policy.evaluate(&mut testbed, args.eval_episodes, args.seed ^ 0xBED);
        print_eval_row(method.name(), &stats);
        rec.push("collision_rate", stats.collision_rate);
        rec.push("success_rate", stats.success_rate);
        rec.push("mean_speed", stats.mean_speed);
    }
    let path = args.out_file("table2_realworld.csv");
    rec.write_csv(&path).expect("write csv");
    println!("rows written to {} (row order: HERO, DQN, COMA, MADDPG, MAAC)", path.display());
}
