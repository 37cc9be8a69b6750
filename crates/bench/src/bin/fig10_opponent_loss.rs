//! Fig. 10 — the opponent-model prediction loss from vehicle 2's
//! perspective while HERO trains in the congestion scenario. The paper
//! shows the model of vehicle 1 converging quickly while vehicle 3's
//! model converges much later, reflecting how strongly each opponent's
//! behaviour couples to vehicle 2's observations.

use hero_bench::{
    build_method, load_or_train_skills, exit_on_train_error, train_policy_distributed, ExperimentArgs, Method,
    MethodParams,
};
use hero_core::config::HeroConfig;
use hero_rl::metrics::{summarize, Recorder};
use hero_sim::env::EnvConfig;
use hero_sim::scenario;

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(600));
    let _telemetry = hero_bench::init_telemetry(&args, "fig10");
    let env_cfg = EnvConfig::default();
    let skills = load_or_train_skills(&args, env_cfg);

    let mut env = scenario::congestion(env_cfg, args.seed);
    let mut policy = build_method(
        Method::Hero,
        MethodParams {
            n_agents: 3,
            obs_dim: env_cfg.high_dim(),
            batch_size: args.batch_size,
            seed: args.seed,
        },
        Some((skills, HeroConfig::default())),
    );
    eprintln!("fig10: training HERO for {} episodes...", args.episodes);
    let _ = exit_on_train_error(train_policy_distributed(
        &mut policy,
        &mut env,
        args.episodes,
        args.update_every,
        args.seed,
        &args.checkpoint_config("HERO"),
        &args.rollout_options(),
    ));

    let hero_bench::TrainedPolicy::Hero(team) = &policy else {
        unreachable!("built HERO above");
    };
    // Vehicle 2's perspective = learner index 1; its opponents in team
    // order are vehicle 1 (learner 0) and vehicle 3 (learner 2).
    let traces = team.agents()[1].opponent_loss_traces();
    let mut rec = Recorder::new();
    let labels = ["vehicle1", "vehicle3"];
    println!("Fig. 10: opponent-model NLL loss from vehicle 2's perspective");
    for (label, trace) in labels.iter().zip(traces) {
        for &v in trace {
            rec.push(&format!("opponent_loss/{label}"), v);
        }
        if trace.is_empty() {
            println!("{label:<10} no updates ran (increase --episodes)");
            continue;
        }
        let early = summarize(&trace[..trace.len().min(50)]).expect("data");
        let late = summarize(&trace[trace.len().saturating_sub(50)..]).expect("data");
        println!(
            "{label:<10} first-50 mean loss {:>8.4}   last-50 mean loss {:>8.4}",
            early.mean, late.mean
        );
    }
    let path = args.out_file("fig10_opponent_loss.csv");
    rec.write_csv(&path).expect("write csv");
    println!("loss traces written to {}", path.display());
}
