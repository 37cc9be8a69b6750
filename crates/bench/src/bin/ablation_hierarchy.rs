//! Ablation — hierarchy vs flat end-to-end control (the paper's core
//! learning-complexity claim, Sec. I). The flat variant gives each agent
//! an independent SAC policy mapping the high-level observation directly
//! to continuous `(linear, angular)` commands — no options, no skills —
//! and trains it on the same team reward.

use hero_baselines::sac::{SacAgent, SacConfig};
use hero_bench::{
    build_method, load_or_train_skills, print_eval_row, exit_on_train_error, train_policy_distributed, ExperimentArgs,
    Method, MethodParams,
};
use hero_core::config::HeroConfig;
use hero_core::trainer::EvalStats;
use hero_rl::metrics::Recorder;
use hero_rl::transition::ContinuousTransition;
use hero_sim::env::{CooperativeWorld, EnvConfig};
use hero_sim::scenario;
use hero_sim::vehicle::VehicleCommand;
use rand::rngs::StdRng;
use rand::SeedableRng;

const LINEAR_RANGE: (f32, f32) = (0.0, 0.2);
const ANGULAR_RANGE: (f32, f32) = (-0.25, 0.25);

fn denorm(a: &[f32]) -> VehicleCommand {
    let lin = LINEAR_RANGE.0 + (a[0] + 1.0) / 2.0 * (LINEAR_RANGE.1 - LINEAR_RANGE.0);
    let ang = ANGULAR_RANGE.0 + (a[1] + 1.0) / 2.0 * (ANGULAR_RANGE.1 - ANGULAR_RANGE.0);
    VehicleCommand::new(lin, ang)
}

fn run_flat<W: CooperativeWorld>(
    env: &mut W,
    episodes: usize,
    update_every: usize,
    batch_size: usize,
    seed: u64,
    explore: bool,
    agents: &mut [SacAgent],
) -> (Recorder, EvalStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rec = Recorder::new();
    let mut collisions = 0usize;
    let mut merges = 0usize;
    let mut candidates = 0usize;
    let mut speed_sum = 0.0;
    let mut reward_sum = 0.0;
    let mut total_steps = 0usize;
    let mut step_counter = 0usize;
    let _ = batch_size;
    for _ in 0..episodes {
        let mut obs = env.reset();
        let mut ep_reward = 0.0;
        let mut ep_speed = 0.0;
        let mut steps = 0usize;
        while !env.is_done() {
            let learners = env.learner_indices();
            let mut commands = vec![VehicleCommand::default(); env.num_vehicles()];
            let mut actions = Vec::with_capacity(learners.len());
            for (k, &v) in learners.iter().enumerate() {
                let a = agents[k].act(&obs[v].high_vec(), &mut rng, explore);
                commands[v] = denorm(&a);
                actions.push(a);
            }
            let out = env.step(&commands);
            for (k, &v) in learners.iter().enumerate() {
                agents[k].observe(ContinuousTransition {
                    obs: obs[v].high_vec(),
                    action: actions[k].clone(),
                    reward: out.rewards[v],
                    next_obs: out.observations[v].high_vec(),
                    done: out.done,
                });
            }
            ep_reward += learners.iter().map(|&v| out.rewards[v]).sum::<f32>()
                / learners.len() as f32;
            ep_speed += out.mean_speed;
            steps += 1;
            step_counter += 1;
            if explore && step_counter % update_every == 0 {
                for a in agents.iter_mut() {
                    a.update(&mut rng);
                }
            }
            obs = out.observations;
        }
        let learners = env.learner_indices();
        rec.push("reward", ep_reward / steps.max(1) as f32);
        rec.push(
            "collision",
            if learners.iter().any(|&v| env.has_collided(v)) {
                1.0
            } else {
                0.0
            },
        );
        rec.push("mean_speed", ep_speed / steps.max(1) as f32);
        if learners.iter().any(|&v| env.has_collided(v)) {
            collisions += 1;
        }
        for &v in &learners {
            if env.needs_merge(v) {
                candidates += 1;
                if env.has_merged(v) {
                    merges += 1;
                }
            }
        }
        reward_sum += ep_reward;
        speed_sum += ep_speed;
        total_steps += steps;
    }
    let stats = EvalStats {
        collision_rate: collisions as f32 / episodes.max(1) as f32,
        success_rate: if candidates > 0 {
            merges as f32 / candidates as f32
        } else {
            1.0
        },
        mean_speed: speed_sum / total_steps.max(1) as f32,
        mean_reward: reward_sum / total_steps.max(1) as f32,
    };
    (rec, stats)
}

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(600));
    let _telemetry = hero_bench::init_telemetry(&args, "abl_hierarchy");
    let env_cfg = EnvConfig::default();
    let mut combined = Recorder::new();
    println!(
        "Ablation: hierarchical HERO vs flat end-to-end continuous SAC ({} episodes)",
        args.episodes
    );

    // HERO (hierarchical).
    {
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
        eprintln!("ablation: training HERO...");
        let rec = exit_on_train_error(train_policy_distributed(
            &mut policy,
            &mut env,
            args.episodes,
            args.update_every,
            args.seed,
            &args.checkpoint_config("HERO"),
            &args.rollout_options(),
        ));
        for metric in ["reward", "collision"] {
            if let Some(series) = rec.smoothed(metric, 100) {
                for v in series {
                    combined.push(&format!("{metric}/HERO"), v);
                }
            }
        }
        let stats = policy.evaluate(&mut env, args.eval_episodes, args.seed ^ 0xAB3);
        print_eval_row("HERO", &stats);
    }

    // Flat end-to-end SAC.
    {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut agents: Vec<SacAgent> = (0..3)
            .map(|_| {
                SacAgent::new(
                    env_cfg.high_dim(),
                    2,
                    SacConfig {
                        batch_size: args.batch_size,
                        ..SacConfig::default()
                    },
                    &mut rng,
                )
            })
            .collect();
        let mut env = scenario::congestion(env_cfg, args.seed);
        eprintln!("ablation: training flat SAC...");
        let (rec, _) = run_flat(
            &mut env,
            args.episodes,
            args.update_every,
            args.batch_size,
            args.seed,
            true,
            &mut agents,
        );
        for metric in ["reward", "collision"] {
            if let Some(series) = rec.smoothed(metric, 100) {
                for v in series {
                    combined.push(&format!("{metric}/FlatSAC"), v);
                }
            }
        }
        let (_, stats) = run_flat(
            &mut env,
            args.eval_episodes,
            args.update_every,
            args.batch_size,
            args.seed ^ 0xAB3,
            false,
            &mut agents,
        );
        print_eval_row("FlatSAC", &stats);
    }

    let path = args.out_file("ablation_hierarchy.csv");
    combined.write_csv(&path).expect("write csv");
    println!("series written to {}", path.display());
}
