//! End-to-end smoke test of the full HERO pipeline: skill training →
//! cooperative training → greedy evaluation → sim-to-real deployment, at
//! toy budgets.

use std::sync::Arc;

use hero::prelude::*;
use hero_baselines::sac::SacConfig;
use hero_sim::scenario;

fn tiny_sac() -> SacConfig {
    SacConfig {
        hidden: 8,
        batch_size: 16,
        warmup: 16,
        ..SacConfig::default()
    }
}

fn tiny_hero() -> HeroConfig {
    HeroConfig {
        hidden: 8,
        batch_size: 16,
        warmup: 16,
        ..HeroConfig::default()
    }
}

#[test]
fn full_pipeline_runs_and_produces_finite_metrics() {
    let env_cfg = EnvConfig {
        max_steps: 8,
        ..EnvConfig::default()
    };

    // Stage 1.
    let (skills, skill_rec) = SkillLibrary::train(
        env_cfg,
        SkillTrainingConfig {
            vision: false,
            episodes: 5,
            updates_per_episode: 1,
            sac: tiny_sac(),
        },
        1,
    );
    let in_lane = skill_rec.series("skill/driving-in-lane").unwrap();
    assert_eq!(in_lane.len(), 5);
    assert!(in_lane.iter().all(|v| v.is_finite()));

    // Stage 2.
    let mut env = scenario::congestion(env_cfg, 2);
    let mut team = HeroTeam::new(3, env_cfg.high_dim(), Arc::new(skills), tiny_hero(), 2);
    let rec = train_team(
        &mut team,
        &mut env,
        &TrainOptions {
            episodes: 6,
            update_every: 2,
            seed: 2,
        },
    );
    assert_eq!(rec.series("reward").unwrap().len(), 6);
    assert!(rec.series("reward").unwrap().iter().all(|v| v.is_finite()));
    assert!(
        team.agents().iter().any(|a| a.buffer_len() > 0),
        "option segments must have been stored"
    );

    // Greedy evaluation in simulation.
    let stats = evaluate_team(&mut team, &mut env, 3, 3);
    assert!((0.0..=1.0).contains(&stats.collision_rate));
    assert!((0.0..=1.0).contains(&stats.success_rate));
    assert!(stats.mean_speed.is_finite());

    // Deployment behind the domain gap.
    let mut testbed = SimToRealEnv::new(
        env_cfg,
        scenario::congestion_spawns(),
        SimToRealConfig::default(),
        4,
    );
    let real = evaluate_team(&mut team, &mut testbed, 3, 4);
    assert!((0.0..=1.0).contains(&real.collision_rate));
    assert!(real.mean_speed.is_finite());
}

#[test]
fn opponent_models_receive_data_during_cooperation() {
    let env_cfg = EnvConfig {
        max_steps: 8,
        ..EnvConfig::default()
    };
    let skills = Arc::new(SkillLibrary::untrained(env_cfg, tiny_sac(), 0));
    let mut env = scenario::two_vehicle_merge(env_cfg, 5);
    let mut team = HeroTeam::new(2, env_cfg.high_dim(), skills, tiny_hero(), 5);
    let _ = train_team(
        &mut team,
        &mut env,
        &TrainOptions {
            episodes: 4,
            update_every: 1,
            seed: 5,
        },
    );
    for agent in team.agents() {
        assert!(
            agent.opponent_model().buffer_len() > 0,
            "every step must feed the opponent model"
        );
        assert_eq!(agent.opponent_model().num_opponents(), 1);
    }
}

#[test]
fn disabled_opponent_model_predicts_uniform() {
    let env_cfg = EnvConfig::default();
    let skills = Arc::new(SkillLibrary::untrained(env_cfg, tiny_sac(), 0));
    let cfg = HeroConfig {
        use_opponent_model: false,
        ..tiny_hero()
    };
    let team = HeroTeam::new(2, env_cfg.high_dim(), skills, cfg, 6);
    let obs = Tensor::from_vec(vec![1, env_cfg.high_dim()], vec![0.3; env_cfg.high_dim()]);
    let probs = team.agents()[0]
        .opponent_model()
        .predict_probs(&obs, &mut hero::autograd::TensorPool::new());
    for p in probs {
        for &v in p.data() {
            assert!((v - 0.25).abs() < 1e-6, "uniform over 4 options, got {v}");
        }
    }
}
