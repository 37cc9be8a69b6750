//! Differential equivalence suite: the shipped simulator must be
//! **bit-identical** to the scalar reference world in `oracle/` — poses,
//! lidar scans, camera images, rewards, collision and done flags, episode
//! flags, and RNG streams, at every step of every episode.
//!
//! Two shipped surfaces are compared: a [`BatchWorld`] of N worlds against
//! N reference worlds seeded with `replica_seed(base, w)`, for every
//! tested batch size; and the one-world [`LaneChangeEnv`] handle against
//! one reference world, through its resets, steps, `observe(i)` and an
//! RNG save/restore round trip.
//!
//! This is the repo's contract for the simulator's kernels (see DESIGN.md
//! "BatchWorld"): any change to the world must keep this suite passing,
//! with the oracle changed to match, and any new observable state must be
//! added to `assert_world_eq` here.

mod oracle;

use hero_sim::batch::BatchWorld;
use hero_sim::env::{
    replica_seed, CooperativeWorld, EnvConfig, LaneChangeEnv, Observation, StepOutcome,
    VehicleSpawn,
};
use hero_sim::scenario;
use hero_sim::vehicle::{VehicleCommand, VehicleState};
use oracle::ScalarEnv;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ragged batch sizes the acceptance criteria pin: a singleton batch,
/// small and prime sizes, and a larger-than-typical fleet.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

fn assert_obs_eq(a: &Observation, b: &Observation, ctx: &str) {
    assert_eq!(a.lidar.len(), b.lidar.len(), "{ctx}: lidar beam count");
    for (k, (x, y)) in a.lidar.iter().zip(&b.lidar).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: lidar[{k}] {x} vs {y}");
    }
    assert_eq!(a.image.len(), b.image.len(), "{ctx}: image length");
    for (k, (x, y)) in a.image.iter().zip(&b.image).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: image[{k}]");
    }
    assert_eq!(
        a.speed_norm.to_bits(),
        b.speed_norm.to_bits(),
        "{ctx}: speed_norm"
    );
    assert_eq!(
        a.lane_norm.to_bits(),
        b.lane_norm.to_bits(),
        "{ctx}: lane_norm"
    );
    assert_eq!(a.lane_id, b.lane_id, "{ctx}: lane_id");
    assert_eq!(a.speed.to_bits(), b.speed.to_bits(), "{ctx}: speed");
}

fn assert_all_obs_eq(a: &[Observation], b: &[Observation], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: observation count");
    for (i, (a, b)) in a.iter().zip(b).enumerate() {
        assert_obs_eq(a, b, &format!("{ctx} obs v{i}"));
    }
}

fn assert_outcome_eq(a: &StepOutcome, b: &StepOutcome, ctx: &str) {
    assert_all_obs_eq(&a.observations, &b.observations, ctx);
    assert_eq!(a.rewards.len(), b.rewards.len(), "{ctx}: reward count");
    for (i, (x, y)) in a.rewards.iter().zip(&b.rewards).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: reward v{i} {x} vs {y}");
    }
    assert_eq!(a.collisions, b.collisions, "{ctx}: collisions");
    assert_eq!(a.done, b.done, "{ctx}: done");
    assert_eq!(
        a.mean_speed.to_bits(),
        b.mean_speed.to_bits(),
        "{ctx}: mean_speed"
    );
}

fn assert_state_eq(a: &VehicleState, b: &VehicleState, ctx: &str) {
    assert_eq!(a.s.to_bits(), b.s.to_bits(), "{ctx} s");
    assert_eq!(a.d.to_bits(), b.d.to_bits(), "{ctx} d");
    assert_eq!(a.heading.to_bits(), b.heading.to_bits(), "{ctx} heading");
    assert_eq!(a.speed.to_bits(), b.speed.to_bits(), "{ctx} speed");
}

/// Asserts every piece of observable per-world state matches between the
/// reference world `env` and world `w` of `batch`.
fn assert_world_eq(env: &ScalarEnv, batch: &BatchWorld, w: usize, ctx: &str) {
    assert_eq!(env.is_done(), batch.is_done(w), "{ctx}: done flag");
    assert_eq!(env.step_count(), batch.step_count(w), "{ctx}: step count");
    for i in 0..env.num_vehicles() {
        assert_state_eq(
            env.vehicle_state(i),
            &batch.vehicle_state(w, i),
            &format!("{ctx}: v{i}"),
        );
        assert_eq!(
            env.needs_merge(i),
            batch.needs_merge(w, i),
            "{ctx}: v{i} needs_merge"
        );
        assert_eq!(
            env.has_merged(i),
            batch.has_merged(w, i),
            "{ctx}: v{i} has_merged"
        );
        assert_eq!(
            env.has_collided(i),
            batch.has_collided(w, i),
            "{ctx}: v{i} collided"
        );
    }
    assert_eq!(env.rng_state(), batch.rng_state(w), "{ctx}: rng stream");
}

/// [`assert_world_eq`] for the one-world handle.
fn assert_handle_eq(env: &ScalarEnv, handle: &LaneChangeEnv, ctx: &str) {
    assert_eq!(
        env.num_vehicles(),
        handle.num_vehicles(),
        "{ctx}: vehicle count"
    );
    assert_eq!(env.is_done(), handle.is_done(), "{ctx}: done flag");
    assert_eq!(env.step_count(), handle.step_count(), "{ctx}: step count");
    for i in 0..env.num_vehicles() {
        assert_state_eq(
            env.vehicle_state(i),
            &handle.vehicle_state(i),
            &format!("{ctx}: v{i}"),
        );
        assert_eq!(
            env.needs_merge(i),
            handle.needs_merge(i),
            "{ctx}: v{i} needs_merge"
        );
        assert_eq!(
            env.has_merged(i),
            handle.has_merged(i),
            "{ctx}: v{i} has_merged"
        );
        assert_eq!(
            env.has_collided(i),
            handle.has_collided(i),
            "{ctx}: v{i} collided"
        );
    }
    assert_eq!(env.rng_state(), handle.rng_state(), "{ctx}: rng stream");
}

/// One seeded random command per vehicle, spanning more than the speed
/// and steering limits so clamping is exercised.
fn random_commands(rng: &mut StdRng, n: usize) -> Vec<VehicleCommand> {
    (0..n)
        .map(|_| VehicleCommand::new(rng.gen_range(0.0..0.3), rng.gen_range(-0.4..0.4)))
        .collect()
}

/// Drives `episodes` full episodes of a `BatchWorld` and its reference
/// replicas in lockstep under a seeded random policy, asserting bitwise
/// equality of every output at every step.
fn run_differential(
    spawns: Vec<VehicleSpawn>,
    seed: u64,
    n_worlds: usize,
    episodes: usize,
    policy_seed: u64,
) {
    let cfg = EnvConfig::default();
    let n = spawns.len();
    let mut batch = BatchWorld::new(cfg, spawns.clone(), seed, n_worlds);
    let mut scalars: Vec<ScalarEnv> = (0..n_worlds)
        .map(|w| ScalarEnv::new(cfg, spawns.clone(), replica_seed(seed, w)))
        .collect();
    for (w, env) in scalars.iter().enumerate() {
        assert_world_eq(env, &batch, w, &format!("w{w} as built"));
    }
    // One command-policy RNG per world so scalar and batch sides see the
    // exact same command sequences regardless of stepping order.
    let mut policy_rngs: Vec<StdRng> = (0..n_worlds)
        .map(|w| StdRng::seed_from_u64(policy_seed ^ replica_seed(policy_seed, w)))
        .collect();

    for ep in 0..episodes {
        for (w, env) in scalars.iter_mut().enumerate() {
            let so = env.reset();
            let bo = batch.reset_world(w);
            assert_all_obs_eq(&so, &bo, &format!("ep{ep} w{w} reset"));
            assert_world_eq(env, &batch, w, &format!("ep{ep} w{w} after reset"));
        }
        // Step every still-live world each round, batched in one
        // `step_worlds` call, against per-world scalar steps.
        loop {
            let live: Vec<usize> = (0..n_worlds).filter(|&w| !batch.is_done(w)).collect();
            if live.is_empty() {
                break;
            }
            let commands: Vec<Vec<VehicleCommand>> = live
                .iter()
                .map(|&w| random_commands(&mut policy_rngs[w], n))
                .collect();
            let batch_outs = batch.step_worlds(&live, &commands);
            for ((&w, cmds), b_out) in live.iter().zip(&commands).zip(&batch_outs) {
                let s_out = scalars[w].step(cmds);
                let ctx = format!("ep{ep} w{w} step{}", scalars[w].step_count());
                assert_outcome_eq(&s_out, b_out, &ctx);
                assert_world_eq(&scalars[w], &batch, w, &ctx);
            }
        }
    }
}

/// Drives the [`LaneChangeEnv`] handle and one reference world in
/// lockstep: every reset (after an RNG save/restore round trip), every
/// step, and `observe(i)` for every vehicle after each of them.
fn run_handle_differential(
    spawns: Vec<VehicleSpawn>,
    seed: u64,
    episodes: usize,
    policy_seed: u64,
) {
    let cfg = EnvConfig::default();
    let n = spawns.len();
    let mut handle = LaneChangeEnv::new(cfg, spawns.clone(), seed);
    let mut oracle = ScalarEnv::new(cfg, spawns, seed);
    let mut policy = StdRng::seed_from_u64(policy_seed);
    assert_handle_eq(&oracle, &handle, "as built");

    let observe_all = |handle: &mut LaneChangeEnv, oracle: &ScalarEnv, ctx: &str| {
        for i in 0..n {
            assert_obs_eq(
                &oracle.observe(i),
                &handle.observe(i),
                &format!("{ctx} observe({i})"),
            );
        }
    };
    observe_all(&mut handle, &oracle, "as built");

    for ep in 0..episodes {
        // Restoring a saved stream replays the same episode start.
        let saved = handle.rng_state();
        let first = handle.reset();
        handle.set_rng_state(&saved);
        let ho = handle.reset();
        assert_all_obs_eq(&first, &ho, &format!("ep{ep} replayed reset"));
        let so = oracle.reset();
        assert_all_obs_eq(&so, &ho, &format!("ep{ep} reset"));
        assert_handle_eq(&oracle, &handle, &format!("ep{ep} after reset"));
        observe_all(&mut handle, &oracle, &format!("ep{ep} after reset"));
        while !oracle.is_done() {
            let cmds = random_commands(&mut policy, n);
            let s_out = oracle.step(&cmds);
            let h_out = handle.step(&cmds);
            let ctx = format!("ep{ep} step{}", oracle.step_count());
            assert_outcome_eq(&s_out, &h_out, &ctx);
            assert_handle_eq(&oracle, &handle, &ctx);
            observe_all(&mut handle, &oracle, &ctx);
        }
    }
}

#[test]
fn congestion_matches_the_oracle_at_every_batch_size() {
    for &size in &BATCH_SIZES {
        run_differential(scenario::congestion_spawns(), 42, size, 2, 7);
    }
}

#[test]
fn two_vehicle_merge_matches_the_oracle_at_every_batch_size() {
    for &size in &BATCH_SIZES {
        run_differential(scenario::two_vehicle_merge_spawns(), 1234, size, 2, 99);
    }
}

#[test]
fn the_handle_matches_the_oracle() {
    run_handle_differential(scenario::congestion_spawns(), 42, 3, 7);
    run_handle_differential(scenario::two_vehicle_merge_spawns(), 1234, 3, 99);
}

#[test]
fn replica_streams_stay_independent_across_resets() {
    // Regression for the batching RNG-coupling bug: resetting one world
    // must not perturb a sibling's spawn jitter stream. Drive world 0
    // through extra resets and check world 1 still matches its reference
    // twin exactly.
    let spawns = scenario::congestion_spawns();
    let mut batch = BatchWorld::new(EnvConfig::default(), spawns.clone(), 8, 3);
    let mut scalar_1 = ScalarEnv::new(EnvConfig::default(), spawns, replica_seed(8, 1));
    for _ in 0..4 {
        batch.reset_world(0); // sibling churn
        let bo = batch.reset_world(1);
        let so = scalar_1.reset();
        assert_all_obs_eq(&so, &bo, "sibling-churn reset");
        assert_eq!(scalar_1.rng_state(), batch.rng_state(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized seeds/policies: every tested batch size stays
    /// bit-identical to its reference replicas over a full episode.
    fn batch_equals_the_oracle_for_random_seeds(
        env_seed in 0u64..1_000_000,
        policy_seed in 0u64..1_000_000,
        size_idx in 0usize..BATCH_SIZES.len(),
    ) {
        run_differential(scenario::congestion_spawns(), env_seed, BATCH_SIZES[size_idx], 1, policy_seed);
    }

    /// Jittered spawns (the RNG-heavy path): replica streams are
    /// independent and each matches its reference twin bit-for-bit.
    fn jittered_spawns_stay_bit_identical(env_seed in 0u64..1_000_000) {
        run_differential(scenario::two_vehicle_merge_spawns(), env_seed, 7, 2, env_seed ^ 0xABCD);
    }

    /// The handle, on random seeds and policies.
    fn the_handle_equals_the_oracle_for_random_seeds(
        env_seed in 0u64..1_000_000,
        policy_seed in 0u64..1_000_000,
    ) {
        run_handle_differential(scenario::congestion_spawns(), env_seed, 2, policy_seed);
    }
}
