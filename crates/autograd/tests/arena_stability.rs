//! Arena lifecycle: a persistent [`Graph`] recycled with `reset()` across
//! minibatches must reach a steady state — no per-minibatch heap growth,
//! no new pool misses once every shape of the step has been seen.

use hero_autograd::nn::Linear;
use hero_autograd::{loss, Graph, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One training step shaped like the HERO policy update: fresh input clone,
/// two-layer MLP forward, MSE loss, backward.
fn step(g: &mut Graph, l1: &Linear, l2: &Linear, x: &Tensor, t: &Tensor) -> f32 {
    g.reset();
    let xin = g.input(x.clone());
    let h = l1.forward(g, xin);
    let h = g.relu(h);
    let y = l2.forward(g, h);
    let tgt = g.input(t.clone());
    let l = loss::mse(g, y, tgt);
    g.backward(l);
    g.value(l).item()
}

#[test]
fn pool_capacity_plateaus_across_minibatches() {
    let mut rng = StdRng::seed_from_u64(11);
    let l1 = Linear::new("l1", 24, 16, &mut rng);
    let l2 = Linear::new("l2", 16, 4, &mut rng);
    let x = Tensor::from_vec(vec![32, 24], (0..32 * 24).map(|i| (i as f32).sin()).collect());
    let t = Tensor::from_vec(vec![32, 4], (0..32 * 4).map(|i| (i as f32).cos()).collect());

    let mut g = Graph::new();
    // Warm-up: let the pool learn every capacity class the step touches and
    // let the externally-allocated input-clone buckets fill to their cap.
    for _ in 0..24 {
        step(&mut g, &l1, &l2, &x, &t);
    }
    let held_after_warmup = g.pool().held();
    let (_, misses_after_warmup) = g.pool().stats();

    // Steady state: held buffers and misses must not creep upward.
    let mut held_seen = Vec::new();
    for _ in 0..64 {
        step(&mut g, &l1, &l2, &x, &t);
        held_seen.push(g.pool().held());
    }
    let (_, misses_final) = g.pool().stats();

    assert_eq!(
        misses_final, misses_after_warmup,
        "steady-state minibatches allocated fresh buffers (pool misses grew)"
    );
    let max_held = *held_seen.iter().max().unwrap();
    assert!(
        max_held <= held_after_warmup,
        "pool grew after warm-up: held {held_after_warmup} -> {max_held}"
    );
}

#[test]
fn pool_buckets_are_bounded() {
    // Feeding many same-sized external buffers into a graph's pool (the
    // input-clone pattern) must not grow it without bound: each capacity
    // class is capped at TensorPool::MAX_PER_BUCKET.
    let mut g = Graph::new();
    for round in 0..256 {
        g.reset();
        for _ in 0..4 {
            g.input(Tensor::from_vec(vec![8, 8], vec![1.0; 64]));
        }
        if round == 16 {
            // Sample once the cap is reached.
            let baseline = g.pool().held();
            assert!(baseline > 0, "pool never retained anything");
        }
    }
    g.reset();
    assert!(
        g.pool().held() <= 16,
        "pool held {} buffers for a 4-input workload — bucket cap not enforced",
        g.pool().held()
    );
}
