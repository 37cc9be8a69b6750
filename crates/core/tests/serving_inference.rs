//! Serving-path equivalence: the pooled, graph-free batch inference used
//! by `hero-serve` must match the tape-recording path bit-for-bit
//! (DESIGN.md "Serving"), both against
//! [`HeroAgent::batch_logits`] and across batch sizes.

use hero_autograd::TensorPool;
use hero_core::{HeroAgent, HeroConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn agent(seed: u64) -> HeroAgent {
    let mut rng = StdRng::seed_from_u64(seed);
    HeroAgent::new(10, 2, HeroConfig::default(), &mut rng)
}

fn obs_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

#[test]
fn pooled_batch_logits_match_graph_path_bitwise() {
    let agent = agent(3);
    let rows = obs_rows(11, 10, 4);
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let via_graph = agent.batch_logits(&refs);
    let mut pool = TensorPool::new();
    let pooled = agent.batch_logits_in(&refs, &mut pool);
    assert_eq!(via_graph.len(), pooled.len());
    for (r, (a, b)) in via_graph.iter().zip(&pooled).enumerate() {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "row {r} diverged from the graph path");
        }
    }
}

#[test]
fn pooled_batch_rows_match_single_row_calls_bitwise() {
    let agent = agent(5);
    let rows = obs_rows(9, 10, 6);
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let mut pool = TensorPool::new();
    let batched = agent.batch_logits_in(&refs, &mut pool);
    for (r, row) in rows.iter().enumerate() {
        let single = agent.batch_logits_in(&[row.as_slice()], &mut pool);
        for (x, y) in batched[r].iter().zip(&single[0]) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "batched row {r} diverged from its single-row forward"
            );
        }
    }
}
