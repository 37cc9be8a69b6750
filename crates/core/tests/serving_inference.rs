//! Serving-path equivalence: the pooled, graph-free batch inference used
//! by `hero-serve` ([`HeroAgent::batch_logits`]) must match the
//! tape-recording training path bit-for-bit (DESIGN.md "Serving"), both
//! against a graph forward built here from the agent's parameters and
//! across batch sizes.

use hero_autograd::{Graph, Parameter, Tensor, TensorPool};
use hero_core::{HeroAgent, HeroConfig};
use hero_rl::rng::softmax;
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

/// The tape forward of a ReLU MLP from its parameters, in layer order
/// (`weight`, `bias` per layer) — the ops `Mlp::forward` records.
fn graph_forward(params: &[Parameter], x: Tensor) -> Tensor {
    let mut g = Graph::new();
    let mut h = g.input(x);
    let layers = params.len() / 2;
    for (i, layer) in params.chunks(2).enumerate() {
        let w = g.param(&layer[0]);
        let b = g.param(&layer[1]);
        let xw = g.matmul(h, w);
        h = g.add_bias(xw, b);
        if i + 1 < layers {
            h = g.relu(h);
        }
    }
    g.value(h).clone()
}

/// The agent's logits through graph forwards: each opponent net's softmax
/// predictions appended to the observation, then the actor.
fn graph_logits(agent: &HeroAgent, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let (n, d) = (rows.len(), rows[0].len());
    let obs = Tensor::from_vec(vec![n, d], rows.concat());
    let opp_params = agent.opponent_model().parameters();
    let probs: Vec<Tensor> = opp_params
        .chunks(6)
        .map(|net| graph_forward(net, obs.clone()))
        .collect();
    let mut actor_in = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        actor_in.extend_from_slice(row);
        for p in &probs {
            actor_in.extend(softmax(p.row(r)));
        }
    }
    let width = actor_in.len() / n;
    let actor = &agent.high_level().parameters()[..6];
    let out = graph_forward(actor, Tensor::from_vec(vec![n, width], actor_in));
    (0..n).map(|r| out.row(r).to_vec()).collect()
}

#[test]
fn pooled_batch_logits_match_graph_path_bitwise() {
    let agent = agent(3);
    let rows = obs_rows(11, 10, 4);
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let via_graph = graph_logits(&agent, &rows);
    let mut pool = TensorPool::new();
    let pooled = agent.batch_logits(&refs, &mut pool);
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
    let batched = agent.batch_logits(&refs, &mut pool);
    for (r, row) in rows.iter().enumerate() {
        let single = agent.batch_logits(&[row.as_slice()], &mut pool);
        for (x, y) in batched[r].iter().zip(&single[0]) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "batched row {r} diverged from its single-row forward"
            );
        }
    }
}
