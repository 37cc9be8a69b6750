//! Contracts of the inference-only forward path (`Mlp::infer_in`).
//!
//! 1. **Graph equivalence**: the pooled, tape-free forward is bitwise
//!    identical to the value [`Mlp::forward`] records on a [`Graph`] (the
//!    training path) for every activation.
//! 2. **Batch equivalence**: a `[N, in]` batched forward equals the `N`
//!    single-row forwards bit-for-bit — each output element's
//!    ascending-`p` accumulation chain is independent of the batch size.
//! 3. **Arena behaviour**: after a warm-up call the pool stops missing —
//!    steady-state inference allocates nothing.

use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::serialize::{decode_param_table, encode_params};
use hero_autograd::{Graph, Tensor, TensorPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn filled(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

#[test]
fn infer_in_matches_graph_forward_bitwise() {
    for (seed, act) in [
        (11, Activation::Relu),
        (12, Activation::Tanh),
        (13, Activation::Sigmoid),
        (14, Activation::Identity),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new("t", &[7, 32, 32, 5], act, &mut rng);
        let x = filled(vec![9, 7], seed + 100);
        let mut g = Graph::new();
        let xn = g.input(x.clone());
        let y = net.forward(&mut g, xn);
        let via_graph = g.value(y);
        let mut pool = TensorPool::new();
        let direct = net.infer_in(&x, &mut pool);
        assert_eq!(via_graph.shape(), direct.shape());
        for (a, b) in via_graph.data().iter().zip(direct.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "activation {act:?} diverged");
        }
    }
}

/// Checks that every row of a `batch`-row forward through a
/// `[13, 32, 32, out]` net equals the one-row forward of that row.
fn assert_batch_equivalent(out: usize, batch: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Mlp::new("t", &[13, 32, 32, out], Activation::Relu, &mut rng);
    let rows = filled(vec![batch, 13], seed + 1);
    let mut pool = TensorPool::new();
    let batched = net.infer_in(&rows, &mut pool);
    for r in 0..batch {
        let single = Tensor::from_vec(vec![1, 13], rows.row(r).to_vec());
        let out = net.infer_in(&single, &mut pool);
        for (a, b) in batched.row(r).iter().zip(out.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "row {r} of the {batch}-row forward diverged from the single-row forward"
            );
        }
        pool.put(out.into_data());
    }
}

#[test]
fn batched_infer_matches_single_rows_bitwise() {
    assert_batch_equivalent(4, 17, 21);
}

/// Narrow outputs (the critic's 1 column, the actor's 4 logits) run
/// `NR = 32` rows at a time once a batch reaches 32 rows, and one row at
/// a time below that; either way each row must keep its bits.
#[test]
fn narrow_outputs_keep_their_bits_across_the_row_panel_switch() {
    for out in [1, 4] {
        for batch in [31, 32, 33, 1024] {
            assert_batch_equivalent(out, batch, 23 + batch as u64);
        }
    }
}

#[test]
fn infer_in_reuses_the_pool_after_warmup() {
    let mut rng = StdRng::seed_from_u64(41);
    let net = Mlp::new("t", &[8, 32, 32, 3], Activation::Relu, &mut rng);
    let x = filled(vec![5, 8], 42);
    let mut pool = TensorPool::new();
    let out = net.infer_in(&x, &mut pool);
    pool.put(out.into_data());
    let (_, misses_after_warmup) = pool.stats();
    for _ in 0..10 {
        let out = net.infer_in(&x, &mut pool);
        pool.put(out.into_data());
    }
    let (_, misses) = pool.stats();
    assert_eq!(
        misses, misses_after_warmup,
        "steady-state inference must not allocate"
    );
}

#[test]
fn decode_param_table_roundtrips_without_a_template() {
    let mut rng = StdRng::seed_from_u64(51);
    let net = Mlp::new("actor", &[6, 16, 4], Activation::Relu, &mut rng);
    let params = net.parameters();
    let bytes = encode_params(&params);
    let table = decode_param_table(&bytes).expect("valid table must decode");
    assert_eq!(table.len(), params.len());
    for (entry, p) in table.iter().zip(&params) {
        assert_eq!(entry.name, p.name());
        assert_eq!(entry.shape, p.shape());
        assert_eq!(entry.data, p.value().data());
    }
    assert_eq!(table[0].name, "actor.l0.weight");
    assert_eq!(table[0].shape, vec![6, 16]);
}

#[test]
fn decode_param_table_rejects_truncation_and_trailing_bytes() {
    let mut rng = StdRng::seed_from_u64(61);
    let net = Mlp::new("n", &[3, 4], Activation::Relu, &mut rng);
    let bytes = encode_params(&net.parameters());
    assert!(decode_param_table(&bytes[..bytes.len() - 2]).is_err());
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(decode_param_table(&padded).is_err());
}
