//! Contracts of the inference-only forward path (`Mlp::infer_in`).
//!
//! 1. **Graph equivalence**: the pooled, tape-free forward is bitwise
//!    identical to [`Mlp::infer`] (which records a throwaway graph) for
//!    every activation.
//! 2. **Batch equivalence**: a `[N, in]` batched forward equals the `N`
//!    single-row forwards bit-for-bit — each output element's
//!    ascending-`p` accumulation chain is independent of the batch size.
//! 3. **Arena behaviour**: after a warm-up call the pool stops missing —
//!    steady-state inference allocates nothing.

use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::serialize::{decode_param_table, encode_params};
use hero_autograd::{Tensor, TensorPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn filled(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

#[test]
fn infer_in_matches_graph_infer_bitwise() {
    for (seed, act) in [
        (11, Activation::Relu),
        (12, Activation::Tanh),
        (13, Activation::Sigmoid),
        (14, Activation::Identity),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new("t", &[7, 32, 32, 5], act, &mut rng);
        let x = filled(vec![9, 7], seed + 100);
        let via_graph = net.infer(&x);
        let mut pool = TensorPool::new();
        let direct = net.infer_in(&x, &mut pool);
        assert_eq!(via_graph.shape(), direct.shape());
        for (a, b) in via_graph.data().iter().zip(direct.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "activation {act:?} diverged");
        }
    }
}

#[test]
fn batched_infer_matches_single_rows_bitwise() {
    let mut rng = StdRng::seed_from_u64(21);
    let net = Mlp::new("t", &[13, 32, 32, 4], Activation::Relu, &mut rng);
    let batch = filled(vec![17, 13], 22);
    let mut pool = TensorPool::new();
    let batched = net.infer_in(&batch, &mut pool);
    for r in 0..17 {
        let single = Tensor::from_vec(vec![1, 13], batch.row(r).to_vec());
        let out = net.infer_in(&single, &mut pool);
        for (a, b) in batched.row(r).iter().zip(out.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "row {r} of the batched forward diverged from the single-row forward"
            );
        }
        pool.put(out.into_data());
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
