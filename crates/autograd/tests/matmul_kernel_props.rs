//! Property tests for the tiled matmul kernels: across randomized — and
//! deliberately ragged — shapes, the register-tiled `matmul`, the fused
//! `matmul_nt` (A·Bᵀ) and `matmul_tn` (Aᵀ·B) must all agree with an
//! f64-accumulated reference within 1e-5, and bit for bit with the
//! ascending-`p` f32 chain `((0 + a₀b₀) + a₁b₁) + …` that every kernel
//! path computes.
//!
//! Shapes are drawn past the kernel's tile sizes (MR = 4 rows, NR = 32
//! columns) so full tiles, row tails, column tails, and tiny degenerate
//! shapes are all exercised. The bitwise check draws its rows across the
//! narrow path's switch: columns past the last full tile run `NR` rows at
//! a time once `m >= NR`, and row `r` of a product must not depend on
//! which side of that switch computed it.

use hero_autograd::{matmul, matmul_nt, matmul_tn, Tensor};
use proptest::prelude::*;

const TOL: f32 = 1e-5;

/// Reference GEMM with f64 accumulation — deliberately a different
/// accumulation order and precision than any production kernel.
fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
            out[i * n + j] = acc as f32;
        }
    }
    out
}

/// The ascending-`p` f32 chain, as the naive `ikj` loop accumulates it.
fn chain(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let a_ip = a[i * k + p];
            for j in 0..n {
                out[i * n + j] += a_ip * b[p * n + j];
            }
        }
    }
    out
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            t[j * rows + i] = x[i * cols + j];
        }
    }
    t
}

fn assert_close(got: &Tensor, want: &[f32], what: &str, m: usize, k: usize, n: usize) {
    assert_eq!(got.data().len(), want.len(), "{what} {m}x{k}x{n}: length");
    for (idx, (&g, &w)) in got.data().iter().zip(want).enumerate() {
        let denom = 1.0f32.max(g.abs()).max(w.abs());
        assert!(
            (g - w).abs() / denom < TOL,
            "{what} {m}x{k}x{n} at {idx}: got {g}, want {w}"
        );
    }
}

fn assert_bitwise(got: &Tensor, want: &[f32], what: &str, m: usize, k: usize, n: usize) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(got.data()) == bits(want),
        "{what} {m}x{k}x{n}: not bit-identical to the ascending-p chain"
    );
}

/// Rows one short of, at and one past a full `NR`-row panel, a ragged
/// multiple, and Table I's batch; columns narrower than one tile, or wide
/// with a column tail.
fn switch_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        prop_oneof![Just(31usize), Just(32), Just(33), Just(131), Just(1024)],
        1usize..40,
        prop_oneof![1usize..32, Just(33), Just(65)],
    )
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    // Past MR=4 and NR=32 in every dimension, plus the degenerate 1s.
    (1usize..42, 1usize..20, 1usize..71)
}

fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn kernels_match_the_ascending_p_chain_bitwise(
        (m, k, n) in switch_dims(),
        raw in values(1024 * 39 + 39 * 65),
    ) {
        let av = raw[..m * k].to_vec();
        let bv = raw[raw.len() - k * n..].to_vec();
        let want = chain(&av, &bv, m, k, n);
        let at = Tensor::from_vec(vec![k, m], transpose(&av, m, k));
        let bt = Tensor::from_vec(vec![n, k], transpose(&bv, k, n));
        let a = Tensor::from_vec(vec![m, k], av);
        let b = Tensor::from_vec(vec![k, n], bv);
        assert_bitwise(&matmul(&a, &b), &want, "matmul", m, k, n);
        assert_bitwise(&matmul_nt(&a, &bt), &want, "matmul_nt", m, k, n);
        assert_bitwise(&matmul_tn(&at, &b), &want, "matmul_tn", m, k, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn tiled_matmul_matches_reference((m, k, n) in dims(), raw in values(41 * 19 + 19 * 70)) {
        let av = raw[..m * k].to_vec();
        let bv = raw[raw.len() - k * n..].to_vec();
        let want = reference(&av, &bv, m, k, n);
        let a = Tensor::from_vec(vec![m, k], av);
        let b = Tensor::from_vec(vec![k, n], bv);
        assert_close(&matmul(&a, &b), &want, "matmul", m, k, n);
    }

    fn matmul_nt_matches_reference((m, k, n) in dims(), raw in values(41 * 19 + 19 * 70)) {
        // matmul_nt(a, b) computes A[m,k] · (B[n,k])ᵀ.
        let av = raw[..m * k].to_vec();
        let bv = raw[raw.len() - n * k..].to_vec();
        let want = reference(&av, &transpose(&bv, n, k), m, k, n);
        let a = Tensor::from_vec(vec![m, k], av);
        let b = Tensor::from_vec(vec![n, k], bv);
        assert_close(&matmul_nt(&a, &b), &want, "matmul_nt", m, k, n);
    }

    fn matmul_tn_matches_reference((m, k, n) in dims(), raw in values(19 * 41 + 19 * 70)) {
        // matmul_tn(a, b) computes (A[k,m])ᵀ · B[k,n].
        let av = raw[..k * m].to_vec();
        let bv = raw[raw.len() - k * n..].to_vec();
        let want = reference(&transpose(&av, k, m), &bv, m, k, n);
        let a = Tensor::from_vec(vec![k, m], av);
        let b = Tensor::from_vec(vec![k, n], bv);
        assert_close(&matmul_tn(&a, &b), &want, "matmul_tn", m, k, n);
    }
}
