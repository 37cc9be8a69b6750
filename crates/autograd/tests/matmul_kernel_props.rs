//! Property tests for the tiled matmul kernels: across randomized — and
//! deliberately ragged — shapes, the register-tiled `matmul`, the fused
//! `matmul_nt` (A·Bᵀ) and `matmul_tn` (Aᵀ·B) must all agree with an
//! f64-accumulated reference within 1e-5.
//!
//! Shapes are drawn past the kernel's tile sizes (MR = 4 rows, NR = 32
//! columns) so full tiles, row tails, column tails, and tiny degenerate
//! shapes are all exercised.

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

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    // Past MR=4 and NR=32 in every dimension, plus the degenerate 1s.
    (1usize..42, 1usize..20, 1usize..71)
}

fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, len)
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
