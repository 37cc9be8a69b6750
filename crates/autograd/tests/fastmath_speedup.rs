//! Throughput floor for the fast-math GEMM tier (`--features fast-math`):
//! at a square 256³ product, one thread of the packed FMA kernel must run
//! at least 1.5× the strict register-tiled kernel. 1.5× is a noise-proof
//! floor; the tier measures about 2.4× on AVX-512 hardware.
//!
//! The timing only means something in an optimised build, so the test is
//! ignored in debug builds. It lives in its own test binary so that no
//! other test competes with it for cores while it measures.
#![cfg(feature = "fast-math")]

use std::time::{Duration, Instant};

use hero_autograd::fastmath::fast_matmul_threaded;
use hero_autograd::{matmul, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Square GEMM size: big enough that packing pays for itself.
const DIM: usize = 256;
/// Lowest accepted fast / strict throughput ratio.
const FLOOR: f64 = 1.5;

fn filled(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        vec![DIM, DIM],
        (0..DIM * DIM).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// Fastest of `reps` timed calls, after one untimed warm-up call.
fn best_of(reps: usize, mut f: impl FnMut() -> Tensor) -> Duration {
    std::hint::black_box(f());
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .min()
        .expect("reps > 0")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing floor holds only for optimised builds"
)]
fn fast_tier_beats_strict_at_256_cubed() {
    let (a, b) = (filled(13), filled(14));
    // Alternate the two sides so a burst of machine noise hits both.
    let (mut strict, mut fast) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        strict = strict.min(best_of(20, || matmul(&a, &b)));
        fast = fast.min(best_of(20, || fast_matmul_threaded(&a, &b, 1)));
    }
    let speedup = strict.as_secs_f64() / fast.as_secs_f64();
    let gflops = |d: Duration| 2.0 * (DIM * DIM * DIM) as f64 / d.as_secs_f64() / 1e9;
    println!(
        "{DIM}^3 on {}: strict {:.1} GFLOP/s, fast {:.1} GFLOP/s, {speedup:.2}x",
        hero_autograd::isa_name(),
        gflops(strict),
        gflops(fast)
    );
    assert!(
        speedup >= FLOOR,
        "fast tier only {speedup:.2}x over strict (floor {FLOOR}x)"
    );
}
