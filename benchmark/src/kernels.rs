//! The autograd layer, timed from outside through its public functions:
//! GEMM throughput at a workload's own shapes, and one Table I training
//! step (forward, backward, Adam) split into GEMM time and the rest.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{loss, matmul_into, matmul_nt_into, matmul_tn_into, Graph, Tensor};
use hero_benchmark::json::Json;
use hero_benchmark::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Operand layout of one GEMM call, as the graph issues them: `Nn` for a
/// forward `X·W`, `Nt` for an input gradient `dY·Wᵀ`, `Tn` for a weight
/// gradient `Xᵀ·dY`.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    Nn,
    Nt,
    Tn,
}

/// One GEMM producing an `m × n` result over an inner dimension `k`.
#[derive(Clone, Copy, Debug)]
pub struct Gemm {
    pub layout: Layout,
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

impl Gemm {
    fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }

    /// Bytes the call must read and write at least once: both operands
    /// and the result, as `f32`. Computed from the shapes, not measured.
    fn bytes(&self) -> f64 {
        4.0 * (self.m * self.k + self.k * self.n + self.m * self.n) as f64
    }
}

/// The GEMMs of one forward pass through an MLP with layer widths `dims`
/// at batch `batch`.
pub fn forward_gemms(batch: usize, dims: &[usize]) -> Vec<Gemm> {
    dims.windows(2)
        .map(|w| Gemm {
            layout: Layout::Nn,
            m: batch,
            k: w[0],
            n: w[1],
        })
        .collect()
}

/// The GEMMs of one training step (forward and backward) through an MLP
/// with layer widths `dims` at batch `batch`. The first layer's input
/// gradient is skipped, as the graph skips it.
pub fn training_gemms(batch: usize, dims: &[usize]) -> Vec<Gemm> {
    let mut out = forward_gemms(batch, dims);
    for (i, w) in dims.windows(2).enumerate() {
        let (fan_in, fan_out) = (w[0], w[1]);
        if i > 0 {
            out.push(Gemm {
                layout: Layout::Nt,
                m: batch,
                k: fan_out,
                n: fan_in,
            });
        }
        out.push(Gemm {
            layout: Layout::Tn,
            m: fan_in,
            k: batch,
            n: fan_out,
        });
    }
    out
}

/// Median seconds per call of `f`, over batches of calls that each last
/// at least `min_batch`.
pub fn time_per_call(mut f: impl FnMut(), min_batch: Duration, batches: usize) -> f64 {
    f();
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed() >= min_batch {
            break;
        }
        calls *= 2;
    }
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Median seconds of one call of `g`.
fn time_gemm(g: &Gemm) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let (a_shape, b_shape) = match g.layout {
        Layout::Nn => (vec![g.m, g.k], vec![g.k, g.n]),
        Layout::Nt => (vec![g.m, g.k], vec![g.n, g.k]),
        Layout::Tn => (vec![g.k, g.m], vec![g.k, g.n]),
    };
    let a = Tensor::randn(a_shape, 1.0, &mut rng);
    let b = Tensor::randn(b_shape, 1.0, &mut rng);
    let mut out = Vec::new();
    time_per_call(
        || {
            match g.layout {
                Layout::Nn => matmul_into(black_box(&a), black_box(&b), &mut out),
                Layout::Nt => matmul_nt_into(black_box(&a), black_box(&b), &mut out),
                Layout::Tn => matmul_tn_into(black_box(&a), black_box(&b), &mut out),
            }
            black_box(&out);
        },
        Duration::from_millis(4),
        5,
    )
}

/// GEMM throughput over `gemms`: total flops over total median time, with
/// the mean flops and bytes per call.
pub struct GemmRate {
    pub gflops: f64,
    pub seconds: f64,
    pub flops_per_call: f64,
    pub bytes_per_call: f64,
}

pub fn gemm_rate(gemms: &[Gemm]) -> GemmRate {
    let seconds: f64 = gemms.iter().map(time_gemm).sum();
    let flops: f64 = gemms.iter().map(Gemm::flops).sum();
    let bytes: f64 = gemms.iter().map(Gemm::bytes).sum();
    GemmRate {
        gflops: flops / seconds / 1e9,
        seconds,
        flops_per_call: flops / gemms.len() as f64,
        bytes_per_call: bytes / gemms.len() as f64,
    }
}

/// Batch and layer widths of the Table I step: the two-agent merge
/// critic (18 observations, 4 option one-hot, 4 opponent probabilities →
/// 32 → 32 → 1) at batch 1024.
pub const TABLE1_BATCH: usize = 1024;
pub const TABLE1_CRITIC: [usize; 4] = [26, 32, 32, 1];

/// One Table I training step: `(step_us, adam_step_us, overhead_share)`,
/// where the overhead share is the part of the step not spent in its
/// GEMMs (timed alone at the same shapes).
pub fn table1_step() -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(9);
    let net = Mlp::new("bench", &TABLE1_CRITIC, Activation::Relu, &mut rng);
    let mut opt = Adam::new(net.parameters(), 0.01);
    let x = Tensor::randn(vec![TABLE1_BATCH, TABLE1_CRITIC[0]], 1.0, &mut rng);
    let y = Tensor::randn(vec![TABLE1_BATCH, 1], 1.0, &mut rng);
    let mut g = Graph::new();
    let step = time_per_call(
        || {
            g.reset();
            let xn = g.input(x.clone());
            let yn = g.input(y.clone());
            let pred = net.forward(&mut g, xn);
            let l = loss::mse(&mut g, pred, yn);
            g.backward(l);
            opt.step();
            black_box(g.value(l).item());
        },
        Duration::from_millis(20),
        7,
    );
    let adam = time_per_call(|| opt.step(), Duration::from_millis(5), 7);
    let gemm = gemm_rate(&training_gemms(TABLE1_BATCH, &TABLE1_CRITIC)).seconds;
    (step * 1e6, adam * 1e6, 1.0 - gemm / step)
}

/// The autograd layer's per-layer values for a workload whose hot GEMMs
/// are `gemms`, plus the per-call detail.
pub fn measure(gemms: &[Gemm]) -> (Vec<(&'static str, f64)>, Json) {
    let rate = gemm_rate(gemms);
    let (step_us, adam_us, overhead) = table1_step();
    let values = vec![
        ("autograd.gemm_gflops", rate.gflops),
        ("autograd.step_us", step_us),
        ("autograd.adam_step_us", adam_us),
        ("autograd.overhead_share", overhead),
    ];
    let shapes: Vec<String> = gemms
        .iter()
        .map(|g| format!("{:?} {}x{}x{}", g.layout, g.m, g.k, g.n))
        .collect();
    let detail = Json::obj([
        ("gemm_shapes", shapes.join(", ").into()),
        ("gemm_flops_per_call", rate.flops_per_call.into()),
        ("gemm_bytes_per_call", rate.bytes_per_call.into()),
    ]);
    (values, detail)
}
