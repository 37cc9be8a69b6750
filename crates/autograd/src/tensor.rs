//! Dense, row-major, `f32` tensors.
//!
//! [`Tensor`] is the value type flowing through the autodiff [`Graph`]: a
//! shape plus a flat `Vec<f32>` in row-major (C) order. It is deliberately
//! simple — the HERO networks are tiny (hidden dimension 32 in the paper's
//! Table I) so clarity beats cleverness here.
//!
//! [`Graph`]: crate::graph::Graph

use std::fmt;
use std::ops::Range;

use rand::Rng;

use crate::error::TensorError;

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// # Examples
///
/// ```
/// use hero_autograd::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.get(&[1, 2]), 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and flat row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when the product of the
    /// dimensions does not equal `data.len()`.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape,
                len: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor from a shape and flat row-major data.
    ///
    /// # Panics
    ///
    /// Panics when the product of the dimensions does not equal
    /// `data.len()`. Use [`Tensor::new`] for a fallible variant.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        Self::new(shape, data).expect("tensor shape must match data length")
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![],
            data: vec![value],
        }
    }

    /// A tensor with entries drawn i.i.d. from `N(0, std^2)` using the
    /// Box–Muller transform (keeps the dependency surface to `rand` alone).
    pub fn randn<R: Rng + ?Sized>(shape: Vec<usize>, std: f32, rng: &mut R) -> Self {
        let len: usize = shape.iter().product();
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mag * theta.cos() * std);
            if data.len() < len {
                data.push(mag * theta.sin() * std);
            }
        }
        Self { shape, data }
    }

    /// A tensor with entries drawn i.i.d. from `U(lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(shape: Vec<usize>, lo: f32, hi: f32, rng: &mut R) -> Self {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| rng.gen_range(lo..hi)).collect();
        Self { shape, data }
    }

    /// A `[rows, classes]` one-hot matrix: row `i` has a single `1.0` at
    /// column `indices[i]`.
    ///
    /// # Panics
    ///
    /// Panics when any index is `>= classes`.
    pub fn one_hot(indices: &[usize], classes: usize) -> Self {
        let mut data = vec![0.0; indices.len() * classes];
        for (row, &idx) in indices.iter().enumerate() {
            assert!(idx < classes, "one-hot index {idx} out of range {classes}");
            data[row * classes + idx] = 1.0;
        }
        Self {
            shape: vec![indices.len(), classes],
            data,
        }
    }

    /// The shape as a slice of dimension sizes.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of dimensions). Scalars have rank 0.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires exactly one element");
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when the index rank or any coordinate is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self.flat_index(index);
        self.data[flat] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (dim, (&i, &size)) in index.iter().zip(&self.shape).enumerate() {
            assert!(i < size, "index {i} out of bounds for dim {dim} ({size})");
            flat = flat * size + i;
        }
        flat
    }

    /// Returns a copy with a new shape holding the same number of elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when the element counts
    /// differ.
    pub fn reshaped(&self, shape: Vec<usize>) -> Result<Self, TensorError> {
        Self::new(shape, self.data.clone())
    }

    /// Row `r` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank-2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Number of rows of a rank-2 tensor (or the batch dimension of any
    /// tensor of rank >= 1).
    ///
    /// # Panics
    ///
    /// Panics on scalars.
    pub fn rows(&self) -> usize {
        assert!(!self.shape.is_empty(), "rows() requires rank >= 1");
        self.shape[0]
    }

    /// Index of the maximum element of a rank-1 tensor or of one row of a
    /// rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Whether every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// In-place element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale: `self *= factor`.
    pub fn scale_assign(&mut self, factor: f32) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Resets every element to zero, keeping the shape.
    pub fn zero_(&mut self) {
        for a in &mut self.data {
            *a = 0.0;
        }
    }

    /// Matrix transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank-2.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transposed() requires a rank-2 tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(vec![0])
    }
}

/// A bucketed free-list of `f32` buffers keyed by capacity.
///
/// The autodiff [`Graph`](crate::graph::Graph) checks buffers out for node
/// values and gradients and returns them on `reset`, so steady-state
/// training iterations reuse the same allocations minibatch after
/// minibatch. The pool never allocates itself — a `take` that finds no
/// buffer of sufficient capacity falls back to a fresh `Vec` and counts a
/// miss, so `stats()` going quiet is the signal that the arena has warmed
/// up. Total held memory is bounded by the peak working set of the graphs
/// that feed it.
#[derive(Debug, Default)]
pub struct TensorPool {
    buckets: std::collections::BTreeMap<usize, Vec<Vec<f32>>>,
    hits: u64,
    misses: u64,
}

impl TensorPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a cleared buffer with capacity for at least `len`
    /// elements, preferring the smallest adequate bucket.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        for (_, bucket) in self.buckets.range_mut(len..) {
            if let Some(mut v) = bucket.pop() {
                self.hits += 1;
                v.clear();
                return v;
            }
        }
        self.misses += 1;
        Vec::with_capacity(len)
    }

    /// Returns a buffer to the pool for reuse. Each capacity class keeps at
    /// most [`TensorPool::MAX_PER_BUCKET`] buffers; surplus buffers are
    /// dropped. Without the cap, a graph whose inputs are cloned in fresh
    /// every minibatch returns more buffers per reset than the next
    /// forward pass checks out, and the pool grows without bound.
    pub fn put(&mut self, mut v: Vec<f32>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        let bucket = self.buckets.entry(cap).or_default();
        if bucket.len() < Self::MAX_PER_BUCKET {
            v.clear();
            bucket.push(v);
        }
    }

    /// A `[rows, cols]` tensor in a pooled buffer, into which `fill`
    /// pushes exactly `rows * cols` values in row-major order.
    pub fn matrix(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Vec<f32>)) -> Tensor {
        let mut data = self.take(rows * cols);
        fill(&mut data);
        Tensor::from_vec(vec![rows, cols], data)
    }

    /// Upper bound on buffers retained per capacity class.
    pub const MAX_PER_BUCKET: usize = 8;

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total buffers currently held across all capacity classes — the
    /// quantity that must plateau across minibatches for the arena to be
    /// leak-free.
    pub fn held(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 8;
        write!(f, "Tensor{:?} [", self.shape)?;
        for (i, v) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > MAX_SHOWN {
            write!(f, ", … {} more", self.data.len() - MAX_SHOWN)?;
        }
        write!(f, "]")
    }
}

/// Rows of A processed per register tile of the dense kernel.
const MR: usize = 4;
/// Output columns per register tile: two 512-bit (or eight 128-bit)
/// vectors wide, so an `MR`×`NR` tile's accumulators live entirely in
/// vector registers across the whole `p` loop.
const NR: usize = 32;

std::thread_local! {
    /// Scratch buffer for packed panels of B, reused across calls so the
    /// kernel allocates nothing after warm-up.
    static PACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Scratch buffer for the NN driver's `k × NR` panels of A (see
    /// `define_matmul_narrow`). A second buffer, because `matmul_nt`
    /// still borrows `PACK` while it runs the NN driver.
    static PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Whether the AVX-512F instantiations of the register-tiled kernels are
/// usable on this CPU. Checked once; the kernels themselves are plain Rust
/// compiled under `#[target_feature]`, so lane width is the only difference
/// between the two instantiations — results are bitwise identical (strict
/// FP: no FMA contraction, and each output element keeps its ascending-`p`
/// accumulation chain in every lane).
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    static AVX512: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

/// The GEMM tier this build runs: always `"strict"`, the only tier.
/// Results and the serving daemon's `/info` still carry it, so they stay
/// comparable with ones stamped by builds that had a second tier.
pub fn kernel_mode() -> &'static str {
    "strict"
}

/// Name of the matmul instantiation this CPU dispatches to, `avx512f` or
/// `portable`. Both produce the same bytes; recording the name makes
/// throughput numbers comparable across hosts.
pub fn isa_name() -> &'static str {
    if avx512_available() {
        "avx512f"
    } else {
        "portable"
    }
}

/// Defines one instantiation of the narrow-column loop both drivers run
/// for output columns `j0..n` that do not fill an `NR`-wide tile (every
/// column when `n < NR`), over the `NR` output rows starting at `i0`.
/// `panel[p * stride + r]` holds A's element for row `i0 + r` at inner
/// index `p`: a packed `k × NR` panel in the NN driver, A itself in the TN
/// driver. The loop vectorizes across those `NR` rows instead of across
/// columns, so an output one column wide still runs at full vector width.
/// Each element is the same ascending-`p` chain `((0 + a₀b₀) + a₁b₁) + …`
/// the tiles compute, so it matches them bit for bit.
///
/// # Safety
///
/// The `#[target_feature]` instantiation needs a CPU with that feature.
/// Slices are bounds-checked; nothing else is required.
macro_rules! define_matmul_narrow {
    ($fname:ident $(, #[$attr:meta])?) => {
        $(#[$attr])?
        #[allow(clippy::too_many_arguments)]
        unsafe fn $fname(
            panel: &[f32],
            stride: usize,
            b: &[f32],
            out: &mut [f32],
            i0: usize,
            k: usize,
            n: usize,
            j0: usize,
        ) {
            for j in j0..n {
                let mut acc = [0.0f32; NR];
                for p in 0..k {
                    let a_p: &[f32; NR] =
                        (&panel[p * stride..p * stride + NR]).try_into().unwrap();
                    let b_pj = b[p * n + j];
                    for r in 0..NR {
                        acc[r] += a_p[r] * b_pj;
                    }
                }
                for (r, v) in acc.into_iter().enumerate() {
                    out[(i0 + r) * n + j] = v;
                }
            }
        }
    };
}

define_matmul_narrow!(matmul_narrow_portable);
#[cfg(target_arch = "x86_64")]
define_matmul_narrow!(matmul_narrow_avx512, #[target_feature(enable = "avx512f")]);

/// The NN edge loop: `out[i][cols] += a[i][p] · b[p][cols]` over ascending
/// `p`, row by row, for the rows no tile or panel covers. Always inlined,
/// so it vectorizes across `cols` at its caller's lane width.
#[inline(always)]
fn nn_edge(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) {
    if cols.is_empty() {
        return;
    }
    for i in rows {
        let o_row = &mut out[i * n + cols.start..i * n + cols.end];
        for p in 0..k {
            let a_ip = a[i * k + p];
            let b_row = &b[p * n + cols.start..p * n + cols.end];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += a_ip * bv;
            }
        }
    }
}

/// The TN edge loop (`a` is `[k, m]`): [`nn_edge`] with `p` outermost, so
/// A is read one contiguous row at a time.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_edge(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) {
    if rows.is_empty() || cols.is_empty() {
        return;
    }
    for p in 0..k {
        let b_row = &b[p * n + cols.start..p * n + cols.end];
        for i in rows.clone() {
            let a_ip = a[p * m + i];
            let o_row = &mut out[i * n + cols.start..i * n + cols.end];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += a_ip * bv;
            }
        }
    }
}

/// Defines one instantiation of the register-tiled `C = A·B` driver.
///
/// The body is plain safe Rust over fixed-size `MR`×`NR` tiles; the
/// `#[target_feature]` variant only widens the vectors the autovectorizer
/// may use. Accumulators live in registers for the entire `p` loop (the
/// old implementation round-tripped partial sums through memory every
/// iteration, which capped it at store throughput). Columns past the last
/// full tile go through the narrow loop, `NR` rows at a time, after those
/// rows of A are packed transposed into `panel`; rows outside tiles and
/// panels go through the edge loop. Every path accumulates each element in
/// the same ascending-`p` order, so which path computed it never shows.
///
/// # Safety
///
/// The `#[target_feature]` instantiation needs a CPU with that feature.
/// Slices are bounds-checked; nothing else is required.
macro_rules! define_matmul_nn {
    ($fname:ident, $narrow:ident $(, #[$attr:meta])?) => {
        $(#[$attr])?
        #[allow(clippy::too_many_arguments)]
        unsafe fn $fname(
            a: &[f32],
            b: &[f32],
            out: &mut [f32],
            m: usize,
            k: usize,
            n: usize,
            panel: &mut Vec<f32>,
        ) {
            let mt = m - m % MR;
            let nt = n - n % NR;
            for i in (0..mt).step_by(MR) {
                for j0 in (0..nt).step_by(NR) {
                    let mut acc = [[0.0f32; NR]; MR];
                    for p in 0..k {
                        let b_row: &[f32; NR] =
                            (&b[p * n + j0..p * n + j0 + NR]).try_into().unwrap();
                        for r in 0..MR {
                            let a_rp = a[(i + r) * k + p];
                            for j in 0..NR {
                                acc[r][j] += a_rp * b_row[j];
                            }
                        }
                    }
                    for (r, row) in acc.iter().enumerate() {
                        out[(i + r) * n + j0..(i + r) * n + j0 + NR].copy_from_slice(row);
                    }
                }
            }
            nn_edge(a, b, out, k, n, mt..m, 0..nt);
            if nt == n || k == 0 {
                // With `k == 0` every output is the zero it already holds.
                return;
            }
            let mq = m - m % NR;
            if panel.len() < k * NR {
                panel.resize(k * NR, 0.0);
            }
            let panel = &mut panel[..k * NR];
            for i0 in (0..mq).step_by(NR) {
                for r in 0..NR {
                    let row = &a[(i0 + r) * k..(i0 + r + 1) * k];
                    for (slot, &v) in panel[r..].iter_mut().step_by(NR).zip(row) {
                        *slot = v;
                    }
                }
                $narrow(panel, NR, b, out, i0, k, n, nt);
            }
            nn_edge(a, b, out, k, n, mq..m, nt..n);
        }
    };
}

define_matmul_nn!(matmul_nn_portable, matmul_narrow_portable);
#[cfg(target_arch = "x86_64")]
define_matmul_nn!(matmul_nn_avx512, matmul_narrow_avx512, #[target_feature(enable = "avx512f")]);

/// Defines one instantiation of the register-tiled `C = Aᵀ·B` driver
/// (`a` is `[k, m]`). Identical tile structure to the NN driver; only the
/// A-element addressing differs (column-major walk, which is contiguous
/// per `p` — no transpose materialization needed). Row `p` of A already
/// holds consecutive output rows side by side, so the narrow loop reads A
/// directly, with no pack.
///
/// # Safety
///
/// The `#[target_feature]` instantiation needs a CPU with that feature.
/// Slices are bounds-checked; nothing else is required.
macro_rules! define_matmul_tn {
    ($fname:ident, $narrow:ident $(, #[$attr:meta])?) => {
        $(#[$attr])?
        unsafe fn $fname(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
            let mt = m - m % MR;
            let nt = n - n % NR;
            for i in (0..mt).step_by(MR) {
                for j0 in (0..nt).step_by(NR) {
                    let mut acc = [[0.0f32; NR]; MR];
                    for p in 0..k {
                        let b_row: &[f32; NR] =
                            (&b[p * n + j0..p * n + j0 + NR]).try_into().unwrap();
                        let a_col: &[f32; MR] =
                            (&a[p * m + i..p * m + i + MR]).try_into().unwrap();
                        for r in 0..MR {
                            let a_rp = a_col[r];
                            for j in 0..NR {
                                acc[r][j] += a_rp * b_row[j];
                            }
                        }
                    }
                    for (r, row) in acc.iter().enumerate() {
                        out[(i + r) * n + j0..(i + r) * n + j0 + NR].copy_from_slice(row);
                    }
                }
            }
            tn_edge(a, b, out, m, k, n, mt..m, 0..nt);
            if nt == n || k == 0 {
                // With `k == 0` every output is the zero it already holds.
                return;
            }
            let mq = m - m % NR;
            for i0 in (0..mq).step_by(NR) {
                $narrow(&a[i0..], m, b, out, i0, k, n, nt);
            }
            tn_edge(a, b, out, m, k, n, mq..m, nt..n);
        }
    };
}

define_matmul_tn!(matmul_tn_portable, matmul_narrow_portable);
#[cfg(target_arch = "x86_64")]
define_matmul_tn!(matmul_tn_avx512, matmul_narrow_avx512, #[target_feature(enable = "avx512f")]);

/// Register-tiled matrix multiplication used by the graph ops. `a` is
/// `[m, k]`, `b` is `[k, n]`; the result is `[m, n]`.
///
/// `MR`×`NR` output tiles are accumulated entirely in vector registers
/// across the whole inner dimension, so B is loaded once per `MR` rows of A
/// and the outputs are stored exactly once (the naive `ikj` loop stores
/// every partial sum). On x86-64 with AVX-512F an identically-shaped
/// instantiation with 512-bit lanes is dispatched at runtime. Every output
/// element is accumulated over `p` in strictly ascending order in every
/// path, so results are bit-identical to the naive kernel on dense inputs.
///
/// # Panics
///
/// Panics when either operand is not rank-2 or the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Vec::new();
    matmul_into(a, b, &mut out);
    Tensor {
        shape: vec![a.shape[0], b.shape[1]],
        data: out,
    }
}

/// [`matmul`] writing into a caller-supplied buffer (cleared and resized),
/// so pooled graphs can reuse allocations across minibatches.
///
/// # Panics
///
/// Panics when either operand is not rank-2 or the inner dimensions differ.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, k) = (a.shape[0], a.shape[1]);
    let (k2, n) = (b.shape[0], b.shape[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    out.clear();
    out.resize(m * n, 0.0);
    matmul_nn(&a.data, &b.data, out, m, k, n);
}

/// Runs the NN driver this CPU dispatches to on a zeroed `out`, with the
/// thread's [`PANEL`] as its scratch.
fn matmul_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    PANEL.with(|panel| {
        let panel = &mut panel.borrow_mut();
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            // SAFETY: avx512f support was verified at runtime.
            unsafe { matmul_nn_avx512(a, b, out, m, k, n, panel) };
            return;
        }
        // SAFETY: the portable instantiation carries no target-feature
        // requirement; `unsafe` only mirrors the macro-shared signature.
        unsafe { matmul_nn_portable(a, b, out, m, k, n, panel) };
    });
}

/// `A·Bᵀ` without materializing the transpose: `a` is `[m, k]`, `b` is
/// `[n, k]`; the result is `[m, n]`. Each output element is a dot product
/// of two contiguous rows, accumulated over `p` in ascending order —
/// bit-identical to `matmul(a, &b.transposed())` on dense inputs.
///
/// # Panics
///
/// Panics when either operand is not rank-2 or the `k` dimensions differ.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Vec::new();
    matmul_nt_into(a, b, &mut out);
    Tensor {
        shape: vec![a.shape[0], b.shape[0]],
        data: out,
    }
}

/// [`matmul_nt`] writing into a caller-supplied buffer (cleared and resized).
///
/// # Panics
///
/// Panics when either operand is not rank-2 or the `k` dimensions differ.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    assert_eq!(a.rank(), 2, "matmul_nt lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul_nt rhs must be rank-2");
    let (m, k) = (a.shape[0], a.shape[1]);
    let (n, k2) = (b.shape[0], b.shape[1]);
    assert_eq!(k, k2, "matmul_nt inner dimension mismatch: {k} vs {k2}");
    out.clear();
    out.resize(m * n, 0.0);
    if k == 0 {
        return;
    }
    // Dot-product form (`out[i][j] = a_row_i · b_row_j`) defeats strict-FP
    // vectorization (a horizontal reduction would reorder the sum), so
    // transpose B into the thread-local scratch panel once and run the
    // axpy-structured NN kernel instead. B here is the small operand in
    // every graph use (a weight matrix or a loss gradient), so the pack is
    // cheap relative to the multiply. Accumulation order per output element
    // stays ascending in `p` — bit-identical to the dot-product form.
    PACK.with(|pack| {
        let mut bt = pack.borrow_mut();
        bt.clear();
        bt.resize(k * n, 0.0);
        for (j, row) in b.data.chunks_exact(k).enumerate() {
            for (p, &v) in row.iter().enumerate() {
                bt[p * n + j] = v;
            }
        }
        matmul_nn(&a.data, &bt, out, m, k, n);
    });
}

/// `Aᵀ·B` without materializing the transpose: `a` is `[k, m]`, `b` is
/// `[k, n]`; the result is `[m, n]`. Accumulation over `p` is ascending per
/// output element — bit-identical to `matmul(&a.transposed(), b)` on dense
/// inputs.
///
/// # Panics
///
/// Panics when either operand is not rank-2 or the `k` dimensions differ.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Vec::new();
    matmul_tn_into(a, b, &mut out);
    Tensor {
        shape: vec![a.shape[1], b.shape[1]],
        data: out,
    }
}

/// [`matmul_tn`] writing into a caller-supplied buffer (cleared and resized).
///
/// # Panics
///
/// Panics when either operand is not rank-2 or the `k` dimensions differ.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be rank-2");
    let (k, m) = (a.shape[0], a.shape[1]);
    let (k2, n) = (b.shape[0], b.shape[1]);
    assert_eq!(k, k2, "matmul_tn inner dimension mismatch: {k} vs {k2}");
    out.clear();
    out.resize(m * n, 0.0);
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: avx512f support was verified at runtime.
        unsafe { matmul_tn_avx512(&a.data, &b.data, out, k, m, n) };
        return;
    }
    // SAFETY: no target-feature requirement on the portable instance.
    unsafe { matmul_tn_portable(&a.data, &b.data, out, k, m, n) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_rejects_mismatched_data() {
        assert!(Tensor::new(vec![2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::new(vec![2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.item(), 3.5);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect());
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
        assert_eq!(t.get(&[1, 0]), 3.0);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn one_hot_rows() {
        let t = Tensor::one_hot(&[2, 0], 3);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_out_of_range() {
        let _ = Tensor::one_hot(&[3], 3);
    }

    #[test]
    fn stamps_name_the_strict_instantiation_in_use() {
        assert_eq!(kernel_mode(), "strict");
        let expected = if avx512_available() {
            "avx512f"
        } else {
            "portable"
        };
        assert_eq!(isa_name(), expected);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// The naive `ikj` product, accumulating each output element in
    /// ascending inner index as the tiled kernels do, so results agree
    /// bit for bit.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.shape[0], a.shape[1], b.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = a.data[i * k + p];
                for j in 0..n {
                    out[i * n + j] += a_ip * b.data[p * n + j];
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    #[test]
    fn matmul_variants_agree_with_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 64, 4), (17, 33, 65), (130, 70, 9)] {
            let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
            let b = Tensor::randn(vec![k, n], 1.0, &mut rng);
            let reference = naive_matmul(&a, &b);
            assert_eq!(matmul(&a, &b), reference, "tiled mismatch at {m}x{k}x{n}");
            assert_eq!(
                matmul_nt(&a, &b.transposed()),
                reference,
                "nt mismatch at {m}x{k}x{n}"
            );
            assert_eq!(
                matmul_tn(&a.transposed(), &b),
                reference,
                "tn mismatch at {m}x{k}x{n}"
            );
        }
    }

    type NnDriver = unsafe fn(&[f32], &[f32], &mut [f32], usize, usize, usize, &mut Vec<f32>);
    type TnDriver = unsafe fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// On an AVX-512 host the dispatcher never runs the portable
    /// instantiation, so run both drivers directly, at shapes whose
    /// columns go through the narrow loop and whose rows cross the panel
    /// boundary, and compare their bytes with each other and with the
    /// ascending-`p` reference.
    #[test]
    fn portable_and_avx512_narrow_paths_agree_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut panel = Vec::new();
        for (m, k, n) in [
            (32, 32, 1),
            (33, 7, 4),
            (95, 26, 31),
            (131, 26, 33),
            (1024, 32, 4),
            (64, 0, 4),
        ] {
            let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
            let b = Tensor::randn(vec![k, n], 1.0, &mut rng);
            let at = a.transposed();
            let want = bits(naive_matmul(&a, &b).data());
            let mut run = |nn: NnDriver, tn: TnDriver| {
                let (mut c_nn, mut c_tn) = (vec![0.0; m * n], vec![0.0; m * n]);
                // SAFETY: an avx512f driver is passed only after the CPU
                // check below.
                unsafe {
                    nn(&a.data, &b.data, &mut c_nn, m, k, n, &mut panel);
                    tn(&at.data, &b.data, &mut c_tn, k, m, n);
                }
                [bits(&c_nn), bits(&c_tn)]
            };
            let portable = run(matmul_nn_portable, matmul_tn_portable);
            assert_eq!(portable, [want.clone(), want], "portable at {m}x{k}x{n}");
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                let wide = run(matmul_nn_avx512, matmul_tn_avx512);
                assert_eq!(wide, portable, "avx512f at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut buf = Vec::with_capacity(16);
        let ptr = buf.as_ptr();
        matmul_into(&a, &b, &mut buf);
        assert_eq!(buf, vec![58.0, 64.0, 139.0, 154.0]);
        assert_eq!(buf.as_ptr(), ptr, "matmul_into must not reallocate a large-enough buffer");
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &id), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect());
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().shape(), &[3, 2]);
        assert_eq!(a.transposed().get(&[2, 1]), a.get(&[1, 2]));
    }

    #[test]
    fn randn_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(vec![10_000], 1.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::uniform(vec![1000], -0.5, 0.25, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.25).contains(&v)));
    }

    #[test]
    fn argmax_picks_largest() {
        let t = Tensor::from_slice(&[0.1, -3.0, 7.5, 2.0]);
        assert_eq!(t.argmax(), 2);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        a.add_assign(&Tensor::from_slice(&[3.0, 4.0]));
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[8.0, 12.0]);
    }

    #[test]
    fn debug_is_never_empty() {
        let rendered = format!("{:?}", Tensor::zeros(vec![0]));
        assert!(!rendered.is_empty());
    }
}
