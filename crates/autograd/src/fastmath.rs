//! Opt-in fast-math GEMM tier and the process-wide kernel-mode switch.
//!
//! The default (strict) kernels in [`crate::tensor`] keep a bitwise
//! determinism contract: no FMA contraction, ascending-`p` accumulation,
//! identical results on every ISA. That contract caps throughput — the
//! compiler may never fuse a multiply-add, and one thread owns the whole
//! product. This module reintroduces the speed behind an explicit opt-in
//! (`--kernel-mode fast`, requiring the `fast-math` cargo feature):
//!
//! - **Explicit-FMA microkernels** (`f32::mul_add`): one rounding per
//!   multiply-add instead of two, and the hardware FMA ports double the
//!   peak FLOP rate.
//! - **Cache-blocked packing**: both operands are repacked into
//!   L1/L2-sized panels (`MR`-row panels of A, `NR`-column panels of B) so
//!   the microkernel streams contiguous memory regardless of the logical
//!   layout (`NN`, `NT`, `TN`) — large GEMMs stop being cache-bound.
//! - **Row-parallel macro-kernel** over the vendored crossbeam
//!   scoped-thread shim: the row dimension is split into `MC`-aligned
//!   chunks with a fixed, deterministic partition schedule.
//!
//! ## Determinism contract of the fast tier
//!
//! Fast-math results differ from strict results at the ULP (fused
//! rounding, blocked `k` traversal), but they are **run-to-run
//! reproducible on a given machine**: the inner (`k`) dimension is never
//! split across threads, every output element is accumulated by exactly
//! one thread in a fixed ascending-`p` order within fixed `KC` blocks, and
//! block ownership is a pure function of the shape and thread count. The
//! same build on the same CPU produces the same bytes every run — and the
//! partition schedule keeps results identical across *thread counts* too
//! (threads only change who computes a row, never the order of its
//! accumulation chain).
//!
//! Cross-machine reproducibility is reduced from "always" (strict) to
//! "same detected ISA": the FMA microkernel is instantiated per target
//! feature set and the pick is recorded in [`isa_name`].

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Which GEMM tier the process dispatches to.
///
/// The mode is process-global (an atomic, see [`set_kernel_mode`]) because
/// the kernels are reached from graph ops, scoped worker threads, and
/// inference paths that cannot thread a config handle through every call
/// site — and because *mixing* modes within one run would produce results
/// reproducible under neither contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Bitwise-deterministic register-tiled kernels (the default): no FMA
    /// contraction, identical bytes on every ISA and thread count.
    #[default]
    Strict,
    /// Cache-blocked packed FMA kernels, optionally row-parallel.
    /// Run-to-run reproducible on one machine; differs from `Strict` at
    /// the ULP. Requires the `fast-math` cargo feature.
    Fast,
}

impl KernelMode {
    /// Stable lowercase name, used by CLI flags, telemetry, and the
    /// checkpoint `kernel_mode` section.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelMode::Strict => "strict",
            KernelMode::Fast => "fast",
        }
    }

    /// Single-byte encoding for checkpoint metadata.
    pub fn to_byte(self) -> u8 {
        match self {
            KernelMode::Strict => 0,
            KernelMode::Fast => 1,
        }
    }

    /// Inverse of [`KernelMode::to_byte`].
    pub fn from_byte(b: u8) -> Option<KernelMode> {
        match b {
            0 => Some(KernelMode::Strict),
            1 => Some(KernelMode::Fast),
            _ => None,
        }
    }
}

impl fmt::Display for KernelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(KernelMode::Strict),
            "fast" => Ok(KernelMode::Fast),
            other => Err(format!(
                "unknown kernel mode `{other}` (expected `strict` or `fast`)"
            )),
        }
    }
}

/// Requested [`KernelMode::Fast`] in a build compiled without the
/// `fast-math` cargo feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastMathUnavailable;

impl fmt::Display for FastMathUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fast-math kernels are not compiled into this build \
             (rebuild with `--features fast-math`)"
        )
    }
}

impl std::error::Error for FastMathUnavailable {}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);
static GEMM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Upper bound on [`set_gemm_threads`]; a partition into more chunks than
/// this never helps the matrix sizes this engine sees.
pub const MAX_GEMM_THREADS: usize = 64;

/// The GEMM tier currently dispatched by [`crate::matmul`] and friends.
pub fn kernel_mode() -> KernelMode {
    KernelMode::from_byte(KERNEL_MODE.load(Ordering::Relaxed)).unwrap_or(KernelMode::Strict)
}

/// Whether this build carries the fast-math kernel tier.
pub fn fast_math_compiled() -> bool {
    cfg!(feature = "fast-math")
}

/// Switches the process-wide GEMM tier. Selecting [`KernelMode::Fast`] in
/// a build without the `fast-math` feature fails loudly instead of
/// silently staying strict — a run that *thinks* it is fast but is not
/// would corrupt the bench trajectory.
pub fn set_kernel_mode(mode: KernelMode) -> Result<(), FastMathUnavailable> {
    if mode == KernelMode::Fast && !fast_math_compiled() {
        return Err(FastMathUnavailable);
    }
    KERNEL_MODE.store(mode.to_byte(), Ordering::Relaxed);
    Ok(())
}

/// Thread budget for the fast-tier macro-kernel (clamped to
/// `1..=`[`MAX_GEMM_THREADS`]). `1` (the default) keeps the fast tier
/// single-threaded; strict mode ignores this entirely. Because the
/// partition schedule is deterministic and never splits the inner
/// dimension, changing the budget changes wall-clock only — never bytes.
pub fn set_gemm_threads(n: usize) {
    GEMM_THREADS.store(n.clamp(1, MAX_GEMM_THREADS), Ordering::Relaxed);
}

/// Current fast-tier thread budget (see [`set_gemm_threads`]).
pub fn gemm_threads() -> usize {
    GEMM_THREADS.load(Ordering::Relaxed).max(1)
}

/// Name of the widest kernel instantiation this CPU dispatches to, for
/// telemetry and the benchmark's results (`avx512f`, `avx2+fma`, or
/// `portable`). Detection is cached; the answer is a pure function of the
/// machine, so recording it makes results comparable across hosts.
pub fn isa_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
    }
    "portable"
}

#[cfg(feature = "fast-math")]
pub use kernels::{fast_matmul, fast_matmul_nt, fast_matmul_threaded, fast_matmul_tn};
#[cfg(feature = "fast-math")]
pub(crate) use kernels::{gemm, Layout};

#[cfg(feature = "fast-math")]
mod kernels {
    use super::gemm_threads;
    use crate::Tensor;

    /// Rows of A per microkernel tile. Matches the strict tier: 4 rows ×
    /// 32 columns of f32 accumulators fit the vector register file on
    /// both AVX2 (16×256-bit) and AVX-512 (32×512-bit).
    const MR: usize = 4;
    /// Output columns per microkernel tile.
    const NR: usize = 32;
    /// Inner-dimension block: one packed `KC`×`NR` B-panel (32 KiB) plus
    /// one `MC`×`KC` A-block stay L2-resident.
    const KC: usize = 256;
    /// Row block: unit of thread ownership and A-packing (64×256×4 B =
    /// 64 KiB per packed A-block).
    const MC: usize = 64;
    /// Column block bounding the packed B panel (`KC`×`NC`×4 B = 256 KiB).
    const NC: usize = 256;
    /// Minimum FLOP count (2·m·k·n) before the macro-kernel fans out to
    /// threads; below this the scoped-spawn overhead dominates.
    const PAR_MIN_FLOPS: usize = 1 << 22;

    /// Operand layout of the product. `A` is `[m, k]` except `Tn` (where
    /// it is `[k, m]`); `B` is `[k, n]` except `Nt` (where it is `[n, k]`).
    /// Packing absorbs the difference — the microkernel only ever sees
    /// panels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Layout {
        /// `C = A·B`
        Nn,
        /// `C = A·Bᵀ`
        Nt,
        /// `C = Aᵀ·B`
        Tn,
    }

    type Microkernel = unsafe fn(&[f32], &[f32], &mut [f32], usize, usize, usize, usize, usize);

    /// One instantiation of the packed FMA microkernel. `apanel` is
    /// `kc`×`MR` (row index fastest), `bpanel` is `kc`×`NR` (column index
    /// fastest); both are zero-padded to full tile width, so the `p` loop
    /// always runs at full `MR`×`NR` width and only the C load/store is
    /// guarded. The existing C tile seeds the accumulators, so `KC`
    /// blocks extend one ascending-`p` fused chain per element —
    /// deterministic for a fixed blocking, regardless of which thread
    /// runs the tile.
    macro_rules! define_fm_microkernel {
        ($fname:ident $(, #[$attr:meta])?) => {
            $(#[$attr])?
            unsafe fn $fname(
                apanel: &[f32],
                bpanel: &[f32],
                c: &mut [f32],
                c_off: usize,
                n: usize,
                kc: usize,
                mr: usize,
                nr: usize,
            ) {
                let mut acc = [[0.0f32; NR]; MR];
                for (r, row) in acc.iter_mut().enumerate().take(mr) {
                    row[..nr].copy_from_slice(&c[c_off + r * n..c_off + r * n + nr]);
                }
                for p in 0..kc {
                    let a_col: &[f32; MR] =
                        (&apanel[p * MR..p * MR + MR]).try_into().unwrap();
                    let b_row: &[f32; NR] =
                        (&bpanel[p * NR..p * NR + NR]).try_into().unwrap();
                    for r in 0..MR {
                        let a_rp = a_col[r];
                        for j in 0..NR {
                            acc[r][j] = a_rp.mul_add(b_row[j], acc[r][j]);
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate().take(mr) {
                    c[c_off + r * n..c_off + r * n + nr].copy_from_slice(&row[..nr]);
                }
            }
        };
    }

    #[cfg(target_arch = "x86_64")]
    define_fm_microkernel!(fm_ukr_fma, #[target_feature(enable = "avx2,fma")]);
    #[cfg(target_arch = "x86_64")]
    define_fm_microkernel!(fm_ukr_avx512, #[target_feature(enable = "avx512f,fma")]);

    /// Portable fallback for CPUs without hardware FMA: `mul_add` would
    /// lower to a libm soft-fma call per element (slower than strict), so
    /// this variant keeps separate multiply/add — the packed blocking
    /// still pays, and the fast tier stays deterministic on such hosts.
    unsafe fn fm_ukr_portable(
        apanel: &[f32],
        bpanel: &[f32],
        c: &mut [f32],
        c_off: usize,
        n: usize,
        kc: usize,
        mr: usize,
        nr: usize,
    ) {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[c_off + r * n..c_off + r * n + nr]);
        }
        for p in 0..kc {
            let a_col: &[f32; MR] = (&apanel[p * MR..p * MR + MR]).try_into().unwrap();
            let b_row: &[f32; NR] = (&bpanel[p * NR..p * NR + NR]).try_into().unwrap();
            for r in 0..MR {
                let a_rp = a_col[r];
                for j in 0..NR {
                    acc[r][j] += a_rp * b_row[j];
                }
            }
        }
        for (r, row) in acc.iter().enumerate().take(mr) {
            c[c_off + r * n..c_off + r * n + nr].copy_from_slice(&row[..nr]);
        }
    }

    /// Picks the widest microkernel this CPU supports. Cached: the choice
    /// must be stable for the life of the process (mixing instantiations
    /// across calls would break run-to-run reproducibility).
    fn select_ukr() -> Microkernel {
        static UKR: std::sync::OnceLock<Microkernel> = std::sync::OnceLock::new();
        *UKR.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("fma")
                {
                    return fm_ukr_avx512 as Microkernel;
                }
                if std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                {
                    return fm_ukr_fma as Microkernel;
                }
            }
            fm_ukr_portable as Microkernel
        })
    }

    /// Packs rows `[i0, i0+mc)` × inner `[p0, p0+kc)` of A into `MR`-row
    /// panels (`buf[panel*kc*MR + p*MR + r]`), zero-padding the last
    /// partial panel so the microkernel never branches on row count.
    fn pack_a(
        a_trans: bool,
        a: &[f32],
        m: usize,
        k: usize,
        i0: usize,
        mc: usize,
        p0: usize,
        kc: usize,
        buf: &mut Vec<f32>,
    ) {
        let panels = mc.div_ceil(MR);
        buf.clear();
        buf.resize(panels * kc * MR, 0.0);
        for pi in 0..panels {
            let base = pi * kc * MR;
            let rows = MR.min(mc - pi * MR);
            for p in 0..kc {
                for r in 0..rows {
                    let i = i0 + pi * MR + r;
                    buf[base + p * MR + r] = if a_trans {
                        a[(p0 + p) * m + i] // A is [k, m]
                    } else {
                        a[i * k + (p0 + p)] // A is [m, k]
                    };
                }
            }
        }
    }

    /// Packs inner `[p0, p0+kc)` × columns `[j0, j0+nc)` of B into
    /// `NR`-column panels (`buf[panel*kc*NR + p*NR + j]`), zero-padded.
    fn pack_b(
        b_trans: bool,
        b: &[f32],
        k: usize,
        n: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        buf: &mut Vec<f32>,
    ) {
        let panels = nc.div_ceil(NR);
        buf.clear();
        buf.resize(panels * kc * NR, 0.0);
        for pj in 0..panels {
            let base = pj * kc * NR;
            let cols = NR.min(nc - pj * NR);
            for p in 0..kc {
                for j in 0..cols {
                    let jj = j0 + pj * NR + j;
                    buf[base + p * NR + j] = if b_trans {
                        b[jj * k + (p0 + p)] // B is [n, k]
                    } else {
                        b[(p0 + p) * n + jj] // B is [k, n]
                    };
                }
            }
        }
    }

    /// The blocked macro-kernel over one contiguous row range.
    /// `c_rows` is `out[row0*n .. (row0+rows)*n]`; each thread of a
    /// parallel product runs this exact loop nest over its own range, so
    /// per-element accumulation order is independent of the partition.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        ukr: Microkernel,
        a_trans: bool,
        b_trans: bool,
        a: &[f32],
        b: &[f32],
        c_rows: &mut [f32],
        row0: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
        apack: &mut Vec<f32>,
        bpack: &mut Vec<f32>,
    ) {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(b_trans, b, k, n, pc, kc, jc, nc, bpack);
                for ic in (0..rows).step_by(MC) {
                    let mc = MC.min(rows - ic);
                    pack_a(a_trans, a, m, k, row0 + ic, mc, pc, kc, apack);
                    for j0 in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - j0);
                        let bpanel = &bpack[(j0 / NR) * kc * NR..][..kc * NR];
                        for i0 in (0..mc).step_by(MR) {
                            let mr = MR.min(mc - i0);
                            let apanel = &apack[(i0 / MR) * kc * MR..][..kc * MR];
                            let c_off = (ic + i0) * n + jc + j0;
                            // SAFETY: select_ukr verified the target
                            // features of the chosen instantiation; all
                            // slice accesses are in-bounds by blocking.
                            unsafe { ukr(apanel, bpanel, c_rows, c_off, n, kc, mr, nr) };
                        }
                    }
                }
            }
        }
    }

    std::thread_local! {
        /// Pack scratch for the single-threaded path (spawned workers use
        /// their own locals; the per-call allocation is amortized by the
        /// threading threshold).
        static FM_PACK: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
    }

    /// Threads actually used for an `m`×`k`×`n` product: the requested
    /// budget, capped by the number of `MC` row blocks, gated by a
    /// deterministic size threshold. A pure function of shape and budget —
    /// part of the reproducibility contract.
    fn effective_threads(threads: usize, m: usize, k: usize, n: usize) -> usize {
        if threads <= 1 || 2 * m * k * n < PAR_MIN_FLOPS {
            return 1;
        }
        threads.min(m.div_ceil(MC)).max(1)
    }

    /// Fast-tier `C = op(A)·op(B)` into a zeroed `out` of length `m*n`.
    pub(crate) fn gemm(
        layout: Layout,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_with_threads(layout, a, b, out, m, k, n, gemm_threads());
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm_with_threads(
        layout: Layout,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        threads: usize,
    ) {
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 || k == 0 {
            return; // out is already zeroed by the caller
        }
        let ukr = select_ukr();
        let (a_trans, b_trans) = match layout {
            Layout::Nn => (false, false),
            Layout::Nt => (false, true),
            Layout::Tn => (true, false),
        };
        let t = effective_threads(threads, m, k, n);
        if t <= 1 {
            FM_PACK.with(|bufs| {
                let (apack, bpack) = &mut *bufs.borrow_mut();
                gemm_rows(ukr, a_trans, b_trans, a, b, out, 0, m, m, k, n, apack, bpack);
            });
            return;
        }
        // Deterministic partition: MC-aligned row blocks, contiguous
        // ownership, fixed by (m, t) alone. split_at_mut hands each
        // thread a disjoint slice of C.
        let blocks = m.div_ceil(MC);
        crossbeam::thread::scope(|s| {
            let mut rest = out;
            let mut row0 = 0usize;
            for th in 0..t {
                let b1 = blocks * (th + 1) / t;
                let end = (b1 * MC).min(m);
                let rows = end - row0;
                if rows == 0 {
                    continue;
                }
                let (chunk, tail) = rest.split_at_mut(rows * n);
                rest = tail;
                let start = row0;
                s.spawn(move || {
                    let (mut apack, mut bpack) = (Vec::new(), Vec::new());
                    gemm_rows(
                        ukr, a_trans, b_trans, a, b, chunk, start, rows, m, k, n, &mut apack,
                        &mut bpack,
                    );
                });
                row0 = end;
            }
        });
    }

    fn check_shapes(
        layout: Layout,
        a: &Tensor,
        b: &Tensor,
        op: &str,
    ) -> (usize, usize, usize) {
        assert_eq!(a.rank(), 2, "{op} lhs must be rank-2");
        assert_eq!(b.rank(), 2, "{op} rhs must be rank-2");
        let (m, k) = match layout {
            Layout::Tn => (a.shape()[1], a.shape()[0]),
            _ => (a.shape()[0], a.shape()[1]),
        };
        let (k2, n) = match layout {
            Layout::Nt => (b.shape()[1], b.shape()[0]),
            _ => (b.shape()[0], b.shape()[1]),
        };
        assert_eq!(k, k2, "{op} inner dimension mismatch: {k} vs {k2}");
        (m, k, n)
    }

    fn fast_product(layout: Layout, a: &Tensor, b: &Tensor, op: &str, threads: usize) -> Tensor {
        let (m, k, n) = check_shapes(layout, a, b, op);
        let mut out = vec![0.0f32; m * n];
        gemm_with_threads(layout, a.data(), b.data(), &mut out, m, k, n, threads);
        Tensor::from_vec(vec![m, n], out)
    }

    /// Fast-tier `A·B` (`a` is `[m, k]`, `b` is `[k, n]`) honoring the
    /// global [`gemm_threads`] budget. Public so property tests and
    /// benches can exercise the tier without flipping the process-wide
    /// [`KernelMode`].
    pub fn fast_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        fast_product(Layout::Nn, a, b, "matmul", gemm_threads())
    }

    /// Fast-tier `A·Bᵀ` (`b` is `[n, k]`).
    pub fn fast_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        fast_product(Layout::Nt, a, b, "matmul_nt", gemm_threads())
    }

    /// Fast-tier `Aᵀ·B` (`a` is `[k, m]`).
    pub fn fast_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        fast_product(Layout::Tn, a, b, "matmul_tn", gemm_threads())
    }

    /// [`fast_matmul`] with an explicit thread budget, bypassing the
    /// global setting — the reproducibility tests compare byte-identical
    /// results across budgets without racing on process state.
    pub fn fast_matmul_threaded(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
        fast_product(Layout::Nn, a, b, "matmul", threads.clamp(1, super::MAX_GEMM_THREADS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrips_through_byte_and_str() {
        for mode in [KernelMode::Strict, KernelMode::Fast] {
            assert_eq!(KernelMode::from_byte(mode.to_byte()), Some(mode));
            assert_eq!(mode.as_str().parse::<KernelMode>().unwrap(), mode);
        }
        assert_eq!(KernelMode::from_byte(7), None);
        assert!("loose".parse::<KernelMode>().is_err());
    }

    #[test]
    fn gemm_threads_clamps() {
        set_gemm_threads(0);
        assert_eq!(gemm_threads(), 1);
        set_gemm_threads(1_000_000);
        assert_eq!(gemm_threads(), MAX_GEMM_THREADS);
        set_gemm_threads(1);
        assert_eq!(gemm_threads(), 1);
    }

    #[test]
    fn isa_name_is_stable() {
        assert_eq!(isa_name(), isa_name());
        assert!(["avx512f", "avx2+fma", "portable"].contains(&isa_name()));
    }

    #[cfg(not(feature = "fast-math"))]
    #[test]
    fn fast_mode_refused_without_feature() {
        assert_eq!(set_kernel_mode(KernelMode::Fast), Err(FastMathUnavailable));
        assert_eq!(kernel_mode(), KernelMode::Strict);
        assert!(!fast_math_compiled());
    }

    #[cfg(feature = "fast-math")]
    #[test]
    fn fast_mode_accepted_with_feature() {
        assert!(fast_math_compiled());
        set_kernel_mode(KernelMode::Fast).unwrap();
        assert_eq!(kernel_mode(), KernelMode::Fast);
        set_kernel_mode(KernelMode::Strict).unwrap();
        assert_eq!(kernel_mode(), KernelMode::Strict);
    }
}
