//! Runtime-dispatched SIMD GEMM microkernels and readout BLAS-2 passes
//! (`DESIGN.md` §13).
//!
//! The register-tiled products of [`crate::gemm`] funnel every multiply-add
//! through one `MR × NR` microkernel pair (accumulate / subtract). The
//! per-sample SGD step makes two more throughput-bound passes over the
//! `N_y × N_r` readout — `Wᵀg` ([`crate::Matrix::t_matvec_into`]) and the
//! rank-1 update ([`crate::Matrix::add_outer`]). This module provides all
//! four in several instruction-set flavours and picks one **at runtime**:
//!
//! * `scalar` — the portable floor, plain Rust loops (always available).
//! * `sse2` — 2-lane `__m128d` kernel (baseline on `x86_64`).
//! * `avx2` — 4-lane `__m256d` kernel (requires runtime AVX2 detection).
//! * `neon` — 2-lane `float64x2_t` kernel (baseline on `aarch64`).
//!
//! The two BLAS-2 passes have no hand-written SIMD: their safe bodies are
//! elementwise loops that LLVM vectorises on its own, and the `avx2` entry
//! is the same body compiled once more under
//! `#[target_feature(enable = "avx2")]` — 4 lanes instead of the baseline's
//! 2, no `fma`. The other entries share the baseline compile.
//!
//! # Bit-identity (the `DESIGN.md` §8 contract)
//!
//! Every kernel vectorises across the **m/n lanes of the tile**
//! only: lane `j` of a vector holds output element `(i, j)`, and one `k`
//! step performs one vector multiply followed by one vector add — never a
//! fused multiply-add. IEEE 754 arithmetic is correctly rounded per lane,
//! so each output element sees exactly the scalar reference's operation
//! sequence (`k` ascending, one `mul` + one `add` per step from `+0.0`)
//! and every kernel is **bitwise identical** to `scalar`. That is
//! why the whole §8 pinning apparatus — product property suites, the
//! golden frozen-model digest, the serve loopback oracle — keeps holding
//! for free no matter which kernel dispatch picks.
//!
//! # Selection order
//!
//! [`active`] resolves, in order: the calling thread's [`with_kernel`]
//! override → the process-wide [`set_kernel`] override → the process
//! default, computed once on first use from `DFR_KERNEL` (exact kernel,
//! panicking loudly if unknown or unavailable — differential CI must not
//! silently fall back) or, with no env var, the best detected kernel
//! (`avx2` → `sse2` on x86-64, `neon` on aarch64, else `scalar`).
//!
//! Products resolve their kernel **once at entry on the calling thread**
//! and carry it into their parallel bands, so a [`with_kernel`] scope
//! covers a product's whole fan-out. Products issued *from inside* pool
//! workers (nested parallelism, e.g. per-sample feature extraction)
//! resolve on the worker thread instead — pin `dfr_pool::with_threads(1)`
//! around such flows, or use [`set_kernel`] / `DFR_KERNEL`, to hold one
//! kernel end to end.

// The SIMD kernels are the one place in the workspace that needs
// `unsafe`: `std::arch` intrinsics and the raw-pointer panel walks they
// operate on. Every unsafe fn is gated by the dispatch table so it can
// only run after its ISA extension was detected at runtime, and the safe
// wrappers assert the panel-length invariants the pointer arithmetic
// relies on.

use crate::gemm::{MR, NR};
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The microkernel signature: one full-`k` pass over an `MR`-row A panel
/// and an `NR`-column B panel, accumulating into (or subtracting from) a
/// register tile. Panels are packed as `panel[k][lane]` with lanes
/// contiguous per `k` step ([`crate::gemm`]'s packing layout).
pub type MicroKernelFn = fn(&[f64], &[f64], &mut [[f64; NR]; MR]);

/// The transposed matrix-vector signature `(data, v, out)`: `out = Aᵀ·v`
/// for a row-major `A` of `v.len()` rows and `out.len()` columns.
pub type TMatvecFn = fn(&[f64], &[f64], &mut [f64]);

/// The scaled rank-1 update signature `(w, alpha, g, r, s) -> finite`:
/// `w += alpha·((g·rᵀ)·s)` on a row-major `g.len() × r.len()` matrix,
/// returning whether every element of `w` is finite afterwards.
pub type AddOuterFn = fn(&mut [f64], f64, &[f64], &[f64], f64) -> bool;

/// Identifies one entry of the kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable scalar loops — the reference every other kernel must match.
    Scalar,
    /// 2-lane SSE2 kernel (`x86_64` baseline).
    Sse2,
    /// 4-lane AVX2 kernel (runtime-detected).
    Avx2,
    /// 2-lane NEON kernel (`aarch64` baseline).
    Neon,
}

impl KernelKind {
    /// Every kind, in the encoding order used by the override cells.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Scalar,
        KernelKind::Sse2,
        KernelKind::Avx2,
        KernelKind::Neon,
    ];

    /// The `DFR_KERNEL` spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Sse2 => "sse2",
            KernelKind::Avx2 => "avx2",
            KernelKind::Neon => "neon",
        }
    }

    /// Parses a `DFR_KERNEL` value (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelKind> {
        let s = s.trim().to_ascii_lowercase();
        KernelKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One entry of the dispatch table: a named microkernel pair plus the two
/// BLAS-2 passes the per-sample SGD step makes over the readout.
///
/// `&'static Kernel` is what the products pass into their parallel bands;
/// the struct is `Sync` (function pointers and plain data), so one
/// resolution on the calling thread covers a whole fan-out.
pub struct Kernel {
    kind: KernelKind,
    pub(crate) mul_add: MicroKernelFn,
    pub(crate) mul_sub: MicroKernelFn,
    pub(crate) t_matvec: TMatvecFn,
    pub(crate) add_outer: AddOuterFn,
}

impl Kernel {
    /// Which table entry this is.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The `DFR_KERNEL` spelling of this kernel.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("kind", &self.kind).finish()
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels (the portable floor and the bit-identity reference).
// ---------------------------------------------------------------------------

/// The scalar `MR × NR` multiply-add microkernel:
/// `acc[i][j] += a[k][i] · b[k][j]` for every `k` step, ascending. The
/// accumulator stays in locals; the `MR·NR` lanes are independent, so the
/// inner body vectorises without reassociating any per-element sum.
pub(crate) fn scalar_mul_add(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (accr, &ai) in acc.iter_mut().zip(av) {
            for (slot, &bj) in accr.iter_mut().zip(bv) {
                *slot += ai * bj;
            }
        }
    }
}

/// The scalar subtractive microkernel: `acc[i][j] -= a[k][i] · b[k][j]`,
/// `k` ascending — the trailing-update core of the blocked Cholesky.
pub(crate) fn scalar_mul_sub(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (accr, &ai) in acc.iter_mut().zip(av) {
            for (slot, &bj) in accr.iter_mut().zip(bv) {
                *slot -= ai * bj;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BLAS-2 bodies: `Wᵀg` and the rank-1 readout update.
// ---------------------------------------------------------------------------
//
// Both loops are elementwise across the output (each element is one
// `k`-ascending chain of separate `mul` + `add`), so no reassociation is
// needed to vectorise them and every compile of the same body is bitwise
// identical. The bodies themselves (their baseline compile) back
// `scalar`, `sse2` and `neon`; the `avx2` entry compiles the very same
// safe body once more under `#[target_feature(enable = "avx2")]` (no
// `fma`, no intrinsics), which lets LLVM widen the loops from 2 to 4
// lanes.

/// `out = Aᵀ·v` for a row-major `A` (`data`, `v.len()` rows of
/// `out.len()` columns): `out` starts at `+0.0` and row `i` adds
/// `v_i·A_ij` to every `out_j`, `i` ascending. No zero-skip on `v_i`:
/// adding an exact-zero product never changes a finite accumulator that
/// started at `+0.0` (it can never be `−0.0`), and the branch-free loop
/// vectorises.
#[inline(always)]
fn t_matvec_body(data: &[f64], v: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    let cols = out.len();
    if cols == 0 {
        return;
    }
    for (&vi, row) in v.iter().zip(data.chunks_exact(cols)) {
        for (o, &m) in out.iter_mut().zip(row) {
            *o += vi * m;
        }
    }
}

/// `w_cj += alpha·((g_c·r_j)·s)` row by row, skipping rows with
/// `g_c == 0`, and returning whether every element of `w` is finite
/// afterwards (the check folded into the same pass).
#[inline(always)]
fn add_outer_body(w: &mut [f64], alpha: f64, g: &[f64], r: &[f64], s: f64) -> bool {
    let cols = r.len();
    if cols == 0 {
        return true;
    }
    let mut finite = true;
    for (&gc, row) in g.iter().zip(w.chunks_exact_mut(cols)) {
        if gc == 0.0 {
            finite &= row.iter().fold(true, |ok, w| ok & w.is_finite());
            continue;
        }
        for (w, &rj) in row.iter_mut().zip(r) {
            *w += alpha * ((gc * rj) * s);
            finite &= w.is_finite();
        }
    }
    finite
}

/// Checks the packed-panel invariant the raw-pointer kernels rely on and
/// returns the shared `k` depth: `a_panel` holds `k` steps of `MR` lanes,
/// `b_panel` `k` steps of `NR` lanes.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn panel_depth(a_panel: &[f64], b_panel: &[f64]) -> usize {
    let k = a_panel.len() / MR;
    assert!(
        a_panel.len() == k * MR && b_panel.len() == k * NR,
        "microkernel panels disagree: a={} b={} (MR={MR}, NR={NR})",
        a_panel.len(),
        b_panel.len(),
    );
    k
}

// ---------------------------------------------------------------------------
// x86-64 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{add_outer_body, panel_depth, t_matvec_body, MR, NR};
    use std::arch::x86_64::*;

    /// [`t_matvec_body`] compiled for AVX2 (4-lane `f64` vectors, no FMA).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (dispatch only installs this after
    /// `is_x86_feature_detected!("avx2")`); the body is safe code.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_t_matvec(data: &[f64], v: &[f64], out: &mut [f64]) {
        t_matvec_body(data, v, out);
    }

    /// [`add_outer_body`] compiled for AVX2 (4-lane `f64` vectors, no FMA).
    ///
    /// # Safety
    ///
    /// Same as [`avx2_t_matvec`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_add_outer(
        w: &mut [f64],
        alpha: f64,
        g: &[f64],
        r: &[f64],
        s: f64,
    ) -> bool {
        add_outer_body(w, alpha, g, r, s)
    }

    /// AVX2 multiply-add tile: the 4×8 accumulator lives in eight
    /// `__m256d` registers (two per row); each `k` step broadcasts the
    /// four A lanes, loads the eight B lanes, and issues one
    /// `_mm256_mul_pd` + one `_mm256_add_pd` per accumulator — mul and
    /// add deliberately separate so per-element rounding matches the
    /// scalar chain bit for bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (dispatch only installs this after
    /// `is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_mul_add(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        let p = acc.as_mut_ptr() as *mut f64;
        let mut c00 = _mm256_loadu_pd(p);
        let mut c01 = _mm256_loadu_pd(p.add(4));
        let mut c10 = _mm256_loadu_pd(p.add(8));
        let mut c11 = _mm256_loadu_pd(p.add(12));
        let mut c20 = _mm256_loadu_pd(p.add(16));
        let mut c21 = _mm256_loadu_pd(p.add(20));
        let mut c30 = _mm256_loadu_pd(p.add(24));
        let mut c31 = _mm256_loadu_pd(p.add(28));
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..k {
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            let a0 = _mm256_broadcast_sd(&*ap);
            c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
            c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
            let a1 = _mm256_broadcast_sd(&*ap.add(1));
            c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
            c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
            let a2 = _mm256_broadcast_sd(&*ap.add(2));
            c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
            c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
            let a3 = _mm256_broadcast_sd(&*ap.add(3));
            c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
            c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        _mm256_storeu_pd(p, c00);
        _mm256_storeu_pd(p.add(4), c01);
        _mm256_storeu_pd(p.add(8), c10);
        _mm256_storeu_pd(p.add(12), c11);
        _mm256_storeu_pd(p.add(16), c20);
        _mm256_storeu_pd(p.add(20), c21);
        _mm256_storeu_pd(p.add(24), c30);
        _mm256_storeu_pd(p.add(28), c31);
    }

    /// AVX2 subtractive tile: identical walk, `_mm256_sub_pd` epilogue.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (see [`avx2_mul_add`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_mul_sub(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        let p = acc.as_mut_ptr() as *mut f64;
        let mut c00 = _mm256_loadu_pd(p);
        let mut c01 = _mm256_loadu_pd(p.add(4));
        let mut c10 = _mm256_loadu_pd(p.add(8));
        let mut c11 = _mm256_loadu_pd(p.add(12));
        let mut c20 = _mm256_loadu_pd(p.add(16));
        let mut c21 = _mm256_loadu_pd(p.add(20));
        let mut c30 = _mm256_loadu_pd(p.add(24));
        let mut c31 = _mm256_loadu_pd(p.add(28));
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..k {
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            let a0 = _mm256_broadcast_sd(&*ap);
            c00 = _mm256_sub_pd(c00, _mm256_mul_pd(a0, b0));
            c01 = _mm256_sub_pd(c01, _mm256_mul_pd(a0, b1));
            let a1 = _mm256_broadcast_sd(&*ap.add(1));
            c10 = _mm256_sub_pd(c10, _mm256_mul_pd(a1, b0));
            c11 = _mm256_sub_pd(c11, _mm256_mul_pd(a1, b1));
            let a2 = _mm256_broadcast_sd(&*ap.add(2));
            c20 = _mm256_sub_pd(c20, _mm256_mul_pd(a2, b0));
            c21 = _mm256_sub_pd(c21, _mm256_mul_pd(a2, b1));
            let a3 = _mm256_broadcast_sd(&*ap.add(3));
            c30 = _mm256_sub_pd(c30, _mm256_mul_pd(a3, b0));
            c31 = _mm256_sub_pd(c31, _mm256_mul_pd(a3, b1));
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        _mm256_storeu_pd(p, c00);
        _mm256_storeu_pd(p.add(4), c01);
        _mm256_storeu_pd(p.add(8), c10);
        _mm256_storeu_pd(p.add(12), c11);
        _mm256_storeu_pd(p.add(16), c20);
        _mm256_storeu_pd(p.add(20), c21);
        _mm256_storeu_pd(p.add(24), c30);
        _mm256_storeu_pd(p.add(28), c31);
    }

    /// SSE2 tile, one output row at a time: row `i` holds four `__m128d`
    /// accumulators (nine live xmm registers per pass, within the 16 the
    /// ISA offers), re-streaming the B panel per row from L1. Separate
    /// `_mm_mul_pd` + `_mm_add_pd`, so per-element rounding matches
    /// scalar. SSE2 is baseline on `x86_64` — always available.
    ///
    /// # Safety
    ///
    /// SSE2 is part of the `x86_64` baseline; the intrinsics themselves
    /// impose no extra requirement beyond the panel invariants checked by
    /// `panel_depth`.
    pub(super) unsafe fn sse2_mul_add(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        for (row, accr) in acc.iter_mut().enumerate() {
            let p = accr.as_mut_ptr();
            let mut c0 = _mm_loadu_pd(p);
            let mut c1 = _mm_loadu_pd(p.add(2));
            let mut c2 = _mm_loadu_pd(p.add(4));
            let mut c3 = _mm_loadu_pd(p.add(6));
            let mut ap = a_panel.as_ptr().add(row);
            let mut bp = b_panel.as_ptr();
            for _ in 0..k {
                let a = _mm_set1_pd(*ap);
                c0 = _mm_add_pd(c0, _mm_mul_pd(a, _mm_loadu_pd(bp)));
                c1 = _mm_add_pd(c1, _mm_mul_pd(a, _mm_loadu_pd(bp.add(2))));
                c2 = _mm_add_pd(c2, _mm_mul_pd(a, _mm_loadu_pd(bp.add(4))));
                c3 = _mm_add_pd(c3, _mm_mul_pd(a, _mm_loadu_pd(bp.add(6))));
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            _mm_storeu_pd(p, c0);
            _mm_storeu_pd(p.add(2), c1);
            _mm_storeu_pd(p.add(4), c2);
            _mm_storeu_pd(p.add(6), c3);
        }
    }

    /// SSE2 subtractive tile (see [`sse2_mul_add`]).
    ///
    /// # Safety
    ///
    /// Same as [`sse2_mul_add`].
    pub(super) unsafe fn sse2_mul_sub(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        for (row, accr) in acc.iter_mut().enumerate() {
            let p = accr.as_mut_ptr();
            let mut c0 = _mm_loadu_pd(p);
            let mut c1 = _mm_loadu_pd(p.add(2));
            let mut c2 = _mm_loadu_pd(p.add(4));
            let mut c3 = _mm_loadu_pd(p.add(6));
            let mut ap = a_panel.as_ptr().add(row);
            let mut bp = b_panel.as_ptr();
            for _ in 0..k {
                let a = _mm_set1_pd(*ap);
                c0 = _mm_sub_pd(c0, _mm_mul_pd(a, _mm_loadu_pd(bp)));
                c1 = _mm_sub_pd(c1, _mm_mul_pd(a, _mm_loadu_pd(bp.add(2))));
                c2 = _mm_sub_pd(c2, _mm_mul_pd(a, _mm_loadu_pd(bp.add(4))));
                c3 = _mm_sub_pd(c3, _mm_mul_pd(a, _mm_loadu_pd(bp.add(6))));
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            _mm_storeu_pd(p, c0);
            _mm_storeu_pd(p.add(2), c1);
            _mm_storeu_pd(p.add(4), c2);
            _mm_storeu_pd(p.add(6), c3);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86_entry {
    //! Safe entry points: the only callers of the `unsafe` kernels above.

    use super::{x86, MR, NR};

    pub(super) fn sse2_mul_add(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; panel lengths are
        // checked inside.
        unsafe { x86::sse2_mul_add(a, b, acc) }
    }

    pub(super) fn sse2_mul_sub(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: as above.
        unsafe { x86::sse2_mul_sub(a, b, acc) }
    }

    pub(super) fn avx2_mul_add(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: the dispatch table only exposes the AVX2 kernel after
        // `is_x86_feature_detected!("avx2")`; panel lengths are checked
        // inside.
        unsafe { x86::avx2_mul_add(a, b, acc) }
    }

    pub(super) fn avx2_mul_sub(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: as above.
        unsafe { x86::avx2_mul_sub(a, b, acc) }
    }

    pub(super) fn avx2_t_matvec(data: &[f64], v: &[f64], out: &mut [f64]) {
        // SAFETY: AVX2 detected before dispatch installs this entry; the
        // body is safe code.
        unsafe { x86::avx2_t_matvec(data, v, out) }
    }

    pub(super) fn avx2_add_outer(w: &mut [f64], alpha: f64, g: &[f64], r: &[f64], s: f64) -> bool {
        // SAFETY: as above.
        unsafe { x86::avx2_add_outer(w, alpha, g, r, s) }
    }
}

// ---------------------------------------------------------------------------
// aarch64 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{panel_depth, MR, NR};
    use std::arch::aarch64::*;

    /// NEON multiply-add tile: the 4×8 accumulator lives in sixteen
    /// `float64x2_t` registers (four per row, all resident in the 32-reg
    /// file); each `k` step broadcasts the four A lanes, loads the eight B
    /// lanes, and issues one `vmulq_f64` + one `vaddq_f64` per accumulator
    /// — never `vfmaq`, so per-element rounding matches scalar bit for
    /// bit. NEON is baseline on `aarch64`.
    ///
    /// # Safety
    ///
    /// NEON is part of the `aarch64` baseline; panel invariants are
    /// checked by `panel_depth`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_mul_add(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        let p = acc.as_mut_ptr() as *mut f64;
        let mut c: [float64x2_t; 16] = [
            vld1q_f64(p),
            vld1q_f64(p.add(2)),
            vld1q_f64(p.add(4)),
            vld1q_f64(p.add(6)),
            vld1q_f64(p.add(8)),
            vld1q_f64(p.add(10)),
            vld1q_f64(p.add(12)),
            vld1q_f64(p.add(14)),
            vld1q_f64(p.add(16)),
            vld1q_f64(p.add(18)),
            vld1q_f64(p.add(20)),
            vld1q_f64(p.add(22)),
            vld1q_f64(p.add(24)),
            vld1q_f64(p.add(26)),
            vld1q_f64(p.add(28)),
            vld1q_f64(p.add(30)),
        ];
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..k {
            let b0 = vld1q_f64(bp);
            let b1 = vld1q_f64(bp.add(2));
            let b2 = vld1q_f64(bp.add(4));
            let b3 = vld1q_f64(bp.add(6));
            for row in 0..MR {
                let a = vdupq_n_f64(*ap.add(row));
                c[row * 4] = vaddq_f64(c[row * 4], vmulq_f64(a, b0));
                c[row * 4 + 1] = vaddq_f64(c[row * 4 + 1], vmulq_f64(a, b1));
                c[row * 4 + 2] = vaddq_f64(c[row * 4 + 2], vmulq_f64(a, b2));
                c[row * 4 + 3] = vaddq_f64(c[row * 4 + 3], vmulq_f64(a, b3));
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (i, v) in c.into_iter().enumerate() {
            vst1q_f64(p.add(i * 2), v);
        }
    }

    /// NEON subtractive tile (`vsubq_f64` epilogue; see [`neon_mul_add`]).
    ///
    /// # Safety
    ///
    /// Same as [`neon_mul_add`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_mul_sub(a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = panel_depth(a_panel, b_panel);
        let p = acc.as_mut_ptr() as *mut f64;
        let mut c: [float64x2_t; 16] = [
            vld1q_f64(p),
            vld1q_f64(p.add(2)),
            vld1q_f64(p.add(4)),
            vld1q_f64(p.add(6)),
            vld1q_f64(p.add(8)),
            vld1q_f64(p.add(10)),
            vld1q_f64(p.add(12)),
            vld1q_f64(p.add(14)),
            vld1q_f64(p.add(16)),
            vld1q_f64(p.add(18)),
            vld1q_f64(p.add(20)),
            vld1q_f64(p.add(22)),
            vld1q_f64(p.add(24)),
            vld1q_f64(p.add(26)),
            vld1q_f64(p.add(28)),
            vld1q_f64(p.add(30)),
        ];
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..k {
            let b0 = vld1q_f64(bp);
            let b1 = vld1q_f64(bp.add(2));
            let b2 = vld1q_f64(bp.add(4));
            let b3 = vld1q_f64(bp.add(6));
            for row in 0..MR {
                let a = vdupq_n_f64(*ap.add(row));
                c[row * 4] = vsubq_f64(c[row * 4], vmulq_f64(a, b0));
                c[row * 4 + 1] = vsubq_f64(c[row * 4 + 1], vmulq_f64(a, b1));
                c[row * 4 + 2] = vsubq_f64(c[row * 4 + 2], vmulq_f64(a, b2));
                c[row * 4 + 3] = vsubq_f64(c[row * 4 + 3], vmulq_f64(a, b3));
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (i, v) in c.into_iter().enumerate() {
            vst1q_f64(p.add(i * 2), v);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm_entry {
    //! Safe entry points: the only callers of the `unsafe` kernels above.

    use super::{arm, MR, NR};

    pub(super) fn neon_mul_add(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: NEON is part of the aarch64 baseline; panel lengths are
        // checked inside.
        unsafe { arm::neon_mul_add(a, b, acc) }
    }

    pub(super) fn neon_mul_sub(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // SAFETY: as above.
        unsafe { arm::neon_mul_sub(a, b, acc) }
    }
}

// ---------------------------------------------------------------------------
// The dispatch table.
// ---------------------------------------------------------------------------

static SCALAR: Kernel = Kernel {
    kind: KernelKind::Scalar,
    mul_add: scalar_mul_add,
    mul_sub: scalar_mul_sub,
    t_matvec: t_matvec_body,
    add_outer: add_outer_body,
};

#[cfg(target_arch = "x86_64")]
static SSE2: Kernel = Kernel {
    kind: KernelKind::Sse2,
    mul_add: x86_entry::sse2_mul_add,
    mul_sub: x86_entry::sse2_mul_sub,
    t_matvec: t_matvec_body,
    add_outer: add_outer_body,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernel = Kernel {
    kind: KernelKind::Avx2,
    mul_add: x86_entry::avx2_mul_add,
    mul_sub: x86_entry::avx2_mul_sub,
    t_matvec: x86_entry::avx2_t_matvec,
    add_outer: x86_entry::avx2_add_outer,
};

#[cfg(target_arch = "aarch64")]
static NEON: Kernel = Kernel {
    kind: KernelKind::Neon,
    mul_add: arm_entry::neon_mul_add,
    mul_sub: arm_entry::neon_mul_sub,
    t_matvec: t_matvec_body,
    add_outer: add_outer_body,
};

/// Looks a kernel up by kind, returning `None` when it is not compiled
/// into this build (wrong architecture) or its ISA extension was not
/// detected on this host. Detection runs once per kind (the `std`
/// detection macro caches internally).
pub fn kernel(kind: KernelKind) -> Option<&'static Kernel> {
    match kind {
        KernelKind::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Sse2 => Some(&SSE2),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => is_x86_feature_detected!("avx2").then_some(&AVX2),
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => Some(&NEON),
        _ => None,
    }
}

/// Every kernel available on this host and build, best first. The first
/// entry is what detection-based dispatch selects.
pub fn available() -> Vec<&'static Kernel> {
    let order = [
        KernelKind::Avx2,
        KernelKind::Neon,
        KernelKind::Sse2,
        KernelKind::Scalar,
    ];
    order.into_iter().filter_map(kernel).collect()
}

/// The process default: `DFR_KERNEL` if set (panicking on an unknown or
/// unavailable value — a differential-CI override must never silently
/// fall back), otherwise the best detected kernel.
fn default_kernel() -> &'static Kernel {
    static DEFAULT: OnceLock<&'static Kernel> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("DFR_KERNEL") {
            let v = v.trim();
            if !v.is_empty() {
                let kind = KernelKind::parse(v).unwrap_or_else(|| {
                    panic!(
                        "DFR_KERNEL={v}: unknown kernel; expected one of {}",
                        KernelKind::ALL.map(KernelKind::name).join("/")
                    )
                });
                return kernel(kind).unwrap_or_else(|| {
                    panic!(
                        "DFR_KERNEL={v}: kernel unavailable on this host/build \
                         (available: {})",
                        available()
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join("/")
                    )
                });
            }
        }
        *available().first().expect("scalar is always available")
    })
}

/// Process-wide override installed by [`set_kernel`]; 0 means unset,
/// otherwise `KernelKind::ALL` index + 1.
static GLOBAL_KERNEL: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Thread-local override installed by [`with_kernel`]; same encoding
    /// as [`GLOBAL_KERNEL`].
    static LOCAL_KERNEL: Cell<u8> = const { Cell::new(0) };
}

/// Decodes an override cell (index + 1 into [`KernelKind::ALL`]).
/// Overrides are validated against [`kernel`] before being stored, so the
/// lookup cannot fail.
fn decode(code: u8) -> &'static Kernel {
    let kind = KernelKind::ALL[(code - 1) as usize];
    kernel(kind).expect("override was validated when installed")
}

/// Validates an override and returns its cell encoding.
fn encode(kind: KernelKind) -> u8 {
    assert!(
        kernel(kind).is_some(),
        "kernel {} unavailable on this host/build (available: {})",
        kind.name(),
        available()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join("/")
    );
    let idx = KernelKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("ALL contains every kind");
    (idx + 1) as u8
}

/// The kernel products started from this thread will use.
///
/// Resolution order: [`with_kernel`] override → [`set_kernel`] override →
/// `DFR_KERNEL` → best detected kernel.
pub fn active() -> &'static Kernel {
    let local = LOCAL_KERNEL.with(Cell::get);
    if local != 0 {
        return decode(local);
    }
    let global = GLOBAL_KERNEL.load(Ordering::Relaxed);
    if global != 0 {
        return decode(global);
    }
    default_kernel()
}

/// Runs `f` with products resolved from this thread pinned to `kind`,
/// restoring the previous setting afterwards — the scoped, race-free form
/// differential tests use (mirrors [`dfr_pool::with_threads`]).
///
/// Products resolve their kernel at entry on the calling thread and carry
/// it into their parallel bands, so the override covers a directly-called
/// product's whole fan-out. It does **not** reach products issued from
/// inside pool workers (nested parallelism); pin
/// `dfr_pool::with_threads(1, …)` around such flows or use [`set_kernel`]
/// / `DFR_KERNEL` for whole-process runs.
///
/// # Panics
///
/// Panics if `kind` is unavailable on this host/build.
///
/// # Example
///
/// ```
/// use dfr_linalg::kernels::{active, with_kernel, KernelKind};
///
/// let name = with_kernel(KernelKind::Scalar, || active().name());
/// assert_eq!(name, "scalar");
/// ```
pub fn with_kernel<R>(kind: KernelKind, f: impl FnOnce() -> R) -> R {
    /// Restores the previous override even when `f` unwinds (property-test
    /// harnesses catch panics and keep running on the same thread).
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_KERNEL.with(|c| c.set(self.0));
        }
    }
    let code = encode(kind);
    let _restore = Restore(LOCAL_KERNEL.with(|c| c.replace(code)));
    f()
}

/// Installs (or with `None` clears) the process-wide kernel override.
///
/// Intended for binaries translating a `--kernel` flag and for end-to-end
/// flows whose products run inside pool workers; tests should prefer the
/// scoped, race-free [`with_kernel`]. Note the same caveat as
/// `dfr_pool::set_threads`: the override is briefly visible to anything
/// else running in the process — harmless, since every kernel is
/// bit-identical by contract.
///
/// # Panics
///
/// Panics if `kind` is unavailable on this host/build.
pub fn set_kernel(kind: Option<KernelKind>) {
    let code = match kind {
        Some(k) => encode(k),
        None => 0,
    };
    GLOBAL_KERNEL.store(code, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-element reference for one microkernel invocation.
    fn reference(a: &[f64], b: &[f64], k: usize, seed: &[[f64; NR]; MR], sub: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..MR {
            for j in 0..NR {
                let mut acc = seed[i][j];
                for kk in 0..k {
                    let term = a[kk * MR + i] * b[kk * NR + j];
                    if sub {
                        acc -= term;
                    } else {
                        acc += term;
                    }
                }
                out.push(acc);
            }
        }
        out
    }

    fn panels(k: usize) -> (Vec<f64>, Vec<f64>, [[f64; NR]; MR]) {
        let a: Vec<f64> = (0..k * MR).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..k * NR).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut seed = [[0.0; NR]; MR];
        for (i, row) in seed.iter_mut().enumerate() {
            for (j, s) in row.iter_mut().enumerate() {
                *s = ((i * NR + j) as f64 * 0.11).sin();
            }
        }
        (a, b, seed)
    }

    #[test]
    fn every_strict_kernel_matches_the_scalar_chain_bitwise() {
        for k in [0usize, 1, 5, 63, 64, 65] {
            let (a, b, seed) = panels(k);
            for kern in available() {
                let mut add = seed;
                (kern.mul_add)(&a, &b, &mut add);
                let want_add = reference(&a, &b, k, &seed, false);
                let mut sub = seed;
                (kern.mul_sub)(&a, &b, &mut sub);
                let want_sub = reference(&a, &b, k, &seed, true);
                for i in 0..MR {
                    for j in 0..NR {
                        assert_eq!(
                            add[i][j].to_bits(),
                            want_add[i * NR + j].to_bits(),
                            "{} mul_add k={k} tile ({i},{j})",
                            kern.name()
                        );
                        assert_eq!(
                            sub[i][j].to_bits(),
                            want_sub[i * NR + j].to_bits(),
                            "{} mul_sub k={k} tile ({i},{j})",
                            kern.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parse_and_names_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
            assert_eq!(
                KernelKind::parse(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(KernelKind::parse("avx512"), None);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(kernel(KernelKind::Scalar).is_some());
        assert!(!available().is_empty());
    }

    #[test]
    fn with_kernel_overrides_and_restores() {
        let before = active().kind();
        with_kernel(KernelKind::Scalar, || {
            assert_eq!(active().kind(), KernelKind::Scalar);
            // Nested overrides stack.
            with_kernel(KernelKind::Scalar, || {
                assert_eq!(active().kind(), KernelKind::Scalar);
            });
        });
        assert_eq!(active().kind(), before);
    }

    #[test]
    fn set_kernel_is_visible_and_clearable() {
        // Run on a scratch thread (global override is process-visible;
        // kernels are interchangeable by contract, but keep the
        // window minimal — mirrors the bench `apply_threads` test).
        std::thread::spawn(|| {
            set_kernel(Some(KernelKind::Scalar));
            assert_eq!(active().kind(), KernelKind::Scalar);
            set_kernel(None);
        })
        .join()
        .unwrap();
    }
}
