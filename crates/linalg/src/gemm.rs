//! Register-tiled, panel-packed GEMM microkernels — the product core every
//! dense kernel in the workspace routes through.
//!
//! # Architecture (`DESIGN.md` §10)
//!
//! The BLIS-style decomposition splits a product `C = A·B` into three
//! layers:
//!
//! 1. **Packing.** Both operands are copied once into panel-major buffers:
//!    `A` into [`MR`]-row panels (`a_pack[panel][k][lane]`, lanes
//!    contiguous per `k` step) and `B` into [`NR`]-column panels
//!    (`b_pack[panel][k][lane]`). Packing linearises the strided and
//!    transposed access patterns of `matmul`/`t_matmul`/`matmul_t`/Gram
//!    into the one layout the microkernel streams sequentially, and costs
//!    `O(mk + kn)` against the `O(mkn)` arithmetic it accelerates.
//! 2. **Tiling over `m` and `n` only.** The output is walked in
//!    `MR × NR` register tiles, grouped into [`K_BLOCK`]-column blocks so
//!    a B panel stays cache-resident while a band of A panels streams
//!    over it. The `k` dimension is **never** split: each tile accumulates
//!    over the full `k` range before it is stored.
//! 3. **The microkernel.** An `MR × NR` accumulator lives entirely in
//!    locals; every `k` step loads `MR` contiguous A lanes and `NR`
//!    contiguous B lanes and performs the `MR·NR` independent
//!    multiply-adds. Independent accumulator lanes give the compiler
//!    straight-line vectorisable code with no loop-carried dependency
//!    *between* lanes — where the old scalar kernels read, modified and
//!    wrote every output element from memory on each `k` step.
//!
//! # Bit-identity (the `DESIGN.md` §8 contract)
//!
//! Per output element the accumulation order is exactly the scalar
//! reference's: `k` ascending, one `mul` + one `add` per step (never
//! fused), starting from `+0.0`. Register-resident intermediates round
//! identically to memory-resident ones, so every packed result is bitwise
//! equal to the naive `i-k-j` loop — and therefore banding the output
//! rows over [`dfr_pool`] workers (heights rounded to [`MR`] so bands
//! align with A panels) cannot change a single bit. Ragged edges are
//! handled by zero-padding the packed panels and masking the stores:
//! padded lanes accumulate exact zeros that are never written back.
//!
//! The subtractive variant (`mul_sub` in the kernel table) powers the
//! blocked Cholesky trailing update: the tile is *loaded* into the
//! accumulator, each `l[i][k]·l[j][k]` term is subtracted individually in
//! ascending `k`, and the tile is stored back — the same per-element
//! subtraction chain as the unblocked left-looking loop.
//!
//! The microkernel bodies themselves live in [`crate::kernels`]
//! (`DESIGN.md` §13): a runtime-dispatched table of scalar, SSE2, AVX2
//! and NEON implementations of the same `MR × NR` tile pass. The band
//! drivers here take the selected [`Kernel`] as a parameter, so one
//! resolution at product entry covers the whole parallel fan-out.

use crate::kernels::Kernel;

/// Rows per A panel / register-tile height.
pub const MR: usize = 4;

/// Columns per B panel / register-tile width.
pub const NR: usize = 8;

/// Columns per cache block of B panels: one block of a ~1000-row `f64`
/// operand is ~512 KiB, sized so it stays L2-resident while a band of A
/// panels streams over it. Must be a multiple of [`NR`]; it never splits
/// `k`, so it cannot affect results.
pub const K_BLOCK: usize = 64;

const _: () = assert!(K_BLOCK % NR == 0);

/// Reusable panel-packing buffers for the microkernel family.
///
/// The only home for packing panels: every `_into` product form
/// ([`crate::Matrix::matmul_into`] and friends) takes one, and keeps
/// packing allocation-free once the buffers reach their workload
/// high-water mark — the workspace convention of `DESIGN.md` §9. Packing
/// overwrites every lane it later reads, so one workspace may be reused
/// across shapes and kernels.
#[derive(Debug, Clone, Default)]
pub struct GemmWorkspace {
    pub(crate) a_pack: Vec<f64>,
    pub(crate) b_pack: Vec<f64>,
}

impl GemmWorkspace {
    /// An empty workspace; buffers grow lazily to their high-water mark.
    pub fn new() -> Self {
        GemmWorkspace::default()
    }
}

/// Scratch buffers carry no identity: two workspaces are always equal, so
/// types embedding one (training workspaces, ridge scratch) keep
/// value-equality semantics on their actual data.
impl PartialEq for GemmWorkspace {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Packs an `m × k` left operand into [`MR`]-row panels:
/// `buf[panel*k*MR + kk*MR + lane] = src(panel*MR + lane, kk)`, zero-padded
/// past `m` so edge tiles multiply exact zeros into discarded lanes.
pub(crate) fn pack_a(buf: &mut Vec<f64>, m: usize, k: usize, src: impl Fn(usize, usize) -> f64) {
    let panels = m.div_ceil(MR);
    buf.resize(panels * k * MR, 0.0);
    for p in 0..panels {
        let i0 = p * MR;
        let h = MR.min(m - i0);
        let panel = &mut buf[p * k * MR..(p + 1) * k * MR];
        for (kk, slot) in panel.chunks_exact_mut(MR).enumerate() {
            for (lane, s) in slot.iter_mut().enumerate() {
                *s = if lane < h { src(i0 + lane, kk) } else { 0.0 };
            }
        }
    }
}

/// Packs a `k × n` right operand into [`NR`]-column panels:
/// `buf[panel*k*NR + kk*NR + lane] = src(kk, panel*NR + lane)`, zero-padded
/// past `n`.
pub(crate) fn pack_b(buf: &mut Vec<f64>, n: usize, k: usize, src: impl Fn(usize, usize) -> f64) {
    let panels = n.div_ceil(NR);
    buf.resize(panels * k * NR, 0.0);
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let panel = &mut buf[p * k * NR..(p + 1) * k * NR];
        for (kk, slot) in panel.chunks_exact_mut(NR).enumerate() {
            for (lane, s) in slot.iter_mut().enumerate() {
                *s = if lane < w { src(kk, j0 + lane) } else { 0.0 };
            }
        }
    }
}

/// Computes one band of output rows of `C = A·B` from packed panels with
/// the selected microkernel, overwriting `out_band` (`rows_here × n`,
/// row-major). `a_band` must hold exactly this band's A panels — bands
/// produced by the MR-rounded pool split always start on a panel boundary.
pub(crate) fn gemm_band(
    out_band: &mut [f64],
    rows_here: usize,
    n: usize,
    k: usize,
    a_band: &[f64],
    b_pack: &[f64],
    kernel: &Kernel,
) {
    let m_panels = rows_here.div_ceil(MR);
    let mut jc = 0;
    while jc < n {
        let jc_end = (jc + K_BLOCK).min(n);
        for pi in 0..m_panels {
            let i0 = pi * MR;
            let h = MR.min(rows_here - i0);
            let a_panel = &a_band[pi * k * MR..(pi + 1) * k * MR];
            let mut j0 = jc;
            while j0 < jc_end {
                let w = NR.min(n - j0);
                let b_panel = &b_pack[(j0 / NR) * k * NR..(j0 / NR + 1) * k * NR];
                let mut acc = [[0.0; NR]; MR];
                (kernel.mul_add)(a_panel, b_panel, &mut acc);
                for (lane, accr) in acc.iter().enumerate().take(h) {
                    let row = &mut out_band[(i0 + lane) * n + j0..][..w];
                    row.copy_from_slice(&accr[..w]);
                }
                j0 += NR;
            }
        }
        jc = jc_end;
    }
}

/// Computes one band of rows of a symmetric `n × n` product, writing only
/// the lower triangle (`j ≤ i`). `first_row` is the band's first global
/// row (a multiple of [`MR`] under the rounded triangular banding);
/// `a_pack` holds **all** `n` rows' panels so the band can index its
/// panels globally, and `b_pack` all `n` column panels. Tiles straddling
/// the diagonal compute their full `MR × NR` block and store only the
/// lower part — discarded lanes cost a few multiplies, never a bit.
pub(crate) fn gemm_band_lower(
    out_band: &mut [f64],
    first_row: usize,
    n: usize,
    k: usize,
    a_pack: &[f64],
    b_pack: &[f64],
    kernel: &Kernel,
) {
    let rows_here = out_band.len() / n;
    debug_assert_eq!(first_row % MR, 0, "triangular bands must align to MR");
    let m_panels = rows_here.div_ceil(MR);
    let band_i_max = first_row + rows_here - 1;
    let mut jc = 0;
    while jc <= band_i_max {
        let jc_end = (jc + K_BLOCK).min(n);
        for pi in 0..m_panels {
            let i0 = pi * MR;
            let g0 = first_row + i0;
            let h = MR.min(rows_here - i0);
            let i_max = g0 + h - 1;
            if jc > i_max {
                continue;
            }
            let gp = g0 / MR;
            let a_panel = &a_pack[gp * k * MR..(gp + 1) * k * MR];
            let mut j0 = jc;
            while j0 < jc_end && j0 <= i_max {
                let b_panel = &b_pack[(j0 / NR) * k * NR..(j0 / NR + 1) * k * NR];
                let mut acc = [[0.0; NR]; MR];
                (kernel.mul_add)(a_panel, b_panel, &mut acc);
                for (lane, accr) in acc.iter().enumerate().take(h) {
                    let i = g0 + lane;
                    if j0 > i {
                        continue;
                    }
                    let w = (i + 1 - j0).min(NR).min(n - j0);
                    let row = &mut out_band[(i0 + lane) * n + j0..][..w];
                    row.copy_from_slice(&accr[..w]);
                }
                j0 += NR;
            }
        }
        jc = jc_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_pads_edges_with_zeros() {
        let mut buf = Vec::new();
        // 5 rows → 2 panels, second panel has 3 padded lanes.
        pack_a(&mut buf, 5, 2, |i, k| (i * 10 + k) as f64);
        assert_eq!(buf.len(), 2 * 2 * MR);
        // Panel 0, k = 0: rows 0..4.
        assert_eq!(&buf[..4], &[0.0, 10.0, 20.0, 30.0]);
        // Panel 1, k = 1: row 4 then padding.
        assert_eq!(&buf[2 * 2 * MR - 4..], &[41.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_b_pads_edges_with_zeros() {
        let mut buf = Vec::new();
        // 9 cols → 2 panels, second panel has 7 padded lanes.
        pack_b(&mut buf, 9, 1, |k, j| (k * 100 + j) as f64);
        assert_eq!(buf.len(), 2 * NR);
        assert_eq!(buf[8], 8.0);
        assert!(buf[9..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn microkernel_matches_scalar_tile() {
        use crate::kernels::{scalar_mul_add, scalar_mul_sub};
        let k = 5;
        let a: Vec<f64> = (0..k * MR).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..k * NR).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut acc = [[0.0; NR]; MR];
        scalar_mul_add(&a, &b, &mut acc);
        for (ii, accr) in acc.iter().enumerate() {
            for (jj, &got) in accr.iter().enumerate() {
                let mut want = 0.0;
                for kk in 0..k {
                    want += a[kk * MR + ii] * b[kk * NR + jj];
                }
                assert_eq!(got.to_bits(), want.to_bits(), "tile ({ii},{jj})");
            }
        }
        let mut sub = acc;
        scalar_mul_sub(&a, &b, &mut sub);
        for (ii, row) in sub.iter().enumerate() {
            for (jj, &got) in row.iter().enumerate() {
                let mut want = acc[ii][jj];
                for kk in 0..k {
                    want -= a[kk * MR + ii] * b[kk * NR + jj];
                }
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn workspaces_compare_equal() {
        let mut a = GemmWorkspace::new();
        let b = GemmWorkspace::new();
        pack_a(&mut a.a_pack, 3, 3, |_, _| 1.0);
        assert_eq!(a, b, "scratch contents must not affect equality");
    }
}
