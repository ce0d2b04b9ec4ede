//! Cache-blocked, fixed-width-lane numeric kernels — the shared hot-path
//! substrate behind [`crate::scores`], [`crate::evaluator`],
//! [`crate::linear_scores`], and the greedy solvers.
//!
//! Every dense pass in the workspace is one of four stream shapes:
//!
//! * **dot products** over a point's coordinates ([`dot`],
//!   [`linear_score_row`], [`linear_best`], [`linear_max_columns`]) — the
//!   `O(nN)` scoring pass;
//! * **row argmax** ([`row_best`], [`validate_row_best`]) — the per-sample
//!   best-point pass, fused with validation;
//! * **ordered folds** ([`lane_sum`], [`lane_max`]) — the evaluator's
//!   `arr` refold and addition/candidate sweeps;
//! * **top-two scans** ([`top_two_gather`], [`top_two_dense`]) — the
//!   evaluator's removal rescans;
//!
//! plus the cache-blocked transposes ([`transpose_band`],
//! [`transpose_into`], [`transpose`]) that maintain the point-major
//! mirror. Centralizing them here keeps the floating-point *shape* of
//! each pass single-sourced, which is what the bit-identity contract
//! (serial × parallel × mirrored/mirrorless all bit-equal, see
//! [`crate::par`]) actually pins.
//!
//! # Determinism model
//!
//! Results are deterministic **within one compiled binary**: every kernel
//! fixes its lane decomposition and combine order, independent of thread
//! count or layout. Results may differ by ~1 ulp *across* binaries
//! compiled for different targets, because [`fmadd`] lowers to a fused
//! multiply-add only where the target has one (see its docs) — the
//! workspace never compares floats across builds, only within a run.
//!
//! The full memory-layout and performance model is documented in
//! `docs/PERFORMANCE.md` at the repository root.

/// Accumulator lanes per kernel. Four independent 64-bit lanes fill one
/// AVX2 vector and give superscalar FMA units enough independent chains
/// on any x86-64/aarch64 core; changing it changes the floating-point
/// grouping of every lane-decomposed reduction (see [`lane_sum`]).
pub const LANES: usize = 4;

/// Element tile processed per blocked-kernel step — small enough that a
/// scored tile is still L1-resident when the fused validate+best pass
/// re-reads it, and the band granularity of the blocked transposes
/// (64 × 64 doubles = two 32 KiB half-tiles).
pub const TILE: usize = 64;

mod columns;
pub use columns::linear_max_columns;

/// `a * b + acc` with a single rounding where the compilation target has
/// a hardware fused multiply-add, and the plain two-rounding form where
/// it does not (on such targets `f64::mul_add` is a *libm call* — an
/// order of magnitude slower than the thing it replaces).
///
/// Both forms are deterministic; they just differ from each other by at
/// most one rounding. Every bit-identity pin in the workspace compares
/// values produced by the same binary, so the `cfg` never makes a test
/// outcome target-dependent.
#[inline(always)]
pub fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(any(target_feature = "fma", target_arch = "aarch64")))]
    {
        acc + a * b
    }
}

/// The canonical dot product: a serial [`fmadd`] chain over the shorter
/// of the two slices.
///
/// Everything that scores a linear utility goes through this exact
/// arithmetic shape — [`crate::LinearUtility`], the fused matrix scoring
/// pass ([`linear_score_row`]), and the compact
/// [`crate::LinearScores`] substrate — so a score computed on demand is
/// bit-identical to the same score materialized in a matrix.
///
/// ```
/// let w = [0.25, 0.75];
/// let p = [1.0, 1.0];
/// assert_eq!(fam_core::kernels::dot(&w, &p), 1.0);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        acc = fmadd(*x, *y, acc);
    }
    acc
}

/// Why a row failed validation: the first offending element in element
/// order, classified. Returned by [`validate_row_best`]; callers add
/// their own row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowIssue {
    /// `row[col]` is NaN or infinite.
    NonFinite {
        /// Element offset within the row.
        col: usize,
    },
    /// `row[col]` is finite but negative.
    Negative {
        /// Element offset within the row.
        col: usize,
    },
}

/// One tile's maximum and validity. The max is computed over `LANES`
/// independent `f64::max` lanes (exact — `max` performs no arithmetic),
/// the validity flag is a branchless conjunction of
/// `v >= 0.0 && v <= f64::MAX`, which rejects exactly NaN, `±inf`, and
/// negatives. NaN never poisons the max (`f64::max` ignores it); a tile
/// containing one always reports `ok == false`, so the max is only
/// consumed for valid tiles.
// Not `RangeInclusive::contains`: the mask is a deliberate non-short-
// circuit `&` conjunction so the lane loop stays branch-free.
#[allow(clippy::manual_range_contains)]
#[inline]
fn tile_max_ok(tile: &[f64]) -> (f64, bool) {
    let mut lanes = [f64::NEG_INFINITY; LANES];
    let mut ok = true;
    let mut i = 0;
    while i + LANES <= tile.len() {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let v = tile[i + l];
            ok &= (v >= 0.0) & (v <= f64::MAX);
            *lane = lane.max(v);
        }
        i += LANES;
    }
    while i < tile.len() {
        let v = tile[i];
        ok &= (v >= 0.0) & (v <= f64::MAX);
        lanes[0] = lanes[0].max(v);
        i += 1;
    }
    ((lanes[0].max(lanes[1])).max(lanes[2].max(lanes[3])), ok)
}

/// Position of the first element equal to `target` in `tile` — exact
/// comparison, used to recover the first-argmax position from a lane max.
#[inline]
fn first_position(tile: &[f64], target: f64) -> usize {
    tile.iter().position(|&v| v == target).expect("lane max is an element of the tile")
}

/// First strict argmax of a non-empty row: the index of the **first**
/// occurrence of the row's maximum, exactly what a serial
/// `if v > best { ... }` scan keeps.
///
/// The row must contain no NaN (validated rows always qualify); `±0.0`
/// compare equal, so a `-0.0` first occurrence wins over a later `+0.0`
/// just as in the serial scan.
///
/// ```
/// assert_eq!(fam_core::kernels::row_best(&[0.3, 0.9, 0.9, 0.1]), (1, 0.9));
/// ```
///
/// # Panics
///
/// Panics on an empty row.
#[inline]
pub fn row_best(row: &[f64]) -> (u32, f64) {
    assert!(!row.is_empty(), "row_best on an empty row");
    let (mut bi, mut bv) = (0u32, f64::NEG_INFINITY);
    let mut t0 = 0;
    while t0 < row.len() {
        let t1 = (t0 + TILE).min(row.len());
        let tile = &row[t0..t1];
        let (tmax, _) = tile_max_ok(tile);
        if tmax > bv {
            bi = (t0 + first_position(tile, tmax)) as u32;
            bv = tmax;
        }
        t0 = t1;
    }
    (bi, bv)
}

/// Fused validate + first-strict-argmax over one score row — the
/// per-sample half of the paper's preprocessing, in a single pass.
///
/// Streams the row once in [`TILE`]-element tiles; each tile folds a
/// branchless validity mask and a lane max, and only a failing tile pays
/// for the scalar rescan that locates and classifies the first offending
/// element. The returned argmax is identical to the serial
/// first-strict-argmax scan ([`row_best`]); note that a best value of
/// `0.0` is *valid* here — degenerate-row rejection is the caller's
/// (row-index-aware) concern.
///
/// # Errors
///
/// Returns the first offending element in element order: [`RowIssue::NonFinite`]
/// for NaN/`±inf`, [`RowIssue::Negative`] for finite negatives.
pub fn validate_row_best(row: &[f64]) -> Result<(u32, f64), RowIssue> {
    debug_assert!(!row.is_empty(), "validate_row_best on an empty row");
    let (mut bi, mut bv) = (0u32, f64::NEG_INFINITY);
    let mut t0 = 0;
    while t0 < row.len() {
        let t1 = (t0 + TILE).min(row.len());
        let tile = &row[t0..t1];
        let (tmax, ok) = tile_max_ok(tile);
        if !ok {
            // Earlier tiles were clean, so the row's first offending
            // element lives in this tile.
            for (j, &v) in tile.iter().enumerate() {
                if !(0.0..=f64::MAX).contains(&v) {
                    let col = t0 + j;
                    return Err(if v.is_finite() {
                        RowIssue::Negative { col }
                    } else {
                        RowIssue::NonFinite { col }
                    });
                }
            }
            unreachable!("tile failed the mask but every element passed it");
        }
        if tmax > bv {
            bi = (t0 + first_position(tile, tmax)) as u32;
            bv = tmax;
        }
        t0 = t1;
    }
    Ok((bi, bv))
}

/// Fused score + validate + best over one linear-utility row: writes
/// `out[p] = dot(weights, point_p)` for every point and returns
/// `(best_index, best_value, all_valid)` from the same pass.
///
/// `points` is the dataset's flat row-major coordinate buffer (point `p`
/// occupies `points[p * dim .. (p + 1) * dim]`). Points are scored
/// eight (`SCORE_UNROLL`) at a time with one independent accumulator chain per
/// point — each chain performs *exactly* the [`fmadd`] sequence of
/// [`dot`], so every written score is bit-identical to an on-demand
/// `dot(weights, point)` — then each finished [`TILE`] is folded for
/// validity and max while still L1-resident. Dimensions up to 8 are
/// compile-time specialized so the chains fully unroll with the weights
/// in registers.
///
/// When `all_valid` is `false`, call [`validate_row_best`] on the written
/// row to locate and classify the first offending element; the returned
/// best is meaningful only for valid rows.
///
/// # Panics
///
/// Panics if `weights.len() != dim` or `points.len() != out.len() * dim`.
pub fn linear_score_row(
    weights: &[f64],
    points: &[f64],
    dim: usize,
    out: &mut [f64],
) -> (u32, f64, bool) {
    assert_eq!(points.len(), out.len() * dim, "flat coordinate buffer does not match the row");
    assert_eq!(weights.len(), dim, "weight vector does not match the coordinate dimension");
    match dim {
        1 => score_row::<1>(weights, points, out),
        2 => score_row::<2>(weights, points, out),
        3 => score_row::<3>(weights, points, out),
        4 => score_row::<4>(weights, points, out),
        5 => score_row::<5>(weights, points, out),
        6 => score_row::<6>(weights, points, out),
        7 => score_row::<7>(weights, points, out),
        8 => score_row::<8>(weights, points, out),
        _ => score_row_dyn(weights, points, dim, out, fill_tile_dyn),
    }
}

/// Independent accumulator chains kept in flight by the scoring pass.
/// Wider than [`LANES`]: the dot products are latency-bound fmadd chains,
/// and more chains hide more latency. Safe for bit-identity because each
/// point's chain is independent — the chain *count* never changes any
/// chain's op sequence.
const SCORE_UNROLL: usize = 8;

/// [`linear_score_row`] with the dimension as a compile-time constant, so
/// the per-point fmadd chain fully unrolls, the weight vector stays in
/// registers, and the coordinate indexing needs one bounds check per
/// [`SCORE_UNROLL`] block.
#[inline(always)]
fn score_row<const D: usize>(weights: &[f64], points: &[f64], out: &mut [f64]) -> (u32, f64, bool) {
    score_row_dyn(weights, points, D, out, fill_tile::<D>)
}

/// The shared tile skeleton: fill each [`TILE`] of scores with `fill`,
/// then fold validity and the first-strict-argmax while the tile is still
/// L1-resident.
#[inline(always)]
fn score_row_dyn(
    weights: &[f64],
    points: &[f64],
    dim: usize,
    out: &mut [f64],
    fill: impl Fn(&[f64], &[f64], &mut [f64]),
) -> (u32, f64, bool) {
    let n = out.len();
    let (mut bi, mut bv, mut ok) = (0u32, f64::NEG_INFINITY, true);
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + TILE).min(n);
        fill(weights, &points[t0 * dim..t1 * dim], &mut out[t0..t1]);
        let tile = &out[t0..t1];
        let (tmax, tok) = tile_max_ok(tile);
        ok &= tok;
        if tmax > bv {
            bi = (t0 + first_position(tile, tmax)) as u32;
            bv = tmax;
        }
        t0 = t1;
    }
    (bi, bv, ok)
}

/// Scores one span of points ([`SCORE_UNROLL`] chains in flight), `D`
/// known at compile time. Every chain performs exactly [`dot`]'s fmadd
/// sequence over coordinates `0..D`, so each written score is bit-equal
/// to `dot(weights, point)`.
#[inline(always)]
fn fill_tile<const D: usize>(weights: &[f64], pts: &[f64], out: &mut [f64]) {
    let w: &[f64; D] = weights.try_into().expect("dispatch guarantees weights.len() == D");
    let mut p = 0;
    let n = out.len();
    while p + SCORE_UNROLL <= n {
        let block = &pts[p * D..(p + SCORE_UNROLL) * D];
        let mut acc = [0.0f64; SCORE_UNROLL];
        for i in 0..D {
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = fmadd(w[i], block[l * D + i], *lane);
            }
        }
        out[p..p + SCORE_UNROLL].copy_from_slice(&acc);
        p += SCORE_UNROLL;
    }
    while p < n {
        out[p] = dot(w, &pts[p * D..(p + 1) * D]);
        p += 1;
    }
}

/// Runtime-dimension fallback of [`fill_tile`] for `dim > 8`: same chain
/// shape, [`LANES`] points in flight.
fn fill_tile_dyn(weights: &[f64], pts: &[f64], out: &mut [f64]) {
    let dim = weights.len();
    let mut p = 0;
    let n = out.len();
    while p + LANES <= n {
        let base = p * dim;
        let mut acc = [0.0f64; LANES];
        for (i, &w) in weights.iter().enumerate() {
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = fmadd(w, pts[base + l * dim + i], *lane);
            }
        }
        out[p..p + LANES].copy_from_slice(&acc);
        p += LANES;
    }
    while p < n {
        out[p] = dot(weights, &pts[p * dim..(p + 1) * dim]);
        p += 1;
    }
}

/// First-strict-argmax of `dot(weights, point_p)` over all points of a
/// flat coordinate buffer, **without** materializing the scores — the
/// kernel behind [`crate::LinearScores`]' `O(d(N + n))`-space best-point
/// pass. Scores stream through a [`TILE`]-sized stack buffer; each score
/// is bit-identical to [`dot`] on the same pair, so the result matches
/// [`linear_score_row`]'s best exactly.
///
/// # Panics
///
/// Panics if `dim == 0`, `weights.len() != dim`, or `points.len()` is not
/// a multiple of `dim`.
pub fn linear_best(weights: &[f64], points: &[f64], dim: usize) -> (u32, f64) {
    assert!(dim > 0, "points must have at least one coordinate");
    assert_eq!(points.len() % dim, 0, "flat coordinate buffer must be a whole number of points");
    let n = points.len() / dim;
    let mut buf = [0.0f64; TILE];
    let (mut bi, mut bv) = (0u32, f64::NEG_INFINITY);
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + TILE).min(n);
        let tile = &mut buf[..t1 - t0];
        let (tbi, tbv, _) = linear_score_row(weights, &points[t0 * dim..t1 * dim], dim, tile);
        if tbv > bv {
            bi = t0 as u32 + tbi;
            bv = tbv;
        }
        t0 = t1;
    }
    (bi, bv)
}

/// Sentinel point index meaning "no point" in the top-two kernels.
pub const NO_POINT: u32 = u32::MAX;

/// Best and runner-up scores of one sample row over an explicit member
/// list (a *gather*: `members` need not be sorted — the scan order is the
/// list order), skipping `exclude` (pass [`NO_POINT`] to skip nothing).
/// Returned values are `0.0` when the corresponding index is
/// [`NO_POINT`].
///
/// On bit-equal ties the recorded *indices* follow the scan order, so
/// they may differ from [`top_two_dense`]'s; the returned *values* are
/// order statistics of the same multiset and always agree bit-for-bit.
#[inline]
pub fn top_two_gather(row: &[f64], members: &[u32], exclude: u32) -> (u32, f64, u32, f64) {
    let (mut b1, mut v1, mut b2, mut v2) = (NO_POINT, 0.0f64, NO_POINT, 0.0f64);
    for &p in members {
        if p == exclude {
            continue;
        }
        let s = row[p as usize];
        if b1 == NO_POINT || s > v1 {
            b2 = b1;
            v2 = v1;
            b1 = p;
            v1 = s;
        } else if b2 == NO_POINT || s > v2 {
            b2 = p;
            v2 = s;
        }
    }
    (b1, if b1 == NO_POINT { 0.0 } else { v1 }, b2, if b2 == NO_POINT { 0.0 } else { v2 })
}

/// [`top_two_gather`] for *dense* selections: streams the whole row in
/// index order and keeps the members flagged in `in_sel`. When the
/// selection covers a large fraction of the points this trades the
/// member-list gather (random access within each row once removals have
/// scrambled the list) for a sequential prefetchable read — the
/// GREEDY-SHRINK removal-rescan shape.
///
/// Values are bit-identical to the gather variant on the same selection;
/// tie indices follow index order (see [`top_two_gather`]).
///
/// # Panics
///
/// Panics if `row` is shorter than `in_sel`.
#[inline]
pub fn top_two_dense(row: &[f64], in_sel: &[bool], exclude: u32) -> (u32, f64, u32, f64) {
    let (mut b1, mut v1, mut b2, mut v2) = (NO_POINT, 0.0f64, NO_POINT, 0.0f64);
    for (p, &selected) in in_sel.iter().enumerate() {
        if !selected || p as u32 == exclude {
            continue;
        }
        let s = row[p];
        if b1 == NO_POINT || s > v1 {
            b2 = b1;
            v2 = v1;
            b1 = p as u32;
            v1 = s;
        } else if b2 == NO_POINT || s > v2 {
            b2 = p as u32;
            v2 = s;
        }
    }
    (b1, if b1 == NO_POINT { 0.0 } else { v1 }, b2, if b2 == NO_POINT { 0.0 } else { v2 })
}

/// Sum of `f(0) + f(1) + … + f(n-1)` over [`LANES`] independent
/// accumulators: lane `l` owns indices `≡ l (mod LANES)` (the tail
/// spills into the low lanes) and the lanes combine as
/// `(a0 + a1) + (a2 + a3)`.
///
/// This *is* the canonical grouping: any two call sites folding the same
/// terms through `lane_sum` produce bit-identical sums, which is how the
/// evaluator keeps its incremental `arr` equal to a rebuild's. The
/// grouping deliberately differs from a serial left fold — callers pin
/// against each other, never against a serial reference.
///
/// ```
/// use fam_core::kernels::lane_sum;
/// let v = [1.5, 2.5, 3.5, 4.5, 5.5];
/// // lanes: (1.5 + 5.5), 2.5, 3.5, 4.5 → (7.0 + 2.5) + (3.5 + 4.5)
/// assert_eq!(lane_sum(v.len(), |i| v[i]), 17.5);
/// ```
#[inline]
pub fn lane_sum<F: FnMut(usize) -> f64>(n: usize, mut f: F) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut i = 0;
    while i + LANES <= n {
        for (l, lane) in acc.iter_mut().enumerate() {
            *lane += f(i + l);
        }
        i += LANES;
    }
    let mut l = 0;
    while i < n {
        acc[l] += f(i);
        i += 1;
        l += 1;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Maximum of `init` and `f(0), …, f(n-1)` over [`LANES`] lanes. `max`
/// performs no arithmetic, so unlike [`lane_sum`] the result is
/// **bit-identical to the serial fold** for NaN-free inputs (up to the
/// sign of a zero when `±0.0` tie, which no caller observes) — safe to
/// drop into existing scans without re-pinning anything.
#[inline]
pub fn lane_max<F: FnMut(usize) -> f64>(init: f64, n: usize, mut f: F) -> f64 {
    let mut acc = [init; LANES];
    let mut i = 0;
    while i + LANES <= n {
        for (l, lane) in acc.iter_mut().enumerate() {
            *lane = lane.max(f(i + l));
        }
        i += LANES;
    }
    let mut l = 0;
    while i < n {
        acc[l] = acc[l].max(f(i));
        i += 1;
        l += 1;
    }
    (acc[0].max(acc[1])).max(acc[2].max(acc[3]))
}

/// Cache-blocked transpose of one band of columns: rows `0..n_rows` of
/// `src` (physical row width `src_stride`) land at
/// `out[local * dst_col_stride + dst_offset + u]` for band-local column
/// `local` (absolute column `first_col + local`). Row blocks of [`TILE`]
/// samples keep both the source rows and the destination columns
/// cache-resident. Shared by the mirror construction, the in-slack
/// sample append, and the mirror re-lay pass.
#[allow(clippy::too_many_arguments)]
pub fn transpose_band(
    src: &[f64],
    n_rows: usize,
    src_stride: usize,
    out: &mut [f64],
    dst_col_stride: usize,
    dst_offset: usize,
    first_col: usize,
    band: usize,
) {
    for u0 in (0..n_rows).step_by(TILE) {
        let u1 = (u0 + TILE).min(n_rows);
        for local in 0..band {
            let p = first_col + local;
            let col = &mut out[local * dst_col_stride..(local + 1) * dst_col_stride];
            for u in u0..u1 {
                col[dst_offset + u] = src[u * src_stride + p];
            }
        }
    }
}

/// Cache-blocked transpose of `n_rows` sample-major rows (physical row
/// width `src_stride`) into per-column segments of `dst`: row `u`,
/// column `p` lands at `dst[p * dst_col_stride + dst_offset + u]`.
/// Parallelized over bands of whole columns (`dst.len()` must be a
/// multiple of `dst_col_stride`); bands never go below [`TILE`] columns
/// — a one-column band would degenerate the blocked transpose into a
/// cache miss per element.
pub fn transpose_into(
    src: &[f64],
    n_rows: usize,
    src_stride: usize,
    dst: &mut [f64],
    dst_col_stride: usize,
    dst_offset: usize,
) {
    let cols_per_chunk = (crate::par::CHUNK / dst_col_stride.max(1)).max(TILE);
    crate::par::for_each_chunk_mut(dst, cols_per_chunk * dst_col_stride, |chunk, out| {
        let first_col = chunk * cols_per_chunk;
        let band = out.len() / dst_col_stride;
        transpose_band(src, n_rows, src_stride, out, dst_col_stride, dst_offset, first_col, band);
    });
}

/// Cache-blocked transpose of a sample-major `n_samples × n_points`
/// buffer (physical row width `stride`) into a tight point-major mirror.
pub fn transpose(scores: &[f64], n_samples: usize, n_points: usize, stride: usize) -> Vec<f64> {
    let mut columns = vec![0.0f64; n_samples * n_points];
    transpose_into(scores, n_samples, stride, &mut columns, n_samples, 0);
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sizes straddling every kernel boundary: the empty-adjacent cases,
    /// the lane width, and the tile width ± 1.
    fn edge_sizes() -> Vec<usize> {
        vec![1, 2, LANES - 1, LANES, LANES + 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3]
    }

    fn serial_first_argmax(row: &[f64]) -> (u32, f64) {
        let (mut bi, mut bv) = (0usize, row[0]);
        for (i, &v) in row.iter().enumerate().skip(1) {
            if v > bv {
                bi = i;
                bv = v;
            }
        }
        (bi as u32, bv)
    }

    /// The naive three-pass reference the fused kernels replace:
    /// element validation in element order, then a serial argmax.
    fn naive_three_pass(row: &[f64]) -> Result<(u32, f64), RowIssue> {
        for (col, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(RowIssue::NonFinite { col });
            }
            if v < 0.0 {
                return Err(RowIssue::Negative { col });
            }
        }
        Ok(serial_first_argmax(row))
    }

    #[test]
    fn dot_exact_cases() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[0.5, 2.0], &[2.0, 0.25]), 1.5);
        // Shorter slice bounds the iteration, either way around.
        assert_eq!(dot(&[1.0, 1.0], &[3.0]), 3.0);
        assert_eq!(dot(&[3.0], &[1.0, 1.0]), 3.0);
    }

    #[test]
    fn row_best_keeps_first_strict_max_across_tile_boundaries() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in edge_sizes() {
            // Coarse quantization forces plenty of exact ties.
            let row: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64 / 8.0).collect();
            assert_eq!(row_best(&row), serial_first_argmax(&row), "n = {n}, row = {row:?}");
        }
        // A tie straddling a tile boundary must keep the earlier index.
        let mut row = vec![0.1; TILE + 4];
        row[TILE - 1] = 0.9;
        row[TILE + 1] = 0.9;
        assert_eq!(row_best(&row), (TILE as u32 - 1, 0.9));
    }

    #[test]
    fn validate_row_best_matches_naive_three_pass() {
        let mut rng = StdRng::seed_from_u64(12);
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25, -0.0, 0.0];
        for trial in 0..500 {
            let n = edge_sizes()[trial % edge_sizes().len()];
            let mut row: Vec<f64> = (0..n).map(|_| rng.gen_range(0..16) as f64 / 16.0).collect();
            // Sprinkle up to three special values at random positions.
            for _ in 0..rng.gen_range(0..4) {
                row[rng.gen_range(0..n)] = specials[rng.gen_range(0..specials.len())];
            }
            let got = validate_row_best(&row);
            let want = naive_three_pass(&row);
            match (got, want) {
                (Ok((gi, gv)), Ok((wi, wv))) => {
                    assert_eq!(gi, wi, "trial {trial}: index, row = {row:?}");
                    assert_eq!(gv.to_bits(), wv.to_bits(), "trial {trial}: value");
                }
                (g, w) => assert_eq!(g, w, "trial {trial}: error, row = {row:?}"),
            }
        }
    }

    #[test]
    fn linear_score_row_is_bitwise_dot_per_element() {
        let mut rng = StdRng::seed_from_u64(13);
        // 1–8 take the const-specialized fill, 9 and 12 the dynamic one.
        for dim in [1usize, 3, 4, 7, 8, 9, 12] {
            for n in edge_sizes() {
                let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let flat: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let mut out = vec![0.0; n];
                let (bi, bv, ok) = linear_score_row(&w, &flat, dim, &mut out);
                assert!(ok);
                for p in 0..n {
                    let want = dot(&w, &flat[p * dim..(p + 1) * dim]);
                    assert_eq!(
                        out[p].to_bits(),
                        want.to_bits(),
                        "dim {dim}, n {n}, point {p}: fused score must equal dot"
                    );
                }
                assert_eq!((bi, bv), serial_first_argmax(&out), "dim {dim}, n {n}: fused best");
                let (ci, cv) = linear_best(&w, &flat, dim);
                assert_eq!((ci, cv.to_bits()), (bi, bv.to_bits()), "linear_best must agree");
                let columns = transpose(&flat, n, dim, dim);
                let mut mv = [0.0];
                linear_max_columns(&[&w], &columns, n, &mut mv);
                assert_eq!(mv[0].to_bits(), bv.to_bits(), "dim {dim}, n {n}: max-only pass");
            }
        }
    }

    #[test]
    fn linear_max_columns_is_the_max_of_dot_per_point() {
        let mut rng = StdRng::seed_from_u64(29);
        // Sizes straddle the unroll width and (for small dims) the point
        // tile; 9 and 11 take the runtime-dimension fallback.
        for dim in [1usize, 2, 5, 6, 8, 9, 11] {
            for n in [0usize, 1, 7, 8, 9, 17, 200, 3 * 1024 + 5] {
                let ws: Vec<Vec<f64>> =
                    (0..3).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
                let flat: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let columns = if n == 0 { Vec::new() } else { transpose(&flat, n, dim, dim) };
                let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
                let mut got = vec![0.0; ws.len()];
                linear_max_columns(&refs, &columns, n, &mut got);
                for (w, got) in ws.iter().zip(got) {
                    let want = (0..n)
                        .map(|p| dot(w, &flat[p * dim..(p + 1) * dim]))
                        .fold(f64::NEG_INFINITY, f64::max);
                    assert_eq!(got.to_bits(), want.to_bits(), "dim {dim}, n {n}");
                }
            }
        }
        let mut none = [];
        linear_max_columns(&[], &[], 0, &mut none);
    }

    #[test]
    fn linear_score_row_flags_invalid_scores() {
        // A negative coordinate drives one score negative; the fused pass
        // must flag the row and the rescan must locate that element.
        let w = [1.0, 1.0];
        let flat = [0.5, 0.5, 0.25, -0.75, 0.1, 0.2];
        let mut out = vec![0.0; 3];
        let (_, _, ok) = linear_score_row(&w, &flat, 2, &mut out);
        assert!(!ok);
        assert_eq!(validate_row_best(&out), Err(RowIssue::Negative { col: 1 }));
    }

    #[test]
    fn top_two_variants_agree_on_values() {
        let mut rng = StdRng::seed_from_u64(14);
        for trial in 0..200 {
            let n = rng.gen_range(1..2 * TILE);
            let row: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64 / 8.0).collect();
            let mut members: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.6)).collect();
            // Scramble the member list the way swap-removals do.
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..=i));
            }
            let mut in_sel = vec![false; n];
            for &p in &members {
                in_sel[p as usize] = true;
            }
            let exclude = if members.is_empty() || rng.gen_bool(0.3) {
                NO_POINT
            } else {
                members[rng.gen_range(0..members.len())]
            };
            let (g1, gv1, g2, gv2) = top_two_gather(&row, &members, exclude);
            let (d1, dv1, d2, dv2) = top_two_dense(&row, &in_sel, exclude);
            assert_eq!(gv1.to_bits(), dv1.to_bits(), "trial {trial}: top1 value");
            assert_eq!(gv2.to_bits(), dv2.to_bits(), "trial {trial}: top2 value");
            // Indices agree whenever the winning values are untied; on
            // ties both still point at members holding the same value.
            if g1 != d1 {
                assert_eq!(row[g1 as usize].to_bits(), row[d1 as usize].to_bits());
            }
            if g2 != NO_POINT && d2 != NO_POINT && g2 != d2 {
                assert_eq!(row[g2 as usize].to_bits(), row[d2 as usize].to_bits());
            }
        }
    }

    #[test]
    fn top_two_empty_and_singleton() {
        assert_eq!(top_two_gather(&[0.5], &[], NO_POINT), (NO_POINT, 0.0, NO_POINT, 0.0));
        assert_eq!(top_two_gather(&[0.5], &[0], 0), (NO_POINT, 0.0, NO_POINT, 0.0));
        assert_eq!(top_two_gather(&[0.5], &[0], NO_POINT), (0, 0.5, NO_POINT, 0.0));
        assert_eq!(top_two_dense(&[0.5], &[true], NO_POINT), (0, 0.5, NO_POINT, 0.0));
    }

    #[test]
    fn lane_sum_matches_its_documented_grouping() {
        let mut rng = StdRng::seed_from_u64(15);
        for n in edge_sizes() {
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // Reference: explicit lane decomposition.
            let mut acc = [0.0f64; LANES];
            let full = (n / LANES) * LANES;
            for i in 0..full {
                acc[i % LANES] += v[i];
            }
            for (l, i) in (full..n).enumerate() {
                acc[l] += v[i];
            }
            let want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            assert_eq!(lane_sum(n, |i| v[i]).to_bits(), want.to_bits(), "n = {n}");
        }
        assert_eq!(lane_sum(0, |_| 1.0), 0.0);
    }

    #[test]
    fn lane_max_matches_serial_fold() {
        let mut rng = StdRng::seed_from_u64(16);
        for n in edge_sizes() {
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want = v.iter().fold(0.25f64, |m, &x| if x > m { x } else { m });
            assert_eq!(lane_max(0.25, n, |i| v[i]).to_bits(), want.to_bits(), "n = {n}");
        }
        assert_eq!(lane_max(0.5, 0, |_| 9.0), 0.5);
    }

    #[test]
    fn transpose_round_trip_with_stride_and_offset() {
        let mut rng = StdRng::seed_from_u64(17);
        for (n_rows, n_cols) in [(1, 1), (1, 5), (5, 1), (TILE + 3, 3), (7, TILE + 2)] {
            let stride = n_cols + 2; // physical slack
            let mut src = vec![0.0; n_rows * stride];
            for r in 0..n_rows {
                for c in 0..n_cols {
                    src[r * stride + c] = rng.gen_range(0.0..1.0);
                }
            }
            let cs = n_rows + 1; // column slack
            let mut dst = vec![0.0; n_cols * cs];
            transpose_into(&src, n_rows, stride, &mut dst, cs, 0);
            for r in 0..n_rows {
                for c in 0..n_cols {
                    assert_eq!(dst[c * cs + r].to_bits(), src[r * stride + c].to_bits());
                }
            }
            let tight = transpose(&src, n_rows, n_cols, stride);
            for r in 0..n_rows {
                for c in 0..n_cols {
                    assert_eq!(tight[c * n_rows + r].to_bits(), src[r * stride + c].to_bits());
                }
            }
        }
    }
}
