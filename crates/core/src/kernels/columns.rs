//! The max-only pass of a tiled reduced build: each sample's best score
//! over a coordinate-major copy of the whole database, with nothing
//! stored, validated or argmax-tracked.
//!
//! It lives in its own file because the file split decides how rustc
//! divides `fam-core` into codegen units: the same code grown inside
//! `kernels.rs` changed that split and made the dense `fam solve` path
//! 20–25 % slower in the repository benchmark, although none of its
//! code changed (see `docs/PERFORMANCE.md`).

use super::{fmadd, SCORE_UNROLL, TILE};

/// Coordinates per point tile of [`linear_max_columns`]: 24 KiB, so a
/// tile stays L1-resident while every weight vector of a batch scans it.
const COLUMN_TILE_COORDS: usize = 3 * 1024;

/// For every weight vector `weights[s]`, the largest `dot(weights[s],
/// point_p)` over the `n_points` points of a coordinate-major buffer
/// (`columns[c * n_points + p]` is coordinate `c` of point `p`, see
/// [`transpose`](super::transpose)), written to `out[s]` — the max-only
/// pass a tiled reduced build makes over the whole database. Each score
/// runs exactly [`dot`](super::dot)'s [`fmadd`] chain, so every maximum
/// is bit-identical to the best
/// [`linear_score_row`](super::linear_score_row) reports over the
/// row-major points; but nothing is stored, validated, or
/// argmax-tracked. The points are visited in L1-sized tiles, each
/// scanned by the whole batch before the next is loaded, and
/// consecutive points share each vector load. Zero points give
/// `f64::NEG_INFINITY`.
///
/// # Panics
///
/// Panics if `out.len() != weights.len()`, the weight vectors differ in
/// length, or `columns.len()` is not that length times `n_points`.
pub fn linear_max_columns(weights: &[&[f64]], columns: &[f64], n_points: usize, out: &mut [f64]) {
    assert_eq!(out.len(), weights.len(), "one output per weight vector");
    out.fill(f64::NEG_INFINITY);
    let Some(dim) = weights.first().map(|w| w.len()) else { return };
    assert!(weights.iter().all(|w| w.len() == dim), "weight vectors differ in length");
    assert_eq!(
        columns.len(),
        dim * n_points,
        "coordinate-major buffer does not match the weights and point count"
    );
    let tile = (COLUMN_TILE_COORDS / dim.max(1)).max(TILE);
    let mut t0 = 0;
    while t0 < n_points {
        let t1 = (t0 + tile).min(n_points);
        for (w, best) in weights.iter().zip(out.iter_mut()) {
            let tile_max = match dim {
                1 => max_columns::<1>(w, columns, n_points, t0, t1),
                2 => max_columns::<2>(w, columns, n_points, t0, t1),
                3 => max_columns::<3>(w, columns, n_points, t0, t1),
                4 => max_columns::<4>(w, columns, n_points, t0, t1),
                5 => max_columns::<5>(w, columns, n_points, t0, t1),
                6 => max_columns::<6>(w, columns, n_points, t0, t1),
                7 => max_columns::<7>(w, columns, n_points, t0, t1),
                8 => max_columns::<8>(w, columns, n_points, t0, t1),
                _ => max_columns_dyn(w, columns, n_points, t0, t1),
            };
            *best = keep_greater(*best, tile_max);
        }
        t0 = t1;
    }
}

/// The maximum over points `t0..t1` of [`linear_max_columns`], with the
/// dimension a compile-time constant: [`SCORE_UNROLL`] points per step,
/// one accumulator chain each, folded into per-lane running maxima.
#[inline(always)]
fn max_columns<const D: usize>(
    weights: &[f64],
    columns: &[f64],
    n: usize,
    t0: usize,
    t1: usize,
) -> f64 {
    let w: &[f64; D] = weights.try_into().expect("dispatch guarantees weights.len() == D");
    let cols: [&[f64]; D] = std::array::from_fn(|c| &columns[c * n + t0..c * n + t1]);
    let m = t1 - t0;
    let mut best = [f64::NEG_INFINITY; SCORE_UNROLL];
    let mut p = 0;
    while p + SCORE_UNROLL <= m {
        let mut acc = [0.0f64; SCORE_UNROLL];
        for (c, col) in cols.iter().enumerate() {
            let xs = &col[p..p + SCORE_UNROLL];
            for (lane, &x) in acc.iter_mut().zip(xs) {
                *lane = fmadd(w[c], x, *lane);
            }
        }
        for (b, a) in best.iter_mut().zip(acc) {
            *b = keep_greater(*b, a);
        }
        p += SCORE_UNROLL;
    }
    while p < m {
        let mut acc = 0.0f64;
        for (c, col) in cols.iter().enumerate() {
            acc = fmadd(w[c], col[p], acc);
        }
        best[0] = keep_greater(best[0], acc);
        p += 1;
    }
    let mut max = f64::NEG_INFINITY;
    for b in best {
        max = keep_greater(max, b);
    }
    max
}

/// `v` when it exceeds `best`, else `best` — a NaN `v` is skipped, as
/// `f64::max` skips it, so a running maximum seeded with `-inf` ends on
/// the same value (up to the sign of a zero). Unlike `f64::max`, whose
/// NaN handling on x86 costs a compare and a blend per element, this
/// lowers to a single `maxpd`; [`linear_max_columns`] ran about 2.5×
/// faster with it on the x86-64 benchmark host.
#[inline(always)]
fn keep_greater(best: f64, v: f64) -> f64 {
    if v > best {
        v
    } else {
        best
    }
}

/// Runtime-dimension fallback of [`max_columns`] for `dim > 8`.
fn max_columns_dyn(weights: &[f64], columns: &[f64], n: usize, t0: usize, t1: usize) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for p in t0..t1 {
        let mut acc = 0.0f64;
        for (c, &w) in weights.iter().enumerate() {
            acc = fmadd(w, columns[c * n + p], acc);
        }
        best = keep_greater(best, acc);
    }
    best
}
