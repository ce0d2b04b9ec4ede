//! Skyline (Pareto frontier) computation.
//!
//! The skyline is the set of points not dominated by any other point. It is
//! the shared preprocessing step of every algorithm in the paper: for any
//! monotone utility function the skyline contains a best point, so regret
//! ratios measured against the skyline equal those measured against the
//! full database.
//!
//! Four algorithms are provided: block-nested-loop ([`skyline_bnl`]),
//! sort-filter skyline ([`skyline_sfs`], usually much faster because
//! high-volume points are promoted to the comparison window early), and
//! dedicated `O(n log n)` sweeps for two ([`skyline_2d`]) and three
//! ([`skyline_3d`]) dimensions. All four return the same set.

use std::collections::BTreeMap;

use fam_core::Dataset;

use crate::dominance::{dom_compare, DomOrdering};

/// Order key of one coordinate: the bit pattern of `v + 0.0`. Dataset
/// coordinates are finite and non-negative, and for those the bit pattern
/// orders exactly as the value does; adding `0.0` folds `-0.0` (which
/// compares equal to `0.0`, so neither dominates the other) onto `0.0`.
#[inline]
fn coord_key(v: f64) -> u64 {
    (v + 0.0).to_bits()
}

/// Coordinate keys of every point, tagged with the point id and sorted
/// lexicographically descending — so a dominator always precedes every
/// point it dominates, and exact duplicates are adjacent.
fn sorted_keys<const D: usize>(dataset: &Dataset) -> Vec<([u64; D], usize)> {
    let mut keys: Vec<([u64; D], usize)> = dataset
        .points()
        .enumerate()
        .map(|(i, p)| (std::array::from_fn(|c| coord_key(p[c])), i))
        .collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys
}

/// Block-nested-loop skyline. Returns the indices of skyline points,
/// ascending. Duplicate (coordinate-identical) points are all kept: by
/// Definition 6 of dominance, equal points do not dominate each other.
pub fn skyline_bnl(dataset: &Dataset) -> Vec<usize> {
    let mut window: Vec<usize> = Vec::new();
    'outer: for i in 0..dataset.len() {
        let p = dataset.point(i);
        let mut w = 0;
        while w < window.len() {
            match dom_compare(dataset.point(window[w]), p) {
                DomOrdering::Dominates => continue 'outer,
                DomOrdering::DominatedBy => {
                    window.swap_remove(w);
                }
                DomOrdering::Equal | DomOrdering::Incomparable => w += 1,
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

/// Sort-filter skyline: points are processed in descending order of their
/// coordinate sum, which guarantees that a point can only be dominated by
/// points already in the window, so nothing is ever evicted.
///
/// Sums that tie (rounding can tie a dominator's sum with the sum of a point
/// it dominates) are broken by the coordinates, lexicographically
/// descending: a dominator is at least as large in every coordinate and
/// larger in one, so it always sorts strictly first.
pub fn skyline_sfs(dataset: &Dataset) -> Vec<usize> {
    let all: Vec<usize> = (0..dataset.len()).collect();
    skyline_sfs_subset(dataset, &all)
}

/// [`skyline_sfs`] over the `candidates` subset of `dataset`'s points:
/// the candidates no other candidate dominates, as ascending point ids.
///
/// # Panics
///
/// Panics if a candidate id is out of bounds.
pub fn skyline_sfs_subset(dataset: &Dataset, candidates: &[usize]) -> Vec<usize> {
    // Sums of non-negative coordinates are non-negative, so their keys
    // order as the sums do.
    let sums: Vec<u64> =
        candidates.iter().map(|&i| coord_key(dataset.point(i).iter().sum::<f64>())).collect();
    let key = |at: usize| dataset.point(candidates[at]).iter().map(|&v| coord_key(v));
    let mut by_sum: Vec<usize> = (0..candidates.len()).collect();
    by_sum.sort_by(|&a, &b| sums[b].cmp(&sums[a]).then_with(|| key(b).cmp(key(a))));
    let order = by_sum.into_iter().map(|at| candidates[at]);
    let mut window: Vec<usize> = Vec::new();
    'outer: for i in order {
        let p = dataset.point(i);
        for &w in &window {
            if dom_compare(dataset.point(w), p) == DomOrdering::Dominates {
                continue 'outer;
            }
        }
        window.push(i);
    }
    window.sort_unstable();
    window
}

/// Dedicated 2-D skyline via a single sorted sweep: sort by first dimension
/// descending (second descending as tie-break) and keep points whose second
/// dimension strictly exceeds the running maximum — plus exact duplicates
/// of kept points, which are mutually non-dominating.
///
/// # Panics
///
/// Panics if the dataset is not 2-dimensional.
pub fn skyline_2d(dataset: &Dataset) -> Vec<usize> {
    assert_eq!(dataset.dim(), 2, "skyline_2d requires a 2-dimensional dataset");
    let mut best_y: Option<u64> = None;
    sweep(sorted_keys::<2>(dataset), |[_, y]| {
        if best_y.is_some_and(|b| b >= y) {
            return false;
        }
        best_y = Some(y);
        true
    })
}

/// Dedicated 3-D skyline via a sorted sweep: sort by `x` descending (then
/// `y`, then `z`) and keep a staircase of the `(y, z)` projections of the
/// kept points in a `BTreeMap` (`y` ascending, `z` strictly descending).
/// Every earlier point has an `x` at least as large and differs from the
/// current one, so the current point is dominated exactly when some step
/// has `y' ≥ y` and `z' ≥ z` — and the first step at `y' ≥ y` carries the
/// largest such `z'`. Exact duplicates of kept points are kept.
/// `O(n log n)`.
///
/// # Panics
///
/// Panics if the dataset is not 3-dimensional.
pub fn skyline_3d(dataset: &Dataset) -> Vec<usize> {
    assert_eq!(dataset.dim(), 3, "skyline_3d requires a 3-dimensional dataset");
    let mut stairs: BTreeMap<u64, u64> = BTreeMap::new();
    sweep(sorted_keys::<3>(dataset), |[_, y, z]| {
        if stairs.range(y..).next().is_some_and(|(_, &z2)| z2 >= z) {
            return false;
        }
        // Drop the steps the new point covers (`y' ≤ y`, `z' ≤ z`): they
        // sit just below `y`, where `z'` rises as `y'` falls.
        while let Some((&y2, _)) = stairs.range(..=y).next_back().filter(|(_, &z2)| z2 <= z) {
            stairs.remove(&y2);
        }
        stairs.insert(y, z);
        true
    })
}

/// The shared sweep over lexicographically descending keys: `admit` decides
/// the first point of each group of exact duplicates (every earlier point
/// is strictly greater, so "some earlier point is at least as large in the
/// remaining coordinates" means "dominated"); the rest of the group shares
/// its verdict. Returns the kept ids ascending.
fn sweep<const D: usize>(
    keys: Vec<([u64; D], usize)>,
    mut admit: impl FnMut([u64; D]) -> bool,
) -> Vec<usize> {
    let mut result = Vec::new();
    let mut prev: Option<([u64; D], bool)> = None;
    for (key, i) in keys {
        let kept = match prev {
            Some((k, kept)) if k == key => kept,
            _ => admit(key),
        };
        if kept {
            result.push(i);
        }
        prev = Some((key, kept));
    }
    result.sort_unstable();
    result
}

/// Computes the skyline with the asymptotically best algorithm for the
/// dimensionality (the sorted sweeps when `d` is 2 or 3, SFS otherwise).
pub fn skyline(dataset: &Dataset) -> Vec<usize> {
    match dataset.dim() {
        2 => skyline_2d(dataset),
        3 => skyline_3d(dataset),
        _ => skyline_sfs(dataset),
    }
}

/// For each point of `dataset`, the list of point indices it dominates.
/// `O(n·m·d)` where `m` is the number of `candidates`; used by the SKY-DOM
/// baseline with `candidates` = the skyline.
pub fn dominated_sets(dataset: &Dataset, candidates: &[usize]) -> Vec<Vec<usize>> {
    candidates
        .iter()
        .map(|&c| {
            let pc = dataset.point(c);
            (0..dataset.len())
                .filter(|&j| j != c && crate::dominance::dominates(pc, dataset.point(j)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(rows: Vec<Vec<f64>>) -> Dataset {
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn all_algorithms_agree_on_simple_case() {
        let d = ds(vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.6, 0.6],
            vec![0.5, 0.5], // dominated by (0.6, 0.6)
            vec![0.2, 0.9],
        ]);
        let expected = vec![0, 1, 2, 4];
        assert_eq!(skyline_bnl(&d), expected);
        assert_eq!(skyline_sfs(&d), expected);
        assert_eq!(skyline_2d(&d), expected);
        assert_eq!(skyline(&d), expected);
    }

    #[test]
    fn duplicates_are_all_kept() {
        let d = ds(vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![0.5, 0.5]]);
        assert_eq!(skyline_bnl(&d), vec![0, 1]);
        assert_eq!(skyline_sfs(&d), vec![0, 1]);
        assert_eq!(skyline_2d(&d), vec![0, 1]);
    }

    #[test]
    fn single_point_is_its_own_skyline() {
        let d = ds(vec![vec![0.3, 0.7]]);
        assert_eq!(skyline(&d), vec![0]);
    }

    #[test]
    fn totally_ordered_chain_keeps_only_top() {
        let d = ds(vec![vec![1.0, 1.0], vec![0.9, 0.9], vec![0.8, 0.8]]);
        assert_eq!(skyline_bnl(&d), vec![0]);
        assert_eq!(skyline_sfs(&d), vec![0]);
        assert_eq!(skyline_2d(&d), vec![0]);
    }

    #[test]
    fn anti_correlated_keeps_everything() {
        let d = ds(vec![vec![1.0, 0.0], vec![0.75, 0.25], vec![0.5, 0.5], vec![0.0, 1.0]]);
        assert_eq!(skyline_bnl(&d), vec![0, 1, 2, 3]);
        assert_eq!(skyline_2d(&d), vec![0, 1, 2, 3]);
    }

    #[test]
    fn higher_dimensional_skyline() {
        let d = ds(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.4, 0.4, 0.4],
            vec![0.3, 0.3, 0.3], // dominated
        ]);
        assert_eq!(skyline_bnl(&d), vec![0, 1, 2, 3]);
        assert_eq!(skyline_sfs(&d), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ties_in_first_dim_2d() {
        // (1, 2) is dominated by (1, 3).
        let d = ds(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![2.0, 1.0]]);
        assert_eq!(skyline_2d(&d), vec![1, 2]);
        assert_eq!(skyline_bnl(&d), vec![1, 2]);
    }

    #[test]
    fn bnl_and_sfs_agree_on_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(1..80);
            let dim = rng.gen_range(1..5);
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
            let d = ds(rows);
            let a = skyline_bnl(&d);
            let b = skyline_sfs(&d);
            assert_eq!(a, b);
            assert_eq!(a, skyline(&d));
            if dim == 2 {
                assert_eq!(a, skyline_2d(&d));
            }
            if dim == 3 {
                assert_eq!(a, skyline_3d(&d));
            }
        }
    }

    #[test]
    fn sfs_breaks_rounding_ties_of_the_sum_by_coordinates() {
        // 1e16 + 1 rounds to 1e16, so both sums tie although the second
        // point dominates the first; index order used to decide.
        let d = ds(vec![vec![1e16, 0.0, 0.0], vec![1e16, 1.0, 0.0]]);
        assert_eq!(skyline_bnl(&d), vec![1]);
        assert_eq!(skyline_sfs(&d), vec![1]);
        assert_eq!(skyline(&d), vec![1]);
        let d4 = ds(vec![vec![1e16, 0.0, 0.0, 0.0], vec![1e16, 0.0, 1.0, 0.0]]);
        assert_eq!(skyline_bnl(&d4), vec![1]);
        assert_eq!(skyline_sfs(&d4), vec![1]);
        assert_eq!(skyline(&d4), vec![1]);
        // The subset form (the reducers' path) shares the order.
        let d5 = ds(vec![vec![0.0; 3], vec![1e16, 0.0, 0.0], vec![1e16, 1.0, 0.0]]);
        assert_eq!(skyline_sfs_subset(&d5, &[0, 1, 2]), vec![2]);
        assert_eq!(skyline_sfs_subset(&d5, &[0, 1]), vec![1]);
    }

    #[test]
    fn negative_zero_equals_zero_in_every_algorithm() {
        // (-0, 2) dominates (0, 1): the coordinates compare equal in x.
        let d = ds(vec![vec![0.0, 1.0], vec![-0.0, 2.0], vec![1.0, 0.0]]);
        assert_eq!(skyline_bnl(&d), vec![1, 2]);
        assert_eq!(skyline_sfs(&d), vec![1, 2]);
        assert_eq!(skyline_2d(&d), vec![1, 2]);
        let d3 = ds(vec![vec![0.0, 1.0, 0.0], vec![-0.0, 2.0, -0.0], vec![0.0, 2.0, 0.0]]);
        assert_eq!(skyline_bnl(&d3), vec![1, 2]);
        assert_eq!(skyline_sfs(&d3), vec![1, 2]);
        assert_eq!(skyline_3d(&d3), vec![1, 2]);
    }

    #[test]
    fn sweep_3d_handles_staircase_edges() {
        let d = ds(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.4, 0.4, 0.4],
            vec![0.3, 0.3, 0.3], // dominated by (0.4, 0.4, 0.4)
            vec![0.4, 0.4, 0.4], // duplicate of a kept point
            vec![0.2, 0.4, 0.4], // same (y, z) as a larger-x point: dominated
            vec![0.5, 0.5, 0.0], // covers (0.4, 0.4, *) only partly
            vec![0.0, 0.6, 0.6],
            vec![0.0, 0.6, 0.5], // dominated through a later-inserted step
        ]);
        let expected = vec![0, 1, 2, 3, 5, 7, 8];
        assert_eq!(skyline_bnl(&d), expected);
        assert_eq!(skyline_3d(&d), expected);
        assert_eq!(skyline(&d), expected);
    }

    #[test]
    fn sweeps_match_bnl_on_tie_heavy_grids() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for case in 0..600 {
            let dim = 2 + case % 3;
            let n = rng.gen_range(1..60);
            let levels = rng.gen_range(1..5u32);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| f64::from(rng.gen_range(0..=levels))).collect())
                .collect();
            let d = ds(rows);
            let reference = skyline_bnl(&d);
            assert_eq!(skyline(&d), reference, "case {case}");
            assert_eq!(skyline_sfs(&d), reference, "case {case}");
            match dim {
                2 => assert_eq!(skyline_2d(&d), reference, "case {case}"),
                3 => assert_eq!(skyline_3d(&d), reference, "case {case}"),
                _ => {}
            }
        }
    }

    #[test]
    fn dominated_sets_cover_expected() {
        let d = ds(vec![vec![1.0, 0.8], vec![0.5, 0.5], vec![0.2, 0.9], vec![0.1, 0.1]]);
        let sky = skyline(&d);
        assert_eq!(sky, vec![0, 2]);
        let sets = dominated_sets(&d, &sky);
        assert_eq!(sets[0], vec![1, 3]); // (1,0.8) dominates (0.5,0.5) and (0.1,0.1)
        assert_eq!(sets[1], vec![3]); // (0.2,0.9) dominates (0.1,0.1)
    }
}
