//! Property-based tests for the geometric substrates.

use fam_core::Dataset;
use fam_geometry::{
    dom_compare, dominates, skyline, skyline_2d, skyline_3d, skyline_bnl, skyline_sfs,
    switch_angle, utility_at_angle, BitSet, DomOrdering, Envelope, HALF_PI,
};
use proptest::prelude::*;

fn dataset_strategy(max_n: usize, dim: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, dim), 1..=max_n)
        .prop_map(|rows| Dataset::from_rows(rows).unwrap())
}

/// Tie-heavy datasets: coordinates on a small integer grid, so duplicates
/// and equal coordinates are common.
fn grid_strategy(max_n: usize, dim: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, dim), 1..=max_n).prop_map(|rows| {
        Dataset::from_rows(
            rows.into_iter().map(|r| r.into_iter().map(f64::from).collect()).collect(),
        )
        .unwrap()
    })
}

/// Every skyline algorithm that applies at the dataset's dimension.
fn all_skylines(ds: &Dataset) -> Vec<(&'static str, Vec<usize>)> {
    let mut out =
        vec![("bnl", skyline_bnl(ds)), ("sfs", skyline_sfs(ds)), ("skyline", skyline(ds))];
    match ds.dim() {
        2 => out.push(("2d", skyline_2d(ds))),
        3 => out.push(("3d", skyline_3d(ds))),
        _ => {}
    }
    out
}

/// Soundness: no returned point is dominated by any point.
/// Completeness: every omitted point is dominated by someone.
fn assert_sound_and_complete(ds: &Dataset) {
    for (name, sky) in all_skylines(ds) {
        let in_sky = |i: usize| sky.binary_search(&i).is_ok();
        for i in 0..ds.len() {
            let dominated = (0..ds.len()).any(|j| j != i && dominates(ds.point(j), ds.point(i)));
            if in_sky(i) {
                prop_assert!(!dominated, "{}: skyline point {} is dominated", name, i);
            } else {
                prop_assert!(dominated, "{}: non-skyline point {} is undominated", name, i);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every skyline algorithm is sound and complete, in 2, 3 and 4
    /// dimensions, on continuous and on tie-heavy grid data.
    #[test]
    fn skyline_sound_and_complete(
        cont2 in dataset_strategy(40, 2),
        cont3 in dataset_strategy(40, 3),
        cont4 in dataset_strategy(40, 4),
        grid2 in grid_strategy(40, 2),
        grid3 in grid_strategy(40, 3),
        grid4 in grid_strategy(40, 4),
    ) {
        for ds in [&cont2, &cont3, &cont4, &grid2, &grid3, &grid4] {
            assert_sound_and_complete(ds);
        }
    }

    /// The skyline algorithms agree with each other.
    #[test]
    fn skyline_algorithms_agree(
        d2 in dataset_strategy(60, 2),
        d3 in dataset_strategy(60, 3),
        g3 in grid_strategy(60, 3),
    ) {
        for ds in [&d2, &d3, &g3] {
            let all = all_skylines(ds);
            for (name, sky) in &all[1..] {
                prop_assert_eq!(sky, &all[0].1, "{} disagrees with bnl", name);
            }
        }
    }

    /// Dominance is a strict partial order: irreflexive, asymmetric,
    /// transitive.
    #[test]
    fn dominance_is_strict_partial_order(ds in dataset_strategy(12, 3)) {
        let n = ds.len();
        for i in 0..n {
            prop_assert!(!dominates(ds.point(i), ds.point(i)));
            for j in 0..n {
                if dominates(ds.point(i), ds.point(j)) {
                    prop_assert!(!dominates(ds.point(j), ds.point(i)));
                    for k in 0..n {
                        if dominates(ds.point(j), ds.point(k)) {
                            prop_assert!(dominates(ds.point(i), ds.point(k)));
                        }
                    }
                }
            }
        }
    }

    /// `dom_compare` is consistent with `dominates` in both directions.
    #[test]
    fn dom_compare_consistent(
        a in proptest::collection::vec(0.0f64..1.0, 4),
        b in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        match dom_compare(&a, &b) {
            DomOrdering::Dominates => prop_assert!(dominates(&a, &b)),
            DomOrdering::DominatedBy => prop_assert!(dominates(&b, &a)),
            DomOrdering::Equal => prop_assert_eq!(&a, &b),
            DomOrdering::Incomparable => {
                prop_assert!(!dominates(&a, &b) && !dominates(&b, &a));
            }
        }
    }

    /// The envelope returns a maximizer at every probed angle.
    #[test]
    fn envelope_is_optimal_everywhere(ds in dataset_strategy(30, 2), steps in 1usize..50) {
        let env = Envelope::build(&ds);
        for s in 0..=steps {
            let theta = HALF_PI * s as f64 / steps as f64;
            let best = env.best_at(theta);
            let vb = utility_at_angle(ds.point(best), theta);
            for p in ds.points() {
                prop_assert!(utility_at_angle(p, theta) <= vb + 1e-9);
            }
        }
    }

    /// Switch angles sit exactly at the preference boundary.
    #[test]
    fn switch_angle_is_the_boundary(
        ax in 0.01f64..1.0, ay in 0.0f64..1.0, dx in 0.001f64..0.5, dy in 0.001f64..0.5,
    ) {
        // Construct b with smaller x, larger y.
        let a = [ax + dx, ay];
        let b = [ax, ay + dy];
        let t = switch_angle(&a, &b);
        prop_assert!((0.0..=HALF_PI).contains(&t));
        let ua = utility_at_angle(&a, t);
        let ub = utility_at_angle(&b, t);
        prop_assert!((ua - ub).abs() < 1e-9, "utilities at switch differ: {} vs {}", ua, ub);
    }

    /// Bitset union/gain counts agree with a reference set implementation.
    #[test]
    fn bitset_counts_match_reference(
        xs in proptest::collection::btree_set(0usize..300, 0..40),
        ys in proptest::collection::btree_set(0usize..300, 0..40),
    ) {
        let a = BitSet::from_indices(300, &xs.iter().copied().collect::<Vec<_>>());
        let b = BitSet::from_indices(300, &ys.iter().copied().collect::<Vec<_>>());
        let union: std::collections::BTreeSet<_> = xs.union(&ys).copied().collect();
        prop_assert_eq!(a.union_count(&b), union.len());
        prop_assert_eq!(a.gain_count(&b), ys.difference(&xs).count());
        let ones: Vec<usize> = a.iter_ones().collect();
        prop_assert_eq!(ones, xs.iter().copied().collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The skyline is a property of the point *set*: permuting the input
    /// rows permutes the skyline indices and changes nothing else. The
    /// candidate-reduction layer leans on this — a reduced universe must
    /// not depend on storage order beyond the id relabeling.
    #[test]
    fn skyline_is_invariant_under_input_permutation(
        ds in dataset_strategy(40, 3),
        shift in 1usize..37,
    ) {
        let n = ds.len();
        // A coprime stride visits every slot: perm[new] = old.
        let stride = if n % 37 == 0 { 1 } else { 37 };
        let perm: Vec<usize> = (0..n).map(|i| (shift + i * stride) % n).collect();
        let shuffled =
            Dataset::from_rows(perm.iter().map(|&old| ds.point(old).to_vec()).collect()).unwrap();
        for algo in [skyline_sfs, skyline] {
            let base = algo(&ds);
            let moved = algo(&shuffled);
            // Map the shuffled skyline back into original ids.
            let mut back: Vec<usize> = moved.iter().map(|&new| perm[new]).collect();
            back.sort_unstable();
            prop_assert_eq!(&back, &base);
        }
    }
}
