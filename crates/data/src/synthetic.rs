//! Synthetic dataset generation following Börzsönyi et al. (the skyline
//! operator paper \[4\]), which the FAM paper uses for all scalability
//! experiments: independent, correlated, and anti-correlated attribute
//! distributions over `[0,1]^d`.

use fam_core::randext::{normal, uniform_simplex_into};
use fam_core::{Dataset, FamError, Result};
use rand::{Rng, RngCore};

/// Attribute correlation structure of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correlation {
    /// Attributes i.i.d. uniform on `[0,1]` — small skylines.
    Independent,
    /// Attributes positively correlated (good points are good everywhere) —
    /// tiny skylines.
    Correlated,
    /// Attributes anti-correlated (points trade one dimension against the
    /// others) — large skylines, the hard case for k-regret queries.
    AntiCorrelated,
}

/// Generates `n` points in `d` dimensions with the given correlation
/// structure; all coordinates lie in `[0,1]`.
///
/// # Errors
///
/// Returns an error when `n == 0` or `d == 0`.
pub fn synthetic(
    n: usize,
    d: usize,
    correlation: Correlation,
    rng: &mut dyn RngCore,
) -> Result<Dataset> {
    if n == 0 {
        return Err(FamError::EmptyDataset);
    }
    if d == 0 {
        return Err(FamError::ZeroDimension);
    }
    let mut data = Vec::with_capacity(n * d);
    let mut simplex = vec![0.0; d];
    for _ in 0..n {
        match correlation {
            Correlation::Independent => {
                for _ in 0..d {
                    data.push(rng.gen_range(0.0..1.0));
                }
            }
            Correlation::Correlated => {
                // A common "quality" level plus small per-dimension jitter.
                let base: f64 = rng.gen_range(0.0..1.0);
                for _ in 0..d {
                    data.push((base + normal(rng, 0.0, 0.05)).clamp(0.0, 1.0));
                }
            }
            Correlation::AntiCorrelated => {
                // Points near the hyperplane sum(x) = d/2: a simplex
                // direction scaled to the plane with jitter. Points that
                // leave the unit box are rescaled (not clamped — clamping
                // would pile mass onto the box faces and create artificial
                // dominators that collapse the skyline).
                // The shell must be thin relative to the directional spread,
                // otherwise inner points are dominated and the skyline
                // collapses to O(log n) as for a region-filling cloud.
                uniform_simplex_into(rng, &mut simplex);
                let level = normal(rng, 0.5, 0.02).clamp(0.35, 0.65);
                let start = data.len();
                let mut max_v = 0.0f64;
                for &s in &simplex {
                    let v = (s * d as f64 * level + normal(rng, 0.0, 0.01)).max(0.0);
                    max_v = max_v.max(v);
                    data.push(v);
                }
                if max_v > 1.0 {
                    for v in &mut data[start..] {
                        *v /= max_v;
                    }
                }
            }
        }
    }
    Dataset::from_flat(data, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_geometry::{skyline, skyline_2d, skyline_3d, skyline_bnl, skyline_sfs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDA7A)
    }

    #[test]
    fn shapes_and_bounds() {
        let mut r = rng();
        for corr in [Correlation::Independent, Correlation::Correlated, Correlation::AntiCorrelated]
        {
            let d = synthetic(500, 4, corr, &mut r).unwrap();
            assert_eq!(d.len(), 500);
            assert_eq!(d.dim(), 4);
            for p in d.points() {
                for &v in p {
                    assert!((0.0..=1.0).contains(&v), "{corr:?}: value {v} out of box");
                }
            }
        }
    }

    #[test]
    fn skyline_size_ordering() {
        // The defining property: |skyline(corr)| < |skyline(indep)| <
        // |skyline(anti)| for equal n, d.
        let mut r = rng();
        let n = 3000;
        let d = 4;
        let corr = skyline(&synthetic(n, d, Correlation::Correlated, &mut r).unwrap()).len();
        let ind = skyline(&synthetic(n, d, Correlation::Independent, &mut r).unwrap()).len();
        let anti = skyline(&synthetic(n, d, Correlation::AntiCorrelated, &mut r).unwrap()).len();
        assert!(corr < ind, "correlated skyline {corr} !< independent {ind}");
        assert!(ind < anti, "independent skyline {ind} !< anti-correlated {anti}");
    }

    #[test]
    fn skyline_algorithms_agree_on_every_generator() {
        let mut r = rng();
        for corr in [Correlation::Independent, Correlation::Correlated, Correlation::AntiCorrelated]
        {
            for d in 2..=4 {
                let data = synthetic(2000, d, corr, &mut r).unwrap();
                let reference = skyline_bnl(&data);
                assert_eq!(skyline(&data), reference, "{corr:?} d={d}");
                assert_eq!(skyline_sfs(&data), reference, "{corr:?} d={d}");
                match d {
                    2 => assert_eq!(skyline_2d(&data), reference, "{corr:?} d={d}"),
                    3 => assert_eq!(skyline_3d(&data), reference, "{corr:?} d={d}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn anti_correlation_is_negative() {
        let mut r = rng();
        let d = synthetic(4000, 2, Correlation::AntiCorrelated, &mut r).unwrap();
        let xs: Vec<f64> = d.points().map(|p| p[0]).collect();
        let ys: Vec<f64> = d.points().map(|p| p[1]).collect();
        assert!(pearson(&xs, &ys) < -0.5, "correlation {}", pearson(&xs, &ys));
        let d = synthetic(4000, 2, Correlation::Correlated, &mut r).unwrap();
        let xs: Vec<f64> = d.points().map(|p| p[0]).collect();
        let ys: Vec<f64> = d.points().map(|p| p[1]).collect();
        assert!(pearson(&xs, &ys) > 0.8, "correlation {}", pearson(&xs, &ys));
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>() / n;
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>() / n;
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>() / n;
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let mut r = rng();
        assert!(synthetic(0, 2, Correlation::Independent, &mut r).is_err());
        assert!(synthetic(2, 0, Correlation::Independent, &mut r).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = synthetic(50, 3, Correlation::Independent, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = synthetic(50, 3, Correlation::Independent, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
