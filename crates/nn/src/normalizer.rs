//! Input/output standardization for regression targets.
//!
//! The SPICE approximator trains on measurements spanning wildly different
//! units (dB, Hz, W, m²); fitting raw targets would let the largest unit
//! dominate the MSE. [`Normalizer`] maintains per-component mean/std over
//! the points seen so far and maps both ways.

/// Per-component standardizer: `z = (x − mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    dim: usize,
    count: usize,
    mean: Vec<f64>,
    /// Running sum of squared deviations (Welford).
    m2: Vec<f64>,
    /// Standard deviation per component, refreshed by every `observe`
    /// so the mapping functions take no square roots.
    std: Vec<f64>,
}

impl Normalizer {
    /// Creates a standardizer for `dim`-component vectors.
    pub fn new(dim: usize) -> Self {
        Normalizer { dim, count: 0, mean: vec![0.0; dim], m2: vec![0.0; dim], std: vec![1.0; dim] }
    }

    /// Number of observed vectors.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Dimension of the vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Observes one vector (Welford update).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn observe(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim, "normalizer dimension mismatch");
        self.count += 1;
        for (i, &xi) in x.iter().enumerate() {
            let d = xi - self.mean[i];
            self.mean[i] += d / self.count as f64;
            self.m2[i] += d * (xi - self.mean[i]);
        }
        // The divisor changes with every sample, so every component's
        // deviation is refreshed, not only the moved ones.
        for (s, &m2) in self.std.iter_mut().zip(&self.m2) {
            *s = if self.count < 2 {
                1.0
            } else {
                let var = m2 / (self.count - 1) as f64;
                if var > 1e-24 {
                    var.sqrt()
                } else {
                    1.0
                }
            };
        }
    }

    /// Current per-component standard deviation (1.0 until two samples
    /// exist or when a component is constant).
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Current per-component mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Standardizes a vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn normalize(&self, x: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.dim];
        self.normalize_into(x, &mut z);
        z
    }

    /// [`Normalizer::normalize`] written into `z`.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from `self.dim()`.
    pub fn normalize_into(&self, x: &[f64], z: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "normalizer dimension mismatch");
        assert_eq!(z.len(), self.dim, "normalizer dimension mismatch");
        debug_assert!(
            x.iter().all(|v| v.is_finite()),
            "normalize called with non-finite input {x:?}"
        );
        for (((zi, &v), &mean), &std) in z.iter_mut().zip(x).zip(&self.mean).zip(&self.std) {
            *zi = (v - mean) / std;
        }
    }

    /// Inverts [`Normalizer::normalize`].
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn denormalize(&self, z: &[f64]) -> Vec<f64> {
        let mut x = z.to_vec();
        self.denormalize_in_place(&mut x);
        x
    }

    /// [`Normalizer::denormalize`] in place: `z` becomes `x`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn denormalize_in_place(&self, z: &mut [f64]) {
        assert_eq!(z.len(), self.dim, "normalizer dimension mismatch");
        debug_assert!(
            z.iter().all(|v| v.is_finite()),
            "denormalize called with non-finite input {z:?}"
        );
        for ((v, &std), &mean) in z.iter_mut().zip(&self.std).zip(&self.mean) {
            *v = *v * std + mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_match_closed_form() {
        let mut n = Normalizer::new(2);
        let data = [[1.0, 100.0], [3.0, 200.0], [5.0, 300.0]];
        for d in &data {
            n.observe(d);
        }
        assert_eq!(n.count(), 3);
        assert!((n.mean()[0] - 3.0).abs() < 1e-12);
        assert!((n.mean()[1] - 200.0).abs() < 1e-12);
        let s = n.std();
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 100.0).abs() < 1e-12);
    }

    /// The deviation a fresh computation from the Welford sums gives.
    fn recomputed_std(n: &Normalizer) -> Vec<f64> {
        (0..n.dim)
            .map(|i| {
                if n.count < 2 {
                    1.0
                } else {
                    let var = n.m2[i] / (n.count - 1) as f64;
                    if var > 1e-24 {
                        var.sqrt()
                    } else {
                        1.0
                    }
                }
            })
            .collect()
    }

    #[test]
    fn cached_std_is_the_recomputed_std_bitwise() {
        let mut n = Normalizer::new(3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(n.std()), bits(&recomputed_std(&n)));
        for k in 0..200 {
            let t = k as f64;
            n.observe(&[(t * 0.37).sin() * 1e8, 4.0, t * t * 1e-12]);
            assert_eq!(bits(n.std()), bits(&recomputed_std(&n)), "after {} samples", k + 1);
        }
    }

    #[test]
    fn round_trip() {
        let mut n = Normalizer::new(3);
        for k in 0..10 {
            n.observe(&[k as f64, 2.0 * k as f64 + 1.0, -0.5 * k as f64]);
        }
        let x = [4.2, -1.0, 7.0];
        let z = n.normalize(&x);
        let back = n.denormalize(&z);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_cases_fall_back_to_unit_scale() {
        let mut n = Normalizer::new(1);
        assert_eq!(n.std(), vec![1.0], "no data");
        n.observe(&[5.0]);
        assert_eq!(n.std(), vec![1.0], "one sample");
        n.observe(&[5.0]);
        n.observe(&[5.0]);
        assert_eq!(n.std(), vec![1.0], "constant component");
        // Normalization of the constant just centers it.
        assert_eq!(n.normalize(&[5.0]), vec![0.0]);
    }

    #[test]
    fn constant_feature_round_trips_without_nan() {
        // A constant component has zero variance; the unit-scale fallback
        // must keep normalize/denormalize a finite, exact round trip
        // instead of dividing by zero.
        let mut n = Normalizer::new(2);
        for k in 0..10 {
            n.observe(&[7.5, k as f64]);
        }
        let x = [7.5, 4.0];
        let z = n.normalize(&x);
        assert!(z.iter().all(|v| v.is_finite()), "normalized constant went non-finite: {z:?}");
        assert_eq!(z[0], 0.0, "constant centers to zero");
        let back = n.denormalize(&z);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12, "round trip drifted: {a} vs {b}");
        }
    }

    #[test]
    fn standardized_data_has_unit_stats() {
        let mut n = Normalizer::new(1);
        let data: Vec<f64> = (0..100).map(|k| (k as f64 * 0.37).sin() * 13.0 + 5.0).collect();
        for &d in &data {
            n.observe(&[d]);
        }
        let zs: Vec<f64> = data.iter().map(|&d| n.normalize(&[d])[0]).collect();
        let mean = zs.iter().sum::<f64>() / zs.len() as f64;
        let var = zs.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / (zs.len() - 1) as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }
}
