/// Streaming min–max normalizer mapping each feature into `[0, 1]`.
///
/// Kitsune and HELAD normalize features online: the observed range grows as
/// traffic arrives, and each vector is scaled by the range known *so far*.
/// A feature with zero range maps to 0.
///
/// # Examples
///
/// ```
/// use idsbench_nn::MinMaxNormalizer;
///
/// let mut norm = MinMaxNormalizer::new(2);
/// norm.observe(&[0.0, 10.0]);
/// norm.observe(&[4.0, 30.0]);
/// assert_eq!(norm.transform(&[2.0, 20.0]), vec![0.5, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxNormalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
    observed: u64,
}

impl MinMaxNormalizer {
    /// Creates a normalizer for vectors of `width` features.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        MinMaxNormalizer {
            mins: vec![f64::INFINITY; width],
            maxs: vec![f64::NEG_INFINITY; width],
            observed: 0,
        }
    }

    /// Number of features per vector.
    pub fn width(&self) -> usize {
        self.mins.len()
    }

    /// Number of vectors observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Expands the per-feature ranges with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn observe(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.width(), "vector width mismatch");
        // One fused pass: min and max updates are independent comparisons,
        // so fusing the loops changes no result, only the traffic.
        for ((min, max), &v) in self.mins.iter_mut().zip(&mut self.maxs).zip(x) {
            // NaN guards: NaN comparisons are false, so NaN never widens.
            if v < *min {
                *min = v;
            }
            if v > *max {
                *max = v;
            }
        }
        self.observed += 1;
    }

    /// Scales `x` into `[0, 1]` using the ranges observed so far, clamping
    /// values outside the known range.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.transform_into(x, &mut out);
        out
    }

    /// [`MinMaxNormalizer::transform`] into a caller-owned buffer (cleared
    /// and refilled): zero heap allocations once `out` has capacity — the
    /// per-packet normalization step of the scoring hot path.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.width(), "vector width mismatch");
        out.clear();
        out.extend(x.iter().zip(self.mins.iter().zip(&self.maxs)).map(|(&v, (&min, &max))| {
            let range = max - min;
            if !range.is_finite() || range <= 0.0 {
                0.0
            } else {
                ((v - min) / range).clamp(0.0, 1.0)
            }
        }));
    }

    /// Observes `x`, then writes its transform into `out` (the
    /// online-learning idiom), allocation-free once `out` has grown.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn observe_and_transform_into(&mut self, x: &[f64], out: &mut Vec<f64>) {
        self.observe(x);
        self.transform_into(x, out);
    }
}

/// Z-score normalizer fit once over a training set (the DNN study's
/// preprocessing).
#[derive(Debug, Clone, PartialEq)]
pub struct ZScoreNormalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl ZScoreNormalizer {
    /// Fits per-feature mean and standard deviation over `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows have unequal widths.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit on an empty set");
        let width = rows[0].len();
        let mut means = vec![0.0; width];
        for row in rows {
            assert_eq!(row.len(), width, "row width mismatch");
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = rows.len() as f64;
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; width];
        for row in rows {
            for ((var, &mean), &v) in vars.iter_mut().zip(&means).zip(row) {
                *var += (v - mean).powi(2);
            }
        }
        let stds = vars.into_iter().map(|v| (v / n).sqrt()).collect();
        ZScoreNormalizer { means, stds }
    }

    /// Transforms a vector; zero-variance features map to 0.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.means.len(), "vector width mismatch");
        x.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (&mean, &std))| if std > 0.0 { (v - mean) / std } else { 0.0 })
            .collect()
    }

    /// Number of features per vector.
    pub fn width(&self) -> usize {
        self.means.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_before_any_observation_is_zero() {
        let norm = MinMaxNormalizer::new(3);
        assert_eq!(norm.transform(&[5.0, -1.0, 0.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn minmax_clamps_outliers() {
        let mut norm = MinMaxNormalizer::new(1);
        norm.observe(&[0.0]);
        norm.observe(&[10.0]);
        assert_eq!(norm.transform(&[-5.0]), vec![0.0]);
        assert_eq!(norm.transform(&[25.0]), vec![1.0]);
    }

    #[test]
    fn minmax_constant_feature_maps_to_zero() {
        let mut norm = MinMaxNormalizer::new(1);
        norm.observe(&[7.0]);
        norm.observe(&[7.0]);
        assert_eq!(norm.transform(&[7.0]), vec![0.0]);
    }

    #[test]
    fn minmax_ignores_nan() {
        let mut norm = MinMaxNormalizer::new(1);
        norm.observe(&[f64::NAN]);
        norm.observe(&[1.0]);
        norm.observe(&[3.0]);
        assert_eq!(norm.transform(&[2.0]), vec![0.5]);
    }

    #[test]
    fn zscore_standardizes() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let norm = ZScoreNormalizer::fit(&rows);
        let z = norm.transform(&[3.0, 300.0]);
        assert!(z[0].abs() < 1e-12 && z[1].abs() < 1e-12);
        let z = norm.transform(&[5.0, 100.0]);
        assert!(z[0] > 0.0 && z[1] < 0.0);
    }

    #[test]
    fn zscore_zero_variance_is_zero() {
        let rows = vec![vec![2.0], vec![2.0]];
        let norm = ZScoreNormalizer::fit(&rows);
        assert_eq!(norm.transform(&[2.0]), vec![0.0]);
        assert_eq!(norm.transform(&[99.0]), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut norm = MinMaxNormalizer::new(2);
        norm.observe(&[1.0]);
    }
}
