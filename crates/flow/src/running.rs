/// Exact streaming statistics (Welford's online algorithm).
///
/// Tracks count, mean, variance, min, max, and sum in O(1) space with good
/// numerical behaviour. Used for every per-flow feature.
///
/// # Examples
///
/// ```
/// use idsbench_flow::RunningStats;
///
/// let mut stats = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.mean(), 5.0);
/// assert_eq!(stats.population_std(), 2.0);
/// assert_eq!(stats.min(), 2.0);
/// assert_eq!(stats.max(), 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The raw accumulator state `(count, mean, m2, min, max, sum)` — the
    /// wire representation. Round-tripping through [`RunningStats::from_parts`]
    /// is bitwise lossless, so migrated flows keep producing identical
    /// features.
    pub fn to_parts(&self) -> (u64, f64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max, self.sum)
    }

    /// Rebuilds an accumulator from [`RunningStats::to_parts`] output.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64, sum: f64) -> Self {
        RunningStats { count, mean, m2, min, max, sum }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean =
            (self.mean * self.count as f64 + other.mean * other.count as f64) / total as f64;
        self.count = total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_all_zero() {
        let stats = RunningStats::new();
        assert_eq!(stats.count(), 0);
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.population_std(), 0.0);
        assert_eq!(stats.min(), 0.0);
        assert_eq!(stats.max(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut stats = RunningStats::new();
        stats.push(3.5);
        assert_eq!(stats.mean(), 3.5);
        assert_eq!(stats.population_variance(), 0.0);
        assert_eq!(stats.min(), 3.5);
        assert_eq!(stats.max(), 3.5);
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [1.0, -2.0, 3.0, -4.0, 5.5, 0.25];
        let mut stats = RunningStats::new();
        for &x in &xs {
            stats.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!((stats.population_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(left.count(), all.count());
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut stats = RunningStats::new();
        stats.push(1.0);
        stats.push(2.0);
        let snapshot = stats;
        stats.merge(&RunningStats::new());
        assert_eq!(stats, snapshot);

        let mut empty = RunningStats::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }
}
