//! Damped incremental statistics ("AfterImage"), the O(1)-per-update
//! streaming moments introduced by Kitsune and reused by HELAD.
//!
//! Each statistic maintains a weight, linear sum, and squared sum that decay
//! exponentially with wall-clock time: an observation inserted `Δt` seconds
//! ago contributes with weight `2^(-λΔt)`. Recent traffic therefore dominates
//! the estimate, and a single parameter λ selects the effective time window.
//!
//! The statistics run as a *bank* of `N` decay rates over one stream: every
//! moment is a `[f64; N]` array, one lane per λ, and the lanes share one
//! clock, since they always update together. Decay, insert and snapshot are
//! loops across the lanes. The rates live in a [`DecayBank`], which every
//! statistic of an extractor shares and which computes the factors
//! `2^(-λΔt)` once per distinct interval `Δt`. A one-λ statistic is the
//! `N = 1` bank, and lane `i` of an `N`-λ bank equals it at `λ_i` bit for
//! bit.

use std::array::from_fn;

/// Intervals whose decay factors a [`DecayBank`] remembers.
const MEMO: usize = 8;

/// The decay rates λ of a bank (per second), with a memo of the decay
/// factors of the intervals seen last.
///
/// Packets of one extractor mostly advance their statistics' clocks by one
/// of a few intervals, so the bank computes `2^(-λΔt)` (`N` calls of
/// `exp2`) once per distinct `Δt`, keyed by its bits, and every statistic
/// advanced by that `Δt` reuses the factors.
#[derive(Debug)]
pub struct DecayBank<const N: usize> {
    lambdas: [f64; N],
    /// The bits of the remembered intervals, overwritten round-robin. Key 0
    /// is `Δt = +0`, which never decays, so an unused slot never matches.
    keys: [u64; MEMO],
    /// `factors[k]` belongs to `keys[k]`.
    factors: [[f64; N]; MEMO],
    next: usize,
}

impl<const N: usize> DecayBank<N> {
    /// A bank of decay rates `lambdas`.
    ///
    /// # Panics
    ///
    /// Panics if a rate is not finite and positive.
    pub fn new(lambdas: [f64; N]) -> Self {
        assert!(lambdas.iter().all(|l| l.is_finite() && *l > 0.0), "lambda must be positive");
        DecayBank { lambdas, keys: [0; MEMO], factors: [[0.0; N]; MEMO], next: 0 }
    }

    /// `2^(-λ·dt)` per lane, for `dt > 0`.
    fn factors(&mut self, dt: f64) -> [f64; N] {
        let key = dt.to_bits();
        if let Some(k) = self.keys.iter().position(|&k| k == key) {
            return self.factors[k];
        }
        let factors = self.lambdas.map(|lambda| (-lambda * dt).exp2());
        self.keys[self.next] = key;
        self.factors[self.next] = factors;
        self.next = (self.next + 1) % MEMO;
        factors
    }
}

/// The time of a statistic's last decay, shared by its lanes; `None`
/// before its first update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Clock(Option<f64>);

impl Clock {
    /// Moves the clock to `t` and returns the factors to decay by: none on
    /// the first update, nor when `t` is not later than the clock
    /// (out-of-order timestamps apply no decay, matching the reference
    /// implementation).
    fn advance<const N: usize>(&mut self, bank: &mut DecayBank<N>, t: f64) -> Option<[f64; N]> {
        let Some(last) = self.0 else {
            self.0 = Some(t);
            return None;
        };
        let dt = t - last;
        (dt > 0.0).then(|| {
            self.0 = Some(t);
            bank.factors(dt)
        })
    }
}

/// A 1-D damped incremental statistic over a bank of `N` decay rates (one
/// rate by default).
///
/// # Examples
///
/// ```
/// use idsbench_flow::{DampedStat, DecayBank};
///
/// let mut bank = DecayBank::new([0.1]);
/// let mut stat = DampedStat::default();
/// stat.insert(&mut bank, 0.0, 10.0);
/// stat.insert(&mut bank, 1.0, 20.0);
/// let [[_weight, mean, _std]] = stat.snapshot();
/// assert!(mean > 10.0 && mean < 20.0);
/// // The newer observation carries more weight.
/// assert!(mean > 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampedStat<const N: usize = 1> {
    weight: [f64; N],
    linear_sum: [f64; N],
    squared_sum: [f64; N],
    last_residual: [f64; N],
    clock: Clock,
}

impl<const N: usize> Default for DampedStat<N> {
    fn default() -> Self {
        DampedStat {
            weight: [0.0; N],
            linear_sum: [0.0; N],
            squared_sum: [0.0; N],
            last_residual: [0.0; N],
            clock: Clock::default(),
        }
    }
}

/// Per-lane mean, variance and standard deviation of a [`DampedStat`],
/// each computed once.
struct Moments<const N: usize> {
    mean: [f64; N],
    variance: [f64; N],
    std: [f64; N],
}

impl<const N: usize> DampedStat<N> {
    /// Decays the sums to time `t` without inserting an observation.
    pub fn decay_to(&mut self, bank: &mut DecayBank<N>, t: f64) {
        if let Some(factors) = self.clock.advance(bank, t) {
            for (i, f) in factors.into_iter().enumerate() {
                self.weight[i] *= f;
                self.linear_sum[i] *= f;
                self.squared_sum[i] *= f;
            }
        }
    }

    /// Inserts observation `x` at time `t` (seconds) on every lane.
    pub fn insert(&mut self, bank: &mut DecayBank<N>, t: f64, x: f64) {
        self.decay_to(bank, t);
        for i in 0..N {
            self.weight[i] += 1.0;
            self.linear_sum[i] += x;
            self.squared_sum[i] += x * x;
            // The residual against the mean at insert time, for the
            // cross-stream covariance; the weight is at least 1 here.
            self.last_residual[i] = x - self.linear_sum[i] / self.weight[i];
        }
    }

    /// The `[weight, mean, std]` feature triple exported by the Kitsune
    /// extractor, per lane.
    pub fn snapshot(&self) -> [[f64; 3]; N] {
        let Moments { mean, std, .. } = self.moments();
        from_fn(|i| [self.weight[i], mean[i], std[i]])
    }

    /// Damped mean and variance (0 in a lane whose weight has decayed to 0;
    /// the variance is never negative).
    fn moments(&self) -> Moments<N> {
        let mean = from_fn(|i| ratio(self.linear_sum[i], self.weight[i]));
        let variance =
            from_fn(|i| (ratio(self.squared_sum[i], self.weight[i]) - mean[i] * mean[i]).max(0.0));
        Moments { mean, variance, std: variance.map(f64::sqrt) }
    }
}

/// `x / d`, or 0 unless `d > 0`: the guard on every damped quotient.
fn ratio(x: f64, d: f64) -> f64 {
    if d > 0.0 {
        x / d
    } else {
        0.0
    }
}

/// A pair of damped streams with damped cross-covariance, used for the
/// channel (src↔dst) and socket statistics, over a bank of `N` decay rates.
///
/// Stream `a` carries one direction, stream `b` the other, each with its
/// own clock; the joint weight and residual products run on a third. The
/// covariance is estimated from products of residuals, as in the reference
/// AfterImage implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampedPairStat<const N: usize = 1> {
    a: DampedStat<N>,
    b: DampedStat<N>,
    joint_weight: [f64; N],
    residual_products: [f64; N],
    clock: Clock,
}

impl<const N: usize> Default for DampedPairStat<N> {
    fn default() -> Self {
        DampedPairStat {
            a: DampedStat::default(),
            b: DampedStat::default(),
            joint_weight: [0.0; N],
            residual_products: [0.0; N],
            clock: Clock::default(),
        }
    }
}

impl<const N: usize> DampedPairStat<N> {
    /// Inserts observation `x` at time `t` into stream `a` (`into_a`) or
    /// stream `b`.
    pub fn insert(&mut self, bank: &mut DecayBank<N>, into_a: bool, t: f64, x: f64) {
        if let Some(factors) = self.clock.advance(bank, t) {
            for (i, f) in factors.into_iter().enumerate() {
                self.joint_weight[i] *= f;
                self.residual_products[i] *= f;
            }
        }
        if into_a {
            self.a.insert(bank, t, x);
        } else {
            self.b.insert(bank, t, x);
        }
        for i in 0..N {
            self.joint_weight[i] += 1.0;
            self.residual_products[i] += self.a.last_residual[i] * self.b.last_residual[i];
        }
    }

    /// The damped sum of residual products, per lane.
    pub fn residual_products(&self) -> [f64; N] {
        self.residual_products
    }

    /// The 7-feature group exported by the Kitsune extractor for the stream
    /// that just received a packet (`a` when `of_a`), per lane: `[w, mean,
    /// std]` of that stream plus the pair's magnitude `sqrt(mean_a² +
    /// mean_b²)`, radius `sqrt(var_a² + var_b²)`, covariance and Pearson
    /// correlation (clamped to [-1, 1]; 0 when either stream is degenerate).
    pub fn snapshot(&self, of_a: bool) -> [[f64; 7]; N] {
        let (ma, mb) = (self.a.moments(), self.b.moments());
        // Each feature is one loop across the lanes; the groups are
        // interleaved last.
        let magnitude: [f64; N] =
            from_fn(|i| (ma.mean[i] * ma.mean[i] + mb.mean[i] * mb.mean[i]).sqrt());
        let radius: [f64; N] =
            from_fn(|i| (ma.variance[i] * ma.variance[i] + mb.variance[i] * mb.variance[i]).sqrt());
        let covariance: [f64; N] =
            from_fn(|i| ratio(self.residual_products[i], self.joint_weight[i]));
        let correlation: [f64; N] =
            from_fn(|i| ratio(covariance[i], ma.std[i] * mb.std[i]).clamp(-1.0, 1.0));
        let (side, m) = if of_a { (&self.a, &ma) } else { (&self.b, &mb) };
        from_fn(|i| {
            [
                side.weight[i],
                m.mean[i],
                m.std[i],
                magnitude[i],
                radius[i],
                covariance[i],
                correlation[i],
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(lambda: f64) -> DecayBank<1> {
        DecayBank::new([lambda])
    }

    #[test]
    fn mean_of_constant_stream_is_constant() {
        let (mut bank, mut stat) = (bank(1.0), DampedStat::default());
        for i in 0..100 {
            stat.insert(&mut bank, i as f64 * 0.01, 5.0);
        }
        let [[_, mean, std]] = stat.snapshot();
        assert!((mean - 5.0).abs() < 1e-9);
        assert!(std * std < 1e-9);
    }

    #[test]
    fn weight_decays_by_half_life() {
        let (mut bank, mut stat) = (bank(1.0), DampedStat::default()); // half-life = 1s
        stat.insert(&mut bank, 0.0, 1.0);
        assert!((stat.snapshot()[0][0] - 1.0).abs() < 1e-12);
        stat.decay_to(&mut bank, 1.0);
        assert!((stat.snapshot()[0][0] - 0.5).abs() < 1e-12);
        stat.decay_to(&mut bank, 2.0);
        assert!((stat.snapshot()[0][0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn recent_observations_dominate() {
        let (mut bank, mut stat) = (bank(2.0), DampedStat::default());
        stat.insert(&mut bank, 0.0, 0.0);
        stat.insert(&mut bank, 5.0, 100.0);
        let mean = stat.snapshot()[0][1];
        assert!(mean > 99.0, "old observation decayed to ~nothing: {mean}");
    }

    #[test]
    fn variance_is_never_negative() {
        let (mut bank, mut stat) = (bank(0.5), DampedStat::default());
        for i in 0..1000 {
            stat.insert(&mut bank, i as f64 * 1e-4, if i % 2 == 0 { 1e9 } else { 1e-9 });
        }
        // A negative variance would make the std NaN.
        assert!(stat.snapshot()[0][2] >= 0.0);
    }

    #[test]
    fn out_of_order_timestamps_apply_no_decay() {
        let (mut bank, mut stat) = (bank(1.0), DampedStat::default());
        stat.insert(&mut bank, 10.0, 1.0);
        let before = stat;
        stat.decay_to(&mut bank, 5.0); // earlier than last update
        assert_eq!(stat, before);
    }

    #[test]
    fn repeated_intervals_reuse_their_factors() {
        let mut bank = DecayBank::new([5.0, 0.01]);
        let expected = [(-5.0f64 * 0.25).exp2(), (-0.01f64 * 0.25).exp2()];
        assert_eq!(bank.factors(0.25), expected);
        assert!(bank.keys.contains(&0.25f64.to_bits()));
        assert_eq!(bank.factors(0.25), expected);
        // A full round of other intervals evicts it; it is recomputed.
        for k in 1..=MEMO {
            bank.factors(k as f64);
        }
        assert!(!bank.keys.contains(&0.25f64.to_bits()));
        assert_eq!(bank.factors(0.25), expected);
    }

    fn alternating_pair(second: impl Fn(f64) -> f64) -> DampedPairStat {
        let (mut bank, mut pair) = (bank(0.1), DampedPairStat::default());
        for i in 0..200 {
            let t = i as f64 * 0.01;
            let x = (i % 10) as f64;
            pair.insert(&mut bank, true, t, x);
            pair.insert(&mut bank, false, t + 0.001, second(x));
        }
        pair
    }

    #[test]
    fn correlated_pair_has_positive_pcc() {
        let pcc = alternating_pair(|x| x + 0.5).snapshot(true)[0][6];
        assert!(pcc > 0.5, "pcc = {pcc}");
    }

    #[test]
    fn anticorrelated_pair_has_negative_pcc() {
        let pcc = alternating_pair(|x| 10.0 - x).snapshot(true)[0][6];
        assert!(pcc < -0.5, "pcc = {pcc}");
    }

    #[test]
    fn correlation_is_clamped() {
        let (mut bank, mut pair) = (bank(1.0), DampedPairStat::default());
        pair.insert(&mut bank, true, 0.0, 1.0);
        pair.insert(&mut bank, false, 0.0, 1.0);
        let pcc = pair.snapshot(true)[0][6];
        assert!((-1.0..=1.0).contains(&pcc));
    }

    #[test]
    fn one_sided_pair_behaves_like_single_stat() {
        let (mut bank, mut pair, mut single) =
            (bank(0.5), DampedPairStat::default(), DampedStat::default());
        for i in 0..50 {
            let t = i as f64 * 0.1;
            let x = (i as f64).sqrt();
            pair.insert(&mut bank, true, t, x);
            single.insert(&mut bank, t, x);
        }
        let [[w, mean, std, _, _, _, pcc]] = pair.snapshot(true);
        assert_eq!([w, mean, std], single.snapshot()[0]);
        assert_eq!(pair.snapshot(false)[0][0], 0.0, "stream b never received");
        assert_eq!(pcc, 0.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn zero_lambda_panics() {
        let _ = DecayBank::new([1.0, 0.0]);
    }

    #[test]
    fn snapshot_layout() {
        let (mut bank, mut stat) = (bank(1.0), DampedStat::default());
        stat.insert(&mut bank, 0.0, 2.0);
        assert_eq!(stat.snapshot(), [[1.0, 2.0, 0.0]]);
    }
}
