//! The shard-pool autoscaler: policy plus the window-boundary control loop
//! the feeder drives.
//!
//! The paper's deployment gap is exactly this: lab evaluations run with a
//! fixed, comfortable harness, while operational traffic is bursty and the
//! harness itself becomes the bottleneck. The autoscaler closes the loop —
//! the windowed event rate on the traffic timeline feeds an
//! [`AutoscalePolicy`], and the feeder grows or shrinks the shard pool
//! mid-stream, rebalancing flow ownership over the consistent-hash
//! [`HashRing`](crate::ring::HashRing) without breaking per-flow event
//! order.
//!
//! Decisions are a function of the trace alone: they fire only at
//! metrics-window boundaries of the *traffic* timeline and read no
//! wall-clock signal, so a replayed trace makes identical decisions on
//! every run and over every pool — determinism the parity tests rely on.

use std::collections::VecDeque;

use idsbench_core::{CoreError, Result};

use crate::ring::DEFAULT_VNODES;

/// When a silent gap in the traffic spans many empty metrics windows, the
/// control loop evaluates at most this many of them (enough to clear any
/// reasonable cooldown and step the pool all the way down) instead of
/// iterating per window across the gap.
const MAX_GAP_WINDOWS: u64 = 64;

/// The scale-out policy: bounds, thresholds, and damping for the shard
/// pool.
///
/// Rates are events per second of *traffic time*, measured over each
/// completed metrics window (`StreamConfig::window_secs`). The default
/// policy never fires — autoscaling is opt-in per threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Pool floor; scale-down stops here. Must be ≥ 1.
    pub min_shards: usize,
    /// Pool ceiling; scale-up stops here.
    pub max_shards: usize,
    /// A completed window at or above this event rate adds a shard
    /// (`f64::INFINITY` disables).
    pub scale_up_pps: f64,
    /// A completed window strictly below this event rate removes a shard
    /// (`0.0` disables — no rate is below zero).
    pub scale_down_pps: f64,
    /// Completed windows that must pass after a scale action before the
    /// next one — the anti-flap damping.
    pub cooldown_windows: u64,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
}

impl Default for AutoscalePolicy {
    /// Bounds 1–8 shards, every trigger disabled, one-window cooldown,
    /// [`DEFAULT_VNODES`] ring resolution.
    fn default() -> Self {
        AutoscalePolicy {
            min_shards: 1,
            max_shards: 8,
            scale_up_pps: f64::INFINITY,
            scale_down_pps: 0.0,
            cooldown_windows: 1,
            vnodes: DEFAULT_VNODES,
        }
    }
}

impl AutoscalePolicy {
    /// Validates the policy against the run's initial shard count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stream`] for an empty pool range, an initial
    /// shard count outside it, inverted thresholds, or a vnode-less ring.
    pub fn validate(&self, initial_shards: usize) -> Result<()> {
        if self.min_shards == 0 {
            return Err(CoreError::stream("autoscale min_shards must be >= 1"));
        }
        if self.max_shards < self.min_shards {
            return Err(CoreError::stream("autoscale max_shards must be >= min_shards"));
        }
        if initial_shards < self.min_shards || initial_shards > self.max_shards {
            return Err(CoreError::stream(format!(
                "initial shard count {initial_shards} outside autoscale bounds [{}, {}]",
                self.min_shards, self.max_shards
            )));
        }
        if self.scale_down_pps.is_nan() || self.scale_up_pps.is_nan() {
            return Err(CoreError::stream("autoscale rate thresholds must not be NaN"));
        }
        if self.scale_down_pps >= self.scale_up_pps {
            return Err(CoreError::stream(
                "scale_down_pps must be below scale_up_pps (the pool would flap)",
            ));
        }
        if self.vnodes == 0 {
            return Err(CoreError::stream("autoscale vnodes must be >= 1"));
        }
        Ok(())
    }
}

/// Which way a scale decision points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleDirection {
    /// Add one shard.
    Up,
    /// Remove one shard.
    Down,
}

/// One decision produced by [`Autoscaler::poll`]; the feeder enacts it
/// (spawn/retire a shard, rebalance the ring) and records the outcome as a
/// [`ScaleEvent`](idsbench_core::ScaleEvent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScaleDecision {
    /// Direction of the action.
    pub direction: ScaleDirection,
    /// Index of the completed window whose rate fired the policy.
    pub window: u64,
    /// That window's event rate (events/sec of traffic time).
    pub trigger_pps: f64,
}

/// A window whose event rate crossed a scale threshold without producing a
/// decision — swallowed by the cooldown or clamped at a pool bound. Only
/// recorded when [`Autoscaler::log_crossings`] is enabled (the telemetry
/// journal's feed); the default path keeps zero bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ThresholdCrossing {
    /// Index of the completed window that crossed.
    pub window: u64,
    /// That window's event rate (events/sec of traffic time).
    pub pps: f64,
    /// `true` for an up-crossing (overload), `false` for a down-crossing.
    pub up: bool,
}

/// The feeder-side control loop: folds packet arrivals into per-window
/// counts and evaluates the policy once per completed window.
///
/// Usage from the feeder: [`Autoscaler::observe_packet`] for every fed
/// packet, then drain [`Autoscaler::poll`] until `None` before routing it —
/// so the packet that reveals a window boundary is already routed under the
/// rebalanced ring.
#[derive(Debug)]
pub(crate) struct Autoscaler {
    policy: AutoscalePolicy,
    window_secs: f64,
    /// Currently accumulating window: `(index, events so far)`.
    current: Option<(u64, usize)>,
    /// Completed windows not yet evaluated: `(index, events)`.
    pending: VecDeque<(u64, usize)>,
    /// Completed windows since the last scale action (starts satisfied).
    windows_since_scale: u64,
    /// Whether suppressed crossings are collected (telemetry opt-in).
    log_crossings: bool,
    /// Suppressed crossings since the last [`Autoscaler::take_crossings`].
    crossings: Vec<ThresholdCrossing>,
}

impl Autoscaler {
    /// Creates the control loop for one run.
    pub fn new(policy: AutoscalePolicy, window_secs: f64) -> Self {
        Autoscaler {
            policy,
            window_secs,
            current: None,
            pending: VecDeque::new(),
            windows_since_scale: policy.cooldown_windows,
            log_crossings: false,
            crossings: Vec::new(),
        }
    }

    /// Enables (or disables) collection of suppressed threshold crossings.
    /// Off by default: without a telemetry journal to drain them into, the
    /// control loop keeps no history.
    pub fn log_crossings(&mut self, enabled: bool) {
        self.log_crossings = enabled;
        if !enabled {
            self.crossings = Vec::new();
        }
    }

    /// Whether suppressed crossings await [`Autoscaler::take_crossings`].
    pub fn has_crossings(&self) -> bool {
        !self.crossings.is_empty()
    }

    /// Drains the suppressed crossings collected since the last call
    /// (always empty unless [`Autoscaler::log_crossings`] is on).
    pub fn take_crossings(&mut self) -> Vec<ThresholdCrossing> {
        std::mem::take(&mut self.crossings)
    }

    /// Folds one fed packet into the window accounting. Crossing a window
    /// boundary queues the completed window (plus a bounded number of empty
    /// ones for silent gaps) for [`Autoscaler::poll`].
    pub fn observe_packet(&mut self, ts_micros: u64) {
        // The shared boundary rule: decisions must land on the same window
        // axis the report's metrics windows use.
        let window = crate::metrics::window_index(ts_micros, self.window_secs);
        match &mut self.current {
            None => self.current = Some((window, 1)),
            Some((index, count)) if window <= *index => *count += 1,
            Some((index, count)) => {
                self.pending.push_back((*index, *count));
                let gap = window - *index - 1;
                for offset in 0..gap.min(MAX_GAP_WINDOWS) {
                    self.pending.push_back((*index + 1 + offset, 0));
                }
                self.current = Some((window, 1));
            }
        }
    }

    /// Evaluates the policy against the next pending completed window, if
    /// any. Call repeatedly until `None`; each `Some` consumes the windows
    /// up to and including the one that fired, so consecutive decisions
    /// respect the cooldown.
    pub fn poll(&mut self, live_shards: usize) -> Option<ScaleDecision> {
        while let Some((window, count)) = self.pending.pop_front() {
            self.windows_since_scale = self.windows_since_scale.saturating_add(1);
            let in_cooldown = self.windows_since_scale <= self.policy.cooldown_windows;
            let pps = count as f64 / self.window_secs;
            let overloaded = pps >= self.policy.scale_up_pps;
            let underloaded = !overloaded && pps < self.policy.scale_down_pps;
            let decision = if in_cooldown {
                None
            } else if overloaded && live_shards < self.policy.max_shards {
                Some(ScaleDirection::Up)
            } else if underloaded && live_shards > self.policy.min_shards {
                Some(ScaleDirection::Down)
            } else {
                None
            };
            if let Some(direction) = decision {
                self.windows_since_scale = 0;
                return Some(ScaleDecision { direction, window, trigger_pps: pps });
            }
            if self.log_crossings && (overloaded || underloaded) {
                // A crossing the policy swallowed (cooldown or bound) —
                // exactly the divergence the trace journal exists to show.
                self.crossings.push(ThresholdCrossing { window, pps, up: overloaded });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bursty_policy() -> AutoscalePolicy {
        AutoscalePolicy {
            min_shards: 1,
            max_shards: 4,
            scale_up_pps: 1000.0,
            scale_down_pps: 200.0,
            cooldown_windows: 0,
            ..Default::default()
        }
    }

    /// Feeds `count` packets spread across window `w` (1-second windows).
    fn feed_window(scaler: &mut Autoscaler, w: u64, count: usize) {
        for i in 0..count {
            scaler.observe_packet(w * 1_000_000 + i as u64);
        }
    }

    #[test]
    fn burst_scales_up_and_quiet_scales_down() {
        let mut scaler = Autoscaler::new(bursty_policy(), 1.0);
        feed_window(&mut scaler, 0, 2000); // burst
        feed_window(&mut scaler, 1, 50); // quiet — completes window 0
        let up = scaler.poll(1).expect("burst window fires");
        assert_eq!(up.direction, ScaleDirection::Up);
        assert_eq!(up.window, 0);
        assert_eq!(up.trigger_pps, 2000.0);
        assert!(scaler.poll(2).is_none(), "window 1 still accumulating");

        feed_window(&mut scaler, 2, 50); // completes window 1
        let down = scaler.poll(2).expect("quiet window fires");
        assert_eq!(down.direction, ScaleDirection::Down);
        assert_eq!(down.window, 1);
    }

    #[test]
    fn cooldown_suppresses_consecutive_actions() {
        let policy = AutoscalePolicy { cooldown_windows: 1, ..bursty_policy() };
        let mut scaler = Autoscaler::new(policy, 1.0);
        for w in 0..4 {
            feed_window(&mut scaler, w, 2000);
        }
        feed_window(&mut scaler, 4, 1);
        // Windows 0..=3 completed: 0 fires (cooldown starts satisfied),
        // 1 is swallowed by the cooldown, 2 fires, 3 is swallowed.
        let first = scaler.poll(1).expect("first burst fires");
        assert_eq!(first.window, 0);
        let second = scaler.poll(2).expect("post-cooldown burst fires");
        assert_eq!(second.window, 2);
        assert!(scaler.poll(3).is_none());
    }

    #[test]
    fn bounds_clamp_the_pool() {
        let mut scaler = Autoscaler::new(bursty_policy(), 1.0);
        feed_window(&mut scaler, 0, 5000);
        feed_window(&mut scaler, 1, 1);
        assert!(scaler.poll(4).is_none(), "already at max_shards");
        let mut scaler = Autoscaler::new(bursty_policy(), 1.0);
        feed_window(&mut scaler, 0, 10);
        feed_window(&mut scaler, 1, 1);
        assert!(scaler.poll(1).is_none(), "already at min_shards");
    }

    #[test]
    fn silent_gaps_step_the_pool_down_without_per_window_cost() {
        let mut scaler = Autoscaler::new(bursty_policy(), 1.0);
        feed_window(&mut scaler, 0, 50);
        // A packet far in the future: the gap is compressed, not iterated.
        scaler.observe_packet(1_000_000_000_000);
        let mut shards = 4usize;
        while let Some(decision) = scaler.poll(shards) {
            assert_eq!(decision.direction, ScaleDirection::Down);
            shards -= 1;
        }
        assert_eq!(shards, 1, "a long quiet gap steps all the way to the floor");
    }

    #[test]
    fn suppressed_crossings_are_logged_only_when_enabled() {
        // At max_shards already: the burst crosses the up threshold but no
        // decision can fire.
        let mut scaler = Autoscaler::new(bursty_policy(), 1.0);
        feed_window(&mut scaler, 0, 5000);
        feed_window(&mut scaler, 1, 1);
        assert!(scaler.poll(4).is_none());
        assert!(!scaler.has_crossings(), "logging is off by default");

        let mut scaler = Autoscaler::new(bursty_policy(), 1.0);
        scaler.log_crossings(true);
        feed_window(&mut scaler, 0, 5000);
        feed_window(&mut scaler, 1, 1);
        assert!(scaler.poll(4).is_none(), "clamped at max");
        let crossings = scaler.take_crossings();
        assert_eq!(crossings, vec![ThresholdCrossing { window: 0, pps: 5000.0, up: true }]);
        assert!(!scaler.has_crossings(), "drained");
    }

    #[test]
    fn policy_validation_rejects_nonsense() {
        assert!(AutoscalePolicy::default().validate(1).is_ok());
        assert!(AutoscalePolicy { min_shards: 0, ..Default::default() }.validate(1).is_err());
        assert!(AutoscalePolicy { max_shards: 2, min_shards: 3, ..Default::default() }
            .validate(3)
            .is_err());
        assert!(AutoscalePolicy::default().validate(9).is_err(), "initial above max");
        assert!(AutoscalePolicy { scale_up_pps: 10.0, scale_down_pps: 20.0, ..Default::default() }
            .validate(1)
            .is_err());
        assert!(AutoscalePolicy { vnodes: 0, ..Default::default() }.validate(1).is_err());
    }
}
