use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A capture timestamp with microsecond resolution.
///
/// Timestamps are stored as microseconds since an arbitrary epoch (for
/// synthetic traces, the start of the scenario; for pcap files, the Unix
/// epoch). The representation matches the classic libpcap record header, and
/// microsecond resolution is sufficient for every statistic computed by the
/// evaluation pipeline.
///
/// # Examples
///
/// ```
/// use idsbench_net::{Duration, Timestamp};
///
/// let t0 = Timestamp::from_secs_f64(1.5);
/// let t1 = t0 + Duration::from_millis(250);
/// assert_eq!((t1 - t0).as_secs_f64(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    micros: u64,
}

impl Timestamp {
    /// The zero timestamp (epoch).
    pub const ZERO: Timestamp = Timestamp { micros: 0 };

    /// Creates a timestamp from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp { micros }
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp { micros: secs * 1_000_000 }
    }

    /// Creates a timestamp from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "timestamp seconds must be finite and non-negative"
        );
        Timestamp { micros: (secs * 1e6).round() as u64 }
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Whole seconds and leftover microseconds, as stored in a pcap record.
    pub const fn split(self) -> (u32, u32) {
        ((self.micros / 1_000_000) as u32, (self.micros % 1_000_000) as u32)
    }

    /// Saturating subtraction; returns [`Duration::ZERO`] when `earlier` is
    /// after `self`.
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration { micros: self.micros.saturating_sub(earlier.micros) }
    }

    /// Returns `self + duration`, saturating at the maximum representable
    /// timestamp.
    pub fn saturating_add(self, duration: Duration) -> Timestamp {
        Timestamp { micros: self.micros.saturating_add(duration.micros) }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}s", self.micros / 1_000_000, self.micros % 1_000_000)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp { micros: self.micros + rhs.micros }
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.micros += rhs.micros;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    /// Elapsed time between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: Timestamp) -> Duration {
        debug_assert!(self.micros >= rhs.micros, "timestamp subtraction underflow");
        Duration { micros: self.micros.saturating_sub(rhs.micros) }
    }
}

/// A span of time with microsecond resolution.
///
/// A lighter-weight companion to [`std::time::Duration`] that matches the
/// resolution of [`Timestamp`] and supports the float conversions the
/// statistics layers need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    micros: u64,
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration { micros: 0 };

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration { micros }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration { micros: millis * 1_000 }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration { micros: secs * 1_000_000 }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative"
        );
        Duration { micros: (secs * 1e6).round() as u64 }
    }

    /// Whole microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1e6
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration { micros: self.micros + rhs.micros }
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_fractional_seconds() {
        let ts = Timestamp::from_secs_f64(12.345678);
        assert_eq!(ts.as_micros(), 12_345_678);
        assert!((ts.as_secs_f64() - 12.345678).abs() < 1e-9);
    }

    #[test]
    fn split_matches_pcap_layout() {
        let ts = Timestamp::from_micros(3_000_042);
        assert_eq!(ts.split(), (3, 42));
    }

    #[test]
    fn arithmetic_is_consistent() {
        let t0 = Timestamp::from_micros(500);
        let t1 = t0 + Duration::from_micros(250);
        assert_eq!(t1 - t0, Duration::from_micros(250));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
    }

    #[test]
    fn ordering_follows_time() {
        assert!(Timestamp::from_secs(1) < Timestamp::from_secs(2));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
    }

    #[test]
    fn display_formats_are_readable() {
        assert_eq!(Timestamp::from_micros(1_500_000).to_string(), "1.500000s");
        assert_eq!(Duration::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = Timestamp::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_sum() {
        let total: Duration =
            [Duration::from_secs(1), Duration::from_millis(500)].into_iter().sum();
        assert_eq!(total, Duration::from_millis(1500));
    }
}
