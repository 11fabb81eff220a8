//! Integer picosecond simulated time.
//!
//! All simulations in this workspace share a single time base: one tick is
//! one picosecond. At 25 Gbps a 512-byte packet serializes in exactly
//! 163,840 ps, and the circuit simulator's 60 Gbps bit period is T ≈ 16.67 ps
//! (represented as 16,667 fs by scaling where needed — see `baldur-tl`).
//!
//! [`Time`] is an absolute instant; [`Duration`] is a span. Both are
//! transparent `u64` newtypes so they are free to copy and totally ordered.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute simulated instant, in picoseconds since simulation start.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct Duration(pub u64);

impl Time {
    /// The beginning of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "idle forever" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant `ps` picoseconds after simulation start.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates an instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates an instant `us` microseconds after simulation start.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(earlier <= self, "since() across negative span");
        Duration(self.0 - earlier.0)
    }

    /// The index of the epoch containing this instant, given sorted
    /// (ascending) epoch boundary times in picoseconds: instants before
    /// the first boundary are epoch 0, instants at or after boundary `i`
    /// are epoch `i + 1`. Fault-epoch metrics bucket observations with
    /// this.
    #[inline]
    pub fn epoch_index(self, boundaries_ps: &[u64]) -> usize {
        boundaries_ps.partition_point(|&b| b <= self.0)
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span of `ps` picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a span of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Creates a span of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000_000)
    }

    /// The time needed to serialize `bytes` bytes onto a link running at
    /// `gbps` gigabits per second, rounded up to a whole picosecond.
    ///
    /// ```
    /// use baldur_sim::Duration;
    /// // The paper's 512 B packet at 25 Gbps: 163.84 ns.
    /// assert_eq!(Duration::serialization(512, 25.0), Duration::from_ps(163_840));
    /// ```
    pub fn serialization(bytes: u64, gbps: f64) -> Self {
        let bits = bytes as f64 * 8.0;
        Duration((bits / gbps * 1e3).ceil() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This span in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Multiplies the span by an integer factor, saturating at the maximum.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl From<u64> for Time {
    fn from(ps: u64) -> Self {
        Time(ps)
    }
}

impl From<u64> for Duration {
    fn from(ps: u64) -> Self {
        Duration(ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_ns(7).as_ps(), 7_000);
        assert_eq!(Time::from_us(3).as_ps(), 3_000_000);
        assert_eq!(Duration::from_ns(90).as_ps(), 90_000);
        assert_eq!(Duration::from_us(1).as_ns_f64(), 1_000.0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_ns(10) + Duration::from_ns(5);
        assert_eq!(t, Time::from_ns(15));
        assert_eq!(t - Time::from_ns(10), Duration::from_ns(5));
        assert_eq!(Duration::from_ns(4) * 3, Duration::from_ns(12));
        assert_eq!(Duration::from_ns(12) / 4, Duration::from_ns(3));
    }

    #[test]
    fn serialization_delay_matches_paper_packet() {
        // 512 B at 25 Gbps is the paper's standard packet (Sec. V-A).
        assert_eq!(
            Duration::serialization(512, 25.0),
            Duration::from_ps(163_840)
        );
        // A 64 B ACK serializes in 20.48 ns.
        assert_eq!(Duration::serialization(64, 25.0), Duration::from_ps(20_480));
    }

    #[test]
    fn display_is_nanoseconds() {
        assert_eq!(format!("{}", Time::from_ps(1_500)), "1.500 ns");
        assert_eq!(format!("{}", Duration::from_ps(163_840)), "163.840 ns");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_ns).sum();
        assert_eq!(total, Duration::from_ns(10));
    }

    #[test]
    fn epoch_index_buckets_against_sorted_boundaries() {
        let bounds = [1_000, 5_000, 5_000, 9_000];
        assert_eq!(Time::from_ps(0).epoch_index(&bounds), 0);
        assert_eq!(Time::from_ps(999).epoch_index(&bounds), 0);
        assert_eq!(Time::from_ps(1_000).epoch_index(&bounds), 1);
        assert_eq!(Time::from_ps(5_000).epoch_index(&bounds), 3);
        assert_eq!(Time::from_ps(8_999).epoch_index(&bounds), 3);
        assert_eq!(Time::from_ps(9_000).epoch_index(&bounds), 4);
        assert_eq!(Time::MAX.epoch_index(&bounds), 4);
        assert_eq!(Time::from_ps(7).epoch_index(&[]), 0);
    }
}
