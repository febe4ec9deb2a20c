//! Simulated time.
//!
//! The simulation clock is a monotonically non-decreasing count of
//! nanoseconds since the start of the run. Using a fixed-point integer
//! representation (rather than `f64` seconds) keeps event ordering exact and
//! the whole simulation bit-for-bit deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so this always indicates a logic error in the caller.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is in the future"),
        )
    }

    /// Saturating version of [`SimTime::since`]: returns zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// A duration of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> SimDuration {
        SimDuration(n * 1_000)
    }

    /// A duration of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000)
    }

    /// A duration of `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000_000)
    }

    /// A duration from a float number of seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// The span in whole nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in microseconds, as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in milliseconds, as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span in seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::secs(3).as_nanos(), 3_000_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::micros(5));
        assert_eq!((t + SimDuration::nanos(1)).since(t), SimDuration::nanos(1));
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_when_earlier_is_later() {
        SimTime(1).since(SimTime(2));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(SimTime(1).saturating_since(SimTime(5)), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration::nanos(1));
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(2.5e-6),
            SimDuration::nanos(2_500)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::micros(12)), "12.00us");
        assert_eq!(format!("{}", SimDuration::millis(12)), "12.00ms");
        assert_eq!(format!("{}", SimDuration::secs(12)), "12.000s");
    }
}
