//! Virtual time for the discrete-event simulator.
//!
//! Simulated time is a monotonically non-decreasing count of nanoseconds
//! since the start of the simulation. Using integer nanoseconds keeps event
//! ordering exact and runs deterministic across platforms; conversions to
//! floating-point seconds are provided for reporting only.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration(0);
        }
        let ns = (s * 1e9).round();
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Construct from fractional seconds, rounding *up* to the next
    /// nanosecond. Used for scheduling completion events: rounding up
    /// guarantees the event fires at-or-after the exact completion
    /// instant, so the work is fully done when the event is handled (no
    /// residual-byte epsilon needed). Negative and non-finite inputs
    /// clamp to zero.
    pub(crate) fn from_secs_f64_ceil(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration(0);
        }
        let ns = (s * 1e9).ceil();
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    pub const fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncated).
    pub const fn millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds (reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale by a non-negative float, rounding to nanoseconds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_micros(5).nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(5).nanos(), 5_000_000);
        assert_eq!(SimDuration::from_secs(5).nanos(), 5_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).nanos(), 500_000_000);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY),
            SimDuration::from_nanos(u64::MAX)
        );
        // Sub-nanosecond values round.
        assert_eq!(SimDuration::from_secs_f64(0.6e-9).nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.4e-9).nanos(), 0);
    }

    #[test]
    fn from_secs_f64_ceil_rounds_up() {
        assert_eq!(SimDuration::from_secs_f64_ceil(0.5).nanos(), 500_000_000);
        assert_eq!(SimDuration::from_secs_f64_ceil(0.1e-9).nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64_ceil(0.9e-9).nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64_ceil(1.1e-9).nanos(), 2);
        assert_eq!(SimDuration::from_secs_f64_ceil(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64_ceil(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64_ceil(f64::INFINITY),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_nanos(100);
        let t2 = t + SimDuration::from_nanos(50);
        assert_eq!(t2.nanos(), 150);
        assert_eq!((t2 - t).nanos(), 50);
        // Saturating: earlier.since(later) is zero.
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(30);
        assert_eq!((a + b).nanos(), 130);
        assert_eq!((a - b).nanos(), 70);
        assert_eq!((b - a).nanos(), 0);
        assert_eq!((a * 3).nanos(), 300);
        assert_eq!((a / 4).nanos(), 25);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(10)), "10ns");
        assert_eq!(format!("{}", SimDuration::from_micros(10)), "10.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(10)), "10.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(10)), "10.000s");
    }
}
