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
    /// nanosecond, ties up. Negative and NaN inputs clamp to zero, values
    /// past `u64::MAX` nanoseconds to that.
    pub fn from_secs_f64(s: f64) -> Self {
        let (whole, frac) = split_nanos(s);
        SimDuration(whole + (frac >= 0.5) as u64)
    }

    /// Construct from fractional seconds, rounding *up* to the next
    /// nanosecond. Used for scheduling completion events: rounding up
    /// guarantees the event fires at-or-after the exact completion
    /// instant, so the work is fully done when the event is handled (no
    /// residual-byte epsilon needed). Clamps as [`Self::from_secs_f64`].
    pub(crate) fn from_secs_f64_ceil(s: f64) -> Self {
        let (whole, frac) = split_nanos(s);
        SimDuration(whole + (frac > 0.0) as u64)
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

/// `s` seconds as whole nanoseconds, truncated, and the fraction the
/// truncation dropped, both exact: `(0, 0.0)` for a negative or NaN `s`,
/// `(u64::MAX, 0.0)` from `u64::MAX` nanoseconds on. A cast truncates
/// where `f64::round` and `f64::ceil` are library calls on a baseline
/// x86-64 target, and this is on every flow's path.
#[inline]
fn split_nanos(s: f64) -> (u64, f64) {
    let ns = s * 1e9;
    if ns.is_nan() || ns <= 0.0 {
        (0, 0.0)
    } else if ns >= u64::MAX as f64 {
        (u64::MAX, 0.0)
    } else {
        // Below 2^52 both the whole part and the difference are exact;
        // from 2^52 on every `f64` is a whole number.
        let whole = ns as u64;
        (whole, ns - whole as f64)
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

    /// The conversions against the library rounding they replaced, which
    /// these keep as the reference.
    mod props {
        use super::*;
        use proptest::prelude::*;

        fn reference(s: f64, up: bool) -> u64 {
            if s.is_nan() || s <= 0.0 {
                return 0;
            }
            let ns = if up {
                (s * 1e9).ceil()
            } else {
                (s * 1e9).round()
            };
            if ns >= u64::MAX as f64 {
                u64::MAX
            } else {
                ns as u64
            }
        }

        /// `s` and the `f64`s on either side of it.
        fn check_around(s: f64) {
            for s in [f64::from_bits(s.to_bits().wrapping_sub(1)), s, s.next_up()] {
                let (near, up) = (
                    SimDuration::from_secs_f64(s),
                    SimDuration::from_secs_f64_ceil(s),
                );
                assert_eq!(near.nanos(), reference(s, false), "nearest of {s:e} s");
                assert_eq!(up.nanos(), reference(s, true), "ceiling of {s:e} s");
            }
        }

        #[test]
        fn conversions_match_the_library_at_the_edges() {
            let mut edges = vec![
                0.0,
                -0.0,
                -1.0,
                -1e-300,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(1),
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE / 2.0,
                f64::MAX,
                u64::MAX as f64 / 1e9,
            ];
            // Ties of every size up to where an `f64` holds no halves.
            edges.extend((0..53).map(|b| ((1u64 << b) as f64 + 0.5) / 1e9));
            edges.extend((0..40).map(|k| (k as f64 + 0.5) / 1e9));
            // Where an `f64` stops holding fractions, and where a `u64` ends.
            for b in 51..=64 {
                edges.push((1u128 << b) as f64 / 1e9);
            }
            edges.iter().for_each(|&s| check_around(s));
        }

        proptest! {
            #[test]
            fn conversions_match_the_library_on_any_bits(bits in any::<u64>()) {
                check_around(f64::from_bits(bits));
            }

            #[test]
            fn conversions_match_the_library_on_simulated_spans(
                ns in 0u64..1 << 62,
                half in any::<bool>(),
            ) {
                check_around((ns as f64 + if half { 0.5 } else { 0.0 }) / 1e9);
            }

            // What lets a link add the integer interval to its busy time:
            // below 2^51 ns it is what the float round trip gave.
            #[test]
            fn whole_intervals_survive_the_float_round_trip(ns in 0u64..1 << 51) {
                let d = SimDuration::from_nanos(ns);
                prop_assert_eq!(SimDuration::from_secs_f64(d.as_secs_f64()), d);
            }
        }
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
