//! Virtual time.
//!
//! Simulated time is kept in integer **picoseconds** (`u64`). Picoseconds
//! give sub-byte resolution on a 10 Gb/s link (0.8 ns/byte) while still
//! covering ~213 days of simulated time before overflow — far beyond any
//! experiment in this workspace. Integer time is essential for determinism:
//! floating-point accumulation order would otherwise leak into event
//! ordering.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in picoseconds since the
/// start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as "never" sentinel by schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating difference between two instants.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_S)
    }
    /// Build a duration from fractional nanoseconds, rounding to the nearest
    /// picosecond. Used by cost models whose parameters are naturally
    /// expressed as floats (e.g. bytes / bandwidth).
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration: {ns}");
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Self::from_ns_f64(us * 1_000.0)
    }

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_S {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_us(10);
        let d = SimDuration::from_us(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2, t + d);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(5);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_us(4));
    }

    #[test]
    fn duration_from_float_rounds() {
        assert_eq!(SimDuration::from_ns_f64(0.8).as_ps(), 800);
        assert_eq!(SimDuration::from_ns_f64(3.3).as_ps(), 3_300);
        // rounding, not truncation
        assert_eq!(SimDuration::from_ns_f64(0.0004).as_ps(), 0);
        assert_eq!(SimDuration::from_ns_f64(0.0006).as_ps(), 1);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_ns(10);
        assert_eq!(d * 3, SimDuration::from_ns(30));
        assert_eq!(d / 2, SimDuration::from_ns(5));
        assert_eq!(
            [d, d, d].into_iter().sum::<SimDuration>(),
            SimDuration::from_ns(30)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_ns(500)), "500.000ns");
        assert_eq!(format!("{}", SimDuration::from_us(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_ps(7)), "7ps");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_ns(1) < SimTime::from_us(1));
        assert!(SimDuration::from_ms(1) > SimDuration::from_us(999));
    }
}
