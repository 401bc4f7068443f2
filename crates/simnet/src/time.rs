//! Simulated time as integer nanoseconds.
//!
//! Integer time keeps event ordering exact and `Ord`-able; floats are only
//! used at the API boundary.

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// From seconds; sub-nanosecond remainders are truncated.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "time must be non-negative");
        Self((secs * 1e9) as u64)
    }

    /// Nanosecond count.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// As floating-point seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration in seconds.
    pub fn after_secs(&self, secs: f64) -> SimTime {
        SimTime(self.0.saturating_add(SimTime::from_secs_f64(secs).0))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(5) < SimTime::from_nanos(6));
        assert_eq!(
            SimTime::from_nanos(5).max(SimTime::from_nanos(9)),
            SimTime::from_nanos(9)
        );
    }

    #[test]
    fn after_secs_accumulates() {
        let t = SimTime::ZERO.after_secs(0.25).after_secs(0.75);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(0.5).to_string(), "0.500000s");
    }
}
