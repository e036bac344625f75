//! Integer simulation time.
//!
//! The engine keeps time in whole nanoseconds so that event ordering is
//! exact: floating-point timestamps accumulate rounding that can reorder
//! ties across otherwise identical runs, which would break the
//! byte-identical-trace guarantee.

/// A point in simulated time, nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);

    /// Builds an instant from integer nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Time {
        Time(nanos)
    }

    /// Converts a duration in seconds to integer nanoseconds (rounded).
    ///
    /// The rounding makes this conversion safe exactly **once** per
    /// duration: a periodic schedule that re-rounds every step (`t =
    /// t.after_secs(period)`) picks up the same sub-nanosecond bias each
    /// tick and drifts without bound. Periodic schedules (carrier slots,
    /// mobility ticks) must convert the period once and advance with
    /// [`Time::after_nanos`], which is exact — see
    /// `periodic_schedules_must_use_integer_nanos` below for the contract.
    pub fn from_secs(seconds: f64) -> Time {
        debug_assert!(seconds >= 0.0, "negative duration");
        Time((seconds * 1e9).round() as u64)
    }

    /// Converts a configured duration in seconds to integer nanoseconds,
    /// refusing what the grid cannot hold: NaN, infinities, anything that
    /// rounds below 1 ns, and anything past `u64::MAX` ns. Unchecked,
    /// [`Time::from_secs`] maps those to `Time(0)` or `Time(u64::MAX)`;
    /// scenario validation checks the run horizon, the exchange epoch and
    /// each carrier's slot interval and window through this instead.
    pub fn try_from_secs(seconds: f64) -> Result<Time, String> {
        let nanos = (seconds * 1e9).round();
        // `u64::MAX as f64` rounds up to 2^64, one past the largest u64,
        // so the upper bound is strict.
        if nanos >= 1.0 && nanos < u64::MAX as f64 {
            Ok(Time(nanos as u64))
        } else {
            Err(format!(
                "{seconds} s is not a finite duration between 1 ns and {} ns",
                u64::MAX
            ))
        }
    }

    /// This instant as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since the start of the run.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant advanced by `seconds`.
    pub fn after_secs(self, seconds: f64) -> Time {
        Time(self.0 + Time::from_secs(seconds).0)
    }

    /// This instant advanced by `nanos` nanoseconds.
    pub fn after_nanos(self, nanos: u64) -> Time {
        Time(self.0 + nanos)
    }

    /// The elapsed time since `earlier`, saturating at zero.
    pub fn since(self, earlier: Time) -> Time {
        Time(self.0.saturating_sub(earlier.0))
    }
}

impl core::fmt::Display for Time {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = Time::from_secs(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
        assert_eq!(Time::ZERO.as_nanos(), 0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1.0).after_secs(0.25).after_nanos(10);
        assert_eq!(t.as_nanos(), 1_250_000_010);
        assert_eq!(t.since(Time::from_secs(1.0)).as_nanos(), 250_000_010);
        assert_eq!(Time::ZERO.since(t), Time::ZERO);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Time(1) < Time(2));
        assert_eq!(Time::from_secs(96e-6).as_nanos(), 96_000);
        assert_eq!(Time::from_nanos(96_000), Time::from_secs(96e-6));
    }

    #[test]
    fn periodic_schedules_use_the_integer_nanosecond_grid() {
        // A period whose nanosecond count is not exactly representable:
        // 1/3 µs is 333.33… ns, rounded to 333 ns per conversion.
        let period_s = 1e-6 / 3.0;
        let period_ns = Time::from_secs(period_s).as_nanos();
        assert_eq!(period_ns, 333);

        // The engine's contract: a period is quantized to the ns grid
        // exactly once, and tick k fires at exactly k · period_ns — no
        // accumulation on top of that single rounding, even over a
        // million ticks.
        let mut t = Time::ZERO;
        for _ in 0..1_000_000 {
            t = t.after_nanos(period_ns);
        }
        assert_eq!(t.as_nanos(), 1_000_000 * period_ns);

        // Chaining `after_secs` instead re-rounds the period through f64
        // nanoseconds at every step, burying the same sub-ns bias a
        // million times over: the millionth tick lands 333 µs away from
        // the single-rounding conversion of the same total duration.
        // That silent cadence redefinition is why carrier slots and
        // mobility ticks advance with `after_nanos`.
        let chained = (0..1_000_000).fold(Time::ZERO, |acc, _| acc.after_secs(period_s));
        let single = Time::from_secs(1_000_000.0 * period_s);
        assert_eq!(chained, t, "per-step rounding bias is what accumulates");
        assert!(
            single.as_nanos() - chained.as_nanos() > 300_000,
            "chained {} vs single-rounded {}",
            chained.as_nanos(),
            single.as_nanos()
        );
    }
}
