//! The paper's reliability metric: expected **data-loss events per
//! PB-year**, and the §6 target.
//!
//! The paper argues events-per-unit-time is easier to reason about than raw
//! MTTDL, and normalizes per petabyte so that systems of different sizes
//! compare directly. The §6 target — a field population of 100 one-PB
//! systems suffering less than one loss event in 5 years — works out to
//! `2·10⁻³` events per PB-year.

use crate::units::{Bytes, Hours, HOURS_PER_YEAR};
use crate::{Error, Result};

/// The §6 reliability target: `2·10⁻³` data-loss events per PB-year.
pub const TARGET_EVENTS_PER_PB_YEAR: f64 = 2e-3;

/// A reliability figure for one configuration at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reliability {
    /// Mean time to data loss, in hours.
    pub mttdl_hours: f64,
    /// Expected data-loss events per year for the whole system.
    pub events_per_year: f64,
    /// Expected data-loss events per year, normalized per petabyte of
    /// logical capacity — the paper's headline metric.
    pub events_per_pb_year: f64,
}

impl Reliability {
    /// Derives the metric from an MTTDL and the system's logical capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] for a non-positive or non-finite
    /// MTTDL or capacity. An infinite MTTDL is an overflowed solve, not a
    /// system that never loses data; accepting it would report zero loss
    /// events.
    pub fn from_mttdl(mttdl: Hours, logical_capacity: Bytes) -> Result<Reliability> {
        if !(mttdl.0 > 0.0 && mttdl.0.is_finite()) {
            return Err(Error::invalid("MTTDL must be positive and finite"));
        }
        if !(logical_capacity.0 > 0.0 && logical_capacity.0.is_finite()) {
            return Err(Error::invalid(
                "logical capacity must be positive and finite",
            ));
        }
        let events_per_year = HOURS_PER_YEAR / mttdl.0;
        Ok(Reliability {
            mttdl_hours: mttdl.0,
            events_per_year,
            events_per_pb_year: events_per_year / logical_capacity.to_pb(),
        })
    }

    /// Whether this configuration meets the §6 target.
    pub fn meets_target(&self) -> bool {
        self.events_per_pb_year < TARGET_EVENTS_PER_PB_YEAR
    }

    /// Safety margin relative to the target: `target / events_per_pb_year`.
    /// Values above 1 meet the target; the paper's "[IR, NFT3] exceeds the
    /// target by 5 orders of magnitude" corresponds to a margin near 10⁵.
    pub fn margin(&self) -> f64 {
        TARGET_EVENTS_PER_PB_YEAR / self.events_per_pb_year
    }

    /// Orders of magnitude of margin (`log₁₀(margin)`), the scale of the
    /// paper's Figure 13 commentary.
    pub fn margin_orders(&self) -> f64 {
        self.margin().log10()
    }
}

impl std::fmt::Display for Reliability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MTTDL {:.3e} h, {:.3e} events/PB-year ({})",
            self.mttdl_hours,
            self.events_per_pb_year,
            if self.meets_target() {
                "meets target"
            } else {
                "MISSES target"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::PETABYTE;

    #[test]
    fn target_value_matches_section_6() {
        // 100 systems × 1 PB × 5 years, < 1 event: 1/(100·5) = 2e-3.
        assert_eq!(TARGET_EVENTS_PER_PB_YEAR, 1.0 / (100.0 * 5.0));
    }

    #[test]
    fn one_pb_system_conversion() {
        // A 1-PB system with MTTDL of one year has exactly 1 event/PB-year.
        let r = Reliability::from_mttdl(Hours(HOURS_PER_YEAR), Bytes(PETABYTE)).unwrap();
        assert!((r.events_per_year - 1.0).abs() < 1e-12);
        assert!((r.events_per_pb_year - 1.0).abs() < 1e-12);
        assert!(!r.meets_target());
    }

    #[test]
    fn small_system_normalization_amplifies() {
        // A 0.1-PB system with the same MTTDL is 10× worse per PB-year.
        let r = Reliability::from_mttdl(Hours(HOURS_PER_YEAR), Bytes(PETABYTE / 10.0)).unwrap();
        assert!((r.events_per_pb_year - 10.0).abs() < 1e-9);
    }

    #[test]
    fn margin_math() {
        let r = Reliability {
            mttdl_hours: 1.0,
            events_per_year: 1.0,
            events_per_pb_year: 2e-5,
        };
        assert!(r.meets_target());
        assert!((r.margin() - 100.0).abs() < 1e-9);
        assert!((r.margin_orders() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(Reliability::from_mttdl(Hours(0.0), Bytes(1.0)).is_err());
        assert!(Reliability::from_mttdl(Hours(-5.0), Bytes(1.0)).is_err());
        assert!(Reliability::from_mttdl(Hours(1.0), Bytes(0.0)).is_err());
    }

    #[test]
    fn non_finite_mttdl_is_not_a_perfect_system() {
        // +inf used to pass and yield events_per_pb_year = 0.
        for bad in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            assert!(Reliability::from_mttdl(Hours(bad), Bytes(PETABYTE)).is_err());
            assert!(Reliability::from_mttdl(Hours(1.0), Bytes(bad)).is_err());
        }
    }

    #[test]
    fn display_mentions_target() {
        let r = Reliability::from_mttdl(Hours(1e12), Bytes(PETABYTE)).unwrap();
        assert!(format!("{r}").contains("meets target"));
        let bad = Reliability::from_mttdl(Hours(1.0), Bytes(PETABYTE)).unwrap();
        assert!(format!("{bad}").contains("MISSES"));
    }
}
