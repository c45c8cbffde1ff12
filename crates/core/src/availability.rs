//! Steady-state availability: what fraction of time is data unreachable?
//!
//! The paper (and this crate's headline metric) counts *data-loss events*;
//! operators also care about *availability* once a recovery path exists
//! (restore from backup/replica). This module closes the loss states of a
//! configuration's chain with a restore transition and solves the
//! resulting irreducible chain's stationary distribution — the same move
//! the Petal/Snappy-Disk comparison ([4] in the paper) uses to talk about
//! availability rather than durability.

use nsr_markov::{stationary_distribution, CtmcBuilder};

use crate::config::Configuration;
use crate::params::Params;
use crate::units::{Hours, HOURS_PER_YEAR};
use crate::{Error, Result};

/// Steady-state availability figures for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Availability {
    /// Long-run fraction of time spent in a data-loss state (restoring).
    pub unavailability: f64,
    /// The classic "number of nines": `−log₁₀(unavailability)`.
    pub nines: f64,
    /// Expected downtime per year, in seconds.
    pub downtime_seconds_per_year: f64,
    /// Long-run fraction of time the system is degraded (some failure
    /// outstanding but no data lost).
    pub degraded_fraction: f64,
}

/// Computes steady-state availability for a configuration whose data-loss
/// states are repaired by a restore-from-backup operation with mean
/// duration `restore_time`.
///
/// # Errors
///
/// * [`Error::InvalidParams`] for a non-positive restore time.
/// * Chain-construction errors from [`Configuration::exact_chain`].
///
/// # Example
///
/// ```
/// use nsr_core::availability::steady_state;
/// use nsr_core::config::Configuration;
/// use nsr_core::params::Params;
/// use nsr_core::raid::InternalRaid;
/// use nsr_core::units::Hours;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let config = Configuration::new(InternalRaid::Raid5, 2)?;
/// // Week-long restores from backup after a loss.
/// let a = steady_state(config, &Params::baseline(), Hours(168.0))?;
/// assert!(a.nines > 7.0); // far beyond "five nines"
/// # Ok(())
/// # }
/// ```
pub fn steady_state(
    config: Configuration,
    params: &Params,
    restore_time: Hours,
) -> Result<Availability> {
    if !(restore_time.0 > 0.0 && restore_time.0.is_finite()) {
        return Err(Error::invalid("restore time must be positive and finite"));
    }
    let (ctmc, root) = config.exact_chain(params)?;
    // Rebuild the chain with loss states wired back to the root.
    let mut b = CtmcBuilder::new();
    let states: Vec<_> = ctmc.states().map(|s| b.add_state(ctmc.label(s))).collect();
    for t in ctmc.transitions() {
        b.add_transition(states[t.from.index()], states[t.to.index()], t.rate)?;
    }
    let restore_rate = restore_time.rate();
    for a in ctmc.absorbing_states() {
        b.add_transition(states[a.index()], states[root.index()], restore_rate.0)?;
    }
    let repairable = b.build()?;
    let pi = stationary_distribution(&repairable)?;

    let unavailability: f64 = ctmc.absorbing_states().iter().map(|s| pi[s.index()]).sum();
    let healthy = pi[root.index()];
    let degraded_fraction = (1.0 - healthy - unavailability).max(0.0);
    Ok(Availability {
        unavailability,
        nines: -unavailability.log10(),
        downtime_seconds_per_year: unavailability * HOURS_PER_YEAR * 3600.0,
        degraded_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raid::InternalRaid;

    fn cfg(internal: InternalRaid, t: u32) -> Configuration {
        Configuration::new(internal, t).unwrap()
    }

    #[test]
    fn unavailability_approximates_restore_over_mttdl() {
        // For MTTDL ≫ restore time: unavailability ≈ restore/(MTTDL+restore).
        let params = Params::baseline();
        let config = cfg(InternalRaid::Raid5, 2);
        let restore = Hours(168.0);
        let a = steady_state(config, &params, restore).unwrap();
        let mttdl = config.evaluate(&params).unwrap().exact.mttdl_hours;
        let approx = restore.0 / (mttdl + restore.0);
        assert!(
            (a.unavailability - approx).abs() / approx < 0.01,
            "{} vs {approx}",
            a.unavailability
        );
    }

    #[test]
    fn faster_restores_improve_availability() {
        let params = Params::baseline();
        let config = cfg(InternalRaid::None, 1);
        let slow = steady_state(config, &params, Hours(168.0)).unwrap();
        let fast = steady_state(config, &params, Hours(1.0)).unwrap();
        assert!(fast.unavailability < slow.unavailability);
        assert!(fast.nines > slow.nines);
    }

    #[test]
    fn ordering_follows_reliability() {
        let params = Params::baseline();
        let bad = steady_state(cfg(InternalRaid::None, 1), &params, Hours(24.0)).unwrap();
        let good = steady_state(cfg(InternalRaid::Raid5, 2), &params, Hours(24.0)).unwrap();
        assert!(good.unavailability < bad.unavailability);
        // FT1-no-IR at baseline: MTTDL ~1700 h with day-long restores is
        // around "two nines"; the recommended config is practically always
        // up.
        assert!(bad.nines < 3.0, "{}", bad.nines);
        assert!(good.nines > 7.0, "{}", good.nines);
    }

    #[test]
    fn degraded_fraction_is_small_but_positive() {
        let params = Params::baseline();
        let a = steady_state(cfg(InternalRaid::Raid5, 2), &params, Hours(168.0)).unwrap();
        assert!(a.degraded_fraction > 0.0);
        assert!(a.degraded_fraction < 0.01, "{}", a.degraded_fraction);
        // Everything sums to one.
        assert!(a.unavailability + a.degraded_fraction < 1.0);
    }

    #[test]
    fn validates_restore_time() {
        let params = Params::baseline();
        let config = cfg(InternalRaid::Raid5, 2);
        assert!(steady_state(config, &params, Hours(0.0)).is_err());
        assert!(steady_state(config, &params, Hours(-1.0)).is_err());
        assert!(steady_state(config, &params, Hours(f64::INFINITY)).is_err());
    }

    #[test]
    fn stationary_fractions_match_the_renewal_identities() {
        // Restore-closed chain = alternating renewal of an up period (mean
        // MTTDL M, of which e_root in the root) and a restore (mean R):
        // unavailability = R/(M+R), degraded = (M − e_root)/(M+R). M and
        // e_root come from the absorbing solve, an independent method.
        let mut durable = Params::baseline();
        durable.drive.mttf = Hours(3.0e6);
        durable.node.mttf = Hours(5.0e6);
        let (mut worst_unavail, mut worst_degraded) = ((0.0, String::new()), (0.0, String::new()));
        for params in [Params::baseline(), durable] {
            for config in Configuration::all_nine() {
                let (ctmc, root) = config.exact_chain(&params).unwrap();
                let an = nsr_markov::AbsorbingAnalysis::new(&ctmc).unwrap();
                let m = an.mean_time_to_absorption(root).unwrap();
                let e_root = an.expected_time_in(root, root).unwrap();
                for r in [1.0, 168.0] {
                    let a = steady_state(config, &params, Hours(r)).unwrap();
                    let at = || format!("{config}, drive MTTF {}, R = {r}", params.drive.mttf.0);
                    let err = (a.unavailability / (r / (m + r)) - 1.0).abs();
                    if err > worst_unavail.0 {
                        worst_unavail = (err, at());
                    }
                    let err = (a.degraded_fraction / ((m - e_root) / (m + r)) - 1.0).abs();
                    if err > worst_degraded.0 {
                        worst_degraded = (err, at());
                    }
                }
            }
        }
        assert!(worst_unavail.0 < 1e-12, "unavailability {worst_unavail:?}");
        assert!(
            worst_degraded.0 < 1e-10,
            "degraded fraction {worst_degraded:?}"
        );
    }

    #[test]
    fn downtime_consistent_with_unavailability() {
        let params = Params::baseline();
        let a = steady_state(cfg(InternalRaid::None, 2), &params, Hours(24.0)).unwrap();
        let expected = a.unavailability * HOURS_PER_YEAR * 3600.0;
        assert!((a.downtime_seconds_per_year - expected).abs() < 1e-9);
    }
}
