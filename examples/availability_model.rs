//! Beyond MTTDL: mission reliability and availability from the same
//! Markov machinery.
//!
//! The paper reports MTTDL-derived event rates; the underlying chains
//! carry more information. This example computes, for the recommended
//! [FT2, Internal RAID 5] configuration:
//!
//! * the probability of surviving a 5-year mission without data loss
//!   (transient solution by uniformization),
//! * the long-run fraction of time the system spends degraded
//!   (stationary distribution of the chain with loss states repaired),
//! * the expected time spent in each degradation level before a loss
//!   (fundamental-matrix occupancies).
//!
//! Run with:
//!
//! ```text
//! cargo run -p nsr-cli --example availability_model
//! ```

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::units::Hours;
use nsr_core::units::HOURS_PER_YEAR;
use nsr_markov::{transient_distribution, AbsorbingAnalysis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::baseline();
    let t = 2;
    let config = Configuration::new(InternalRaid::Raid5, t)?;
    let (ctmc, root) = config.exact_chain(&params)?;

    // --- Mission reliability: P(no data loss within T) = transient mass
    // still in the transient states at T.
    println!("mission reliability for [FT 2, Internal RAID 5]:");
    let mut pi0 = vec![0.0; ctmc.len()];
    pi0[root.index()] = 1.0;
    for years in [1.0, 5.0, 20.0] {
        let pi = transient_distribution(&ctmc, &pi0, years * HOURS_PER_YEAR, 1e-12)?;
        let lost: f64 = ctmc.absorbing_states().iter().map(|s| pi[s.index()]).sum();
        println!("  P(data loss within {years:>4} y) = {:.3e}", lost);
    }

    // --- Degradation profile: expected time in each transient state per
    // loss event (the τ_i of the appendix's equation A.1).
    let analysis = AbsorbingAnalysis::new(&ctmc)?;
    let mttdl = analysis.mean_time_to_absorption(root)?;
    println!("\nexpected occupancy before a loss (MTTDL = {mttdl:.3e} h):");
    for s in analysis.transient_states() {
        let occupancy = analysis.expected_time_in(root, *s)?;
        println!(
            "  state {:<10} {:>12.4e} h ({:.2e} of lifetime)",
            ctmc.label(*s),
            occupancy,
            occupancy / mttdl
        );
    }

    // --- Long-run availability view: close the loss states with a
    // "restore from backup" repair (one week) and solve the stationary
    // distribution — packaged as `nsr_core::availability::steady_state`.
    let a = nsr_core::availability::steady_state(config, &params, Hours(168.0))?;
    println!(
        "\nwith week-long restores from backup: steady-state unavailability = {:.3e}",
        a.unavailability
    );
    println!(
        "  = {:.1} nines, {:.2} seconds of downtime per year, degraded {:.2e} of the time",
        a.nines, a.downtime_seconds_per_year, a.degraded_fraction
    );
    Ok(())
}
