//! Fail-in-place operations walkthrough (§3): provisioning spares for the
//! service life, watching the pool erode, and connecting the reliability
//! target to mission risk. The closing lines name the commands that run
//! the same failures on live bricks.
//!
//! Run with:
//!
//! ```text
//! cargo run -p nsr-cli --example fail_in_place
//! ```

use nsr_core::config::Configuration;
use nsr_core::metrics::TARGET_EVENTS_PER_PB_YEAR;
use nsr_core::mission::loss_probability;
use nsr_core::params::Params;
use nsr_core::plan::{feasible_plans, min_rebuild_block_for_target};
use nsr_core::spares::SpareModel;
use nsr_core::units::HOURS_PER_YEAR;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::baseline();

    // --- 1. Spare provisioning: does 75 % utilization cover the service
    // life with no field service?
    let spares = SpareModel::new(params)?;
    println!("fail-in-place provisioning at the §6 baseline:");
    println!(
        "  expected erosion: {:.1} drive failures + {:.1} node failures per year",
        spares.drive_failures_per_hour() * HOURS_PER_YEAR,
        spares.node_failures_per_hour() * HOURS_PER_YEAR
    );
    println!(
        "  spare pool {:.1} TB lasts {:.1} years in expectation",
        spares.spare_pool().0 / 1e12,
        spares.expected_lifetime()?.to_years()
    );
    for years in [3.0, 5.0, 7.0] {
        println!(
            "  P(pool survives {years} years) = {:.3}",
            spares.survival_probability(years)?
        );
    }
    println!(
        "  utilization for a guaranteed-5-year expected life: {:.1}%",
        100.0 * spares.utilization_for_lifetime(5.0)?
    );

    // --- 2. Planning: feasible configurations for the paper's target,
    // cheapest first, with the rebuild-block knob sized.
    println!("\nconfigurations meeting {TARGET_EVENTS_PER_PB_YEAR:.0e} events/PB-year:");
    for plan in feasible_plans(&params, TARGET_EVENTS_PER_PB_YEAR, 3)? {
        println!(
            "  {:<28} efficiency {:>5.1}%  margin {:>4.1} dex",
            format!("{}", plan.config),
            100.0 * plan.efficiency,
            plan.evaluation.closed_form.margin_orders()
        );
    }
    let pick = Configuration::new(nsr_core::raid::InternalRaid::Raid5, 2)?;
    let block = min_rebuild_block_for_target(&params, pick, TARGET_EVENTS_PER_PB_YEAR)?;
    println!(
        "  [{pick}] needs rebuild blocks of at least {:.0} KiB",
        block.0 / 1024.0
    );

    // --- 3. Mission risk over the 5-year horizon the target implies.
    println!("\nmission risk (5 years):");
    for (internal, ft) in [
        (nsr_core::raid::InternalRaid::None, 2u32),
        (nsr_core::raid::InternalRaid::Raid5, 2),
        (nsr_core::raid::InternalRaid::None, 3),
    ] {
        let config = Configuration::new(internal, ft)?;
        println!(
            "  {:<28} P(loss in 5y) = {:.3e}",
            format!("{config}"),
            loss_probability(config, &params, 5.0)?
        );
    }

    // The same story on actual bytes — bricks serving degraded reads,
    // detecting a kill -9 and rebuilding onto a spare — is a live cluster:
    println!("\nbyte-level drill on live bricks:");
    println!("  nsr workload --ops 120 --object-bytes 4096 --seed 42");
    println!("  nsr cluster-inject --bricks 4 --plan kill9-single --seed 42");
    Ok(())
}
