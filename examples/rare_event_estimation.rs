//! Rare-event estimation: measure the MTTDL of an ultra-reliable
//! configuration by importance sampling and compare against the exact
//! (GTH) solution and the paper's closed form.
//!
//! [FT2, Internal RAID 5] at the baseline has an MTTDL around 10¹⁰ hours;
//! direct simulation would need ~10⁷ component failures per observed loss.
//! Balanced failure biasing gets a tight estimate from ~10⁵ short cycles.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p nsr-cli --example rare_event_estimation
//! ```

use nsr_core::config::Configuration;
use nsr_core::internal_raid::InternalRaidSystem;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_rng::rngs::StdRng;
use nsr_rng::SeedableRng;
use nsr_sim::importance::{Options, RareEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::baseline();
    let t = 2;

    // Assemble the hierarchical model by hand from the configuration's
    // model point, to expose every stage.
    let point = Configuration::new(InternalRaid::Raid5, t)?.model(&params)?;
    println!(
        "re-stripe after an internal drive failure: {:.1} h",
        point.drive_repair.duration.0
    );

    let rates = point.array_rates().expect("internal RAID has array rates");
    println!(
        "array output rates: λ_D = {:.3e}/h, λ_S = {:.3e}/h",
        rates.lambda_array.0, rates.lambda_sector.0
    );

    let sys = InternalRaidSystem::new(
        params.system.node_count,
        params.system.redundancy_set_size,
        t,
        point.node_failure_rate,
        rates,
        point.node_rebuild.rate,
    )?;

    let exact = sys.mttdl_exact()?;
    let closed = sys.mttdl_paper();
    println!("\nexact (GTH) MTTDL:      {:.4e} h", exact.0);
    println!("paper closed form:      {:.4e} h", closed.0);

    // Importance sampling on the very same chain.
    let ctmc = sys.ctmc()?;
    let root = ctmc.state_by_label("failed:0").expect("root exists");
    let estimator = RareEvent::new(&ctmc, root)?;
    let mut rng = StdRng::seed_from_u64(2024);
    for cycles in [5_000u64, 20_000, 80_000] {
        let r = estimator.estimate(
            Options {
                gamma_cycles: cycles,
                time_cycles: cycles,
                ..Options::default()
            },
            &mut rng,
        )?;
        println!(
            "IS with {cycles:>6} cycles: {:.4e} h  (±{:.1}%, γ = {:.3e})",
            r.mtta,
            100.0 * r.rel_err,
            r.gamma.mean
        );
    }
    println!("\n(the IS estimates should bracket the exact value within their error bars)");
    Ok(())
}
