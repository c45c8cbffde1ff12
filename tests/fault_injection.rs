//! Acceptance tests for the fault-injection layer:
//!
//! 1. **Exact replay** — running the same [`FaultPlan`] with the same seed
//!    twice produces byte-identical event traces.
//! 2. **Replayable loss seeds** — every seed a campaign summary reports
//!    as lost loses again when replayed alone.
//!
//! A campaign with no injections is `SystemSim::simulate_one` seed for
//! seed (the `faultinject` unit tests), whose MTTDL the `system` unit
//! tests check against the analytic chain.
//!
//! Degraded operation on real bytes under a campaign's crashes is the
//! `kill9-*` plans of `nsr cluster-inject` (`crates/cli/tests/cluster_smoke.rs`).

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_sim::faultinject::{Campaign, FaultPlan};
use nsr_sim::system::SystemSim;

fn baseline_sim() -> SystemSim {
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).unwrap();
    SystemSim::new(params, config).unwrap()
}

#[test]
fn same_plan_and_seed_replay_byte_identical() {
    let sim = baseline_sim();
    for name in FaultPlan::names() {
        let plan = FaultPlan::named(name).unwrap();
        let campaign = Campaign::new(&sim, &plan);
        for seed in [0u64, 42, 0xDEAD_BEEF] {
            let a = campaign.run(seed).unwrap();
            let b = campaign.run(seed).unwrap();
            assert_eq!(
                a.trace.render(),
                b.trace.render(),
                "plan {name:?} seed {seed} replay diverged"
            );
            assert_eq!(a, b, "plan {name:?} seed {seed} report diverged");
        }
    }
}

#[test]
fn replay_survives_interleaved_campaigns() {
    // The trace must depend only on (plan, seed) — not on what other
    // campaigns ran in between (no hidden global state).
    let sim = baseline_sim();
    let burst = FaultPlan::named("burst").unwrap();
    let brownout = FaultPlan::named("brownout").unwrap();
    let first = Campaign::new(&sim, &burst).run(7).unwrap();
    let _ = Campaign::new(&sim, &brownout).run_many(5, 99).unwrap();
    let second = Campaign::new(&sim, &burst).run(7).unwrap();
    assert_eq!(first.trace.render(), second.trace.render());
}

#[test]
fn campaign_summary_reports_replayable_loss_seeds() {
    // Any seed reported in `loss_seeds` must reproduce a losing run when
    // replayed individually — that is the whole point of printing them.
    let sim = baseline_sim();
    let plan = FaultPlan::named("burst").unwrap();
    let campaign = Campaign::new(&sim, &plan);
    let summary = campaign.run_many(20, 2024).unwrap();
    assert_eq!(
        summary.survived + summary.loss_seeds.len() as u64,
        summary.runs
    );
    for &seed in &summary.loss_seeds {
        let replay = campaign.run(seed).unwrap();
        assert!(!replay.survived, "seed {seed} was reported as a loss");
    }
}
