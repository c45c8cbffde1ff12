//! Integration: mission reliability (transient solutions) against the
//! system simulator's empirical loss-time distribution, and the planner
//! against the figures it summarizes.

use nsr_core::config::Configuration;
use nsr_core::metrics::TARGET_EVENTS_PER_PB_YEAR;
use nsr_core::mission::{loss_curve, loss_probability};
use nsr_core::params::Params;
use nsr_core::plan::{feasible_plans, storage_efficiency};
use nsr_core::raid::InternalRaid;
use nsr_core::spares::SpareModel;
use nsr_core::sweep::fig13_baseline;
use nsr_rng::rngs::StdRng;
use nsr_rng::SeedableRng;
use nsr_sim::system::SystemSim;

#[test]
fn mission_curve_matches_simulated_loss_times() {
    // FT1 no-IR at baseline: the simulator produces loss-time samples;
    // the empirical CDF at T must match the transient solution within
    // sampling noise + the deterministic-repair modeling gap.
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).unwrap();
    let sim = SystemSim::new(params, config).unwrap();
    let mut rng = StdRng::seed_from_u64(424242);
    let n = 2000;
    let mut times: Vec<f64> = (0..n)
        .map(|_| sim.simulate_one(&mut rng).unwrap().time_hours)
        .collect();
    times.sort_by(f64::total_cmp);

    for years in [0.05, 0.15, 0.3] {
        let horizon = years * nsr_core::units::HOURS_PER_YEAR;
        let empirical = times.iter().filter(|&&t| t <= horizon).count() as f64 / n as f64;
        let analytic = loss_probability(config, &params, years).unwrap();
        // Binomial noise at n=2000 plus ~10 % structural tolerance.
        let noise = 4.0 * (analytic * (1.0 - analytic) / n as f64).sqrt();
        assert!(
            (empirical - analytic).abs() < 0.1 * analytic + noise + 0.01,
            "T={years}y: empirical {empirical:.4} vs transient {analytic:.4}"
        );
    }
}

#[test]
fn mission_curve_is_monotone_and_saturates() {
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).unwrap();
    let curve = loss_curve(config, &params, &[0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]).unwrap();
    for w in curve.windows(2) {
        assert!(w[1].loss_probability >= w[0].loss_probability);
    }
    assert!(curve.last().unwrap().loss_probability > 0.999);
    assert!(curve.first().unwrap().loss_probability < 0.5);
}

#[test]
fn planner_agrees_with_figure_13() {
    // The feasible set must be exactly the configurations Figure 13 shows
    // under the target line.
    let params = Params::baseline();
    let plans = feasible_plans(&params, TARGET_EVENTS_PER_PB_YEAR, 3).unwrap();
    let from_fig13: Vec<Configuration> = fig13_baseline(&params)
        .unwrap()
        .into_iter()
        .filter(|(_, r)| r.meets_target())
        .map(|(c, _)| c)
        .collect();
    assert_eq!(plans.len(), from_fig13.len());
    for plan in &plans {
        assert!(from_fig13.contains(&plan.config), "{}", plan.config);
    }
}

#[test]
fn efficiency_ranking_prefers_no_internal_raid_at_equal_ft() {
    // At the same fault tolerance, internal RAID costs capacity; where
    // both are feasible, the planner must rank no-IR first.
    let params = Params::baseline();
    let nir3 = Configuration::new(InternalRaid::None, 3).unwrap();
    let ir5_3 = Configuration::new(InternalRaid::Raid5, 3).unwrap();
    assert!(storage_efficiency(&params, nir3) > storage_efficiency(&params, ir5_3));
    let plans = feasible_plans(&params, TARGET_EVENTS_PER_PB_YEAR, 3).unwrap();
    let pos = |c: Configuration| plans.iter().position(|p| p.config == c).unwrap();
    assert!(pos(nir3) < pos(ir5_3));
}

#[test]
fn spare_provisioning_covers_the_targets_mission() {
    // The §6 target is phrased over 5 years; the §6 capacity provisioning
    // (75 %) indeed budgets ≈5 years of fail-in-place life — the two
    // design choices are consistent, and our models expose that.
    let spares = SpareModel::new(Params::baseline()).unwrap();
    let life = spares.expected_lifetime().unwrap().to_years();
    assert!((4.0..6.5).contains(&life), "lifetime {life:.2} years");
    // Tightening utilization extends life.
    let mut p = Params::baseline();
    p.system.capacity_utilization = 0.5;
    let longer = SpareModel::new(p)
        .unwrap()
        .expected_lifetime()
        .unwrap()
        .to_years();
    assert!(longer > 1.9 * life);
}

#[test]
fn mission_risk_scales_with_capacity_normalization() {
    // Two systems with identical MTTDL but different sizes have identical
    // mission risk (mission risk is per system, not per PB) — guard the
    // distinction between the two metrics.
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::Raid5, 2).unwrap();
    let p_mission = loss_probability(config, &params, 5.0).unwrap();
    let eval = config.evaluate(&params).unwrap();
    // events/PB-year × capacity × years ≈ mission risk for small risks.
    let capacity_pb = config.model(&params).unwrap().logical_capacity.to_pb();
    let approx = eval.exact.events_per_pb_year * capacity_pb * 5.0;
    assert!(
        (p_mission - approx).abs() / approx < 0.05,
        "mission {p_mission:.3e} vs rate-based {approx:.3e}"
    );
}
