//! Integration: the analytic MTTDLs against two independent stochastic
//! implementations — the system-level discrete-event simulator and the
//! rare-event (importance sampling) estimator.

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::units::Hours;
use nsr_rng::rngs::StdRng;
use nsr_rng::SeedableRng;
use nsr_sim::importance::{Options, RareEvent};
use nsr_sim::system::{LossCause, SystemSim};

#[test]
fn system_sim_matches_analytic_ft1_baseline() {
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).unwrap();
    let sim = SystemSim::new(params, config).unwrap();
    let out = sim.run(3000, 101).unwrap();
    let exact = config.evaluate(&params).unwrap().exact.mttdl_hours;
    let diff = (out.mttdl.mean - exact).abs();
    assert!(
        diff < 0.15 * exact + 4.0 * out.mttdl.std_err,
        "sim {} vs exact {exact:.4e}",
        out.mttdl
    );
}

#[test]
fn system_sim_matches_analytic_ft2_degraded() {
    // Degrade MTTFs so FT2 losses arrive quickly enough for direct
    // simulation; the analytic-vs-simulated comparison is parameter-
    // independent.
    let mut params = Params::baseline();
    params.drive.mttf = Hours(20_000.0);
    params.node.mttf = Hours(30_000.0);
    let config = Configuration::new(InternalRaid::None, 2).unwrap();
    let sim = SystemSim::new(params, config).unwrap();
    let out = sim.run(500, 7).unwrap();
    let exact = config.evaluate(&params).unwrap().exact.mttdl_hours;
    let diff = (out.mttdl.mean - exact).abs();
    // Deterministic + concurrent repairs vs exponential + serialized: the
    // structures differ at O(λ/μ); at these degraded rates allow 25 %.
    assert!(
        diff < 0.25 * exact + 4.0 * out.mttdl.std_err,
        "sim {} vs exact {exact:.4e}",
        out.mttdl
    );
}

#[test]
fn system_sim_matches_analytic_internal_raid() {
    let mut params = Params::baseline();
    params.drive.mttf = Hours(10_000.0);
    params.node.mttf = Hours(15_000.0);
    let config = Configuration::new(InternalRaid::Raid5, 1).unwrap();
    let sim = SystemSim::new(params, config).unwrap();
    let out = sim.run(600, 31).unwrap();
    let exact = config.evaluate(&params).unwrap().exact.mttdl_hours;
    let diff = (out.mttdl.mean - exact).abs();
    assert!(
        diff < 0.25 * exact + 4.0 * out.mttdl.std_err,
        "sim {} vs exact {exact:.4e}",
        out.mttdl
    );
}

#[test]
fn loss_cause_split_matches_absorption_probabilities() {
    // The simulator's sector-vs-failure split should track the chain's
    // absorption probabilities (FT1 no-IR at baseline, where both paths
    // are active).
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).unwrap();
    let sim = SystemSim::new(params, config).unwrap();
    let out = sim.run(3000, 13).unwrap();

    // Analytic split from the recursive chain.
    use nsr_core::no_raid::NoRaidSystem;
    let point = config.model(&params).unwrap();
    let sys = NoRaidSystem::new(
        1,
        params.system.node_count,
        params.system.redundancy_set_size,
        params.node.drives_per_node,
        point.node_failure_rate,
        point.drive_failure_rate,
        point.node_rebuild.rate,
        point.drive_repair.rate,
        params.drive.c_her(),
    )
    .unwrap();
    let analytic_share = sys.recursive().sector_loss_share().unwrap();
    assert!(
        (out.sector_share - analytic_share).abs() < 0.05,
        "sim {} vs analytic {analytic_share}",
        out.sector_share
    );
}

#[test]
fn importance_sampling_reaches_configurations_simulation_cannot() {
    // [FT2, IR5] at baseline: MTTDL ~1.3e10 h. Direct simulation is
    // hopeless; IS must land within its error bars of the GTH solution.
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::Raid5, 2).unwrap();
    let exact = config.evaluate(&params).unwrap().exact.mttdl_hours;
    let (ctmc, root) = config.exact_chain(&params).unwrap();
    assert_eq!(ctmc.label(root), "failed:0");
    let est = RareEvent::new(&ctmc, root).unwrap();
    let mut rng = StdRng::seed_from_u64(555);
    let r = est
        .estimate(
            Options {
                gamma_cycles: 40_000,
                ..Options::default()
            },
            &mut rng,
        )
        .unwrap();
    assert!(
        r.contains(exact, 5.0),
        "IS {:.4e} (±{:.1}%) vs exact {exact:.4e}",
        r.mtta,
        100.0 * r.rel_err
    );
}

#[test]
fn importance_sampling_on_recursive_chain() {
    // The FT2 no-IR recursive chain at baseline (MTTDL ~2e7 h).
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 2).unwrap();
    let exact = config.evaluate(&params).unwrap().exact.mttdl_hours;
    let (ctmc, root) = config.exact_chain(&params).unwrap();
    assert_eq!(ctmc.label(root), "00");
    let est = RareEvent::new(&ctmc, root).unwrap();
    let mut rng = StdRng::seed_from_u64(9001);
    let r = est
        .estimate(
            Options {
                gamma_cycles: 60_000,
                ..Options::default()
            },
            &mut rng,
        )
        .unwrap();
    assert!(
        r.contains(exact, 5.0) && r.rel_err < 0.35,
        "IS {:.4e} (±{:.1}%) vs exact {exact:.4e}",
        r.mtta,
        100.0 * r.rel_err
    );
}

#[test]
fn simulator_cause_types_cover_both_paths() {
    // Over many FT1 runs both loss causes must appear (h < 1 for drive
    // words, and excess failures remain possible).
    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).unwrap();
    let sim = SystemSim::new(params, config).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut causes = std::collections::HashSet::new();
    for _ in 0..3000 {
        causes.insert(sim.simulate_one(&mut rng).unwrap().cause);
        if causes.len() == 2 {
            break;
        }
    }
    assert!(causes.contains(&LossCause::SectorError));
    assert!(causes.contains(&LossCause::ExcessFailures));
}

#[test]
fn faster_rebuild_block_improves_simulated_mttdl() {
    // The Figure 16 effect, reproduced by the simulator rather than the
    // models.
    let mut params = Params::baseline();
    params.drive.mttf = Hours(30_000.0);
    params.node.mttf = Hours(40_000.0);
    let config = Configuration::new(InternalRaid::None, 2).unwrap();

    params.system.rebuild_command = nsr_core::units::Bytes::from_kib(16.0);
    let slow = SystemSim::new(params, config)
        .unwrap()
        .estimate_mttdl(300, 77)
        .unwrap();
    params.system.rebuild_command = nsr_core::units::Bytes::from_kib(256.0);
    let fast = SystemSim::new(params, config)
        .unwrap()
        .estimate_mttdl(300, 77)
        .unwrap();
    assert!(
        fast.mean > slow.mean,
        "256 KiB {} should beat 16 KiB {}",
        fast.mean,
        slow.mean
    );
}
