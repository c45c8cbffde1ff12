//! Fleet-engine validation: worker-count determinism and rare-event
//! estimator cross-checks against *pinned* analytic MTTDLs.
//!
//! The analytic constants below are the `{:.17e}` exact-chain (dense GTH)
//! values captured in `crates/cli/tests/sweep_golden.rs`. Using the pins
//! rather than calling `evaluate()` means this test fails if *either*
//! side drifts: the estimators, or the analytic chain they are checked
//! against.
// The pins keep all 17 captured digits even where f64 rounds them.
#![allow(clippy::excessive_precision)]

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_sim::fleet::FleetSim;
use nsr_sim::importance::Options as IsOptions;
use nsr_sim::splitting::SplitOptions;

/// Pinned exact MTTDLs (hours) at baseline parameters.
const PIN_FT1_NIR: f64 = 1.690_407_877_891_973_61e3;
const PIN_FT2_NIR: f64 = 2.060_671_595_309_478_79e7;
const PIN_FT3_NIR: f64 = 1.944_876_729_871_446_23e11;
const PIN_FT2_IR5: f64 = 1.326_195_194_141_028_59e10;

fn fleet(internal: InternalRaid, t: u32, bricks: u64, years: f64) -> FleetSim {
    let config = Configuration::new(internal, t).unwrap();
    FleetSim::new(Params::baseline(), config, bricks, years).unwrap()
}

/// Same seed ⇒ byte-identical outcome and canonical trace at workers
/// 1, 4 and 16. This is the tentpole determinism guarantee: sharding is
/// a function of the fleet geometry and every draw comes from a
/// stateless per-entity stream, so thread scheduling cannot leak in.
/// FT 3 no-IR is the configuration the repo benchmark's fleet decade runs.
#[test]
fn same_seed_is_byte_identical_at_any_worker_count() {
    for (internal, t) in [
        (InternalRaid::None, 1),
        (InternalRaid::Raid5, 2),
        (InternalRaid::None, 3),
    ] {
        let sim = fleet(internal, t, 300 * 64, 5.0);
        let baseline = sim.run(2026, 1).unwrap();
        let trace = baseline.canonical_trace();
        for workers in [2u32, 4, 16] {
            let out = sim.run(2026, workers).unwrap();
            assert_eq!(baseline, out, "outcome drifted at {workers} workers");
            assert_eq!(
                trace,
                out.canonical_trace(),
                "canonical trace drifted at {workers} workers"
            );
        }
        // The trace is replay-stable: running again reproduces it too.
        assert_eq!(trace, sim.run(2026, 3).unwrap().canonical_trace());
    }
}

/// FT1 no-IR is lossy enough for direct observation: the renewal-rate
/// MTTDL must land near the pinned analytic value. (Deterministic vs
/// exponential rebuild shapes keep this a ~15 % agreement check, not a
/// CI containment check.)
#[test]
fn direct_fleet_estimate_matches_pinned_ft1() {
    let sim = fleet(InternalRaid::None, 1, 200 * 64, 10.0);
    let out = sim.run(11, 0).unwrap();
    let (mttdl, _) = out.mttdl_estimate().expect("FT1 fleet sees losses");
    let ratio = mttdl / PIN_FT1_NIR;
    assert!(
        (0.75..=1.35).contains(&ratio),
        "direct MTTDL {mttdl:.3e} vs pin {PIN_FT1_NIR:.3e} (ratio {ratio:.3})"
    );
}

/// Importance sampling (balanced failure biasing): the CI must contain
/// the pinned FT1–FT3 analytic MTTDLs within 4 standard errors.
#[test]
fn importance_cis_contain_pinned_ft1_ft2_ft3() {
    let opts = IsOptions {
        gamma_cycles: 6_000,
        time_cycles: 6_000,
        ..IsOptions::default()
    };
    for (t, pin) in [(1, PIN_FT1_NIR), (2, PIN_FT2_NIR), (3, PIN_FT3_NIR)] {
        let sim = fleet(InternalRaid::None, t, 100_000, 10.0);
        let est = sim.estimate_importance(opts, 9).unwrap();
        assert!(
            est.contains_analytic(4.0),
            "FT{t}: IS {:.4e} ±{:.4e} misses pin {pin:.4e} ({:.1}σ)",
            est.cell_mttdl.mtta,
            est.cell_mttdl.std_err(),
            est.sigmas_from_analytic()
        );
        assert!((est.analytic_cell_mttdl / pin - 1.0).abs() < 1e-12);
        // Fleet scaling: independent cells superpose their loss rates.
        let cells = sim.cells() as f64;
        assert!((est.fleet_mttdl_hours * cells / est.cell_mttdl.mtta - 1.0).abs() < 1e-12);
    }
}

/// Multilevel splitting: same 4σ containment as IS, on FT1–FT3 plus an
/// internal-RAID chain (different level structure).
#[test]
fn splitting_cis_contain_pinned_ft1_ft2_ft3() {
    let opts = SplitOptions {
        gamma_cycles: 3_000,
        time_cycles: 8_000,
        ..SplitOptions::default()
    };
    let cases = [
        (InternalRaid::None, 1, PIN_FT1_NIR),
        (InternalRaid::None, 2, PIN_FT2_NIR),
        (InternalRaid::None, 3, PIN_FT3_NIR),
        (InternalRaid::Raid5, 2, PIN_FT2_IR5),
    ];
    for (internal, t, pin) in cases {
        let sim = fleet(internal, t, 100_000, 10.0);
        let est = sim.estimate_splitting(opts, 5).unwrap();
        assert!(
            est.contains_analytic(4.0),
            "{internal:?} FT{t}: splitting {:.4e} ±{:.4e} misses pin {pin:.4e} ({:.1}σ)",
            est.cell_mttdl.mtta,
            est.cell_mttdl.std_err(),
            est.sigmas_from_analytic()
        );
        assert!((est.analytic_cell_mttdl / pin - 1.0).abs() < 1e-12);
    }
}

/// Cross-validation against an *external* oracle: the classic closed
/// form used by community data-loss calculators (sorock-os's
/// `data-loss-calculator` among them) for an `R`-component group
/// tolerating `t` failures with exponential failure/repair,
///
/// ```text
/// MTTDL = MTTF^(t+1) / ( R·(R−1)···(R−t) · MTTR^t )
/// ```
///
/// That formula knows nothing about drives, sector errors, or internal
/// RAID, so the comparison runs in a node-dominated regime: FT2 no-IR
/// with the drive-failure path suppressed (333× baseline drive MTTF,
/// zero hard error rate — *rare*, not silenced: zeroing drive rates
/// entirely degenerates the IS balanced-biasing measure, which spends
/// half its mass uniformly across failure transitions and would burn
/// it on transitions whose likelihood ratios underflow). Two mapping
/// subtleties: the paper declusters redundancy sets across the whole
/// node set, so any `t+1` *concurrent* node failures are fatal — the
/// calculator's "group size" is the `N`-node concurrent-failure
/// domain, not one `R`-node stripe — and the repair clock is the
/// model's own §5.1 node-rebuild time, so both sides price repair
/// identically. With that instantiation the paper's exact chain, the
/// calculator formula, and both rare-event estimators must all
/// describe the same birth–death process: the oracle is pinned within
/// 8 % of the exact chain, and both estimator CIs must contain the
/// exact value while landing within 15 % of the oracle.
#[test]
fn estimators_cross_validate_against_classic_calculator_formula() {
    let mut params = Params::baseline();
    params.drive.mttf = nsr_core::units::Hours(1e8);
    params.drive.hard_error_rate_per_bit = 0.0;
    let t = 2u32;
    let config = Configuration::new(InternalRaid::None, t).unwrap();

    // Classic-formula inputs: per-node MTTF and the model's own node
    // rebuild time (so both sides price the repair identically).
    let r = f64::from(params.system.node_count);
    let mttf = params.node.mttf.0;
    let mttr = 1.0 / config.model(&params).unwrap().node_rebuild.rate.0;
    let mut denom = 1.0;
    for i in 0..=t {
        denom *= r - f64::from(i);
    }
    let oracle = mttf.powi(t as i32 + 1) / (denom * mttr.powi(t as i32));

    let sim = FleetSim::new(params, config, 100_000, 10.0).unwrap();
    let analytic = sim.analytic_cell_mttdl().unwrap();
    let formula_err = (oracle / analytic - 1.0).abs();
    assert!(
        formula_err < 0.08,
        "classic formula {oracle:.4e} vs exact chain {analytic:.4e} ({:.2}% off)",
        100.0 * formula_err
    );

    let is_est = sim
        .estimate_importance(
            IsOptions {
                gamma_cycles: 8_000,
                time_cycles: 8_000,
                ..IsOptions::default()
            },
            13,
        )
        .unwrap();
    let split_est = sim
        .estimate_splitting(
            SplitOptions {
                gamma_cycles: 3_000,
                time_cycles: 8_000,
                ..SplitOptions::default()
            },
            13,
        )
        .unwrap();
    for est in [&is_est, &split_est] {
        assert!(
            est.contains_analytic(4.0),
            "{:?}: {:.4e} ±{:.4e} misses exact {analytic:.4e}",
            est.estimator,
            est.cell_mttdl.mtta,
            est.cell_mttdl.std_err()
        );
        let vs_oracle = (est.cell_mttdl.mtta / oracle - 1.0).abs();
        assert!(
            vs_oracle < 0.15,
            "{:?}: {:.4e} vs calculator oracle {oracle:.4e} ({:.1}% off)",
            est.estimator,
            est.cell_mttdl.mtta,
            100.0 * vs_oracle
        );
    }
}
