//! Panic-freedom properties: every public constructor and solver in the
//! workspace returns a typed `Err` — never panics — when fed malformed
//! input. The fuzzing loops draw adversarial values (NaN, ±∞, negatives,
//! zeros, out-of-range indices) from the in-repo PRNG; the property being
//! tested is simply that each call completes and yields `Err`.

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::scope::HParams;
use nsr_erasure::rs::ReedSolomon;
use nsr_markov::{
    stationary_distribution, transient_distribution, validate_generator, AbsorbingAnalysis,
    CtmcBuilder,
};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};
use nsr_sim::faultinject::{Campaign, FaultKind, FaultPlan};
use nsr_sim::system::SystemSim;

/// A stream of adversarial floating-point values.
fn hostile_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range_usize(0, 6) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -rng.random::<f64>() - f64::MIN_POSITIVE,
        4 => f64::MIN,
        _ => -1.0,
    }
}

#[test]
fn markov_builder_and_solvers_reject_invalid_input() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..100 {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("b");
        assert!(b.add_transition(a, c, hostile_f64(&mut rng)).is_err());
        assert!(b.add_transition(a, a, 1.0).is_err(), "self-loop accepted");
        // A StateId minted by a *different* builder with more states.
        let mut other = CtmcBuilder::new();
        let mut foreign = other.add_state("f");
        for i in 0..3 {
            foreign = other.add_state(format!("f{i}"));
        }
        assert!(b.add_transition(a, foreign, 1.0).is_err());
    }

    // Empty chain.
    assert!(CtmcBuilder::new().build().is_err());

    // Analysis preconditions.
    let mut b = CtmcBuilder::new();
    let x = b.add_state("x");
    let y = b.add_state("y");
    b.add_transition(x, y, 1.0).unwrap();
    b.add_transition(y, x, 1.0).unwrap();
    let cyclic = b.build().unwrap();
    assert!(
        AbsorbingAnalysis::new(&cyclic).is_err(),
        "no absorbing state"
    );

    // Reducible chain has no stationary distribution.
    let mut b = CtmcBuilder::new();
    let x = b.add_state("x");
    let y = b.add_state("y");
    b.add_state("unreachable");
    b.add_transition(x, y, 1.0).unwrap();
    b.add_transition(y, x, 1.0).unwrap();
    let reducible = b.build().unwrap();
    assert!(stationary_distribution(&reducible).is_err());

    // Transient distribution with hostile horizon / tolerance / initial
    // distribution.
    let mut rng = StdRng::seed_from_u64(3);
    let pi0 = [1.0, 0.0];
    for _ in 0..50 {
        let t = hostile_f64(&mut rng);
        assert!(
            transient_distribution(&cyclic, &pi0, t, 1e-12).is_err(),
            "accepted horizon {t}"
        );
        assert!(transient_distribution(&cyclic, &pi0, 1.0, hostile_f64(&mut rng)).is_err());
    }
    assert!(transient_distribution(&cyclic, &[0.5, 0.2], 1.0, 1e-12).is_err());
    assert!(transient_distribution(&cyclic, &[1.0], 1.0, 1e-12).is_err());

    // Generator validation on corrupted matrices.
    let q = cyclic.generator();
    validate_generator(&q).unwrap();
    let mut bad = q.clone();
    bad[(0, 1)] = f64::NAN;
    assert!(validate_generator(&bad).is_err());
    let mut bad = q.clone();
    bad[(1, 0)] = -1.0;
    assert!(validate_generator(&bad).is_err());
    let mut bad = q;
    bad[(0, 0)] = 5.0;
    assert!(validate_generator(&bad).is_err());
}

#[test]
fn core_models_reject_infeasible_shapes() {
    // Fault tolerance must be at least 1.
    assert!(Configuration::new(InternalRaid::None, 0).is_err());

    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..100 {
        let c_her = hostile_f64(&mut rng);
        assert!(
            HParams::new(1, 32, 8, 12, c_her).is_err(),
            "accepted c_her {c_her}"
        );
    }
    // r > n is structurally impossible.
    assert!(HParams::new(1, 4, 8, 12, 1e-14).is_err());
    // t >= r leaves no data shards.
    assert!(HParams::new(8, 32, 8, 12, 1e-14).is_err());
}

#[test]
fn erasure_constructors_and_store_reject_invalid_geometry() {
    assert!(ReedSolomon::new(0, 2).is_err());
    assert!(ReedSolomon::new(2, 0).is_err());
    assert!(ReedSolomon::new(200, 100).is_err(), "exceeds GF(256) limit");

    let code = ReedSolomon::new(3, 2).unwrap();
    // Wrong shard count and mismatched shard sizes.
    assert!(code.encode(&[vec![0u8; 8]]).is_err());
    assert!(code
        .encode(&[vec![0u8; 8], vec![0u8; 8], vec![0u8; 4]])
        .is_err());
}

#[test]
fn reconstruct_and_decode_plans_never_panic() {
    // `reconstruct` used to reach an `.expect("any k rows of an MDS
    // generator are invertible")`; together with the plan API it must now
    // return typed errors for every hostile input shape. The property:
    // each call completes (no panic) and malformed input yields `Err`.
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..200 {
        let k = rng.random_range_usize(1, 6);
        let t = rng.random_range_usize(1, 4);
        let code = ReedSolomon::new(k, t).unwrap();
        let r = k + t;
        let len = rng.random_range_usize(0, 40);

        // Random stripe with random erasures, sometimes jagged sizes and
        // sometimes the wrong shard count.
        let count = if rng.random_range_usize(0, 4) == 0 {
            rng.random_range_usize(0, 2 * r + 1)
        } else {
            r
        };
        let mut shards: Vec<Option<Vec<u8>>> = (0..count)
            .map(|i| {
                if rng.random_range_usize(0, 3) == 0 {
                    None
                } else {
                    let jag = if rng.random_range_usize(0, 5) == 0 {
                        1
                    } else {
                        0
                    };
                    Some(vec![i as u8; len + jag])
                }
            })
            .collect();
        let _ = code.reconstruct(&mut shards); // must not panic

        // Hostile erasure patterns for the plan builder.
        let missing: Vec<usize> = (0..rng.random_range_usize(0, r + 3))
            .map(|_| rng.random_range_usize(0, 2 * r + 2))
            .collect();
        // Typed rejection by the plan builder is an accepted outcome; when a
        // plan is produced, applying it to a stripe it was not built for must
        // error, never panic.
        if let Ok(plan) = code.plan_reconstruction(&missing) {
            let mut stripe: Vec<Option<Vec<u8>>> = (0..r)
                .map(|_| (rng.random_range_usize(0, 3) != 0).then(|| vec![0u8; len]))
                .collect();
            let _ = code.reconstruct_with_plan(&plan, &mut stripe);
        }
    }
}

#[test]
fn sim_and_fault_plans_reject_invalid_input() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..100 {
        let v = hostile_f64(&mut rng);
        assert!(
            FaultPlan::builder()
                .at(v, FaultKind::NodeCrash)
                .build()
                .is_err(),
            "accepted injection time {v}"
        );
        assert!(FaultPlan::builder()
            .poisson(v, FaultKind::DriveFailure)
            .build()
            .is_err());
        assert!(
            FaultPlan::builder()
                .bandwidth(0.0, 10.0, 1.5)
                .build()
                .is_err(),
            "factor above 1 accepted"
        );
        assert!(FaultPlan::builder().horizon_hours(v).build().is_err());
    }
    assert!(
        FaultPlan::builder().burst(1.0, 0, 1.0).build().is_err(),
        "empty burst"
    );
    assert!(FaultPlan::named("no-such-plan").is_err());
    assert!(FaultPlan::pure_exponential(-1.0).is_err());

    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).unwrap();
    let sim = SystemSim::new(params, config).unwrap();
    let plan = FaultPlan::pure_exponential(1e6).unwrap();
    let campaign = Campaign::new(&sim, &plan);
    assert!(campaign.run_many(0, 1).is_err());
}
