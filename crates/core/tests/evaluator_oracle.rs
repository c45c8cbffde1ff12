//! The evaluator against the oracle, bit for bit.
//!
//! `CachedEvaluator` gets its exact MTTDL from one numeric elimination
//! through a compiled, process-wide shared program; the oracle is
//! `AbsorbingAnalysis` over the labelled chain `exact_chain` builds from
//! scratch. Over FT 1–7 × {no IR, RAID 5, RAID 6} — every chain the CLI
//! can build, up to the 255-state FT 7 recursive one — and several
//! hundred seeded parameter points the two must agree `to_bits`, fail
//! together, and keep agreeing when eight threads share the registry and
//! when one evaluator is reused across unrelated points.
//!
//! No valid `Params` silences a transient state (the structural caveat
//! in `nsr_markov`'s batch module): every degraded state keeps its
//! repair transition `μ > 0`, every state keeps a failure exit, and a
//! saturated `h = 1` zeroes only the transitions *into* a child. So
//! "oracle succeeds, evaluator refuses" never happens on these points,
//! and the first test asserts exactly that.

use std::sync::Barrier;

use nsr_core::config::{CachedEvaluator, Configuration, Evaluation};
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::sweep::sweep;
use nsr_core::units::{Bytes, Gbps, Hours};
use nsr_core::Error;
use nsr_markov::AbsorbingAnalysis;
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

const POINTS_PER_CONFIG: usize = 40;

/// Hard-error rates from "none" to values that push the FT 1 `h` family
/// past 1, where the exact chain saturates it and child rates are
/// exactly 0 (`C·HER` itself stays below 1, as validation demands).
const HERS: [f64; 7] = [0.0, 1e-16, 1e-15, 1e-14, 5e-14, 1e-13, 3e-13];

fn configs(fts: std::ops::RangeInclusive<u32>) -> Vec<Configuration> {
    fts.flat_map(|ft| {
        InternalRaid::all()
            .into_iter()
            .map(move |ir| Configuration::new(ir, ft).unwrap())
    })
    .collect()
}

/// One seeded point: baseline-scaled MTTFs and a random geometry, block
/// size, link speed and error rate. Some points are infeasible on
/// purpose (R > N, t ≥ R, too few drives for the RAID level).
fn point<R: Rng + ?Sized>(rng: &mut R) -> Params {
    let mut p = Params::baseline();
    p.drive.mttf = Hours(300_000.0 * rng.random_range_f64(0.2, 5.0));
    p.node.mttf = Hours(400_000.0 * rng.random_range_f64(0.2, 5.0));
    p.system.node_count = rng.random_range_usize(4, 257) as u32;
    p.system.redundancy_set_size = rng.random_range_usize(2, 17) as u32;
    p.node.drives_per_node = rng.random_range_usize(1, 33) as u32;
    p.system.rebuild_command = Bytes::from_kib(f64::from(1u32 << rng.random_range_usize(2, 11)));
    p.system.link_speed = Gbps(rng.random_range_f64(1.0, 10.0));
    p.drive.hard_error_rate_per_bit = HERS[rng.random_range_usize(0, HERS.len())];
    p
}

fn points(seed: u64, n: usize) -> Vec<Params> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| point(&mut rng)).collect()
}

/// The from-scratch answer: `Err` when the model cannot be built,
/// `Ok(None)` when the oracle itself fails or yields a non-finite MTTDL.
fn oracle(config: Configuration, p: &Params) -> Result<Option<f64>, Error> {
    let (chain, root) = config.exact_chain(p)?;
    Ok(AbsorbingAnalysis::new(&chain)
        .and_then(|a| a.mean_time_to_absorption(root))
        .ok()
        .filter(|v| v.is_finite()))
}

/// What two evaluations must agree on: every bit of an `Ok`, the whole
/// error of an `Err`.
fn fingerprint(r: Result<Evaluation, Error>) -> Result<(u64, u64), Error> {
    r.map(|e| {
        (
            e.exact.mttdl_hours.to_bits(),
            e.closed_form.mttdl_hours.to_bits(),
        )
    })
}

#[test]
fn evaluator_equals_the_oracle_bit_for_bit() {
    let (mut feasible, mut infeasible) = (0, 0);
    for (ci, config) in configs(1..=7).into_iter().enumerate() {
        let mut evaluator = CachedEvaluator::new(config);
        for (pi, p) in points(0x0eac_1e00 + ci as u64, POINTS_PER_CONFIG)
            .iter()
            .enumerate()
        {
            let got = evaluator.evaluate(p);
            match oracle(config, p) {
                Err(e) => {
                    // Same construction path, so the very same error —
                    // and an infeasible point stays `Infeasible`.
                    assert_eq!(got.unwrap_err(), e, "{config} point {pi}");
                    infeasible += 1;
                }
                Ok(Some(want)) => {
                    let got = got.unwrap_or_else(|e| {
                        panic!("{config} point {pi}: oracle {want:e}, evaluator refused: {e}")
                    });
                    assert_eq!(
                        got.exact.mttdl_hours.to_bits(),
                        want.to_bits(),
                        "{config} point {pi}: {} vs {want}",
                        got.exact.mttdl_hours
                    );
                    feasible += 1;
                }
                Ok(None) => assert!(got.is_err(), "{config} point {pi}: both must fail"),
            }
        }
    }
    // The generator must exercise both sides.
    assert!(feasible >= 200, "only {feasible} feasible points");
    assert!(infeasible >= 20, "only {infeasible} infeasible points");
}

#[test]
fn infeasible_points_stay_infeasible() {
    let mut p = Params::baseline();
    p.system.redundancy_set_size = 3;
    let c = Configuration::new(InternalRaid::None, 3).unwrap();
    assert!(matches!(c.evaluate(&p), Err(Error::Infeasible { .. })));
    assert!(matches!(c.closed_form(&p), Err(Error::Infeasible { .. })));
    let mut p = Params::baseline();
    p.node.drives_per_node = 2;
    let c = Configuration::new(InternalRaid::Raid6, 2).unwrap();
    assert!(matches!(c.evaluate(&p), Err(Error::Infeasible { .. })));
}

#[test]
fn eight_threads_sharing_the_registry_give_the_serial_bits() {
    // FT 8 appears nowhere else in this binary, so the threads below
    // race the *first* compile of its classes, not just lookups.
    let configs = configs(1..=8);
    let pts = points(0x0eac_1e77, 12);
    let barrier = Barrier::new(8);
    let per_thread: Vec<Vec<Result<(u64, u64), Error>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let mut out = Vec::new();
                    for &config in &configs {
                        let mut evaluator = CachedEvaluator::new(config);
                        for p in &pts {
                            out.push(fingerprint(evaluator.evaluate(p)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluator thread panicked"))
            .collect()
    });
    let mut serial = Vec::new();
    for &config in &configs {
        let mut evaluator = CachedEvaluator::new(config);
        for p in &pts {
            serial.push(fingerprint(evaluator.evaluate(p)));
        }
        // First bind counts as the build, however many threads bound
        // the class before.
        assert!(evaluator.skeleton_builds() <= 1);
        assert_eq!(
            evaluator.skeleton_builds() + evaluator.skeleton_reuses(),
            serial[serial.len() - pts.len()..]
                .iter()
                .filter(|r| matches!(r, Ok(_) | Err(Error::Markov(_))))
                .count() as u64,
            "{config}: one exact solve per point that reached the solver"
        );
    }
    assert!(serial.iter().filter(|r| r.is_ok()).count() >= 100);
    for (t, got) in per_thread.iter().enumerate() {
        assert_eq!(got, &serial, "thread {t}");
    }
}

#[test]
fn a_reused_evaluator_equals_a_fresh_one_at_every_point() {
    for (ci, config) in configs(1..=4).into_iter().enumerate() {
        let mut reused = CachedEvaluator::new(config);
        for (pi, p) in points(0x0eac_1eaa + ci as u64, 20).iter().enumerate() {
            assert_eq!(
                fingerprint(reused.evaluate(p)),
                fingerprint(config.evaluate(p)),
                "{config} point {pi}"
            );
        }
    }
}

#[test]
fn an_overflowed_mttdl_is_an_empty_cell_not_a_perfect_one() {
    // MTTFs of 1e300 h validate (positive, finite) but every MTTDL
    // overflows. The closed form reads +inf and the exact elimination
    // overflows too; both are refused, the sweep shows an infeasible
    // cell — not `events_per_pb_year = 0`.
    let mut base = Params::baseline();
    base.node.mttf = Hours(1e300);
    let configs = Configuration::sensitivity_set();
    let s = sweep(
        &base,
        &configs,
        "drive MTTF",
        "h",
        &[300_000.0, 1e300],
        |p, x| p.drive.mttf = Hours(x),
    )
    .unwrap();
    for cell in &s.rows[1].cells {
        assert_eq!(cell.reliability, None, "{}", cell.config);
    }
    let mut p = base;
    p.drive.mttf = Hours(1e300);
    for config in configs {
        assert!(config.evaluate(&p).is_err(), "{config}");
        assert!(config.closed_form(&p).is_err(), "{config}");
    }
}
