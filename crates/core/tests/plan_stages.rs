//! The planner's stage tables against the one-point path, off the
//! baseline.
//!
//! `plan_search` derives each configuration class and each `(N, R)`
//! geometry once per search and runs only the point stage per grid
//! point; `Configuration::closed_form` and `evaluate` run all three
//! stages for one point. Over seeded random base parameters — MTTFs,
//! hard-error rate, capacity, link speed, both command sizes, drives per
//! node and duplex — and a grid whose every axis has several values,
//! every pass-1 point must equal the one-point closed form and storage
//! efficiency bit for bit, every infeasible point must fail with the
//! same error text, and every frontier member's exact MTTDL must equal
//! `evaluate`'s.

use nsr_core::config::Configuration;
use nsr_core::params::{Duplex, Params};
use nsr_core::plan::{closed_form_pass, plan_search, storage_efficiency, ConfigSpace, PlanOptions};
use nsr_core::raid::InternalRaid;
use nsr_core::units::{Bytes, Gbps, Hours};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

const BASES: usize = 64;

/// A grid with infeasible corners on purpose: `t = 0`, `R > N` and, on
/// nodes with few drives, RAID levels that cannot re-stripe.
fn grid() -> ConfigSpace {
    ConfigSpace {
        nodes: vec![4, 16, 48],
        data_shards: vec![1, 3, 6],
        node_ft: vec![0, 1, 2, 4],
        internal: InternalRaid::all().to_vec(),
        spare_frac: vec![0.0, 0.3],
        rebuild_bw: vec![0.05, 0.5],
    }
}

fn base<R: Rng + ?Sized>(rng: &mut R) -> Params {
    let mut p = Params::baseline();
    p.drive.mttf = Hours(300_000.0 * rng.random_range_f64(0.1, 10.0));
    p.node.mttf = Hours(400_000.0 * rng.random_range_f64(0.1, 10.0));
    p.drive.hard_error_rate_per_bit = 10f64.powf(rng.random_range_f64(-17.0, -13.5));
    p.drive.capacity = Bytes::from_gb(rng.random_range_f64(50.0, 1_000.0));
    p.node.drives_per_node = rng.random_range_usize(1, 25) as u32;
    p.system.link_speed = Gbps(rng.random_range_f64(0.5, 40.0));
    p.system.rebuild_command = Bytes::from_kib(f64::from(1u32 << rng.random_range_usize(0, 13)));
    p.system.restripe_command = Bytes::from_kib(f64::from(1u32 << rng.random_range_usize(4, 13)));
    if rng.random_range_usize(0, 2) == 1 {
        p.system.duplex = Duplex::Half;
    }
    p
}

#[test]
fn stage_tables_equal_the_one_point_path_on_random_bases() {
    let space = grid();
    let mut rng = StdRng::seed_from_u64(0x0057_a9e5_0034);
    let (mut feasible, mut infeasible, mut solved) = (0, 0, 0);
    for b in 0..BASES {
        let base = base(&mut rng);
        let pass = closed_form_pass(&base, &space).expect("valid base and grid");
        assert_eq!(pass.len(), space.len());
        for (idx, got) in pass.iter().enumerate() {
            let point = space.point(idx);
            let params = point.params(&base);
            let want = Configuration::new(point.internal, point.node_ft)
                .and_then(|config| Ok((config, config.closed_form(&params)?)));
            match (got, want) {
                (Ok(p), Ok((config, closed))) => {
                    assert_eq!(p.index, idx);
                    assert_eq!(p.point, point);
                    assert_eq!(p.config, config);
                    let overhead = 1.0 / storage_efficiency(&params, config);
                    assert_eq!(
                        p.cost_overhead.to_bits(),
                        overhead.to_bits(),
                        "base {b}, point {idx}"
                    );
                    assert_eq!(p.cost_rebuild_bw.to_bits(), point.rebuild_bw.to_bits());
                    assert_eq!(
                        p.closed_mttdl_hours.to_bits(),
                        closed.mttdl_hours.to_bits(),
                        "base {b}, point {idx}: {point:?}"
                    );
                    assert_eq!(
                        p.closed_events_pb_year.to_bits(),
                        closed.events_per_pb_year.to_bits(),
                        "base {b}, point {idx}"
                    );
                    feasible += 1;
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got.to_string(), want.to_string(), "base {b}, point {idx}");
                    infeasible += 1;
                }
                (got, want) => panic!("base {b}, point {idx}: {got:?} against {want:?}"),
            }
        }

        // Pass 2 rebuilds each survivor's chain from the stage tables.
        let opts = PlanOptions {
            exhaustive: true,
            ..PlanOptions::default()
        };
        let Ok(report) = plan_search(&base, &space, &opts) else {
            continue;
        };
        for f in &report.frontier {
            let params = f.point.point.params(&base);
            let want = f.point.config.evaluate(&params).expect("a solved point");
            assert_eq!(
                f.exact_mttdl_hours.to_bits(),
                want.exact.mttdl_hours.to_bits(),
                "base {b}, point {}",
                f.point.index
            );
            assert_eq!(
                f.exact_events_pb_year.to_bits(),
                want.exact.events_per_pb_year.to_bits()
            );
            solved += 1;
        }
    }
    // Both sides of every check must be exercised.
    assert!(feasible >= 10_000, "only {feasible} feasible points");
    assert!(infeasible >= 5_000, "only {infeasible} infeasible points");
    assert!(solved >= 500, "only {solved} frontier points checked");
}
