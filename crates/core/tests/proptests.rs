//! Property-based tests for the reliability models: monotonicity laws,
//! scaling identities, and closed-form/exact agreement over random
//! parameter boxes. Each test draws its cases from a fixed-seed in-repo
//! PRNG so runs are deterministic and fully offline.

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::rebuild::TransferAmounts;
use nsr_core::recursive::RecursiveModel;
use nsr_core::scope::HParams;
use nsr_core::units::{Bytes, Hours, PerHour};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

fn internal_raid<R: Rng + ?Sized>(rng: &mut R) -> InternalRaid {
    match rng.random_range_usize(0, 3) {
        0 => InternalRaid::None,
        1 => InternalRaid::Raid5,
        _ => InternalRaid::Raid6,
    }
}

#[test]
fn mttdl_monotone_in_drive_mttf() {
    let mut rng = StdRng::seed_from_u64(0xc0de_0001);
    for _ in 0..40 {
        let internal = internal_raid(&mut rng);
        let ft = rng.random_range_usize(1, 4) as u32;
        let mttf_lo = rng.random_range_f64(50_000.0, 200_000.0);
        let factor = rng.random_range_f64(1.5, 5.0);
        let config = Configuration::new(internal, ft).unwrap();
        let mut p = Params::baseline();
        p.drive.mttf = Hours(mttf_lo);
        let lo = config.evaluate(&p).unwrap().closed_form.mttdl_hours;
        p.drive.mttf = Hours(mttf_lo * factor);
        let hi = config.evaluate(&p).unwrap().closed_form.mttdl_hours;
        assert!(hi >= lo * 0.999999, "{internal} ft{ft}: {lo} -> {hi}");
    }
}

#[test]
fn mttdl_monotone_in_node_mttf() {
    let mut rng = StdRng::seed_from_u64(0xc0de_0002);
    for _ in 0..40 {
        let internal = internal_raid(&mut rng);
        let ft = rng.random_range_usize(1, 4) as u32;
        let mttf_lo = rng.random_range_f64(50_000.0, 300_000.0);
        let factor = rng.random_range_f64(1.5, 5.0);
        let config = Configuration::new(internal, ft).unwrap();
        let mut p = Params::baseline();
        p.node.mttf = Hours(mttf_lo);
        let lo = config.evaluate(&p).unwrap().closed_form.mttdl_hours;
        p.node.mttf = Hours(mttf_lo * factor);
        let hi = config.evaluate(&p).unwrap().closed_form.mttdl_hours;
        assert!(hi >= lo * 0.999999);
    }
}

#[test]
fn higher_fault_tolerance_never_hurts() {
    let mut rng = StdRng::seed_from_u64(0xc0de_0003);
    for _ in 0..40 {
        let internal = internal_raid(&mut rng);
        let ft = rng.random_range_usize(1, 5) as u32;
        let drive_mttf = rng.random_range_f64(100_000.0, 750_000.0);
        let mut p = Params::baseline();
        p.drive.mttf = Hours(drive_mttf);
        let a = Configuration::new(internal, ft)
            .unwrap()
            .evaluate(&p)
            .unwrap()
            .closed_form
            .mttdl_hours;
        let b = Configuration::new(internal, ft + 1)
            .unwrap()
            .evaluate(&p)
            .unwrap()
            .closed_form
            .mttdl_hours;
        assert!(b > a, "{internal}: ft{ft} {a:.3e} vs ft{} {b:.3e}", ft + 1);
    }
}

#[test]
fn closed_form_tracks_exact_when_linear() {
    // Within linearization validity (small HER), approximation must be
    // within 5 % of the exact chain everywhere in the box.
    let mut rng = StdRng::seed_from_u64(0xc0de_0004);
    for _ in 0..40 {
        let internal = internal_raid(&mut rng);
        let ft = rng.random_range_usize(2, 4) as u32;
        let drive_mttf = rng.random_range_f64(100_000.0, 750_000.0);
        let node_mttf = rng.random_range_f64(100_000.0, 1_000_000.0);
        let mut p = Params::baseline();
        p.drive.mttf = Hours(drive_mttf);
        p.node.mttf = Hours(node_mttf);
        p.drive.hard_error_rate_per_bit = 1e-15;
        let eval = Configuration::new(internal, ft)
            .unwrap()
            .evaluate(&p)
            .unwrap();
        let rel =
            (eval.closed_form.mttdl_hours - eval.exact.mttdl_hours).abs() / eval.exact.mttdl_hours;
        assert!(rel < 0.05, "{internal} ft{ft}: rel {rel}");
    }
}

#[test]
fn transfer_amounts_scale_correctly() {
    let mut rng = StdRng::seed_from_u64(0xc0de_0005);
    let mut checked = 0;
    while checked < 40 {
        let n = rng.random_range_usize(4, 200) as u32;
        let r = rng.random_range_usize(3, 16) as u32;
        let t = rng.random_range_usize(1, 3) as u32;
        if r > n || t >= r {
            continue;
        }
        checked += 1;
        let a = TransferAmounts::new(n, r, t).unwrap();
        // Conservation and positivity.
        assert!(a.rebuilt_per_node > 0.0);
        assert!((a.received_per_node * (n - 1) as f64 - a.network_total).abs() < 1e-9);
        assert!(a.disk_per_node > a.received_per_node); // + the write
                                                        // More tolerance means fewer sources.
        if t + 1 < r {
            let b = TransferAmounts::new(n, r, t + 1).unwrap();
            assert!(b.network_total < a.network_total);
        }
    }
}

#[test]
fn rebuild_rate_monotone_in_bandwidth() {
    let mut rng = StdRng::seed_from_u64(0xc0de_0006);
    for _ in 0..40 {
        let kib = rng.random_range_f64(4.0, 512.0);
        let factor = rng.random_range_f64(1.2, 4.0);
        let mut p = Params::baseline();
        p.system.rebuild_command = Bytes::from_kib(kib);
        let ft2 = Configuration::new(InternalRaid::None, 2).unwrap();
        let slow = ft2.model(&p).unwrap().node_rebuild.rate.0;
        p.system.rebuild_command = Bytes::from_kib(kib * factor);
        let fast = ft2.model(&p).unwrap().node_rebuild.rate.0;
        assert!(fast >= slow * 0.999999);
    }
}

#[test]
fn h_params_order_and_scaling() {
    let mut rng = StdRng::seed_from_u64(0xc0de_0007);
    let mut checked = 0;
    while checked < 40 {
        let k = rng.random_range_usize(1, 5) as u32;
        let n = rng.random_range_usize(16, 128) as u32;
        let r = rng.random_range_usize(5, 12) as u32;
        let d = rng.random_range_usize(2, 24) as u32;
        if r > n || k >= r || n <= k {
            continue;
        }
        checked += 1;
        let h = HParams::new(k, n, r, d, 0.01).unwrap();
        let set = h.ordered_set();
        assert_eq!(set.len(), 1usize << k);
        // Adjacent drive counts differ by exactly a factor d.
        for drives in 0..k {
            let a = h.by_drive_count(drives);
            let b = h.by_drive_count(drives + 1);
            assert!((a / b - d as f64).abs() < 1e-9);
        }
        // First element is the max (all-N word).
        assert_eq!(set[0], h.max_value());
    }
}

#[test]
fn theorem_scales_inversely_with_failure_rates() {
    // Multiplying both λs by c divides the failure term by c^(k+1);
    // with HER = 0 the MTTDL scales exactly as c^-(k+1).
    let mut rng = StdRng::seed_from_u64(0xc0de_0008);
    for _ in 0..40 {
        let k = rng.random_range_usize(1, 4) as u32;
        let scale = rng.random_range_f64(1.5, 4.0);
        let m1 = RecursiveModel::new(
            k,
            64,
            8,
            12,
            PerHour(1e-6),
            PerHour(1e-6),
            PerHour(0.1),
            PerHour(0.1),
            0.0,
        )
        .unwrap();
        let m2 = RecursiveModel::new(
            k,
            64,
            8,
            12,
            PerHour(1e-6 * scale),
            PerHour(1e-6 * scale),
            PerHour(0.1),
            PerHour(0.1),
            0.0,
        )
        .unwrap();
        let ratio = m1.mttdl_theorem().0 / m2.mttdl_theorem().0;
        let expected = scale.powi(k as i32 + 1);
        assert!(
            (ratio - expected).abs() / expected < 1e-9,
            "{ratio} vs {expected}"
        );
    }
}

#[test]
fn events_metric_inversely_proportional_to_mttdl() {
    use nsr_core::metrics::Reliability;
    let mut rng = StdRng::seed_from_u64(0xc0de_0009);
    for _ in 0..40 {
        // Log-uniform MTTDL over [1e3, 1e12].
        let mttdl = 10f64.powf(rng.random_range_f64(3.0, 12.0));
        let capacity_pb = rng.random_range_f64(0.01, 10.0);
        let r =
            Reliability::from_mttdl(Hours(mttdl), Bytes(capacity_pb * nsr_core::units::PETABYTE))
                .unwrap();
        let r2 = Reliability::from_mttdl(
            Hours(2.0 * mttdl),
            Bytes(capacity_pb * nsr_core::units::PETABYTE),
        )
        .unwrap();
        assert!((r.events_per_pb_year / r2.events_per_pb_year - 2.0).abs() < 1e-9);
    }
}
