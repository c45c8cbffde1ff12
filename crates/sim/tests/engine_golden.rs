//! Absolute outcomes of the aggregate engines, pinned: `SystemSim`'s
//! samples, fault-injection campaigns and `AgingSim`.
//!
//! `fleet_golden.rs` pins the per-cell fleet engine; this file pins the
//! three engines beside it. Each case hashes (FNV-1a) the IEEE-754 bits of
//! every value it pins — every estimate field, every campaign report field
//! and the rendered event trace — so a refactor of the engines must
//! reproduce every trajectory bit for bit, RNG draw order included: the
//! samples of one run share one generator, so a single extra or missing
//! draw shifts every later sample.
//!
//! The cases cover every code path of each engine: FT 1–3 without
//! internal RAID (node and drive failures, the §5.2.2 sector draw) and
//! with RAID 5 and RAID 6 (folded array failures, the critical-window
//! sector hazard), under both repair distributions at MTTFs lossy enough
//! for direct simulation; one thread-split run; all five named fault
//! plans (scheduled crashes, bursts, partitions, latent errors, Poisson
//! streams) on FT 1 and FT 2; and Weibull lifetimes from infant mortality
//! to wear-out. The off-baseline cases move each rebuild-side parameter
//! (link speed, duplex, command sizes, utilizations, hard-error rate,
//! drive capacity) off the §6 baseline under every engine, and the
//! constructor cases pin which random bases `SystemSim::new` accepts and
//! the exact text of every refusal.

use nsr_core::config::Configuration;
use nsr_core::params::{Duplex, Params};
use nsr_core::raid::InternalRaid;
use nsr_core::units::{Bytes, Gbps, Hours};
use nsr_markov::simulate::Estimate;
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};
use nsr_sim::aging::{AgingSim, Lifetime};
use nsr_sim::faultinject::{Campaign, FaultPlan};
use nsr_sim::fleet::FleetSim;
use nsr_sim::system::{RepairDistribution, SimOutcome, SystemSim};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes a case hashes: numbers as their exact bits, text verbatim.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn f64(&mut self, x: f64) -> &mut Digest {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        self
    }

    fn u64(&mut self, x: u64) -> &mut Digest {
        self.0.extend_from_slice(&x.to_le_bytes());
        self
    }

    fn text(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    fn estimate(&mut self, e: &Estimate) -> &mut Digest {
        self.f64(e.mean).f64(e.std_err).u64(e.n)
    }

    fn outcome(&mut self, o: &SimOutcome) -> &mut Digest {
        self.estimate(&o.mttdl)
            .f64(o.events_per_pb_year)
            .f64(o.sector_share)
            .f64(o.mean_failures_per_loss)
            .f64(o.mean_spare_consumed)
    }

    fn hash(&self) -> u64 {
        fnv1a(&self.0)
    }
}

/// Compares observed `(label, hash)` pairs with the pinned ones and
/// reports every mismatch at once, each as the line to pin instead.
fn check(observed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let mut failures = Vec::new();
    if observed.len() != pinned.len() {
        failures.push(format!(
            "{} cases observed, {} pinned",
            observed.len(),
            pinned.len()
        ));
    }
    for (i, (label, hash)) in observed.iter().enumerate() {
        if pinned.get(i) != Some(&(label.as_str(), *hash)) {
            failures.push(format!("    (\"{label}\", 0x{hash:016x}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "engine outcomes drifted:\n{}",
        failures.join("\n")
    );
}

/// MTTFs lossy enough that every configuration loses data within a few
/// thousand events: the higher the fault tolerance, the shorter-lived the
/// components.
fn lossy(t: u32) -> Params {
    let mut params = Params::baseline();
    let scale = [1.0, 0.2, 0.05][t as usize - 1];
    params.node.mttf = Hours(20_000.0 * scale);
    params.drive.mttf = Hours(15_000.0 * scale);
    params
}

fn config(name: &str) -> Configuration {
    let (internal, t) = match name {
        "ft1-nir" => (InternalRaid::None, 1),
        "ft2-nir" => (InternalRaid::None, 2),
        _ => unreachable!("unpinned configuration {name}"),
    };
    Configuration::new(internal, t).unwrap()
}

#[rustfmt::skip]
const SYSTEM_RUNS: &[(&str, u64)] = &[
    ("None FT1 Deterministic", 0x4e165ffabd58d0bc),
    ("None FT1 Exponential", 0x9a22078c6bc0ba92),
    ("None FT2 Deterministic", 0x31e2eb27048341cf),
    ("None FT2 Exponential", 0x84ba31992cee4a2d),
    ("None FT3 Deterministic", 0x9917952b488313cc),
    ("None FT3 Exponential", 0x7919d3dce28f71dc),
    ("Raid5 FT1 Deterministic", 0x653240de2ea1718b),
    ("Raid5 FT1 Exponential", 0x098cb77cf6f069f5),
    ("Raid5 FT2 Deterministic", 0x4647af943d24e148),
    ("Raid5 FT2 Exponential", 0xc0edd7490af29765),
    ("Raid5 FT3 Deterministic", 0xae3ebb50f0dad4da),
    ("Raid5 FT3 Exponential", 0x386af5c796d761db),
    ("Raid6 FT1 Deterministic", 0xcafba6d9a25e7b8e),
    ("Raid6 FT1 Exponential", 0xbf5f5efd381104ef),
    ("Raid6 FT2 Deterministic", 0xd4acb131be236dbd),
    ("Raid6 FT2 Exponential", 0x8fb181c1cd7a8773),
    ("Raid6 FT3 Deterministic", 0xc13f0b9f1197ade8),
    ("Raid6 FT3 Exponential", 0x709b5fd7b7753c8e),
];

#[test]
fn system_runs_are_pinned() {
    let mut observed = Vec::new();
    for internal in [InternalRaid::None, InternalRaid::Raid5, InternalRaid::Raid6] {
        for t in 1..=3 {
            for repair in [
                RepairDistribution::Deterministic,
                RepairDistribution::Exponential,
            ] {
                let config = Configuration::new(internal, t).unwrap();
                let out = SystemSim::new(lossy(t), config)
                    .unwrap()
                    .with_repair_distribution(repair)
                    .run(100, 5)
                    .unwrap();
                let label = format!("{internal:?} FT{t} {repair:?}");
                observed.push((label, Digest::default().outcome(&out).hash()));
            }
        }
    }
    check(&observed, SYSTEM_RUNS);
}

#[test]
fn parallel_run_is_pinned() {
    let sim = SystemSim::new(Params::baseline(), config("ft1-nir")).unwrap();
    let out = sim.run_parallel(120, 21, 4).unwrap();
    let observed = [(
        "ft1-nir 120 samples, 4 threads".to_string(),
        Digest::default().outcome(&out).hash(),
    )];
    check(
        &observed,
        &[("ft1-nir 120 samples, 4 threads", 0xef2f6d592ff353f8)],
    );
}

#[rustfmt::skip]
const CAMPAIGN_RUNS: &[(&str, u64)] = &[
    ("ft1-nir exponential seed 7", 0x2dbcb8ea2a87cdb2),
    ("ft1-nir exponential seed 2026", 0xbbd58b788415eca0),
    ("ft1-nir burst seed 7", 0x2dbcb8ea2a87cdb2),
    ("ft1-nir burst seed 2026", 0xbbd58b788415eca0),
    ("ft1-nir partition seed 7", 0x2dbcb8ea2a87cdb2),
    ("ft1-nir partition seed 2026", 0xbbd58b788415eca0),
    ("ft1-nir latent seed 7", 0x87993ad0f361969e),
    ("ft1-nir latent seed 2026", 0x2b0d7d5066db492f),
    ("ft1-nir brownout seed 7", 0x87993ad0f361969e),
    ("ft1-nir brownout seed 2026", 0xa0f6854905aebc95),
    ("ft2-nir exponential seed 7", 0x8e52bd5bc55e85ad),
    ("ft2-nir exponential seed 2026", 0xddea15d9f9afad13),
    ("ft2-nir burst seed 7", 0x00995486f69723cc),
    ("ft2-nir burst seed 2026", 0x34855ce24f5bd802),
    ("ft2-nir partition seed 7", 0x7782b4b6bdf12b84),
    ("ft2-nir partition seed 2026", 0xb14c27e14add2e9c),
    ("ft2-nir latent seed 7", 0x19726ea3a9170641),
    ("ft2-nir latent seed 2026", 0xff04d29dcb6ba0a6),
    ("ft2-nir brownout seed 7", 0x4032eb7695755aa2),
    ("ft2-nir brownout seed 2026", 0x588b9e85d39f8c7c),
];

#[test]
fn campaign_runs_are_pinned() {
    let mut observed = Vec::new();
    for name in ["ft1-nir", "ft2-nir"] {
        let sim = SystemSim::new(Params::baseline(), config(name)).unwrap();
        for plan_name in FaultPlan::names() {
            let plan = FaultPlan::named(plan_name).unwrap();
            let campaign = Campaign::new(&sim, &plan);
            for seed in [7, 2026] {
                let r = campaign.run(seed).unwrap();
                let mut d = Digest::default();
                d.u64(r.seed).u64(u64::from(r.survived));
                if let Some((time, kind)) = r.loss {
                    d.f64(time).text(&kind.to_string());
                }
                d.f64(r.elapsed_hours)
                    .f64(r.degraded_hours)
                    .u64(r.injected_events)
                    .u64(r.natural_failures)
                    .text(&r.trace.render());
                observed.push((format!("{name} {plan_name} seed {seed}"), d.hash()));
            }
        }
    }
    check(&observed, CAMPAIGN_RUNS);
}

#[rustfmt::skip]
const CAMPAIGN_SUMMARIES: &[(&str, u64)] = &[
    ("ft2-nir exponential 30 runs", 0xa3e69f2ad50ee37b),
    ("ft2-nir burst 30 runs", 0x88a2cd1e671675a3),
    ("ft2-nir partition 30 runs", 0x149680ee48ef7ac6),
    ("ft2-nir latent 30 runs", 0x7af4eee7e6376393),
    ("ft2-nir brownout 30 runs", 0x5cc2daba290ac245),
];

#[test]
fn campaign_summaries_are_pinned() {
    let sim = SystemSim::new(Params::baseline(), config("ft2-nir")).unwrap();
    let mut observed = Vec::new();
    for plan_name in FaultPlan::names() {
        let plan = FaultPlan::named(plan_name).unwrap();
        let s = Campaign::new(&sim, &plan).run_many(30, 11).unwrap();
        let mut d = Digest::default();
        d.u64(s.base_seed)
            .u64(s.runs)
            .u64(s.survived)
            .u64(s.losses.0)
            .u64(s.losses.1)
            .u64(s.losses.2)
            .f64(s.mean_degraded_fraction)
            .f64(s.mean_injected);
        for &seed in &s.loss_seeds {
            d.u64(seed);
        }
        for (signature, count) in &s.loss_signatures {
            d.text(signature).u64(*count);
        }
        observed.push((format!("ft2-nir {plan_name} 30 runs"), d.hash()));
    }
    check(&observed, CAMPAIGN_SUMMARIES);
}

#[rustfmt::skip]
const AGING_ESTIMATES: &[(&str, u64)] = &[
    ("FT1 drive shape 0.7", 0x3f47536e71320d26),
    ("FT1 drive shape 1", 0x854f63b30ef302b9),
    ("FT1 drive shape 1.5", 0x85defe17a6f466af),
    ("FT1 drive shape 3", 0xc197f19c64af9fa5),
    ("FT2 drive shape 0.7", 0x69cd52343ed78c21),
    ("FT2 drive shape 1", 0xb8709ef4ea5175e0),
    ("FT2 drive shape 1.5", 0xc18b6564645f295c),
    ("FT2 drive shape 3", 0xa58cc9ffc659f223),
];

#[test]
fn aging_estimates_are_pinned() {
    let mut observed = Vec::new();
    for (t, params, samples) in [(1, Params::baseline(), 60), (2, lossy(2), 30)] {
        let config = Configuration::new(InternalRaid::None, t).unwrap();
        for shape in [0.7, 1.0, 1.5, 3.0] {
            let est = AgingSim::new(
                params,
                config,
                Lifetime::Weibull {
                    mttf: params.drive.mttf.0,
                    shape,
                },
                Lifetime::Exponential {
                    mttf: params.node.mttf.0,
                },
            )
            .unwrap()
            .estimate_mttdl(samples, 5)
            .unwrap();
            let label = format!("FT{t} drive shape {shape}");
            observed.push((label, Digest::default().estimate(&est).hash()));
        }
    }
    check(&observed, AGING_ESTIMATES);
}

/// A change to one or more parameters.
type Tweak = fn(&mut Params);

/// The rebuild-side parameters the cases above hold at the §6 baseline,
/// each moved off it: a network-bound link (full and half duplex), small
/// and streaming rebuild commands, a small re-stripe command, a lower
/// capacity utilization, a larger rebuild share, a worse hard-error rate
/// and larger drives. Every one of them reaches the engines only through
/// the derived rebuild durations and sector-error rates, so these cases
/// pin that plumbing where the MTTF-only cases cannot.
fn off_baseline() -> Vec<(&'static str, Tweak)> {
    vec![
        ("1 Gb/s link", |p| p.system.link_speed = Gbps(1.0)),
        ("1 Gb/s half duplex", |p| {
            p.system.link_speed = Gbps(1.0);
            p.system.duplex = Duplex::Half;
        }),
        ("16 KiB rebuild", |p| {
            p.system.rebuild_command = Bytes::from_kib(16.0)
        }),
        ("1 MiB rebuild", |p| {
            p.system.rebuild_command = Bytes::from_mib(1.0)
        }),
        ("64 KiB re-stripe", |p| {
            p.system.restripe_command = Bytes::from_kib(64.0)
        }),
        ("utilization 0.6", |p| p.system.capacity_utilization = 0.6),
        ("rebuild share 0.3", |p| {
            p.system.rebuild_bw_utilization = 0.3
        }),
        ("HER x10", |p| p.drive.hard_error_rate_per_bit *= 10.0),
        ("2 TB drives", |p| p.drive.capacity = Bytes::from_gb(2000.0)),
    ]
}

#[rustfmt::skip]
const OFF_BASELINE_RUNS: &[(&str, u64)] = &[
    ("1 Gb/s link: system FT 2, No Internal RAID", 0x02fe791b9d40a339),
    ("1 Gb/s link: system FT 1, Internal RAID 5", 0xb3776a3edc79564f),
    ("1 Gb/s link: aging FT 2, No Internal RAID", 0x1ee6484ca6f12aa5),
    ("1 Gb/s link: brownout FT 2, No Internal RAID", 0x1c922ee2f8af985e),
    ("1 Gb/s half duplex: system FT 2, No Internal RAID", 0xa0ae3cc0e9868bfb),
    ("1 Gb/s half duplex: system FT 1, Internal RAID 5", 0x45ac04b10c9f238c),
    ("1 Gb/s half duplex: aging FT 2, No Internal RAID", 0x3781a4f6ec5a96a8),
    ("1 Gb/s half duplex: brownout FT 2, No Internal RAID", 0xdc5714737816d045),
    ("16 KiB rebuild: system FT 2, No Internal RAID", 0x496291f80593f482),
    ("16 KiB rebuild: system FT 1, Internal RAID 5", 0x05d5c33f2f6b5ce6),
    ("16 KiB rebuild: aging FT 2, No Internal RAID", 0x7a0b6520afe20413),
    ("16 KiB rebuild: brownout FT 2, No Internal RAID", 0x009c62fe15511a33),
    ("1 MiB rebuild: system FT 2, No Internal RAID", 0x54cac4b16a4f179a),
    ("1 MiB rebuild: system FT 1, Internal RAID 5", 0xe2ec8e4951726c81),
    ("1 MiB rebuild: aging FT 2, No Internal RAID", 0x8227356aee89c3bc),
    ("1 MiB rebuild: brownout FT 2, No Internal RAID", 0x03b426db797b316a),
    ("64 KiB re-stripe: system FT 2, No Internal RAID", 0x38dce50bca66d672),
    ("64 KiB re-stripe: system FT 1, Internal RAID 5", 0x208885543ea0309d),
    ("64 KiB re-stripe: aging FT 2, No Internal RAID", 0xe8f1af97281a3b65),
    ("64 KiB re-stripe: brownout FT 2, No Internal RAID", 0x5f9503b6f435a773),
    ("utilization 0.6: system FT 2, No Internal RAID", 0x4c2b3dcc9c980372),
    ("utilization 0.6: system FT 1, Internal RAID 5", 0x5003daf3ebb21fdd),
    ("utilization 0.6: aging FT 2, No Internal RAID", 0xfc3f1d91ad350914),
    ("utilization 0.6: brownout FT 2, No Internal RAID", 0x1820c21b0145dc26),
    ("rebuild share 0.3: system FT 2, No Internal RAID", 0x5b37cb52224e37a2),
    ("rebuild share 0.3: system FT 1, Internal RAID 5", 0xbd034e13a45d7f3a),
    ("rebuild share 0.3: aging FT 2, No Internal RAID", 0x7452ba2f070b16ca),
    ("rebuild share 0.3: brownout FT 2, No Internal RAID", 0x52ee56a8e245ff6d),
    ("HER x10: system FT 2, No Internal RAID", 0x26ce0f3ba44baead),
    ("HER x10: system FT 1, Internal RAID 5", 0x53eb9bb6b7fb51b9),
    ("HER x10: aging FT 2, No Internal RAID", 0x7751f03abaa8cba3),
    ("HER x10: brownout FT 2, No Internal RAID", 0x5e9925d97819c8c8),
    ("2 TB drives: system FT 2, No Internal RAID", 0xa999868442fcfdd1),
    ("2 TB drives: system FT 1, Internal RAID 5", 0xad5f5c0d15f582f8),
    ("2 TB drives: aging FT 2, No Internal RAID", 0x35f2d119a8c6c6d1),
    ("2 TB drives: brownout FT 2, No Internal RAID", 0x0b879fcba6064341),
];

#[test]
fn off_baseline_runs_are_pinned() {
    let ft2_nir = Configuration::new(InternalRaid::None, 2).unwrap();
    let ft1_ir5 = Configuration::new(InternalRaid::Raid5, 1).unwrap();
    let mut observed = Vec::new();
    for (name, tweak) in off_baseline() {
        for (config, t) in [(ft2_nir, 2), (ft1_ir5, 1)] {
            let mut params = lossy(t);
            tweak(&mut params);
            let out = SystemSim::new(params, config).unwrap().run(60, 5).unwrap();
            let label = format!("{name}: system {config}");
            observed.push((label, Digest::default().outcome(&out).hash()));
        }

        let mut params = lossy(2);
        tweak(&mut params);
        let est = AgingSim::new(
            params,
            ft2_nir,
            Lifetime::Weibull {
                mttf: params.drive.mttf.0,
                shape: 1.5,
            },
            Lifetime::Exponential {
                mttf: params.node.mttf.0,
            },
        )
        .unwrap()
        .estimate_mttdl(20, 5)
        .unwrap();
        let label = format!("{name}: aging {ft2_nir}");
        observed.push((label, Digest::default().estimate(&est).hash()));

        let mut params = Params::baseline();
        tweak(&mut params);
        let sim = SystemSim::new(params, ft2_nir).unwrap();
        let plan = FaultPlan::named("brownout").unwrap();
        let r = Campaign::new(&sim, &plan).run(7).unwrap();
        let mut d = Digest::default();
        d.u64(u64::from(r.survived))
            .f64(r.elapsed_hours)
            .f64(r.degraded_hours)
            .u64(r.natural_failures)
            .text(&r.trace.render());
        observed.push((format!("{name}: brownout {ft2_nir}"), d.hash()));
    }
    check(&observed, OFF_BASELINE_RUNS);
}

/// The pinned digest of [`constructor_outcomes_are_pinned`].
const CONSTRUCTOR_OUTCOMES: u64 = 0xc97195a6240268e1;

/// Which bases the simulators accept and the exact error text of each
/// they refuse, over seeded random bases that reach every refusal: bad
/// MTTFs, capacities and hard-error rates, `C·HER` at or above one, zero
/// drives and too few drives for a RAID level, node sets smaller than
/// their redundancy sets, fault tolerances at or above `R`, and zero or
/// out-of-range command sizes, link speeds and utilizations — and fault
/// tolerances up to 12, past the exact chains' limit, which the
/// simulators accept.
#[test]
fn constructor_outcomes_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0035);
    let mut pick = |xs: &[f64]| xs[rng.random_range_usize(0, xs.len())];
    let mut d = Digest::default();
    let (mut accepted, mut refused) = (0u64, 0u64);
    for _ in 0..1000 {
        // A valid base, each field off its baseline now and then...
        let mut p = Params::baseline();
        p.node.mttf = Hours(pick(&[5e4, 4e5, 4e5]));
        p.drive.mttf = Hours(pick(&[3e4, 3e5, 3e5]));
        p.drive.capacity = Bytes(pick(&[3e11, 3e11, 2e12]));
        p.drive.hard_error_rate_per_bit = pick(&[0.0, 1e-14, 1e-14, 5e-14]);
        p.node.drives_per_node = pick(&[12.0, 12.0, 12.0, 2.0, 3.0, 4.0, 1.0]) as u32;
        let geometries = [
            (64, 8),
            (64, 8),
            (64, 16),
            (16, 16),
            (16, 4),
            (5, 8),
            (2, 2),
        ];
        (p.system.node_count, p.system.redundancy_set_size) =
            geometries[pick(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) as usize];
        p.system.rebuild_command = Bytes(pick(&[131072.0, 131072.0, 16384.0]));
        p.system.link_speed = Gbps(pick(&[10.0, 10.0, 1.0]));
        p.system.capacity_utilization = pick(&[0.75, 0.75, 0.6, 1.0]);
        p.system.rebuild_bw_utilization = pick(&[0.1, 0.1, 0.3, 1.0]);
        if pick(&[0.0, 1.0]) == 1.0 {
            p.system.duplex = Duplex::Half;
        }
        // ...and, half the time, one field set to a value validation refuses.
        match pick(&[
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
            7.0, 8.0, 9.0, 10.0, 11.0,
        ]) as u32
        {
            1 => p.node.mttf = Hours(0.0),
            2 => p.drive.mttf = Hours(f64::INFINITY),
            3 => p.drive.capacity = Bytes(0.0),
            4 => p.drive.hard_error_rate_per_bit = -1e-14,
            5 => p.drive.hard_error_rate_per_bit = 1e-12,
            6 => p.drive.max_iops = 0.0,
            7 => p.node.drives_per_node = 0,
            8 => p.system.node_count = 1,
            9 => p.system.rebuild_command = Bytes(0.0),
            10 => p.system.link_speed = Gbps(f64::NAN),
            11 => p.system.capacity_utilization = 1.2,
            _ => {}
        }
        let internal = InternalRaid::all()[pick(&[0.0, 1.0, 2.0]) as usize];
        let t = pick(&[1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 7.0, 10.0, 12.0]) as u32;
        let config = Configuration::new(internal, t).unwrap();
        d.text(&format!("{p:?} {config}"));
        match SystemSim::new(p, config) {
            Ok(_) => {
                accepted += 1;
                d.text("ok");
            }
            Err(e) => {
                refused += 1;
                d.text(&e.to_string());
            }
        }
    }
    assert!(
        accepted > 50 && refused > 50,
        "{accepted} accepted, {refused} refused"
    );
    assert_eq!(
        d.hash(),
        CONSTRUCTOR_OUTCOMES,
        "constructor outcomes drifted: pin 0x{:016x}",
        d.hash()
    );
}

/// Fault tolerance 10 without internal RAID: the exact chain refuses it
/// (its state count grows as `2^t`), but the simulators need rates, not
/// a chain, and construct all three.
#[test]
fn ft10_without_internal_raid_constructs_every_simulator() {
    let mut params = Params::baseline();
    params.system.redundancy_set_size = 16;
    let config = Configuration::new(InternalRaid::None, 10).unwrap();
    assert!(config.evaluate(&params).is_err());
    SystemSim::new(params, config).unwrap();
    AgingSim::new(
        params,
        config,
        Lifetime::Exponential {
            mttf: params.drive.mttf.0,
        },
        Lifetime::Exponential {
            mttf: params.node.mttf.0,
        },
    )
    .unwrap();
    FleetSim::new(params, config, 640, 1.0).unwrap();
}
