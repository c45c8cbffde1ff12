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
//! to wear-out.

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::units::Hours;
use nsr_markov::simulate::Estimate;
use nsr_sim::aging::{AgingSim, Lifetime};
use nsr_sim::faultinject::{Campaign, FaultPlan};
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
