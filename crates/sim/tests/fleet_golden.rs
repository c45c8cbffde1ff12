//! Absolute fleet outcomes, pinned.
//!
//! `fleet_validation.rs` proves that worker counts agree with each other;
//! this file proves that the engine agrees with *itself across commits*.
//! Each case pins the canonical-trace header (every exact counter) and an
//! FNV-1a hash of the full canonical trace (every loss time bit, cell and
//! cause). The values were captured from the shared-shard-queue engine
//! before the per-cell rewrite, so a rewrite that changed every trajectory
//! the same way — which the worker-count tests cannot see — fails here.
//!
//! The cases cover every event kind and code path: FT 1–3 no-IR (node
//! and drive entities, parked drives, §5.2.2 sector draws), FT 1–2 RAID 5
//! and FT 1 RAID 6 (critical-window strikes), each at a lossy node MTTF
//! (40k h, or the §6 baseline for FT 1 no-IR, which loses thousands of
//! cells either way: losses and cell resets) and a benign one (1M h); two
//! seeds each; a brick count whose last 64-cell shard is partial; the
//! exact `model_batch` geometry of the repo benchmark; and one no-IR and
//! one RAID 5 case with every rebuild-side parameter off the baseline.
//!
//! Those all run 64-node cells of 12-drive bricks, whose arming ranges
//! (64 nodes, 768 drives, 12 drives per node repair) are multiples of
//! eight. The [`ODD_GEOMETRY`] cases run 21-node cells of 5-drive bricks,
//! so every range the fleet arms together — 21 nodes and 105 drives at
//! mission start and at a cell reset, 5 drives at a node repair — ends in
//! a partial chunk of eight. They were captured before the clocks were
//! armed in chunks.

use nsr_core::config::Configuration;
use nsr_core::params::{Duplex, Params};
use nsr_core::raid::InternalRaid;
use nsr_core::units::{Bytes, Gbps, Hours};
use nsr_sim::fleet::FleetSim;

/// 300 full cells plus 17 bricks: 301 cells, so the fifth shard holds 45.
const PARTIAL_SHARD_BRICKS: u64 = 300 * 64 + 17;

/// 200 cells of 21 bricks plus 5: 201 cells, so the fourth shard holds 9.
const ODD_BRICKS: u64 = 200 * 21 + 5;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Case {
    internal: InternalRaid,
    t: u32,
    /// Node MTTF in hours; `None` keeps the §6 baseline.
    node_mttf: Option<f64>,
    /// `(node_count, drives_per_node)`; `None` keeps the §6 baseline.
    geometry: Option<(u32, u32)>,
    /// Moves rebuild-side parameters off the §6 baseline.
    tweak: Option<fn(&mut Params)>,
    bricks: u64,
    seed: u64,
    header: &'static str,
    hash: u64,
}

fn run(c: &Case) -> (String, u64) {
    let mut params = Params::baseline();
    if let Some(mttf) = c.node_mttf {
        params.node.mttf = Hours(mttf);
    }
    if let Some((nodes, drives)) = c.geometry {
        params.system.node_count = nodes;
        params.node.drives_per_node = drives;
    }
    if let Some(tweak) = c.tweak {
        tweak(&mut params);
    }
    let config = Configuration::new(c.internal, c.t).unwrap();
    let sim = FleetSim::new(params, config, c.bricks, 10.0).unwrap();
    let trace = sim.run(c.seed, 1).unwrap().canonical_trace();
    let header = trace.lines().next().unwrap().to_string();
    (header, fnv1a(trace.as_bytes()))
}

/// Runs every case and reports all mismatches at once, each with the
/// header and hash actually observed.
fn check(cases: &[Case]) {
    let mut failures = Vec::new();
    for c in cases {
        let (header, hash) = run(c);
        if header != c.header || hash != c.hash {
            failures.push(format!(
                "{:?} FT{} node_mttf {:?} geometry {:?} bricks {} seed {}:\n  \"{header}\",\n  0x{hash:016x},",
                c.internal, c.t, c.node_mttf, c.geometry, c.bricks, c.seed
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "fleet outcomes drifted:\n{}",
        failures.join("\n")
    );
}

macro_rules! case {
    ($internal:ident, $t:expr, $mttf:expr, $bricks:expr, $seed:expr, $header:expr, $hash:expr) => {
        Case {
            internal: InternalRaid::$internal,
            t: $t,
            node_mttf: $mttf,
            geometry: None,
            tweak: None,
            bricks: $bricks,
            seed: $seed,
            header: $header,
            hash: $hash,
        }
    };
}

/// A [`case!`] at 21 nodes per cell and 5 drives per brick.
macro_rules! odd_case {
    ($internal:ident, $t:expr, $mttf:expr, $seed:expr, $header:expr, $hash:expr) => {
        Case {
            geometry: Some((21, 5)),
            ..case!($internal, $t, $mttf, ODD_BRICKS, $seed, $header, $hash)
        }
    };
}

/// FT 1–3 without internal RAID: node and drive entities, parked drives,
/// the §5.2.2 sector-error draw as a cell goes critical. FT 1 runs at the
/// §6 baseline node MTTF (thousands of losses and resets); FT 2 at 40k h
/// loses and resets a few dozen cells.
#[rustfmt::skip]
const NO_INTERNAL_RAID: &[Case] = &[
    case!(None, 1, None, PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=127441 stale=1678593 node_failures=4003 drive_failures=67338 rebuilds=56050 losses=15291",
          0xf7dec3b054f86c3d),
    case!(None, 1, None, PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=127249 stale=1705663 node_failures=4208 drive_failures=67212 rebuilds=55773 losses=15646",
          0x90db5eb1077165fb),
    case!(None, 1, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=125319 stale=1362913 node_failures=1564 drive_failures=67527 rebuilds=56188 losses=12903",
          0x4d8dc174d34c4bee),
    case!(None, 1, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=124942 stale=1385288 node_failures=1666 drive_failures=67330 rebuilds=55892 losses=13104",
          0x5233172efaf68fff),
    case!(None, 2, Some(40_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=218738 stale=72591 node_failures=41981 drive_failures=67433 rebuilds=109323 losses=44",
          0x84ec9c2613ee3702),
    case!(None, 2, Some(40_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=218991 stale=72761 node_failures=42339 drive_failures=67206 rebuilds=109444 losses=50",
          0x8730d42f1dfcc309),
    case!(None, 2, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=138145 stale=2656 node_failures=1686 drive_failures=67387 rebuilds=69072 losses=0",
          0xd60b057a4d51e9b7),
    case!(None, 2, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=136458 stale=2729 node_failures=1709 drive_failures=66521 rebuilds=68228 losses=1",
          0xd72ae5b00e3c420f),
    case!(None, 3, Some(40_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=218701 stale=66328 node_failures=42043 drive_failures=67309 rebuilds=109349 losses=0",
          0x6612b9e802a5bba4),
    case!(None, 3, Some(40_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=219027 stale=66948 node_failures=42273 drive_failures=67242 rebuilds=109512 losses=0",
          0x6e24333c0c2ac5af),
    case!(None, 3, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=138145 stale=2656 node_failures=1686 drive_failures=67387 rebuilds=69072 losses=0",
          0xd60b057a4d51e9b7),
    case!(None, 3, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=136492 stale=2667 node_failures=1709 drive_failures=66537 rebuilds=68246 losses=0",
          0xd2156d3d4cb64d54),
];

/// Internal RAID: node entities only, and the critical-window sector
/// strike — firing (FT 1 at 40k h: hundreds of losses) and cancelled when
/// the window closes (FT 2 at 40k h: stale strikes).
#[rustfmt::skip]
const INTERNAL_RAID: &[Case] = &[
    case!(Raid5, 1, Some(40_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=84037 stale=55085 node_failures=42020 drive_failures=0 rebuilds=41660 losses=357",
          0xd0355260525899ac),
    case!(Raid5, 1, Some(40_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=84227 stale=55796 node_failures=42115 drive_failures=0 rebuilds=41733 losses=379",
          0x1daa91abfa9ac265),
    case!(Raid5, 1, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=3588 stale=1784 node_failures=1794 drive_failures=0 rebuilds=1789 losses=5",
          0x99a4007b89a885df),
    case!(Raid5, 1, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=3453 stale=1699 node_failures=1727 drive_failures=0 rebuilds=1721 losses=5",
          0x4c7b3bcaec9a35d9),
    case!(Raid5, 2, Some(40_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=84961 stale=250 node_failures=42482 drive_failures=0 rebuilds=42478 losses=1",
          0x2c0d04dca9db7c2f),
    case!(Raid5, 2, Some(40_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=84705 stale=175 node_failures=42355 drive_failures=0 rebuilds=42350 losses=0",
          0x877ef3bb2f764d66),
    case!(Raid5, 2, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=3598 stale=1 node_failures=1799 drive_failures=0 rebuilds=1799 losses=0",
          0x059606c79c5e2094),
    case!(Raid5, 2, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=3439 stale=0 node_failures=1720 drive_failures=0 rebuilds=1719 losses=0",
          0x68e19cf7cf72fb71),
    case!(Raid6, 1, Some(40_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=84106 stale=11314 node_failures=42053 drive_failures=0 rebuilds=41796 losses=257",
          0x1d944f57a7d1b705),
    case!(Raid6, 1, Some(40_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=84037 stale=10889 node_failures=42019 drive_failures=0 rebuilds=41761 losses=257",
          0xb793a3f42be8f3d7),
    case!(Raid6, 1, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 1,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=3422 stale=62 node_failures=1711 drive_failures=0 rebuilds=1710 losses=1",
          0xf66d12ca6ae05b3e),
    case!(Raid6, 1, Some(1_000_000.0), PARTIAL_SHARD_BRICKS, 2026,
          "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=3286 stale=58 node_failures=1643 drive_failures=0 rebuilds=1642 losses=1",
          0x3072273650104c87),
];

/// The fleet decade `model_batch` times: FT 3 no-IR, 100,000 bricks, ten
/// years, seed 42 — 746,209 events and 34,632 stale pops.
#[rustfmt::skip]
const MODEL_BATCH: &[Case] = &[
    case!(None, 3, None, 100_000, 42,
          "fleet bricks=100032 cells=1563 entities=1300416 mission_h_bits=40f5630000000000 events=746209 stale=34632 node_failures=21971 drive_failures=351136 rebuilds=373102 losses=0",
          0x194fd54f9d65142b),
];

/// 21-node cells of 5-drive bricks: FT 1 no-IR at a lossy node MTTF
/// (losses, so `lose()` resets whole cells), FT 2 no-IR (parked drives
/// re-armed five at a time) and FT 1 RAID 5 (node entities only).
#[rustfmt::skip]
const ODD_GEOMETRY: &[Case] = &[
    odd_case!(None, 1, Some(40_000.0), 1,
              "fleet bricks=4221 cells=201 entities=25326 mission_h_bits=40f5630000000000 events=22039 stale=239118 node_failures=9341 drive_failures=6087 rebuilds=6580 losses=8847",
              0x325cc35276554f40),
    odd_case!(None, 1, Some(40_000.0), 2026,
              "fleet bricks=4221 cells=201 entities=25326 mission_h_bits=40f5630000000000 events=21957 stale=233843 node_failures=9121 drive_failures=6191 rebuilds=6618 losses=8694",
              0x4cfe425dbb4b26ff),
    odd_case!(None, 2, Some(40_000.0), 1,
              "fleet bricks=4221 cells=201 entities=25326 mission_h_bits=40f5630000000000 events=30580 stale=6256 node_failures=9324 drive_failures=5977 rebuilds=15279 losses=10",
              0x731edaccb864f313),
    odd_case!(None, 2, Some(40_000.0), 2026,
              "fleet bricks=4221 cells=201 entities=25326 mission_h_bits=40f5630000000000 events=30564 stale=6301 node_failures=9134 drive_failures=6158 rebuilds=15271 losses=10",
              0x45ac6ed4da776692),
    odd_case!(Raid5, 1, Some(40_000.0), 1,
              "fleet bricks=4221 cells=201 entities=4221 mission_h_bits=40f5630000000000 events=18333 stale=6903 node_failures=9168 drive_failures=0 rebuilds=9097 losses=68",
              0xe8c4e269bddfbec4),
    odd_case!(Raid5, 1, Some(40_000.0), 2026,
              "fleet bricks=4221 cells=201 entities=4221 mission_h_bits=40f5630000000000 events=18659 stale=6918 node_failures=9330 drive_failures=0 rebuilds=9275 losses=54",
              0xe8dba4d5712a9a94),
];

/// No-IR: 2 TB drives rebuilt with 16 KiB commands over half-duplex
/// links, at utilization 0.6 and a 0.3 rebuild share.
fn off_baseline_nir(p: &mut Params) {
    p.drive.capacity = Bytes::from_gb(2000.0);
    p.system.rebuild_command = Bytes::from_kib(16.0);
    p.system.duplex = Duplex::Half;
    p.system.capacity_utilization = 0.6;
    p.system.rebuild_bw_utilization = 0.3;
}

/// RAID 5: node rebuilds bound by a 1 Gb/s half-duplex link, 64 KiB
/// re-stripe commands, a ten-fold hard-error rate, at utilization 0.6
/// and a 0.3 rebuild share.
fn off_baseline_ir(p: &mut Params) {
    p.system.link_speed = Gbps(1.0);
    p.system.duplex = Duplex::Half;
    p.system.restripe_command = Bytes::from_kib(64.0);
    p.drive.hard_error_rate_per_bit *= 10.0;
    p.system.capacity_utilization = 0.6;
    p.system.rebuild_bw_utilization = 0.3;
}

/// Rebuild-side parameters off the §6 baseline (the cases above vary
/// only MTTFs and geometry): one no-IR and one RAID 5 case.
#[rustfmt::skip]
const OFF_BASELINE: &[Case] = &[
    Case {
        tweak: Some(off_baseline_nir),
        ..case!(None, 2, Some(40_000.0), PARTIAL_SHARD_BRICKS, 1,
                "fleet bricks=19264 cells=301 entities=250432 mission_h_bits=40f5630000000000 events=211625 stale=550944 node_failures=41980 drive_failures=67367 rebuilds=102203 losses=3556",
                0x9c05c474a24ca646)
    },
    Case {
        tweak: Some(off_baseline_ir),
        ..case!(Raid5, 1, Some(40_000.0), PARTIAL_SHARD_BRICKS, 1,
                "fleet bricks=19264 cells=301 entities=19264 mission_h_bits=40f5630000000000 events=84450 stale=109328 node_failures=42226 drive_failures=0 rebuilds=40418 losses=1806",
                0x94d7b9f76913e86e)
    },
];

#[test]
fn off_baseline_outcomes_are_pinned() {
    check(OFF_BASELINE);
}

#[test]
fn no_internal_raid_outcomes_are_pinned() {
    check(NO_INTERNAL_RAID);
}

#[test]
fn internal_raid_outcomes_are_pinned() {
    check(INTERNAL_RAID);
}

#[test]
fn model_batch_decade_is_pinned() {
    check(MODEL_BATCH);
}

#[test]
fn odd_geometry_outcomes_are_pinned() {
    check(ODD_GEOMETRY);
}
