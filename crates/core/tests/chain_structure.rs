//! Pins the paper's three chains as `ctmc()` and
//! `Configuration::exact_chain` build them: the labels in id order, the
//! `(from, to)` transition list in order and the `to_bits` of every
//! rate. The recursive no-IR chain is pinned at k = 1..=4, the IR node
//! chain at t = 1..=4, the RAID 5/6 arrays at d = 8 and 12 and every
//! configuration's exact chain at FT 1..=4, each at a baseline point,
//! a point whose linearized sector-error probability saturates at 1
//! (the transition it zeroes is dropped; the recursive chain's k = 1
//! baseline is one) and a point with no sector errors (`C·HER = 0`,
//! `λ_S = 0`; the sector transition is dropped).
//!
//! The expected text is `golden/chain_structure.txt`. On a mismatch the
//! rendered text is written to `chain_structure.txt` under Cargo's
//! integration-test scratch directory, for `diff`.
//!
//! The second test holds the structure to its topology class: two
//! points of one class, every rate positive, give identical labels and
//! transition lists. The evaluator's compiled programs are keyed by
//! `(internal RAID?, fault tolerance)` alone, which is sound only while
//! that holds.

use std::fmt::Write as _;

use nsr_core::config::Configuration;
use nsr_core::internal_raid::InternalRaidSystem;
use nsr_core::params::Params;
use nsr_core::raid::{ArrayModel, ArrayRates, InternalRaid};
use nsr_core::recursive::RecursiveModel;
use nsr_core::units::{Hours, PerHour};
use nsr_markov::Ctmc;

const GOLDEN: &str = include_str!("golden/chain_structure.txt");

/// Appends `chain` under `title`: one line of labels, then one line per
/// transition, `from to rate-bits`.
fn render(out: &mut String, title: &str, chain: &Ctmc) {
    let _ = writeln!(out, "== {title}");
    let labels: Vec<&str> = chain.states().map(|s| chain.label(s)).collect();
    let _ = writeln!(out, "states: {}", labels.join(" "));
    for t in chain.transitions() {
        let (from, to) = (t.from.index(), t.to.index());
        let _ = writeln!(out, "{from} {to} {:016x}", t.rate.to_bits());
    }
}

/// The appendix chain with the unit tests' rates at `(n, r, d)`.
fn recursive(k: u32, n: u32, r: u32, d: u32, c_her: f64) -> RecursiveModel {
    RecursiveModel::new(
        k,
        n,
        r,
        d,
        PerHour(1.0 / 400_000.0),
        PerHour(1.0 / 300_000.0),
        PerHour(0.28),
        PerHour(3.24),
        c_her,
    )
    .unwrap()
}

fn internal(t: u32, n: u32, mu_n: f64, lambda_sector: f64) -> InternalRaidSystem {
    let array = ArrayRates {
        lambda_array: PerHour(5e-8),
        lambda_sector: PerHour(lambda_sector),
    };
    InternalRaidSystem::new(n, 8, t, PerHour(2.5e-6), array, PerHour(mu_n)).unwrap()
}

fn array(raid: InternalRaid, d: u32, c_her: f64) -> ArrayModel {
    ArrayModel::new(
        raid,
        d,
        PerHour(1.0 / 300_000.0),
        PerHour(1.0 / 34.0),
        c_her,
    )
    .unwrap()
}

/// The baseline with a 100× smaller hard error rate: no `h` saturates.
fn low_her() -> Params {
    let mut p = Params::baseline();
    p.drive.hard_error_rate_per_bit /= 100.0;
    p
}

/// A second point of every class: other geometry, rates and error rate.
fn other_point() -> Params {
    let mut p = low_her();
    p.system.node_count = 32;
    p.drive.mttf = Hours(150_000.0);
    p.node.mttf = Hours(250_000.0);
    p
}

fn rendered() -> String {
    let mut out = String::new();
    for k in 1..=4 {
        for c_her in [0.024, 1.0e-9, 0.0] {
            let chain = recursive(k, 64, 8, 12, c_her).ctmc().unwrap();
            render(&mut out, &format!("recursive k={k} C·HER={c_her}"), &chain);
        }
    }
    for t in 1..=4 {
        for lambda_sector in [1.06e-5, 0.0] {
            let chain = internal(t, 64, 0.28, lambda_sector).ctmc().unwrap();
            render(
                &mut out,
                &format!("internal t={t} λ_S={lambda_sector}"),
                &chain,
            );
        }
    }
    for raid in [InternalRaid::Raid5, InternalRaid::Raid6] {
        for d in [8, 12] {
            for c_her in [0.024, 0.2, 0.0] {
                let chain = array(raid, d, c_her).ctmc().unwrap();
                render(&mut out, &format!("{raid} d={d} C·HER={c_her}"), &chain);
            }
        }
    }
    for t in 1..=4 {
        for internal in InternalRaid::all() {
            let config = Configuration::new(internal, t).unwrap();
            let (chain, root) = config.exact_chain(&Params::baseline()).unwrap();
            let title = format!("exact_chain {} root={}", config.code(), root.index());
            render(&mut out, &title, &chain);
        }
    }
    out
}

#[test]
fn chains_match_the_pinned_text() {
    let actual = rendered();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chain_structure.txt");
        std::fs::write(&path, &actual).unwrap();
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "chain text differs from golden/chain_structure.txt at line {}; \
             rendered text written to {}",
            line + 1,
            path.display()
        );
    }
}

/// Labels and `(from, to)` pairs in order: what a compiled program is
/// compiled from.
fn structure(chain: &Ctmc) -> (Vec<String>, Vec<(usize, usize)>) {
    let labels = chain.states().map(|s| chain.label(s).to_string()).collect();
    let pairs = chain
        .transitions()
        .iter()
        .map(|t| (t.from.index(), t.to.index()))
        .collect();
    (labels, pairs)
}

#[test]
fn two_points_of_a_class_share_one_structure() {
    for k in 1..=4 {
        let a = recursive(k, 64, 8, 12, 1.0e-9).ctmc().unwrap();
        let b = recursive(k, 32, 6, 8, 1.0e-6).ctmc().unwrap();
        assert_eq!(structure(&a), structure(&b), "recursive k = {k}");
    }
    for t in 1..=4 {
        let a = internal(t, 64, 0.28, 1.06e-5).ctmc().unwrap();
        let b = internal(t, 32, 1.0, 3.0e-4).ctmc().unwrap();
        assert_eq!(structure(&a), structure(&b), "internal t = {t}");
    }
    for raid in [InternalRaid::Raid5, InternalRaid::Raid6] {
        let a = array(raid, 8, 0.024).ctmc().unwrap();
        let b = array(raid, 12, 0.001).ctmc().unwrap();
        assert_eq!(structure(&a), structure(&b), "{raid}");
    }
    // The evaluator's class key: RAID 5 and RAID 6 share a class.
    for t in 1..=4 {
        for internal in InternalRaid::all() {
            let config = Configuration::new(internal, t).unwrap();
            let class = if internal == InternalRaid::None {
                config
            } else {
                Configuration::new(InternalRaid::Raid5, t).unwrap()
            };
            let (a, root_a) = class.exact_chain(&low_her()).unwrap();
            let (b, root_b) = config.exact_chain(&other_point()).unwrap();
            assert_eq!(structure(&a), structure(&b), "{}", config.code());
            assert_eq!(root_a, root_b, "{}", config.code());
        }
    }
}
