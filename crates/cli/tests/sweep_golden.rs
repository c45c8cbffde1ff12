//! Regression pins for the analytic path.
//!
//! `results/` is the output of one command: `nsr figures` at default
//! flags. These tests regenerate the whole directory — serially and with
//! several workers — and require it to equal the checked-in one byte for
//! byte, with no file missing and none extra. Its `csv/` figure CSVs were
//! captured from the pre-refactor serial sweep code (before topology
//! caching and the parallel sweep engine existed). The tests also pin the
//! exact MTTDL solves to 17 significant digits so any numeric drift in
//! the sparse/dense solver tiers fails loudly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nsr_cli::args::ParsedArgs;
use nsr_cli::commands::dispatch;
use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::recursive::RecursiveModel;
use nsr_core::units::PerHour;

/// Every file under `dir`, keyed by its path relative to `dir`.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        let name = PathBuf::from(path.file_name().expect("file name"));
        if path.is_dir() {
            out.extend(tree(&path).into_iter().map(|(k, v)| (name.join(k), v)));
        } else {
            out.insert(name, std::fs::read(&path).expect("read file"));
        }
    }
    out
}

#[test]
fn figure_csvs_match_pre_refactor_fixtures_for_any_worker_count() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let expected = tree(&results);
    // Worker counts past the row count exercise the clamp as well.
    for workers in [1usize, 3, 16] {
        let out = std::env::temp_dir().join(format!(
            "nsr_sweep_golden_w{workers}_{}",
            std::process::id()
        ));
        let args = ParsedArgs::parse([
            "figures".to_string(),
            "--out".to_string(),
            out.display().to_string(),
            "--workers".to_string(),
            workers.to_string(),
        ])
        .expect("parse figures args");
        dispatch(&args).expect("figures command succeeds");
        let actual = tree(&out);
        assert_eq!(
            actual.keys().collect::<Vec<_>>(),
            expected.keys().collect::<Vec<_>>(),
            "file set differs from results/ at --workers {workers}"
        );
        for (name, bytes) in &expected {
            assert!(
                actual[name] == *bytes,
                "{} differs from results/ at --workers {workers}",
                name.display()
            );
        }
        std::fs::remove_dir_all(&out).ok();
    }
}

/// `{:.17e}` pins of the exact and closed-form MTTDL (hours) for the nine
/// §3 configurations at baseline parameters, captured from the
/// pre-refactor dense-GTH serial path. Order matches
/// `Configuration::all_nine()`.
const NINE_CONFIG_PINS: &[(&str, &str, &str)] = &[
    (
        "FT 1, No Internal RAID",
        "1.69040787789197361e3",
        "1.32157117019107181e3",
    ),
    (
        "FT 1, Internal RAID 5",
        "1.84518089590272936e6",
        "1.83784268856283952e6",
    ),
    (
        "FT 1, Internal RAID 6",
        "9.79556445670604147e6",
        "9.78299586592418142e6",
    ),
    (
        "FT 2, No Internal RAID",
        "2.06067159530947879e7",
        "2.04845318875716142e7",
    ),
    (
        "FT 2, Internal RAID 5",
        "1.32619519414102859e10",
        "1.32435026469862328e10",
    ),
    (
        "FT 2, Internal RAID 6",
        "2.05313461565154915e10",
        "2.05085024320023689e10",
    ),
    (
        "FT 3, No Internal RAID",
        "1.94487672987144623e11",
        "1.93544594203049103e11",
    ),
    (
        "FT 3, Internal RAID 5",
        "5.35595026645455781e13",
        "5.35067066900708594e13",
    ),
    (
        "FT 3, Internal RAID 6",
        "6.05450202617098359e13",
        "6.04877490953573906e13",
    ),
];

#[test]
fn baseline_exact_solves_are_pinned_to_seventeen_digits() {
    let params = Params::baseline();
    let configs = Configuration::all_nine();
    assert_eq!(configs.len(), NINE_CONFIG_PINS.len());
    for (config, (name, exact, closed)) in configs.iter().zip(NINE_CONFIG_PINS) {
        assert_eq!(&format!("{config}"), name);
        let eval = config.evaluate(&params).expect("baseline evaluates");
        assert_eq!(
            format!("{:.17e}", eval.exact.mttdl_hours),
            *exact,
            "{name}: exact MTTDL drifted from the pre-refactor value"
        );
        assert_eq!(
            format!("{:.17e}", eval.closed_form.mttdl_hours),
            *closed,
            "{name}: closed-form MTTDL drifted from the pre-refactor value"
        );
    }
}

#[test]
fn deep_recursive_chains_are_pinned_to_seventeen_digits() {
    // k = 5 and k = 7 chains are large enough (m ≥ 16, sparse) to route
    // through the sparse GTH tier, so these pins prove the sparse
    // elimination is bit-identical to the dense oracle that captured them.
    for (k, exact, sector) in [
        (5, "1.00551663154525328e17", "2.67462455395728717e-4"),
        (7, "6.72097315611873085e22", "3.54507990736828565e-8"),
    ] {
        let model = RecursiveModel::new(
            k,
            64,
            8,
            12,
            PerHour(1.0 / 400_000.0),
            PerHour(1.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.024,
        )
        .expect("model builds");
        assert_eq!(
            format!("{:.17e}", model.mttdl_exact().expect("solves").0),
            exact,
            "k={k}: exact MTTDL drifted"
        );
        assert_eq!(
            format!("{:.17e}", model.sector_loss_share().expect("solves")),
            sector,
            "k={k}: sector-loss share drifted"
        );
    }
}
