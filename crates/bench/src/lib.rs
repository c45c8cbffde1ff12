//! The performance harness: each suite times one layer of the system
//! (solvers, erasure codec, simulators, observability, brick store,
//! planner, sweeps, serving) and reports it as `BENCH_<suite>.json` in the
//! `nsr-bench/v1` schema, which [`compare`] diffs against a baseline.
//! The paper's figures are not here: `nsr figures` regenerates them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod suites;
pub mod timing;

use std::path::{Path, PathBuf};

/// Shared `main` for the `cargo bench` entry points: parses
/// `--smoke` / `--out <path>`, runs the suite, prints the human table,
/// writes the JSON report, and re-parses it through the schema validator
/// so a harness bug fails loudly rather than checking in garbage.
pub fn bench_suite_main(suite_name: &str) -> Result<(), String> {
    let mut mode = suites::Mode::Full;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => mode = suites::Mode::Smoke,
            "--out" => {
                out = Some(PathBuf::from(
                    args.next().ok_or("--out requires a path".to_string())?,
                ))
            }
            // `cargo bench` forwards its own filter/flag arguments
            // (e.g. `--bench`); ignore anything we don't recognize.
            _ => {}
        }
    }
    let suite = suites::run_suite(suite_name, mode)?;
    print!("{}", suite.render_human());
    let path = out.unwrap_or_else(|| PathBuf::from(suite.file_name()));
    write_report(&suite, &path)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Writes a suite's JSON report to `path`, then re-reads and validates
/// it against the `nsr-bench/v1` schema.
pub fn write_report(suite: &suites::Suite, path: &Path) -> Result<(), String> {
    let text = suite.to_json().render();
    std::fs::write(path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let back =
        std::fs::read_to_string(path).map_err(|e| format!("re-reading {}: {e}", path.display()))?;
    let doc = nsr_obs::Json::parse(&back).map_err(|e| format!("{}: {e}", path.display()))?;
    suites::validate_report(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}
