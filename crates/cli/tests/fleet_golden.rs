//! Regression pin for `nsr fleet --trace`.
//!
//! The fixture in `tests/golden/fleet_ft1nir_3200_s11.txt` is the full
//! output of an FT 1 no-IR fleet (3,200 bricks, five years, seed 11):
//! summary lines, the canonical-trace header and all 1,332 loss lines
//! with their raw IEEE-754 time bits. It was captured from the
//! shared-shard-queue engine before the per-cell rewrite; the output must
//! stay byte-identical to it at any worker count.

use nsr_cli::args::ParsedArgs;
use nsr_cli::commands::dispatch;

fn run(workers: &str) -> String {
    let words = [
        "fleet",
        "--config",
        "ft1-nir",
        "--bricks",
        "3200",
        "--years",
        "5",
        "--seed",
        "11",
        "--workers",
        workers,
        "--trace",
    ];
    dispatch(&ParsedArgs::parse(words.iter().map(|s| s.to_string())).expect("parse"))
        .expect("fleet succeeds")
}

#[test]
fn fleet_trace_matches_fixture_at_any_worker_count() {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/fleet_ft1nir_3200_s11.txt"),
    )
    .expect("read fixture");
    assert_eq!(run("1"), golden, "1 worker");
    assert_eq!(run("4"), golden, "4 workers");
}
