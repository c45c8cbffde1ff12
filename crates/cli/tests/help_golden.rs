//! Regression pin for the usage text.
//!
//! `tests/golden/help.txt` is exactly what `nsr help` prints. Bare `nsr`
//! must print the same bytes, and a change to the command list, to an
//! option or to a help line shows up here as a diff of that file.

use std::process::Command;

fn nsr(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nsr"))
        .args(args)
        .output()
        .expect("run nsr");
    assert!(out.status.success(), "nsr {args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 usage")
}

#[test]
fn help_and_bare_nsr_print_the_golden_usage() {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/help.txt"),
    )
    .expect("read fixture");
    assert_eq!(nsr(&["help"]), golden, "nsr help");
    assert_eq!(nsr(&[]), golden, "bare nsr");
}
