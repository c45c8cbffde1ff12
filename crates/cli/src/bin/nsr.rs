//! The `nsr` command-line tool. All logic lives in `nsr_cli`; this shim
//! parses `std::env::args`, dispatches, and sets the exit code.

use nsr_cli::args::ParsedArgs;
use nsr_cli::commands::{dispatch, usage};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{}", usage());
        return;
    }
    match ParsedArgs::parse(argv).and_then(|args| dispatch(&args)) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
