//! Library backing the `nsr` command-line tool.
//!
//! Everything the binary does — argument parsing, configuration naming,
//! parameter overrides, table and CSV rendering — lives here so it can be
//! unit-tested; `src/bin/nsr.rs` is a thin shim.
//!
//! # Command overview
//!
//! ```text
//! nsr baseline                 # Figure 13: all nine configurations
//! nsr eval --config ft2-ir5    # one configuration in detail
//! nsr sweep --figure 16        # one §7 sensitivity analysis (--csv for CSV)
//! nsr figures                  # regenerate everything under results/
//! nsr sim  --config ft1-nir --samples 2000
//! nsr rare --config ft2-ir5 --cycles 50000
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod explain;
pub mod figures;
pub mod net_cmds;
pub mod render;
pub mod report;
pub mod top;

/// Exit-code-friendly error type: a message for stderr.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<nsr_core::Error> for CliError {
    fn from(e: nsr_core::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<nsr_sim::Error> for CliError {
    fn from(e: nsr_sim::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, CliError>;
