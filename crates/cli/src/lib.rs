//! Library backing the `nsr` command-line tool.
//!
//! Everything the binary does — argument parsing, configuration naming,
//! parameter overrides, table and CSV rendering — lives here so it can be
//! unit-tested; `src/bin/nsr.rs` is a thin shim.
//!
//! # Command overview
//!
//! [`commands`] declares every command once, in one table, and
//! dispatches; `nsr help` renders its usage text from that table.
//! [`args`] parses the command line and reads the options many commands
//! share (`--config`, `--workers`, the parameter overrides). The command
//! bodies live by crate: the model commands (`baseline`, `eval`, `sweep`,
//! `mission`, `plan`, `spares`, `report`, `chain`) in `model_cmds`, the
//! simulator commands (`sim`, `inject`, `rare`, `fleet`, `aging`) in
//! `sim_cmds`, the brick store's in [`net_cmds`] and [`top`], `bench` and
//! `obs-check` beside the artifact renderer in [`report`], and
//! [`figures`] and [`explain`] in their own modules.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod explain;
pub mod figures;
mod model_cmds;
pub mod net_cmds;
pub mod render;
pub mod report;
mod sim_cmds;
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
