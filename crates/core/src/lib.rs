//! Reliability models for networked storage nodes.
//!
//! This crate is a faithful, executable reproduction of the analysis in
//! *Reliability for Networked Storage Nodes* (KK Rao, James L. Hafner,
//! Richard A. Golding; IBM Research / DSN 2006). The paper studies a
//! distributed storage system built from "bricks": sealed nodes holding
//! `d` disk drives each, with no field service (*fail in place*). Two
//! redundancy dimensions protect the data:
//!
//! 1. **Internal RAID** inside each node — none, RAID 5, or RAID 6
//!    ([`raid::InternalRaid`]), tolerating 0/1/2 internal drive failures;
//! 2. an **erasure code across nodes** with node fault tolerance 1, 2 or 3.
//!
//! The crate computes, for each of the resulting nine configurations
//! ([`config::Configuration`]):
//!
//! * closed-form MTTDL approximations exactly as printed in the paper
//!   (§4, Fig 12, and the appendix theorem for arbitrary fault tolerance),
//! * *exact* MTTDLs by building the underlying continuous-time Markov
//!   chains and solving `MTTDL = e₁ᵀ R⁻¹ 1` numerically
//!   (via [`nsr_markov`]),
//! * rebuild/re-stripe rates from the paper's §5.1 data-movement model
//!   ([`rebuild`]),
//! * the normalized reliability metric **data-loss events per PB-year**
//!   and the paper's `2·10⁻³` target ([`metrics`]),
//! * the §7 sensitivity sweeps ([`sweep`]), one per paper figure.
//!
//! # Quick start
//!
//! ```
//! use nsr_core::config::Configuration;
//! use nsr_core::params::Params;
//! use nsr_core::raid::InternalRaid;
//!
//! # fn main() -> Result<(), nsr_core::Error> {
//! let params = Params::baseline();
//! let config = Configuration::new(InternalRaid::Raid5, 2)?;
//! let eval = config.evaluate(&params)?;
//! println!(
//!     "[{config}] MTTDL = {:.3e} h, {:.3e} data-loss events/PB-year",
//!     eval.closed_form.mttdl_hours, eval.closed_form.events_per_pb_year
//! );
//! assert!(eval.closed_form.meets_target());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod availability;
pub mod config;
mod error;
pub mod internal_raid;
pub mod metrics;
pub mod mission;
pub mod no_raid;
pub mod obs;
pub mod params;
pub mod plan;
pub mod raid;
pub mod rebuild;
pub mod recursive;
pub mod scope;
pub mod spares;
pub mod sweep;
pub mod units;

pub use error::Error;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
