//! Continuous-time Markov chain (CTMC) toolkit.
//!
//! This crate provides the Markov-chain machinery that the reliability
//! models of *Reliability for Networked Storage Nodes* (Rao, Hafner,
//! Golding; DSN 2006) are phrased in, following the treatment of Trivedi,
//! *Probability and Statistics with Reliability, Queuing, and Computer
//! Science Applications* (reference \[6\] of the paper):
//!
//! * [`CtmcBuilder`] / [`Ctmc`] — construct a chain from labelled states
//!   and transition rates, and inspect its infinitesimal generator `Q`.
//! * [`ChainWalk`] — a chain written once, read by three sinks: the rated
//!   chain, the skeleton a [`BatchProgram`] compiles and its rate vector.
//! * [`AbsorbingAnalysis`] — mean time to absorption (the paper's MTTDL),
//!   absorption probabilities, expected state occupancies, `det(R)` and
//!   `κ∞(R)`, all from one subtraction-free GTH elimination of the dense
//!   absorption matrix `R = −Q_B`, replayed per right-hand side. The
//!   reference implementation: every result of the engine below is
//!   pinned to it bit for bit.
//! * [`BatchSolver`] / [`BatchProgram`] — the same elimination compiled
//!   once per chain topology into an allocation-free program; what every
//!   sweep, planner and figure path runs per rate vector.
//! * [`Matrix`] — the dense row-major generator `Q` and uniformized `P`.
//! * [`validate_generator`] — numerical guardrail rejecting NaN/Inf
//!   entries, negative rates, and non-zero row sums in externally
//!   assembled generator matrices.
//! * [`stationary_distribution`] — limiting distribution of an irreducible
//!   chain (`π·Q = 0`, `Σπ = 1`) by GTH state reduction, the same
//!   subtraction-free elimination: it is the crate's only other solve.
//! * [`transient_distribution`] — `π(t)` by uniformization.
//! * [`simulate`] — Monte-Carlo trajectory sampling and time-to-absorption
//!   estimation, used to cross-validate the analytic solvers.
//!
//! # Example: a repairable two-failure system
//!
//! A RAID-5-like birth–death chain with failure rate `λ` per unit and
//! repair rate `μ`, absorbing on the second failure:
//!
//! ```
//! use nsr_markov::{CtmcBuilder, AbsorbingAnalysis};
//!
//! # fn main() -> Result<(), nsr_markov::Error> {
//! let (lambda, mu) = (1e-3, 1.0);
//! let mut b = CtmcBuilder::new();
//! let ok = b.add_state("ok");
//! let degraded = b.add_state("degraded");
//! let lost = b.add_state("lost");
//! b.add_transition(ok, degraded, 2.0 * lambda)?;
//! b.add_transition(degraded, ok, mu)?;
//! b.add_transition(degraded, lost, lambda)?;
//! let ctmc = b.build()?;
//!
//! let analysis = AbsorbingAnalysis::new(&ctmc)?;
//! let mtta = analysis.mean_time_to_absorption(ok)?;
//! // Exact closed form: (3λ + μ) / (2λ²)
//! let exact = (3.0 * lambda + mu) / (2.0 * lambda * lambda);
//! assert!((mtta - exact).abs() / exact < 1e-10);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod absorbing;
mod batch;
mod birth_death;
mod builder;
mod classify;
mod ctmc;
mod dot;
mod error;
mod matrix;
pub mod obs;
pub mod simulate;
mod solutions;

pub use absorbing::AbsorbingAnalysis;
pub use batch::{BatchProgram, BatchSolver};
pub use birth_death::{birth_death_gamma, birth_death_mtta};
pub use builder::{ChainSink, ChainWalk, CtmcBuilder, StateId};
pub use classify::{strongly_connected_components, validate_absorbing, AbsorbingDiagnosis};
pub use ctmc::{validate_generator, Ctmc, Transition};
pub use dot::{to_dot, DotOptions};
pub use error::Error;
pub use matrix::Matrix;
pub use solutions::{stationary_distribution, transient_distribution, uniformized};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
