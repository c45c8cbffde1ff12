//! Discrete-event Monte-Carlo simulation of networked storage nodes.
//!
//! The analytic models in `nsr-core` rest on Markov assumptions
//! (exponential repairs, one repair at a time). This crate provides two
//! independent stochastic implementations of the same system so those
//! assumptions — and the solvers — can be checked:
//!
//! * [`system`] — a **system-level discrete-event simulator**: individual
//!   nodes and drives fail as Poisson processes, distributed rebuilds take
//!   the *deterministic* durations of the §5.1 data-movement model, sector
//!   errors strike critical rebuilds with the §5.2 probabilities, and the
//!   fail-in-place spare pool depletes as components die. Data-loss times
//!   are collected into an MTTDL estimate with confidence intervals.
//! * [`fleet`] — a **fleet-scale discrete-event engine**: thousands of
//!   independent redundancy cells over a finite mission, each run on its
//!   own [`fleet::EventQueue`] (a heap beside a sorted start run and FIFO
//!   repair lanes) with per-entity state and stateless counter-based
//!   draws ([`nsr_rng::CounterRng`]), so a same-seed run is
//!   byte-identical at any worker count. Targets millions of bricks for
//!   a simulated decade.
//! * [`importance`] — **rare-event estimation** for ultra-reliable
//!   configurations where direct simulation would need ~10⁸ failure events
//!   per loss observation: regenerative cycles with balanced failure
//!   biasing and likelihood-ratio reweighting (Goyal/Shahabuddin style),
//!   applicable to any absorbing CTMC built with [`nsr_markov`].
//! * [`splitting`] — the complementary rare-event family: **multilevel
//!   splitting** along the distance-to-absorption level function, cloning
//!   trajectories at each crossing with `1/m` likelihood-ratio weights.
//! * [`aging`] — a **non-Markovian ablation**: per-entity ages with
//!   Weibull lifetimes (infant mortality / wear-out), quantifying the
//!   error of the paper's exponential assumption. It runs on the fleet's
//!   [`fleet::EventQueue`].
//! * [`faultinject`] — **deterministic fault-injection campaigns**: a
//!   declarative [`faultinject::FaultPlan`] of scheduled crashes,
//!   stochastic latent-error streams, correlated bursts, and
//!   bandwidth-degradation/partition windows, with an exact-replay
//!   guarantee (same plan + seed ⇒ byte-identical event trace). Its
//!   engine loop is the one [`system`] runs: a system sample is a
//!   campaign with nothing injected and no horizon.
//!
//! All three engines derive their rates from one place (the §4 failure
//! rates, §5.1 rebuild durations and §5.2 sector-error model of a
//! configuration at a parameter point).
//!
//! # Example
//!
//! ```
//! use nsr_core::config::Configuration;
//! use nsr_core::params::Params;
//! use nsr_core::raid::InternalRaid;
//! use nsr_sim::system::SystemSim;
//!
//! # fn main() -> Result<(), nsr_sim::Error> {
//! let config = Configuration::new(InternalRaid::None, 1)
//!     .map_err(nsr_sim::Error::Model)?;
//! let sim = SystemSim::new(Params::baseline(), config)?;
//! let est = sim.estimate_mttdl(200, 42)?;
//! assert!(est.mean > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aging;
mod error;
pub mod faultinject;
pub mod fleet;
pub mod importance;
pub mod obs;
pub mod postmortem;
pub mod splitting;
pub mod system;

pub use error::Error;
pub use nsr_markov::simulate::Estimate;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
