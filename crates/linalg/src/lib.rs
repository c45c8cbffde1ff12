//! Small, dependency-free dense linear-algebra kernel.
//!
//! The reliability models in this workspace reduce to solving linear systems
//! built from the infinitesimal generator of a continuous-time Markov chain
//! (CTMC). The appendix of *Reliability for Networked Storage Nodes* (Rao,
//! Hafner, Golding; DSN 2006) computes the mean time to data loss as
//!
//! ```text
//! MTTDL = ⟨1, 0, …, 0⟩ · R⁻¹ · ⟨1, …, 1⟩ᵗ
//! ```
//!
//! where `R = −Q_B` is the *absorption matrix* of the chain. `R` is far too
//! ill-conditioned for a general solver (`nsr-markov` eliminates it
//! subtraction-free instead); this crate provides the well-conditioned
//! remainder — stationary distributions, generators, test oracles — and
//! nothing more exotic:
//!
//! * [`Matrix`]: a dense row-major `f64` matrix with the usual arithmetic,
//! * [`Lu`]: LU factorization with partial pivoting, giving
//!   [`Lu::solve`], [`Lu::det`], [`Lu::inverse`] and iterative refinement,
//! * free vector helpers in [`vector`].
//!
//! # Why hand-rolled?
//!
//! The build environment allows only a small set of third-party crates, none
//! of which provide linear algebra, so the kernel is implemented here with an
//! extensive test-suite (including property tests) instead. Matrices in this
//! workspace are small (the largest CTMC solved has `2^(k+1) − 1 ≤ 1,023`
//! transient states, and that one never reaches this crate), so an
//! unblocked LU is entirely adequate.
//!
//! # Example
//!
//! ```
//! use nsr_linalg::{Matrix, Lu};
//!
//! # fn main() -> Result<(), nsr_linalg::Error> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! assert!((1.0 * x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod lu;
mod matrix;
pub mod vector;

pub use error::Error;
pub use lu::Lu;
pub use matrix::Matrix;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
