//! Erasure coding and data placement for networked storage nodes.
//!
//! The reliability models in `nsr-core` assume a storage substrate: data
//! objects striped as *redundancy sets* of `R` elements (data + parity)
//! spread evenly over a node set of size `N`, protected by an erasure code
//! tolerating `t` erasures (§3–§5 of *Reliability for Networked Storage
//! Nodes*, Rao/Hafner/Golding, DSN 2006). This crate **builds that
//! substrate** so the paper's combinatorial claims can be demonstrated on
//! a working system rather than assumed:
//!
//! * [`gf256`] — arithmetic in GF(2⁸),
//! * [`matrix`] — matrices over GF(2⁸) with Gauss–Jordan inversion,
//! * [`rs`] — a systematic Reed–Solomon erasure code: `R − t` data
//!   elements, `t` parity elements, reconstruction from any `≤ t`
//!   erasures,
//! * [`placement`] — even redundancy-set placement over a node set,
//!   empirical critical-set counting (validating the §5.2 fractions), and
//!   rebuild data-flow accounting (validating the §5.1 transfer amounts).
//!
//! The object store built on this codec — TCP bricks behind a striping
//! gateway with degraded reads, failure detection and rebuild to
//! spares — is `nsr-net`.
//!
//! # Example: encode, lose `t` nodes, reconstruct
//!
//! ```
//! use nsr_erasure::rs::ReedSolomon;
//!
//! # fn main() -> Result<(), nsr_erasure::Error> {
//! let code = ReedSolomon::new(6, 2)?; // R = 8, t = 2
//! let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 * 7; 64]).collect();
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     code.encode(&data)?.into_iter().map(Some).collect();
//! shards[1] = None; // node failure
//! shards[6] = None; // another node failure
//! code.reconstruct(&mut shards)?;
//! assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide; the single exception is the vectorized
// GF(2⁸) kernel in `simd`, which needs `unsafe` for CPU-feature dispatch
// and SIMD loads/stores and carries per-site SAFETY arguments.
#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
pub mod gf256;
pub mod matrix;
pub mod obs;
pub mod placement;
pub mod rs;
mod simd;

pub use error::Error;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
