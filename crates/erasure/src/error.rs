use std::fmt;

/// Errors produced by erasure-coding and placement operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A code-geometry parameter was invalid (zero shards, or the total
    /// `data + parity` exceeding the GF(2⁸) limit of 255 shards).
    InvalidGeometry {
        /// Number of data shards requested.
        data: usize,
        /// Number of parity shards requested.
        parity: usize,
    },
    /// The wrong number of shards was supplied for this code.
    ShardCountMismatch {
        /// Expected shard count.
        expected: usize,
        /// Supplied shard count.
        found: usize,
    },
    /// Shards must all have the same length.
    ShardSizeMismatch {
        /// Length of the first shard.
        expected: usize,
        /// Index of the first shard whose length differs.
        index: usize,
        /// Its length.
        found: usize,
    },
    /// More shards are missing than the code can reconstruct.
    TooManyErasures {
        /// Number of missing shards.
        missing: usize,
        /// Maximum the code tolerates.
        tolerated: usize,
    },
    /// A matrix over GF(2⁸) was singular where an invertible one was
    /// required (cannot happen for the Vandermonde-derived matrices used
    /// internally; reachable through the public matrix API).
    SingularMatrix,
    /// The decode matrix for an erasure pattern failed to invert. For a
    /// well-formed MDS generator any `k` rows are invertible, so this
    /// signals internal-state corruption (e.g. a tampered generator) —
    /// reported as an error instead of aborting the process.
    SingularDecodeMatrix,
    /// A cached [`DecodePlan`](crate::rs::DecodePlan) was applied to a
    /// stripe whose erasure pattern does not match the one the plan was
    /// built for.
    DecodePlanMismatch,
    /// A placement parameter was invalid (e.g. `R > N`, or zero sizes).
    InvalidPlacement {
        /// Description of the violated constraint.
        what: String,
    },
    /// Division by zero in GF(2⁸).
    DivisionByZero,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidGeometry { data, parity } => {
                write!(
                    f,
                    "invalid code geometry: {data} data + {parity} parity shards"
                )
            }
            Error::ShardCountMismatch { expected, found } => {
                write!(f, "expected {expected} shards, found {found}")
            }
            Error::ShardSizeMismatch {
                expected,
                index,
                found,
            } => write!(
                f,
                "shard {index} has length {found}, expected {expected} like shard 0"
            ),
            Error::TooManyErasures { missing, tolerated } => {
                write!(
                    f,
                    "{missing} shards missing, code tolerates only {tolerated}"
                )
            }
            Error::SingularMatrix => write!(f, "matrix is singular over GF(256)"),
            Error::SingularDecodeMatrix => write!(
                f,
                "decode matrix is singular: the generator no longer has the \
                 MDS property (internal state corrupted)"
            ),
            Error::DecodePlanMismatch => {
                write!(f, "decode plan does not match the stripe's erasure pattern")
            }
            Error::InvalidPlacement { what } => write!(f, "invalid placement: {what}"),
            Error::DivisionByZero => write!(f, "division by zero in GF(256)"),
        }
    }
}

impl std::error::Error for Error {}
