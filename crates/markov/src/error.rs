use std::fmt;

/// Errors produced while building or analyzing a CTMC.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A transition rate was negative, NaN or infinite.
    InvalidRate {
        /// Index of the source state.
        from: usize,
        /// Index of the destination state.
        to: usize,
        /// The offending rate.
        rate: f64,
    },
    /// A transition referenced a state id that was not created by the same
    /// builder.
    UnknownState {
        /// The offending state index.
        state: usize,
        /// Number of states the chain actually has.
        len: usize,
    },
    /// A transition from a state to itself was requested; self-loops are
    /// meaningless in a CTMC (they cancel in the generator).
    SelfLoop {
        /// The offending state index.
        state: usize,
    },
    /// The chain has no states.
    EmptyChain,
    /// Absorbing-state analysis requires at least one absorbing state.
    NoAbsorbingState,
    /// Absorbing-state analysis requires at least one transient state.
    NoTransientState,
    /// The requested operation needs a transient (non-absorbing) state but
    /// an absorbing one was supplied.
    StateNotTransient {
        /// The offending state index.
        state: usize,
    },
    /// The requested operation needs an absorbing state but a transient one
    /// was supplied.
    StateNotAbsorbing {
        /// The offending state index.
        state: usize,
    },
    /// The stationary distribution is only defined for irreducible chains;
    /// the chain has an absorbing state, or the GTH reduction met a state
    /// with no way back to the states left (a zero pivot sum).
    NotIrreducible,
    /// A numeric argument (time horizon, tolerance) was invalid.
    InvalidArgument {
        /// Human-readable description of the constraint that failed.
        what: &'static str,
    },
    /// An exponential (or other hazard) draw was requested with a rate that
    /// is zero, negative, NaN or infinite. Simulation loops must treat a
    /// vanished hazard as "no event" rather than sampling from it; reaching
    /// this error means a caller fed a degenerate rate into the sampler.
    NonPositiveRate {
        /// The offending rate.
        rate: f64,
    },
    /// A matrix with zero rows or columns was supplied where a non-empty
    /// matrix is required.
    Empty,
    /// A square matrix was required but the operand was rectangular.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// The absorption matrix is singular: once the states after `pivot`
    /// are eliminated, transient state `pivot` has no way to absorption.
    Singular {
        /// Elimination step (transient row) at which the pivot sum was zero.
        pivot: usize,
    },
    /// A solve overflowed: a mean time or probability came out infinite
    /// or NaN.
    NotFinite {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidRate { from, to, rate } => {
                write!(f, "invalid rate {rate} on transition {from} -> {to}")
            }
            Error::UnknownState { state, len } => {
                write!(f, "state {state} does not exist (chain has {len} states)")
            }
            Error::SelfLoop { state } => write!(f, "self-loop on state {state}"),
            Error::EmptyChain => write!(f, "chain has no states"),
            Error::NoAbsorbingState => write!(f, "chain has no absorbing state"),
            Error::NoTransientState => write!(f, "chain has no transient state"),
            Error::StateNotTransient { state } => {
                write!(f, "state {state} is absorbing, expected transient")
            }
            Error::StateNotAbsorbing { state } => {
                write!(f, "state {state} is transient, expected absorbing")
            }
            Error::NotIrreducible => write!(f, "chain is not irreducible"),
            Error::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
            Error::NonPositiveRate { rate } => {
                write!(
                    f,
                    "exponential rate must be positive and finite, got {rate}"
                )
            }
            Error::Empty => write!(f, "matrix must be non-empty"),
            Error::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            Error::Singular { pivot } => {
                write!(
                    f,
                    "matrix is singular to working precision at pivot column {pivot}"
                )
            }
            Error::NotFinite { op } => write!(f, "non-finite value encountered in {op}"),
        }
    }
}

impl std::error::Error for Error {}
