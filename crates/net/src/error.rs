use std::fmt;

/// Errors produced by the networked brick store.
///
/// Every failure mode a caller can act on is a distinct variant: transport
/// faults carry the operation they interrupted, exhausted retry budgets
/// carry the attempt count, and data loss carries the erasure accounting —
/// nothing is reported as a bare string where a caller might want to
/// branch.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A socket operation failed (connect, read, write, accept).
    Io {
        /// The operation that failed (e.g. `"connect"`, `"read_frame"`).
        op: &'static str,
        /// The OS error rendered as text (kept comparable for tests).
        detail: String,
    },
    /// A socket operation exceeded its bounded deadline.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
    },
    /// A received byte sequence does not decode to any protocol frame.
    Decode {
        /// What was malformed (tag, length, truncation, …).
        what: String,
    },
    /// A well-formed frame arrived that is not valid in this context
    /// (e.g. a response tag where a request was expected).
    Protocol {
        /// Description of the violation.
        what: String,
    },
    /// The remote brick reported a typed failure.
    Remote {
        /// The remote error code (see [`crate::wire::reply_code`]).
        code: u16,
        /// The remote error description.
        detail: String,
    },
    /// The requested shard is not stored on the brick.
    ShardNotFound {
        /// Object id.
        object: u64,
        /// Shard position within the object's redundancy set.
        pos: u32,
    },
    /// A brick answered a fetch with a whole, well-framed shard of the
    /// wrong size (the payload was skipped, so the stream stays in sync).
    ShardLength {
        /// Bytes the caller's destination holds.
        expected: usize,
        /// Bytes the brick sent.
        found: usize,
    },
    /// A fan-out named this brick at an earlier index too. Only the
    /// earlier index is sent; this one is refused without waiting for a
    /// lane (the wait could be on the lane the same fan-out holds), and is
    /// transient: a retry after the fan-out has released its lanes serves
    /// it.
    DuplicateBrick {
        /// The brick named twice.
        brick: u32,
    },
    /// A retried operation exhausted its backoff budget.
    RetriesExhausted {
        /// The operation that kept failing.
        op: &'static str,
        /// Attempts made (≥ 1).
        attempts: u32,
        /// The last underlying failure, rendered as text.
        last: String,
    },
    /// Fewer healthy bricks remain than a write needs.
    InsufficientBricks {
        /// Bricks the operation needs.
        need: usize,
        /// Healthy bricks available.
        have: usize,
    },
    /// A put's object is larger than `k` shards of at most
    /// [`crate::wire::MAX_SHARD_LEN`] bytes can hold; refused before any
    /// encoding or connection work.
    ObjectTooLarge {
        /// The object's length in bytes.
        len: usize,
        /// The largest object the gateway's geometry can store.
        max: usize,
    },
    /// The object id is not in the gateway's metadata.
    ObjectNotFound {
        /// The unknown object id.
        object: u64,
    },
    /// More of an object's shards are unavailable than the code
    /// tolerates — the paper's data-loss event, surfaced typed.
    DataLoss {
        /// The affected object.
        object: u64,
        /// Shards unavailable.
        missing: usize,
        /// Shards the code tolerates losing.
        tolerated: usize,
    },
    /// A rebuild was interrupted mid-transfer (a source or spare brick
    /// died while shards were being re-replicated). The completed work
    /// is kept;
    /// retrying resumes from `resumed_from` re-replicated shards instead
    /// of restarting from shard 0.
    RebuildInterrupted {
        /// Shards already re-replicated before the interruption.
        resumed_from: u64,
    },
    /// An erasure-coding error (geometry, reconstruction, verification).
    Erasure(nsr_erasure::Error),
    /// A configuration parameter was invalid (zero bricks, `t >= r`, …).
    InvalidConfig {
        /// Description of the violated constraint.
        what: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { op, detail } => write!(f, "i/o error during {op}: {detail}"),
            Error::Timeout { op } => write!(f, "{op} timed out"),
            Error::Decode { what } => write!(f, "frame decode error: {what}"),
            Error::Protocol { what } => write!(f, "protocol violation: {what}"),
            Error::Remote { code, detail } => {
                write!(f, "brick reported error {code}: {detail}")
            }
            Error::ShardNotFound { object, pos } => {
                write!(f, "shard (obj{object}, pos {pos}) not stored on this brick")
            }
            Error::ShardLength { expected, found } => {
                write!(f, "brick sent a {found}-byte shard, expected {expected}")
            }
            Error::DuplicateBrick { brick } => {
                write!(f, "brick {brick} named twice in one fan-out")
            }
            Error::RetriesExhausted { op, attempts, last } => {
                write!(
                    f,
                    "{op} failed after {attempts} attempt(s); last error: {last}"
                )
            }
            Error::InsufficientBricks { need, have } => {
                write!(f, "need {need} healthy bricks, only {have} available")
            }
            Error::ObjectTooLarge { len, max } => write!(
                f,
                "object of {len} bytes exceeds the {max}-byte limit of one stripe"
            ),
            Error::ObjectNotFound { object } => write!(f, "obj{object} not found"),
            Error::DataLoss {
                object,
                missing,
                tolerated,
            } => write!(
                f,
                "data loss: obj{object} has {missing} shards unavailable, \
                 code tolerates {tolerated}"
            ),
            Error::RebuildInterrupted { resumed_from } => write!(
                f,
                "rebuild interrupted by a source failure after {resumed_from} \
                 re-replicated shard(s); retry resumes from the checkpoint"
            ),
            Error::Erasure(e) => write!(f, "erasure error: {e}"),
            Error::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<nsr_erasure::Error> for Error {
    fn from(e: nsr_erasure::Error) -> Self {
        Error::Erasure(e)
    }
}

impl Error {
    /// Classifies an [`std::io::Error`] from operation `op` into
    /// [`Error::Timeout`] or [`Error::Io`].
    pub fn from_io(op: &'static str, e: &std::io::Error) -> Error {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Error::Timeout { op },
            _ => Error::Io {
                op,
                detail: e.kind().to_string(),
            },
        }
    }

    /// Whether this error leaves a connection's byte stream in an unknown
    /// state (transport and framing faults), as opposed to a well-framed
    /// typed reply after which the next request can reuse the stream.
    pub fn breaks_stream(&self) -> bool {
        matches!(
            self,
            Error::Io { .. }
                | Error::Timeout { .. }
                | Error::Decode { .. }
                | Error::Protocol { .. }
        )
    }

    /// Whether a retry with backoff can plausibly clear this error
    /// (transient transport faults, a brick a fan-out named twice) as
    /// opposed to a permanent condition (decode errors, data loss,
    /// configuration errors).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::Io { .. }
                | Error::Timeout { .. }
                | Error::InsufficientBricks { .. }
                | Error::DuplicateBrick { .. }
        )
    }
}
