use std::fmt;

/// Errors produced by the simulators.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A model-construction or parameter error from `nsr-core`.
    Model(nsr_core::Error),
    /// A Markov-chain error from `nsr-markov`.
    Markov(nsr_markov::Error),
    /// An invalid simulation argument (zero samples, bad bias, …).
    InvalidArgument {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// An event was scheduled at a non-finite time (NaN or ±∞ from a
    /// degenerate lifetime draw). The event queue orders by
    /// `f64::total_cmp`, so such an event would silently sort to the far
    /// future instead of corrupting the order — but it can never fire,
    /// so it is rejected up front.
    NonFiniteEventTime {
        /// The offending timestamp.
        time: f64,
    },
    /// An event was pushed onto a FIFO lane of the event queue at a time
    /// earlier than the lane's last event. A lane is only sorted, and so
    /// only pops in `(time, seq)` order, while its pushes come in time
    /// order; this one would have broken the order, so it is refused.
    LaneOutOfOrder {
        /// The lane pushed to.
        lane: usize,
        /// The refused timestamp.
        time: f64,
        /// The timestamp of the lane's last event.
        back: f64,
    },
    /// The simulation exceeded its event budget without reaching data
    /// loss — the configuration is too reliable for direct simulation;
    /// use [`crate::importance`] instead.
    EventBudgetExhausted {
        /// Number of events processed before giving up.
        events: u64,
    },
    /// Every hazard rate vanished while no repair was outstanding: the
    /// trajectory can never progress (no failure can fire, no rebuild can
    /// complete). Historically this state fed `total_rate == 0` into the
    /// exponential sampler, produced an infinite waiting time, and then
    /// panicked looking for a completion in an empty repair list. It is a
    /// parameterization bug (e.g. all MTTFs set to infinity), surfaced as
    /// a typed error.
    StalledTrajectory {
        /// Simulated time (hours) at which the trajectory stalled.
        at_hours: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Model(e) => write!(f, "model error: {e}"),
            Error::Markov(e) => write!(f, "markov error: {e}"),
            Error::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
            Error::NonFiniteEventTime { time } => {
                write!(f, "event scheduled at non-finite time {time}")
            }
            Error::LaneOutOfOrder { lane, time, back } => write!(
                f,
                "event at t={time} pushed onto queue lane {lane} behind one at t={back}"
            ),
            Error::EventBudgetExhausted { events } => write!(
                f,
                "no data loss within {events} events; configuration too reliable for \
                 direct simulation (use importance sampling)"
            ),
            Error::StalledTrajectory { at_hours } => write!(
                f,
                "trajectory stalled at t={at_hours} h: all hazard rates are zero and \
                 no repair is outstanding"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Model(e) => Some(e),
            Error::Markov(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nsr_core::Error> for Error {
    fn from(e: nsr_core::Error) -> Self {
        Error::Model(e)
    }
}

impl From<nsr_markov::Error> for Error {
    fn from(e: nsr_markov::Error) -> Self {
        Error::Markov(e)
    }
}
