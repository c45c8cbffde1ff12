use crate::ctmc::{Ctmc, Transition};
use crate::{Error, Result};

/// Opaque handle to a state created by a [`CtmcBuilder`].
///
/// State ids are dense indices in creation order; [`StateId::index`] exposes
/// the index for callers that build parallel tables keyed by state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) usize);

impl StateId {
    /// The state with dense index `index`: a [`ChainWalk`] that declares
    /// its states in id order names them by arithmetic.
    pub fn new(index: usize) -> StateId {
        StateId(index)
    }

    /// Dense index of the state (creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Incremental builder for a [`Ctmc`].
///
/// Rates for repeated `(from, to)` pairs accumulate, which makes it easy to
/// express "either of two failure modes moves the system to the same state"
/// without pre-summing rates.
///
/// # Example
///
/// ```
/// use nsr_markov::CtmcBuilder;
///
/// # fn main() -> Result<(), nsr_markov::Error> {
/// let mut b = CtmcBuilder::new();
/// let up = b.add_state("up");
/// let down = b.add_state("down");
/// b.add_transition(up, down, 0.5)?;
/// b.add_transition(up, down, 0.25)?; // accumulates to 0.75
/// let ctmc = b.build()?;
/// assert_eq!(ctmc.total_rate(up), 0.75);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtmcBuilder {
    labels: Vec<String>,
    transitions: Vec<Transition>,
}

impl CtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state with a human-readable label and returns its id.
    pub fn add_state(&mut self, label: impl Into<String>) -> StateId {
        self.labels.push(label.into());
        StateId(self.labels.len() - 1)
    }

    /// Number of states added so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no states have been added yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Adds a transition with the given rate. A zero rate is accepted and
    /// ignored (convenient when rates are computed from parameters that may
    /// vanish); rates for repeated pairs accumulate.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownState`] if either endpoint was not created by this
    ///   builder.
    /// * [`Error::SelfLoop`] if `from == to`.
    /// * [`Error::InvalidRate`] if `rate` is negative, NaN or infinite.
    pub fn add_transition(&mut self, from: StateId, to: StateId, rate: f64) -> Result<&mut Self> {
        let n = self.labels.len();
        for s in [from, to] {
            if s.0 >= n {
                return Err(Error::UnknownState { state: s.0, len: n });
            }
        }
        if from == to {
            return Err(Error::SelfLoop { state: from.0 });
        }
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(Error::InvalidRate {
                from: from.0,
                to: to.0,
                rate,
            });
        }
        if rate > 0.0 {
            if let Some(t) = self
                .transitions
                .iter_mut()
                .find(|t| t.from == from && t.to == to)
            {
                t.rate += rate;
            } else {
                self.transitions.push(Transition { from, to, rate });
            }
        }
        Ok(self)
    }

    /// Finalizes the chain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyChain`] if no states were added.
    pub fn build(self) -> Result<Ctmc> {
        if self.labels.is_empty() {
            return Err(Error::EmptyChain);
        }
        Ok(Ctmc::from_parts(self.labels, self.transitions))
    }
}

/// What a [`ChainWalk`] writes into.
pub trait ChainSink {
    /// Declares the next state; only a sink that keeps labels calls
    /// `label`.
    fn state(&mut self, label: impl FnOnce() -> String) -> StateId;

    /// Emits the transition `from → to` at `rate`. A sink that builds a
    /// chain refuses what [`CtmcBuilder::add_transition`] refuses.
    fn edge(&mut self, from: StateId, to: StateId, rate: f64) -> Result<()>;
}

/// A chain written once, as a walk: it declares every state in id order,
/// then emits every transition with its rate, in an order no rate changes
/// and with no `(from, to)` pair twice. Three sinks read the one walk:
/// the rated chain, the skeleton a [`crate::BatchProgram`] compiles and
/// the rate vector that program solves, so the skeleton's transitions and
/// the rate vector match one for one by construction.
pub trait ChainWalk {
    /// Runs the walk into `sink` and returns the root state.
    fn walk<S: ChainSink>(&self, sink: &mut S) -> Result<StateId>;

    /// The chain at the walk's rates, and its root. A zero rate drops its
    /// transition, as [`Ctmc::with_rates`] does.
    fn rated(&self) -> Result<(Ctmc, StateId)> {
        let mut b = CtmcBuilder::new();
        let root = self.walk(&mut b)?;
        Ok((b.build()?, root))
    }

    /// The chain's topology, and its root: every transition kept, at a
    /// placeholder rate of `1.0`.
    fn skeleton(&self) -> Result<(Ctmc, StateId)> {
        let mut b = Skeleton(CtmcBuilder::new());
        let root = self.walk(&mut b)?;
        Ok((b.0.build()?, root))
    }

    /// The walk's rates, zeros included, one per [`ChainWalk::skeleton`]
    /// transition, into `rates` (cleared first). Formats no label, and
    /// allocates nothing once `rates` has held them.
    fn rates_into(&self, rates: &mut Vec<f64>) -> Result<()> {
        rates.clear();
        self.walk(&mut Rates { rates, states: 0 }).map(drop)
    }
}

/// The rated sink.
impl ChainSink for CtmcBuilder {
    fn state(&mut self, label: impl FnOnce() -> String) -> StateId {
        self.add_state(label())
    }

    fn edge(&mut self, from: StateId, to: StateId, rate: f64) -> Result<()> {
        self.add_transition(from, to, rate).map(drop)
    }
}

/// The skeleton sink: a builder that keeps every edge at rate `1.0`.
struct Skeleton(CtmcBuilder);

impl ChainSink for Skeleton {
    fn state(&mut self, label: impl FnOnce() -> String) -> StateId {
        self.0.state(label)
    }

    fn edge(&mut self, from: StateId, to: StateId, _rate: f64) -> Result<()> {
        self.0.edge(from, to, 1.0)
    }
}

/// The rate sink: counts states, pushes rates.
struct Rates<'a> {
    rates: &'a mut Vec<f64>,
    states: usize,
}

/// Inlined across crates: a walk is instantiated in the crate that
/// defines it, and a call per rate costs as much as the push.
impl ChainSink for Rates<'_> {
    #[inline]
    fn state(&mut self, _label: impl FnOnce() -> String) -> StateId {
        self.states += 1;
        StateId(self.states - 1)
    }

    #[inline]
    fn edge(&mut self, _from: StateId, _to: StateId, rate: f64) -> Result<()> {
        self.rates.push(rate);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_rates() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("c");
        b.add_transition(a, c, 1.0).unwrap();
        b.add_transition(a, c, 2.0).unwrap();
        let ctmc = b.build().unwrap();
        assert_eq!(ctmc.total_rate(a), 3.0);
        assert_eq!(ctmc.transitions_from(a).len(), 1);
    }

    #[test]
    fn zero_rate_is_dropped() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("c");
        b.add_transition(a, c, 0.0).unwrap();
        let ctmc = b.build().unwrap();
        assert!(ctmc.transitions_from(a).is_empty());
    }

    #[test]
    fn rejects_bad_transitions() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("c");
        assert!(matches!(
            b.add_transition(a, a, 1.0).unwrap_err(),
            Error::SelfLoop { state: 0 }
        ));
        assert!(matches!(
            b.add_transition(a, c, -1.0).unwrap_err(),
            Error::InvalidRate { .. }
        ));
        assert!(matches!(
            b.add_transition(a, c, f64::NAN).unwrap_err(),
            Error::InvalidRate { .. }
        ));
        let ghost = StateId(99);
        assert!(matches!(
            b.add_transition(a, ghost, 1.0).unwrap_err(),
            Error::UnknownState { state: 99, len: 2 }
        ));
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(matches!(
            CtmcBuilder::new().build().unwrap_err(),
            Error::EmptyChain
        ));
    }

    /// `ok ⇄ degraded → lost`, with the repair rate `mu` (possibly 0).
    struct Repairable {
        mu: f64,
    }

    impl ChainWalk for Repairable {
        fn walk<S: ChainSink>(&self, sink: &mut S) -> Result<StateId> {
            let ok = sink.state(|| "ok".into());
            let degraded = sink.state(|| "degraded".into());
            let lost = sink.state(|| "lost".into());
            sink.edge(ok, degraded, 2.0)?;
            sink.edge(degraded, ok, self.mu)?;
            sink.edge(degraded, lost, 1.0)?;
            Ok(ok)
        }
    }

    #[test]
    fn the_three_sinks_read_one_walk() {
        for mu in [10.0, 0.0] {
            let walk = Repairable { mu };
            let (skeleton, root) = walk.skeleton().unwrap();
            let mut rates = vec![7.0];
            walk.rates_into(&mut rates).unwrap();
            // The skeleton keeps the zero-rate edge; the rate vector holds
            // its zero; the rated chain drops it, as `with_rates` does.
            assert_eq!(skeleton.transitions().len(), 3);
            assert!(skeleton.transitions().iter().all(|t| t.rate == 1.0));
            assert_eq!(rates, [2.0, mu, 1.0]);
            let (rated, rated_root) = walk.rated().unwrap();
            let rescaled = skeleton.with_rates(&rates).unwrap();
            assert_eq!(rated.transitions(), rescaled.transitions());
            assert_eq!(rated.transitions().len(), if mu > 0.0 { 3 } else { 2 });
            assert_eq!((root, rated_root), (StateId(0), StateId(0)));
            assert_eq!(rated.label(StateId(2)), "lost");
        }
    }

    #[test]
    fn state_id_display_and_index() {
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        assert_eq!(a.index(), 0);
        assert_eq!(format!("{a}"), "s0");
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
