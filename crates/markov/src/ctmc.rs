use crate::builder::StateId;
use crate::matrix::Matrix;
use crate::{Error, Result};

/// Validates a dense matrix as an infinitesimal generator `Q`.
///
/// A generator must be square with finite entries, non-negative
/// off-diagonal rates, non-positive diagonal entries, and rows summing to
/// zero (within a tolerance scaled to the row's magnitude). Matrices
/// produced by [`Ctmc::generator`] always pass; use this guardrail before
/// feeding an externally assembled `Q` into uniformization or stationary
/// solvers, where a single NaN or sign slip would otherwise surface as a
/// nonsense probability rather than an error.
///
/// # Errors
///
/// * [`Error::NotSquare`] / [`Error::Empty`] for shape violations.
/// * [`Error::InvalidRate`] for NaN/Inf entries or negative off-diagonal
///   rates.
/// * [`Error::InvalidArgument`] for positive diagonals or rows that do not
///   sum to zero.
pub fn validate_generator(q: &Matrix) -> Result<()> {
    let (rows, cols) = q.shape();
    if rows == 0 || cols == 0 {
        return Err(Error::Empty);
    }
    if rows != cols {
        return Err(Error::NotSquare {
            shape: (rows, cols),
        });
    }
    for i in 0..rows {
        let mut sum = 0.0;
        let mut scale = 0.0;
        for j in 0..cols {
            let v = q[(i, j)];
            if !v.is_finite() {
                return Err(Error::InvalidRate {
                    from: i,
                    to: j,
                    rate: v,
                });
            }
            if i != j && v < 0.0 {
                return Err(Error::InvalidRate {
                    from: i,
                    to: j,
                    rate: v,
                });
            }
            sum += v;
            scale += v.abs();
        }
        if q[(i, i)] > 0.0 {
            return Err(Error::InvalidArgument {
                what: "generator diagonal entries must be non-positive",
            });
        }
        if sum.abs() > 1e-9 * scale.max(1.0) {
            return Err(Error::InvalidArgument {
                what: "generator rows must sum to zero",
            });
        }
    }
    Ok(())
}

/// A single directed transition of a CTMC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// Exponential rate (per unit time), strictly positive in a built chain.
    pub rate: f64,
}

/// A finite-state continuous-time Markov chain.
///
/// Built via [`crate::CtmcBuilder`]. A state with no outgoing transitions is
/// *absorbing*; everything else is *transient* for the purposes of
/// [`crate::AbsorbingAnalysis`] (the reliability models in this workspace
/// always have a reachable absorbing "data loss" state, which makes the
/// remaining states genuinely transient).
#[derive(Debug, Clone)]
pub struct Ctmc {
    labels: Vec<String>,
    /// Outgoing adjacency: `out[s]` lists `(destination, rate)`.
    out: Vec<Vec<(StateId, f64)>>,
    transitions: Vec<Transition>,
}

impl Ctmc {
    pub(crate) fn from_parts(labels: Vec<String>, transitions: Vec<Transition>) -> Self {
        let mut out = vec![Vec::new(); labels.len()];
        for t in &transitions {
            out[t.from.0].push((t.to, t.rate));
        }
        Ctmc {
            labels,
            out,
            transitions,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the chain has no states (never true for a built chain).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of a state.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn label(&self, s: StateId) -> &str {
        &self.labels[s.0]
    }

    /// Looks a state up by label (first match).
    pub fn state_by_label(&self, label: &str) -> Option<StateId> {
        self.labels.iter().position(|l| l == label).map(StateId)
    }

    /// All transitions in insertion order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Outgoing `(destination, rate)` pairs of a state.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn transitions_from(&self, s: StateId) -> &[(StateId, f64)] {
        &self.out[s.0]
    }

    /// Total outgoing rate of a state (the negated diagonal of `Q`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn total_rate(&self, s: StateId) -> f64 {
        self.out[s.0].iter().map(|(_, r)| r).sum()
    }

    /// Whether a state has no outgoing transitions.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn is_absorbing(&self, s: StateId) -> bool {
        self.out[s.0].is_empty()
    }

    /// Ids of all absorbing states, in index order.
    pub fn absorbing_states(&self) -> Vec<StateId> {
        (0..self.len())
            .map(StateId)
            .filter(|&s| self.is_absorbing(s))
            .collect()
    }

    /// Ids of all transient (non-absorbing) states, in index order.
    pub fn transient_states(&self) -> Vec<StateId> {
        (0..self.len())
            .map(StateId)
            .filter(|&s| !self.is_absorbing(s))
            .collect()
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.len()).map(StateId)
    }

    /// Maximum total outgoing rate over all states (the uniformization
    /// constant lower bound).
    pub fn max_total_rate(&self) -> f64 {
        self.states()
            .map(|s| self.total_rate(s))
            .fold(0.0, f64::max)
    }

    /// Dense infinitesimal generator matrix `Q`: off-diagonals are the
    /// transition rates and every row sums to zero.
    pub fn generator(&self) -> Matrix {
        let n = self.len();
        let mut q = Matrix::zeros(n, n);
        for t in &self.transitions {
            q[(t.from.0, t.to.0)] += t.rate;
            q[(t.from.0, t.from.0)] -= t.rate;
        }
        q
    }

    /// Rebuilds the chain with the same states and transition *structure*
    /// but new rates, one per entry of [`Ctmc::transitions`] in order.
    ///
    /// Applied to a [`crate::ChainWalk`]'s skeleton and rate vector it
    /// gives the walk's rated chain: transitions whose new rate is zero
    /// are dropped, exactly as [`crate::CtmcBuilder::add_transition`]
    /// drops them, so the result is indistinguishable from rebuilding
    /// the chain from scratch with the new rates.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] if `rates.len()` differs from the
    ///   transition count.
    /// * [`Error::InvalidRate`] if a rate is negative, NaN or infinite.
    pub fn with_rates(&self, rates: &[f64]) -> Result<Ctmc> {
        if rates.len() != self.transitions.len() {
            return Err(Error::InvalidArgument {
                what: "rate vector length must match the transition count",
            });
        }
        let mut transitions = Vec::with_capacity(self.transitions.len());
        for (t, &rate) in self.transitions.iter().zip(rates) {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(Error::InvalidRate {
                    from: t.from.0,
                    to: t.to.0,
                    rate,
                });
            }
            if rate > 0.0 {
                transitions.push(Transition { rate, ..*t });
            }
        }
        Ok(Ctmc::from_parts(self.labels.clone(), transitions))
    }

    /// Transition probabilities of the *embedded* discrete-time jump chain
    /// out of state `s`: each outgoing rate divided by the total rate.
    /// Returns an empty vector for absorbing states.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn jump_probabilities(&self, s: StateId) -> Vec<(StateId, f64)> {
        let total = self.total_rate(s);
        if total == 0.0 {
            return Vec::new();
        }
        self.out[s.0]
            .iter()
            .map(|&(to, r)| (to, r / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn three_state() -> (Ctmc, StateId, StateId, StateId) {
        let mut b = CtmcBuilder::new();
        let s0 = b.add_state("ok");
        let s1 = b.add_state("degraded");
        let s2 = b.add_state("lost");
        b.add_transition(s0, s1, 2.0).unwrap();
        b.add_transition(s1, s0, 10.0).unwrap();
        b.add_transition(s1, s2, 1.0).unwrap();
        (b.build().unwrap(), s0, s1, s2)
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let (c, ..) = three_state();
        let q = c.generator();
        for r in 0..c.len() {
            let sum: f64 = q.row(r).iter().sum();
            assert!(sum.abs() < 1e-15, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn absorbing_and_transient_partition() {
        let (c, s0, s1, s2) = three_state();
        assert_eq!(c.absorbing_states(), vec![s2]);
        assert_eq!(c.transient_states(), vec![s0, s1]);
        assert!(c.is_absorbing(s2));
        assert!(!c.is_absorbing(s1));
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn labels_and_lookup() {
        let (c, s0, _, s2) = three_state();
        assert_eq!(c.label(s0), "ok");
        assert_eq!(c.state_by_label("lost"), Some(s2));
        assert_eq!(c.state_by_label("nope"), None);
    }

    #[test]
    fn jump_probabilities_normalize() {
        let (c, _, s1, s2) = three_state();
        let jp = c.jump_probabilities(s1);
        let total: f64 = jp.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-15);
        assert!(c.jump_probabilities(s2).is_empty());
    }

    #[test]
    fn max_total_rate() {
        let (c, ..) = three_state();
        assert_eq!(c.max_total_rate(), 11.0);
    }

    #[test]
    fn with_rates_replaces_in_order() {
        let (c, s0, s1, s2) = three_state();
        let re = c.with_rates(&[4.0, 20.0, 3.0]).unwrap();
        assert_eq!(re.len(), 3);
        assert_eq!(re.label(s0), "ok");
        assert_eq!(re.total_rate(s0), 4.0);
        assert_eq!(re.total_rate(s1), 23.0);
        assert!(re.is_absorbing(s2));
    }

    #[test]
    fn with_rates_drops_zeros_like_the_builder() {
        let (c, _, s1, s2) = three_state();
        // Zeroing s1 -> s2 makes s2 unreachable and the chain loses its
        // only path to absorption — exactly what a fresh build would give.
        let re = c.with_rates(&[2.0, 10.0, 0.0]).unwrap();
        assert_eq!(re.transitions().len(), 2);
        assert_eq!(re.transitions_from(s1).len(), 1);
        assert!(re.is_absorbing(s2));

        let mut b = CtmcBuilder::new();
        let t0 = b.add_state("ok");
        let t1 = b.add_state("degraded");
        b.add_state("lost");
        b.add_transition(t0, t1, 2.0).unwrap();
        b.add_transition(t1, t0, 10.0).unwrap();
        let direct = b.build().unwrap();
        assert_eq!(re.transitions(), direct.transitions());
    }

    #[test]
    fn with_rates_validates() {
        let (c, ..) = three_state();
        assert!(matches!(
            c.with_rates(&[1.0, 2.0]).unwrap_err(),
            Error::InvalidArgument { .. }
        ));
        assert!(matches!(
            c.with_rates(&[1.0, 2.0, -1.0]).unwrap_err(),
            Error::InvalidRate { .. }
        ));
        assert!(matches!(
            c.with_rates(&[1.0, f64::NAN, 1.0]).unwrap_err(),
            Error::InvalidRate { .. }
        ));
    }

    #[test]
    fn built_generators_always_validate() {
        let (c, ..) = three_state();
        validate_generator(&c.generator()).unwrap();
    }

    #[test]
    fn validate_generator_rejects_malformed_input() {
        // Not square.
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            validate_generator(&rect).unwrap_err(),
            Error::NotSquare { .. }
        ));

        // NaN entry.
        let mut q = Matrix::zeros(2, 2);
        q[(0, 1)] = f64::NAN;
        assert!(matches!(
            validate_generator(&q).unwrap_err(),
            Error::InvalidRate { from: 0, to: 1, .. }
        ));

        // Negative off-diagonal rate.
        let mut q = Matrix::zeros(2, 2);
        q[(0, 0)] = -1.0;
        q[(0, 1)] = 1.0;
        q[(1, 0)] = -0.5;
        q[(1, 1)] = 0.5;
        assert!(matches!(
            validate_generator(&q).unwrap_err(),
            Error::InvalidRate { from: 1, to: 0, .. }
        ));

        // Positive diagonal.
        let mut q = Matrix::zeros(1, 1);
        q[(0, 0)] = 2.0;
        assert!(matches!(
            validate_generator(&q).unwrap_err(),
            Error::InvalidArgument { .. }
        ));

        // Row sum far from zero.
        let mut q = Matrix::zeros(2, 2);
        q[(0, 0)] = -1.0;
        q[(0, 1)] = 2.0;
        assert!(matches!(
            validate_generator(&q).unwrap_err(),
            Error::InvalidArgument { .. }
        ));
    }
}
