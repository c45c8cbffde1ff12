use crate::builder::StateId;
use crate::ctmc::Ctmc;
use crate::{Error, Result};

/// Exact analysis of a CTMC with absorbing states.
///
/// This is the numerical realization of the paper appendix's
///
/// ```text
/// MTTDL = ⟨1, 0, …, 0⟩ · R⁻¹ · ⟨1, …, 1⟩ᵗ
/// ```
///
/// generalized to arbitrary initial states and to absorption probabilities.
///
/// # Numerical method
///
/// Reliability chains are *stiff*: repair rates exceed failure rates by
/// 3–6 orders of magnitude, so the absorption matrix `R = −Q_B` of a
/// fault-tolerance-`k` model has condition number growing like
/// `(μ/λ)^k` — far beyond what a plain `f64` LU solve survives (`κ ≈ 10¹⁶`
/// already at `k ≈ 4`). `AbsorbingAnalysis` therefore works by
/// **GTH-style subtraction-free state elimination**
/// (Grassmann–Taksar–Heyman): states are eliminated one at a time, every
/// update is a product or a sum of non-negative quantities, and exit
/// rates are *recomputed* as sums rather than updated by differences. The
/// result carries componentwise relative accuracy `O(n·ε)` independent of
/// the chain's stiffness.
///
/// # One elimination, many right-hand sides
///
/// The dense `m × m` rate table is eliminated **once**, at construction,
/// and kept as a subtraction-free factorization of `R`: row `t`'s prefix
/// is what back-substitution reads, the column-`t` entries of rows
/// `i < t` are the multipliers `q_it / D_t` the elimination used, and the
/// pivots `D_t` are the diagonal of `U` in an unpivoted `R = LU`. Mean
/// times to absorption (right-hand side `1`), each absorbing state's
/// probability column (its inflow rates) and each
/// [`AbsorbingAnalysis::expected_time_in`] (`e_j`) are `O(m²)` replays of
/// that factorization. There is no LU, no inverse and nothing to select:
/// this is the reference the compiled [`crate::BatchSolver`] — what every
/// sweep, planner and figure path runs — is pinned against bit for bit.
///
/// A chain whose elimination overflows (rates so small that a mean time
/// exceeds `f64::MAX`) is refused with [`Error::NotFinite`],
/// exactly as the compiled engine refuses it. No input reachable through
/// [`crate::CtmcBuilder`] panics this type.
///
/// # Example
///
/// ```
/// use nsr_markov::{CtmcBuilder, AbsorbingAnalysis};
///
/// # fn main() -> Result<(), nsr_markov::Error> {
/// let mut b = CtmcBuilder::new();
/// let up = b.add_state("up");
/// let down = b.add_state("down");
/// b.add_transition(up, down, 0.1)?;
/// let ctmc = b.build()?;
/// let a = AbsorbingAnalysis::new(&ctmc)?;
/// assert!((a.mean_time_to_absorption(up)? - 10.0).abs() < 1e-12);
/// assert!((a.absorption_probability(up, down)? - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AbsorbingAnalysis {
    /// Transient states in row/column order.
    transient: Vec<StateId>,
    /// All absorbing states.
    absorbing: Vec<StateId>,
    /// Transient row of each global state index ([`NOT_TRANSIENT`] for
    /// absorbing states).
    row_of: Vec<usize>,
    /// The eliminated rate table: `R`, factored once.
    factors: GthFactors,
    /// `‖R‖∞`, taken from the rates before elimination.
    norm_inf: f64,
    /// `mtta[i]` = expected time to absorption from transient row `i`.
    mtta: Vec<f64>,
    /// `absorb_prob[a][i]` = P(absorbed in `absorbing[a]` | start in
    /// transient row `i`).
    absorb_prob: Vec<Vec<f64>>,
}

/// `row_of` entry of a state that is not transient.
const NOT_TRANSIENT: usize = usize::MAX;

/// A subtraction-free factorization of the absorption matrix: what GTH
/// elimination leaves behind, kept so further right-hand sides cost a
/// replay instead of another elimination.
#[derive(Debug)]
struct GthFactors {
    /// Row-major `m × m`. Below the diagonal, row `t` holds its rates as
    /// they stood when `t` was eliminated (what back-substitution
    /// reads); above it, `(i, t)` holds the multiplier `q_it / D_t` with
    /// which `t` was folded into `i`. The diagonal is unused.
    table: Vec<f64>,
    /// Elimination pivots `D_t` — the diagonal of `U` in an unpivoted
    /// `R = LU`, each computed as a sum, never a difference.
    pivots: Vec<f64>,
}

impl AbsorbingAnalysis {
    /// Builds the analysis for a chain.
    ///
    /// # Errors
    ///
    /// * [`Error::NoAbsorbingState`] / [`Error::NoTransientState`] if the
    ///   chain is not a proper absorbing chain.
    /// * [`Error::Singular`] if some transient state cannot reach any
    ///   absorbing state (the absorption matrix is singular).
    /// * [`Error::NotFinite`] if the elimination overflowed and a mean
    ///   time or probability is infinite or NaN.
    pub fn new(ctmc: &Ctmc) -> Result<Self> {
        let t0 = nsr_obs::metrics_timer();
        let mut span = nsr_obs::trace::Span::enter("markov.absorbing.solve");
        let absorbing = ctmc.absorbing_states();
        if absorbing.is_empty() {
            return Err(Error::NoAbsorbingState);
        }
        let transient = ctmc.transient_states();
        if transient.is_empty() {
            return Err(Error::NoTransientState);
        }
        let m = transient.len();
        let mut row_of = vec![NOT_TRANSIENT; ctmc.len()];
        for (i, s) in transient.iter().enumerate() {
            row_of[s.0] = i;
        }

        // Transient-to-transient rates `q`, total rates into the
        // absorbing class `qa`, and `‖R‖∞`: row `i` of `R` holds the
        // state's total exit rate on the diagonal and its negated
        // transient-to-transient rates beside it.
        let mut table = vec![0.0; m * m];
        let mut qa = vec![0.0; m];
        let mut norm_inf = 0.0_f64;
        for (i, &s) in transient.iter().enumerate() {
            let mut to_transient = 0.0;
            for &(to, rate) in ctmc.transitions_from(s) {
                match row_of[to.0] {
                    NOT_TRANSIENT => qa[i] += rate,
                    j => {
                        table[i * m + j] += rate;
                        to_transient += rate;
                    }
                }
            }
            norm_inf = norm_inf.max(qa[i] + 2.0 * to_transient);
        }
        let factors = GthFactors::eliminate(table, qa)?;

        let mtta = factors.solve(vec![1.0; m])?;
        // Absorption probabilities into each absorbing state: the same
        // factorization with the per-target inflow rates as RHS.
        let mut absorb_prob = Vec::with_capacity(absorbing.len());
        for &a in &absorbing {
            let mut inflow = vec![0.0; m];
            for (i, &s) in transient.iter().enumerate() {
                for &(to, rate) in ctmc.transitions_from(s) {
                    if to == a {
                        inflow[i] += rate;
                    }
                }
            }
            absorb_prob.push(factors.solve(inflow)?);
        }

        let analysis = AbsorbingAnalysis {
            transient,
            absorbing,
            row_of,
            factors,
            norm_inf,
            mtta,
            absorb_prob,
        };
        crate::obs::SOLVES.inc();
        if let Some(t0) = t0 {
            crate::obs::SOLVE_SECONDS.observe(t0.elapsed().as_secs_f64());
            crate::obs::CONDITION.observe(analysis.condition_estimate());
        }
        span.field("transient", || nsr_obs::Json::Num(m as f64));
        span.field("absorbing", || {
            nsr_obs::Json::Num(analysis.absorbing.len() as f64)
        });
        drop(span);
        Ok(analysis)
    }

    /// Transient row of `s`.
    fn row(&self, s: StateId) -> Result<usize> {
        match self.row_of.get(s.0) {
            Some(&i) if i != NOT_TRANSIENT => Ok(i),
            _ => Err(Error::StateNotTransient { state: s.0 }),
        }
    }

    /// The transient states, in the internal row order.
    pub fn transient_states(&self) -> &[StateId] {
        &self.transient
    }

    /// The absorbing states.
    pub fn absorbing_states(&self) -> &[StateId] {
        &self.absorbing
    }

    /// Determinant of the absorption matrix (the `det(R)` of the paper's
    /// appendix formula `M(R) = Num(R)/det(R)`): the product of the
    /// elimination pivots, each of which was computed as a sum — so it
    /// stays accurate on chains whose rounded `R` an LU factorization
    /// finds singular.
    pub fn det(&self) -> f64 {
        self.factors.pivots.iter().product()
    }

    /// The ∞-norm condition number `κ∞(R) = ‖R‖∞·‖R⁻¹‖∞` of the
    /// absorption matrix — how much of the 16 decimal digits a naive
    /// linear solve against `R` would lose.
    ///
    /// Needs no inverse: `R` is a nonsingular M-matrix, so `R⁻¹ ≥ 0`
    /// entrywise, every row sum of `R⁻¹` is `(R⁻¹·1)_i`, the mean time to
    /// absorption from row `i`, and `‖R⁻¹‖∞ = max_i MTTA_i` exactly. The
    /// value is therefore as accurate as the mean times themselves, also
    /// far beyond `1/ε` where an explicit inverse saturates.
    ///
    /// This diagnoses the *matrix* `R` only: the quantities this type
    /// reports keep componentwise relative accuracy regardless of it.
    pub fn condition_estimate(&self) -> f64 {
        self.norm_inf * self.mtta.iter().copied().fold(0.0, f64::max)
    }

    /// Mean time to absorption starting from transient state `from`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StateNotTransient`] if `from` is absorbing.
    pub fn mean_time_to_absorption(&self, from: StateId) -> Result<f64> {
        Ok(self.mtta[self.row(from)?])
    }

    /// Expected total time spent in transient state `in_state` before
    /// absorption, starting from `from` — the `(from, in_state)` entry of
    /// the fundamental matrix `R⁻¹` (the `τᵢ` of equation (A.1)), from
    /// one replay of the factorization with `e_j` as the right-hand side.
    ///
    /// # Errors
    ///
    /// * [`Error::StateNotTransient`] if either state is absorbing.
    /// * [`Error::NotFinite`] if the replay overflows.
    pub fn expected_time_in(&self, from: StateId, in_state: StateId) -> Result<f64> {
        let i = self.row(from)?;
        // (R⁻¹)_{ij} = e_iᵗ R⁻¹ e_j: solve R y = e_j, answer y_i.
        let mut e = vec![0.0; self.transient.len()];
        e[self.row(in_state)?] = 1.0;
        Ok(self.factors.solve(e)?[i])
    }

    /// Probability that the chain, started in transient state `from`, is
    /// eventually absorbed in `into` (computed at construction).
    ///
    /// # Errors
    ///
    /// * [`Error::StateNotTransient`] if `from` is absorbing.
    /// * [`Error::StateNotAbsorbing`] if `into` is transient.
    pub fn absorption_probability(&self, from: StateId, into: StateId) -> Result<f64> {
        let i = self.row(from)?;
        let a = self
            .absorbing
            .iter()
            .position(|&a| a == into)
            .ok_or(Error::StateNotAbsorbing { state: into.0 })?;
        Ok(self.absorb_prob[a][i].clamp(0.0, 1.0))
    }

    /// The *pre-absorption occupancy distribution*: the fraction of its
    /// lifetime the chain spends in each transient state before
    /// absorption, starting from `from` (`τᵢ / MTTA` — a normalized view
    /// of the appendix's equation A.1 occupancies).
    ///
    /// # Errors
    ///
    /// Returns [`Error::StateNotTransient`] if `from` is absorbing.
    pub fn occupancy_distribution(&self, from: StateId) -> Result<Vec<(StateId, f64)>> {
        let mtta = self.mean_time_to_absorption(from)?;
        let mut out = Vec::with_capacity(self.transient.len());
        for &s in &self.transient {
            let t = self.expected_time_in(from, s)?;
            out.push((s, (t / mtta).max(0.0)));
        }
        Ok(out)
    }

    /// Mean time to absorption from an initial *distribution* over transient
    /// states (`π₀` in the appendix; entries for absorbing states must be
    /// absent/zero).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] if the weights don't sum to ~1 or are
    ///   negative.
    /// * [`Error::StateNotTransient`] if a weighted state is absorbing.
    pub fn mean_time_to_absorption_from(&self, pi0: &[(StateId, f64)]) -> Result<f64> {
        let mut total_w = 0.0;
        let mut acc = 0.0;
        for &(s, w) in pi0 {
            if !(w.is_finite() && w >= 0.0) {
                return Err(Error::InvalidArgument {
                    what: "initial weights must be >= 0",
                });
            }
            acc += w * self.mtta[self.row(s)?];
            total_w += w;
        }
        if (total_w - 1.0).abs() > 1e-9 {
            return Err(Error::InvalidArgument {
                what: "initial weights must sum to 1",
            });
        }
        Ok(acc)
    }
}

impl GthFactors {
    /// Subtraction-free (GTH-style) elimination of `D_i·x_i = r_i + Σ_j
    /// q_ij·x_j` over the transient states: `q` is the row-major `m × m`
    /// table of non-negative transition rates between transient states,
    /// `qa` the non-negative rates into the absorbing class. States are
    /// folded from the last down, and every arithmetic operation is on
    /// non-negative quantities, which is what buys stiffness-independent
    /// relative accuracy.
    fn eliminate(mut q: Vec<f64>, mut qa: Vec<f64>) -> Result<GthFactors> {
        let m = qa.len();
        debug_assert_eq!(q.len(), m * m);
        let mut pivots = vec![0.0; m];
        for t in (0..m).rev() {
            // Rows i < t get state t folded in; row t itself is only read.
            let (above, rest) = q.split_at_mut(t * m);
            let row_t = &rest[..t];
            // Exit rate over *remaining* targets (j < t) plus absorption —
            // recomputed as a sum (never a difference), the GTH trick.
            let mut d = qa[t];
            for &qtj in row_t {
                d += qtj;
            }
            if d <= 0.0 {
                // State t cannot reach absorption once higher states are
                // eliminated: the chain is reducible w.r.t. absorption.
                return Err(Error::Singular { pivot: t });
            }
            pivots[t] = d;
            for (i, row_i) in above.chunks_exact_mut(m).enumerate() {
                let f = row_i[t] / d;
                row_i[t] = f;
                if f == 0.0 {
                    continue;
                }
                qa[i] += f * qa[t];
                for (j, &qtj) in row_t.iter().enumerate() {
                    if j != i {
                        let add = f * qtj;
                        if add > 0.0 {
                            row_i[j] += add;
                        }
                    }
                }
            }
        }
        Ok(GthFactors { table: q, pivots })
    }

    /// Solves `R·x = rhs` (`rhs ≥ 0`) by replaying the elimination on
    /// the right-hand side and back-substituting — every operation on
    /// non-negative quantities.
    ///
    /// The forward pass walks rows from the last up, so the multipliers
    /// are read along a row; row `i` still accumulates its `f_it·r_t`
    /// terms for `t` descending, each `r_t` already final, which is the
    /// order the elimination itself would have applied them in.
    fn solve(&self, mut rhs: Vec<f64>) -> Result<Vec<f64>> {
        let m = self.pivots.len();
        for i in (0..m).rev() {
            let (head, tail) = rhs.split_at_mut(i + 1);
            let multipliers = &self.table[i * m + i + 1..(i + 1) * m];
            for (&f, &r_t) in multipliers.iter().zip(tail.iter()).rev() {
                if f != 0.0 {
                    head[i] += f * r_t;
                }
            }
        }
        // x_t = (r_t + Σ_{j<t} q_tj·x_j) / D_t.
        let mut x = vec![0.0; m];
        for t in 0..m {
            let mut acc = rhs[t];
            for (&qtj, &xj) in self.table[t * m..t * m + t].iter().zip(&x) {
                acc += qtj * xj;
            }
            x[t] = acc / self.pivots[t];
        }
        if x.iter().all(|v| v.is_finite()) {
            Ok(x)
        } else {
            Err(Error::NotFinite {
                op: "absorbing GTH solve",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn chain(a: f64, mu: f64, b2: f64) -> (Ctmc, StateId, StateId, StateId) {
        let mut b = CtmcBuilder::new();
        let s0 = b.add_state("0");
        let s1 = b.add_state("1");
        let s2 = b.add_state("2");
        b.add_transition(s0, s1, a).unwrap();
        b.add_transition(s1, s0, mu).unwrap();
        b.add_transition(s1, s2, b2).unwrap();
        (b.build().unwrap(), s0, s1, s2)
    }

    #[test]
    fn mtta_matches_closed_form() {
        let (lam_a, mu, lam_b) = (2e-3, 0.5, 1e-3);
        let (c, s0, _, _) = chain(lam_a, mu, lam_b);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let got = an.mean_time_to_absorption(s0).unwrap();
        let exact = (lam_a + lam_b + mu) / (lam_a * lam_b);
        assert!((got - exact).abs() / exact < 1e-12, "{got} vs {exact}");
    }

    #[test]
    fn gth_survives_extreme_stiffness() {
        // A 6-deep repairable chain with μ/λ = 10⁶: condition number ~1e36,
        // hopeless for LU, trivial for GTH. Compare against the analytic
        // leading term μ⁵/(λ⁶·∏1) — more precisely, build the chain and
        // compare with the exact product-form birth–death formula.
        let lam = 1e-6;
        let mu = 1.0;
        let depth = 6;
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..depth {
            b.add_transition(states[i], states[i + 1], lam).unwrap();
            b.add_transition(states[i + 1], states[i], mu).unwrap();
        }
        b.add_transition(states[depth], dead, lam).unwrap();
        let c = b.build().unwrap();
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let got = an.mean_time_to_absorption(states[0]).unwrap();

        // Exact birth-death first-passage: T_i = 1/a_i + (b_i/a_i)·T_{i-1},
        // MTTA = Σ T_i (all-positive recurrence, exact to machine eps).
        let mut t_prev = 0.0;
        let mut total = 0.0;
        for i in 0..=depth {
            let b_i = if i == 0 { 0.0 } else { mu };
            let t_i = 1.0 / lam + (b_i / lam) * t_prev;
            total += t_i;
            t_prev = t_i;
        }
        assert!(
            (got - total).abs() / total < 1e-10,
            "GTH {got:.6e} vs product-form {total:.6e}"
        );
    }

    #[test]
    fn mtta_from_degraded_state_is_smaller() {
        let (c, s0, s1, _) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let from0 = an.mean_time_to_absorption(s0).unwrap();
        let from1 = an.mean_time_to_absorption(s1).unwrap();
        assert!(from1 < from0);
    }

    #[test]
    fn absorption_probability_single_sink_is_one() {
        let (c, s0, _, s2) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let p = an.absorption_probability(s0, s2).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn competing_sinks_split_by_rate() {
        let mut b = CtmcBuilder::new();
        let s = b.add_state("s");
        let a1 = b.add_state("a1");
        let a2 = b.add_state("a2");
        b.add_transition(s, a1, 3.0).unwrap();
        b.add_transition(s, a2, 1.0).unwrap();
        let c = b.build().unwrap();
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!((an.absorption_probability(s, a1).unwrap() - 0.75).abs() < 1e-12);
        assert!((an.absorption_probability(s, a2).unwrap() - 0.25).abs() < 1e-12);
        assert!((an.mean_time_to_absorption(s).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn competing_sink_probabilities_sum_to_one_when_stiff() {
        // Stiff chain with two sinks: probabilities must still sum to 1 to
        // high relative accuracy.
        let mut b = CtmcBuilder::new();
        let s0 = b.add_state("0");
        let s1 = b.add_state("1");
        let sink1 = b.add_state("sink1");
        let sink2 = b.add_state("sink2");
        b.add_transition(s0, s1, 1e-9).unwrap();
        b.add_transition(s1, s0, 1.0).unwrap();
        b.add_transition(s1, sink1, 3e-9).unwrap();
        b.add_transition(s1, sink2, 1e-9).unwrap();
        let c = b.build().unwrap();
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let p1 = an.absorption_probability(s0, sink1).unwrap();
        let p2 = an.absorption_probability(s0, sink2).unwrap();
        assert!((p1 + p2 - 1.0).abs() < 1e-12, "{p1} + {p2}");
        assert!((p1 / p2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn expected_time_decomposes_mtta() {
        let (c, s0, s1, _) = chain(2e-3, 0.7, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let t00 = an.expected_time_in(s0, s0).unwrap();
        let t01 = an.expected_time_in(s0, s1).unwrap();
        let mtta = an.mean_time_to_absorption(s0).unwrap();
        assert!((t00 + t01 - mtta).abs() / mtta < 1e-10);
    }

    #[test]
    fn occupancy_distribution_sums_to_one_and_orders() {
        let (c, s0, s1, _) = chain(2e-3, 0.7, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let occ = an.occupancy_distribution(s0).unwrap();
        let total: f64 = occ.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // The healthy state dominates a repairable system's lifetime.
        let f0 = occ.iter().find(|(s, _)| *s == s0).unwrap().1;
        let f1 = occ.iter().find(|(s, _)| *s == s1).unwrap().1;
        assert!(f0 > 0.99 && f1 < 0.01, "{f0} vs {f1}");
    }

    #[test]
    fn initial_distribution_mixes() {
        let (c, s0, s1, _) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let m0 = an.mean_time_to_absorption(s0).unwrap();
        let m1 = an.mean_time_to_absorption(s1).unwrap();
        let mixed = an
            .mean_time_to_absorption_from(&[(s0, 0.25), (s1, 0.75)])
            .unwrap();
        assert!((mixed - (0.25 * m0 + 0.75 * m1)).abs() < 1e-9);
        assert!(an.mean_time_to_absorption_from(&[(s0, 0.5)]).is_err());
        assert!(an
            .mean_time_to_absorption_from(&[(s0, 0.5), (s1, -0.5)])
            .is_err());
    }

    #[test]
    fn errors_for_wrong_state_kinds() {
        let (c, s0, _, s2) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!(matches!(
            an.mean_time_to_absorption(s2).unwrap_err(),
            Error::StateNotTransient { state: 2 }
        ));
        assert!(matches!(
            an.absorption_probability(s0, s0).unwrap_err(),
            Error::StateNotAbsorbing { state: 0 }
        ));
    }

    #[test]
    fn no_absorbing_state_rejected() {
        let mut b = CtmcBuilder::new();
        let x = b.add_state("x");
        let y = b.add_state("y");
        b.add_transition(x, y, 1.0).unwrap();
        b.add_transition(y, x, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c).unwrap_err(),
            Error::NoAbsorbingState
        ));
    }

    #[test]
    fn all_absorbing_rejected() {
        let mut b = CtmcBuilder::new();
        b.add_state("only");
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c).unwrap_err(),
            Error::NoTransientState
        ));
    }

    #[test]
    fn unreachable_sink_detected() {
        // x <-> y cycle plus an unrelated absorbing state z: the transient
        // block cannot reach absorption.
        let mut b = CtmcBuilder::new();
        let x = b.add_state("x");
        let y = b.add_state("y");
        b.add_state("z");
        b.add_transition(x, y, 1.0).unwrap();
        b.add_transition(y, x, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&c).unwrap_err(),
            Error::Singular { .. }
        ));
    }

    #[test]
    fn determinant_positive_for_absorbing_chain() {
        let (c, ..) = chain(1e-3, 1.0, 1e-3);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        assert!(an.det() > 0.0);
        assert_eq!(an.transient_states().len(), 2);
        assert_eq!(an.absorbing_states().len(), 1);
    }

    #[test]
    fn condition_and_det_match_closed_forms_on_a_benign_chain() {
        // R = [[a, −a], [−μ, μ + b₂]]: det R = a·b₂, ‖R‖∞ = max(2a, 2μ + b₂),
        // and R⁻¹ ≥ 0 has ‖R⁻¹‖∞ = MTTA from s0 = (a + μ + b₂)/(a·b₂).
        let (a, mu, b2) = (1e-3, 1.0, 1e-3);
        let (c, ..) = chain(a, mu, b2);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        let kappa = an.condition_estimate();
        let want = f64::max(2.0 * a, 2.0 * mu + b2) * (a + mu + b2) / (a * b2);
        assert!(
            kappa >= 1.0 && (kappa - want).abs() / want < 1e-9,
            "{kappa} vs {want}"
        );
        let det = a * b2;
        assert!((an.det() - det).abs() / det < 1e-9);
    }

    #[test]
    fn condition_is_exact_where_the_rounded_matrix_is_singular() {
        // s0 <-> s1 at rate 1, s1 -> dead at 1e-20. The exact absorption
        // matrix [[1, -1], [-1, 1 + 1e-20]] rounds to the singular
        // [[1, -1], [-1, 1]] in f64, so an elimination that subtracts
        // fails — but GTH recomputes every pivot as a sum (1e-20 survives
        // as qa) and the analysis must still deliver the whole API.
        let lam_abs = 1e-20;
        let (c, s0, s1, s2) = chain(1.0, 1.0, lam_abs);
        let an = AbsorbingAnalysis::new(&c).unwrap();
        // R's diagonal is the states' total exit rates, its off-diagonal
        // −a = −μ = −1.
        let (r00, r11) = (c.total_rate(s0), c.total_rate(s1));
        assert_eq!(r00 * r11 - (-1.0) * (-1.0), 0.0);

        // Closed form: MTTA = (λa + λb + μ)/(λa·λb) = (2 + 1e-20)/1e-20.
        let exact = (1.0 + lam_abs + 1.0) / lam_abs;
        let got = an.mean_time_to_absorption(s0).unwrap();
        assert!((got - exact).abs() / exact < 1e-12, "{got} vs {exact}");

        // κ∞ = ‖R‖∞ · max MTTA = (2 + 1e-20)²/1e-20 ≈ 4e20: finite, and
        // past the 1/ε where an explicit inverse would have saturated.
        let kappa = an.condition_estimate();
        let want = (2.0 + lam_abs) * exact;
        assert!((kappa - want).abs() / want < 1e-12, "{kappa} vs {want}");

        // det(R) = 1·(1 + 1e-20) − 1 = 1e-20 exactly in the reals; the
        // pivot product recovers it where the f64 cofactor product is 0.
        let det = an.det();
        assert!((det - lam_abs).abs() / lam_abs < 1e-12, "{det}");

        // Fundamental-matrix entries still decompose the mean time to
        // absorption.
        let t00 = an.expected_time_in(s0, s0).unwrap();
        let t01 = an.expected_time_in(s0, s1).unwrap();
        assert!((t00 + t01 - got).abs() / got < 1e-10);
        assert!((an.absorption_probability(s0, s2).unwrap() - 1.0).abs() < 1e-12);
    }
}
