//! The appendix's recursive model: no internal RAID, arbitrary node fault
//! tolerance `k`.
//!
//! Without internal RAID, a drive-failure state is distinct from a
//! node-failure state, so the chain for fault tolerance `k` has
//! `2^(k+1) − 1` transient states — one per failure *word*: a sequence of
//! outstanding failures, each `N` (node) or `d` (drive), of length `0..=k`.
//! The appendix constructs the chain recursively (two copies of the `k−1`
//! chain hanging off a new root) and proves the closed-form approximation
//! of Figure A1:
//!
//! ```text
//!                                (μ_N·μ_d)^k
//! MTTDL ≈ ──────────────────────────────────────────────────────────────
//!         N(N−1)···(N−k+1) · ( (N−k)(λ_N+dλ_d)·L(μ_d,μ_N)^k
//!                              + (μ_N·μ_d)·L_k(h⁽ᵏ⁾) )
//! ```
//!
//! with `L(x, y) = x·λ_N + y·d·λ_d` and `L_k` the recursive operator over
//! the ordered sector-error-probability set `h⁽ᵏ⁾` (see
//! [`crate::scope::HParams`]).
//!
//! This module provides both the **exact** solution (build the chain, solve
//! `MTTDL = e₁ᵀ R⁻¹ 1` numerically) and the **theorem approximation**, so
//! the two can be checked against each other for any `k` — which is exactly
//! the validation the paper could only assert symbolically.

use nsr_markov::{AbsorbingAnalysis, Ctmc, CtmcBuilder, StateId};

use crate::scope::HParams;
use crate::units::{Hours, PerHour};
use crate::{Error, Result};

/// Largest fault tolerance for which the exact chain is built
/// (`2^(k+1) − 1 = 1023` transient states at `k = 9`; the dense GTH
/// elimination of that is still interactive).
pub const MAX_EXACT_FAULT_TOLERANCE: u32 = 9;

/// Label of the absorbing state reached by a failure beyond the tolerance.
pub const LOSS_BY_FAILURE: &str = "loss:failure";
/// Label of the absorbing state reached by an uncorrectable sector error
/// during a critical rebuild.
pub const LOSS_BY_SECTOR: &str = "loss:sector";

/// The recursive no-internal-RAID model at fault tolerance `k`.
///
/// # Example
///
/// ```
/// use nsr_core::recursive::RecursiveModel;
/// use nsr_core::units::PerHour;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let m = RecursiveModel::new(
///     2, 64, 8, 12,
///     PerHour(1.0 / 400_000.0), PerHour(1.0 / 300_000.0),
///     PerHour(0.28), PerHour(3.2),
///     0.024,
/// )?;
/// let exact = m.mttdl_exact()?;
/// let approx = m.mttdl_theorem();
/// assert!((exact.0 - approx.0).abs() / exact.0 < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RecursiveModel {
    k: u32,
    n: u32,
    d: u32,
    lambda_n: f64,
    lambda_d: f64,
    mu_n: f64,
    mu_d: f64,
    h: HParams,
}

impl RecursiveModel {
    /// Builds the model for fault tolerance `k`, node set size `n`,
    /// redundancy set size `r`, drives per node `d`, the four rates, and
    /// the dimensionless `C·HER`.
    ///
    /// # Errors
    ///
    /// * [`Error::UnsupportedFaultTolerance`] if
    ///   `k > MAX_EXACT_FAULT_TOLERANCE`.
    /// * [`Error::Infeasible`] / [`Error::InvalidParams`] for structural or
    ///   numeric violations (propagated from [`HParams::new`] and rate
    ///   checks).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        k: u32,
        n: u32,
        r: u32,
        d: u32,
        lambda_n: PerHour,
        lambda_d: PerHour,
        mu_n: PerHour,
        mu_d: PerHour,
        c_her: f64,
    ) -> Result<RecursiveModel> {
        if k > MAX_EXACT_FAULT_TOLERANCE {
            return Err(Error::UnsupportedFaultTolerance {
                requested: k,
                max: MAX_EXACT_FAULT_TOLERANCE,
            });
        }
        for (name, rate) in [
            ("λ_N", lambda_n.0),
            ("λ_d", lambda_d.0),
            ("μ_N", mu_n.0),
            ("μ_d", mu_d.0),
        ] {
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(Error::invalid(format!(
                    "{name} must be positive and finite"
                )));
            }
        }
        let h = HParams::new(k, n, r, d, c_her)?;
        Ok(RecursiveModel {
            k,
            n,
            d,
            lambda_n: lambda_n.0,
            lambda_d: lambda_d.0,
            mu_n: mu_n.0,
            mu_d: mu_d.0,
            h,
        })
    }

    /// Fault tolerance `k`.
    pub fn fault_tolerance(&self) -> u32 {
        self.k
    }

    /// Number of transient states: `2^(k+1) − 1`.
    pub fn state_count(&self) -> usize {
        (1usize << (self.k + 1)) - 1
    }

    /// The `h`-parameter family in use.
    pub fn h_params(&self) -> &HParams {
        &self.h
    }

    /// The label of the state with failure word encoded by `(depth, idx)`
    /// in the chain for fault tolerance `k`: a word of `depth` letters
    /// (bit `0 = N`, `1 = d`, MSB first) padded with `0`s to length `k` —
    /// exactly the appendix's labelling.
    fn label(k: u32, depth: u32, idx: usize) -> String {
        let mut s = String::with_capacity(k as usize);
        for bit in (0..depth).rev() {
            s.push(if (idx >> bit) & 1 == 1 { 'd' } else { 'N' });
        }
        for _ in depth..k {
            s.push('0');
        }
        s
    }

    /// The chain *topology* for fault tolerance `k` and its
    /// fully-operational root state: the same states, labels and
    /// transition order as [`Self::ctmc`], with every rate set to a
    /// placeholder `1.0`. The topology is a function of `k` alone — no
    /// parameter enters it — which is what lets one compiled elimination
    /// program serve every parameter point of a fault tolerance. The
    /// placeholder mapping is exact because the construction never emits
    /// duplicate `(from, to)` pairs, so skeleton transitions correspond
    /// 1:1 to [`Self::transition_rates`] entries.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedFaultTolerance`] if
    /// `k > MAX_EXACT_FAULT_TOLERANCE`; builder failures cannot occur.
    pub fn skeleton(k: u32) -> Result<(Ctmc, StateId)> {
        if k > MAX_EXACT_FAULT_TOLERANCE {
            return Err(Error::UnsupportedFaultTolerance {
                requested: k,
                max: MAX_EXACT_FAULT_TOLERANCE,
            });
        }
        let mut b = CtmcBuilder::new();
        // states[depth][idx]
        let mut states: Vec<Vec<StateId>> = Vec::with_capacity(k as usize + 1);
        for depth in 0..=k {
            let row: Vec<StateId> = (0..(1usize << depth))
                .map(|idx| b.add_state(Self::label(k, depth, idx)))
                .collect();
            states.push(row);
        }
        let loss_failure = b.add_state(LOSS_BY_FAILURE);
        let loss_sector = b.add_state(LOSS_BY_SECTOR);

        for depth in 0..k {
            for idx in 0..(1usize << depth) {
                let from = states[depth as usize][idx];
                let child_n = states[depth as usize + 1][idx << 1];
                let child_d = states[depth as usize + 1][(idx << 1) | 1];
                b.add_transition(from, child_n, 1.0)?;
                b.add_transition(from, child_d, 1.0)?;
                if depth + 1 == k {
                    b.add_transition(from, loss_sector, 1.0)?;
                }
                b.add_transition(child_n, from, 1.0)?;
                b.add_transition(child_d, from, 1.0)?;
            }
        }
        // Full-depth states: any further failure is data loss.
        for &s in &states[k as usize] {
            b.add_transition(s, loss_failure, 1.0)?;
        }
        Ok((b.build()?, states[0][0]))
    }

    /// [`Self::skeleton`] for this model's fault tolerance, without the
    /// root. Pair with [`Self::transition_rates`] and
    /// [`Ctmc::with_rates`] to rescale the chain without rebuilding it.
    ///
    /// # Errors
    ///
    /// Cannot fail for a constructed model.
    pub fn chain_skeleton(&self) -> Result<Ctmc> {
        Ok(Self::skeleton(self.k)?.0)
    }

    /// The transition rates of the chain, in the exact order the
    /// skeleton's transitions were added — the rate vector for
    /// [`Ctmc::with_rates`] on [`Self::chain_skeleton`].
    pub fn transition_rates(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        self.transition_rates_into(&mut rates);
        rates
    }

    /// [`Self::transition_rates`] written into a caller-owned buffer
    /// (cleared first), so a sweep reuses one allocation across points.
    pub fn transition_rates_into(&self, rates: &mut Vec<f64>) {
        let k = self.k;
        let nf = self.n as f64;
        let df = self.d as f64;
        let (lam_n, lam_d, mu_n, mu_d) = (self.lambda_n, self.lambda_d, self.mu_n, self.mu_d);
        rates.clear();
        rates.reserve(5 * ((1usize << k) - 1) + (1usize << k));
        for depth in 0..k {
            let remaining = nf - depth as f64;
            for idx in 0..(1usize << depth) {
                let drives_so_far = (idx as u64).count_ones();
                if depth + 1 == k {
                    // The next failure makes some redundancy set critical;
                    // its rebuild may hit an uncorrectable sector error.
                    // The paper's h_α are *linearized* probabilities
                    // (expected error counts); they can exceed 1 at k = 1
                    // with baseline C·HER. The exact chain needs genuine
                    // probabilities, so saturate at 1 (see
                    // `HParams`-based `linear_validity`). At saturation a
                    // child rate becomes exactly 0 and `with_rates` drops
                    // the transition, just as the builder would.
                    let h_n = self.h.by_drive_count(drives_so_far).min(1.0);
                    let h_d = self.h.by_drive_count(drives_so_far + 1).min(1.0);
                    rates.push(remaining * lam_n * (1.0 - h_n));
                    rates.push(remaining * df * lam_d * (1.0 - h_d));
                    rates.push(remaining * (lam_n * h_n + df * lam_d * h_d));
                } else {
                    rates.push(remaining * lam_n);
                    rates.push(remaining * df * lam_d);
                }
                rates.push(mu_n);
                rates.push(mu_d);
            }
        }
        let last = nf - k as f64;
        for _ in 0..(1usize << k) {
            rates.push(last * (lam_n + df * lam_d));
        }
    }

    /// Builds the CTMC of the recursive construction, with the absorbing
    /// state split into [`LOSS_BY_FAILURE`] and [`LOSS_BY_SECTOR`].
    ///
    /// Implemented as [`Self::chain_skeleton`] +
    /// [`Self::transition_rates`] + [`Ctmc::with_rates`], so a chain
    /// assembled from a *cached* skeleton is equal to this one by
    /// construction.
    ///
    /// # Errors
    ///
    /// Propagates builder failures (cannot occur for validated parameters
    /// as long as all `h_α < 1`, which [`HParams::new`] guarantees at
    /// construction-parameter validation time).
    pub fn ctmc(&self) -> Result<Ctmc> {
        Ok(self
            .chain_skeleton()?
            .with_rates(&self.transition_rates())?)
    }

    /// Exact MTTDL: build the chain, factor `R = −Q_B`, evaluate
    /// `e₁ᵀ R⁻¹ 1`.
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures.
    pub fn mttdl_exact(&self) -> Result<Hours> {
        let ctmc = self.ctmc()?;
        let analysis = AbsorbingAnalysis::new(&ctmc)?;
        let root = ctmc
            .state_by_label(&Self::label(self.k, 0, 0))
            .expect("root state exists");
        Ok(Hours(analysis.mean_time_to_absorption(root)?))
    }

    /// Share of eventual losses arriving through the sector path.
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures.
    pub fn sector_loss_share(&self) -> Result<f64> {
        let ctmc = self.ctmc()?;
        let analysis = AbsorbingAnalysis::new(&ctmc)?;
        let root = ctmc
            .state_by_label(&Self::label(self.k, 0, 0))
            .expect("root state exists");
        let sector = ctmc
            .state_by_label(LOSS_BY_SECTOR)
            .expect("loss state exists");
        analysis
            .absorption_probability(root, sector)
            .map_err(Into::into)
    }

    /// Exact MTTDL via the appendix Lemma's determinant recursion:
    /// `MTTDL = Num(R)/det(R)` with `Num` and `det` computed by the
    /// recursive formulas (A.3)–(A.5) — scalar arithmetic only, `O(2^k)`
    /// work, no matrices.
    ///
    /// Every term in the recursion is a product or sum of positive
    /// quantities, so (like the GTH solver it cross-validates) the result
    /// carries full relative accuracy at any stiffness. The paper uses the
    /// Lemma symbolically to *prove* the Figure-A1 theorem; here it runs
    /// numerically as an independent implementation of the exact solution.
    pub fn mttdl_lemma(&self) -> Hours {
        let h = self.h.ordered_set();
        // Clamp exactly like the exact chain does (linearized h may
        // exceed 1 at k = 1 with large C·HER).
        let h: Vec<f64> = h.into_iter().map(|v| v.min(1.0)).collect();
        let parts = self.lemma_parts(self.k, self.n as f64, &h);
        Hours(parts.num / parts.det)
    }

    /// `(det(R), Sdet(R), Num(R))` for the level-`level` submodel with
    /// effective node count `n_eff` and sector probabilities `h_slice`
    /// (length `2^level`).
    fn lemma_parts(&self, level: u32, n_eff: f64, h_slice: &[f64]) -> LemmaParts {
        let df = self.d as f64;
        let (lam_n, lam_d, mu_n, mu_d) = (self.lambda_n, self.lambda_d, self.mu_n, self.mu_d);
        if level == 1 {
            // Base case: the Figure-8 3-state matrix with parameters
            // (n_eff, h_N = h_slice[0], h_d = h_slice[1]).
            let (h_n, h_d) = (h_slice[0], h_slice[1]);
            // Direct absorption from the root (the h paths) plus the two
            // biased transition rates.
            let absorb = n_eff * (lam_n * h_n + df * lam_d * h_d);
            let r_n = n_eff * lam_n * (1.0 - h_n);
            let r_d = n_eff * df * lam_d * (1.0 - h_d);
            // Exit rates of the N- and d-states (repair + absorption), and
            // their absorption-only parts (det of the scalar child minus
            // its repair; both positive).
            let rho_n = mu_n + (n_eff - 1.0) * (lam_n + df * lam_d);
            let rho_d = mu_d + (n_eff - 1.0) * (lam_n + df * lam_d);
            let abs_n = rho_n - mu_n;
            let abs_d = rho_d - mu_d;
            let sdet = rho_n * rho_d;
            // Lemma with scalar children (Num = 1, Sdet = 1, det = ρ):
            let num = sdet + r_n * rho_d + r_d * rho_n;
            let det = absorb * sdet + r_n * abs_n * rho_d + r_d * rho_n * abs_d;
            return LemmaParts { det, sdet, num };
        }
        // Recursive case (A.4): R_x − μ_x·U is the (level−1) model with
        // N−1 and the matching half of h.
        let mid = h_slice.len() / 2;
        let child_n = self.lemma_parts(level - 1, n_eff - 1.0, &h_slice[..mid]);
        let child_d = self.lemma_parts(level - 1, n_eff - 1.0, &h_slice[mid..]);
        // det(A + μ·e₁e₁ᵀ) = det(A) + μ·Sdet(A); Sdet and Num unchanged.
        let det_rn = child_n.det + mu_n * child_n.sdet;
        let det_rd = child_d.det + mu_d * child_d.sdet;
        let r_n = n_eff * lam_n;
        let r_d = n_eff * df * lam_d;
        let sdet = det_rn * det_rd;
        // Lemma: Num(R) = Sdet(R) + r_N·Num(R_N)·det(R_d) + r_d·det(R_N)·Num(R_d).
        let num = sdet + r_n * child_n.num * det_rd + r_d * det_rn * child_d.num;
        // Lemma: det(R) = r⁽ᵏ⁾·Sdet(R) + r_N·(det(R_N) − μ_N·Sdet(R_N))·det(R_d)
        //                + r_d·det(R_N)·(det(R_d) − μ_d·Sdet(R_d)).
        // For k > 1 the root has no direct absorption, so r⁽ᵏ⁾ = 0, and
        // (A.5) identifies the parenthesized terms as the children's dets
        // — leaving only positive products, no cancellation.
        let det = r_n * child_n.det * det_rd + r_d * det_rn * child_d.det;
        LemmaParts { det, sdet, num }
    }

    /// The appendix's `L(x, y) = x·λ_N + y·d·λ_d`.
    fn l(&self, x: f64, y: f64) -> f64 {
        x * self.lambda_n + y * self.d as f64 * self.lambda_d
    }

    /// The recursive operator `L_j` over the ordered sub-family of `h`
    /// whose words already hold `drives` drive failures and have `levels`
    /// letters still free (`L_1(H) = L(H₁, H₂)`;
    /// `L_j(H) = L(μ_d·L_{j−1}(H_first), μ_N·L_{j−1}(H_second))`). The
    /// first half of an ordered set continues with `N`, the second with
    /// `d`, so the halves are addressed by drive count and the `2^k`
    /// values are never materialized.
    fn l_rec(&self, levels: u32, drives: u32) -> f64 {
        if levels == 1 {
            self.l(
                self.h.by_drive_count(drives),
                self.h.by_drive_count(drives + 1),
            )
        } else {
            self.l(
                self.mu_d * self.l_rec(levels - 1, drives),
                self.mu_n * self.l_rec(levels - 1, drives + 1),
            )
        }
    }

    /// The Figure A1 closed-form approximation for arbitrary `k`.
    pub fn mttdl_theorem(&self) -> Hours {
        let nf = self.n as f64;
        let df = self.d as f64;
        let k = self.k;
        let num = (self.mu_n * self.mu_d).powi(k as i32);
        let mut falling = 1.0; // N(N−1)···(N−k+1)
        for i in 0..k {
            falling *= nf - i as f64;
        }
        let failure_term = (nf - k as f64)
            * (self.lambda_n + df * self.lambda_d)
            * self.l(self.mu_d, self.mu_n).powi(k as i32);
        let sector_term = self.mu_n * self.mu_d * self.l_rec(k, 0);
        Hours(num / (falling * (failure_term + sector_term)))
    }
}

/// `(det, Sdet, Num)` triple carried through the Lemma recursion.
#[derive(Debug, Clone, Copy)]
struct LemmaParts {
    det: f64,
    sdet: f64,
    num: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(k: u32) -> RecursiveModel {
        RecursiveModel::new(
            k,
            64,
            8,
            12,
            PerHour(1.0 / 400_000.0),
            PerHour(1.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.024,
        )
        .unwrap()
    }

    #[test]
    fn state_count_is_formula() {
        for k in 1..=5 {
            let m = model(k);
            assert_eq!(m.state_count(), (1 << (k + 1)) - 1);
            let ctmc = m.ctmc().unwrap();
            // transient states + 2 loss states
            assert_eq!(ctmc.len(), m.state_count() + 2);
            assert_eq!(ctmc.transient_states().len(), m.state_count());
        }
    }

    #[test]
    fn skeleton_plus_rates_reproduces_ctmc_exactly() {
        // Covers k = 1, where h_N saturates to 1 at these parameters and
        // the zero-rate child transition must be dropped by `with_rates`
        // exactly as the builder drops it.
        for k in 1..=5 {
            let m = model(k);
            let skeleton = m.chain_skeleton().unwrap();
            let rates = m.transition_rates();
            assert_eq!(skeleton.transitions().len(), rates.len(), "k = {k}");
            let cached = skeleton.with_rates(&rates).unwrap();
            let direct = m.ctmc().unwrap();
            assert_eq!(cached.len(), direct.len(), "k = {k}");
            for s in direct.states() {
                assert_eq!(cached.label(s), direct.label(s), "k = {k}");
            }
            assert_eq!(cached.transitions(), direct.transitions(), "k = {k}");
        }
    }

    #[test]
    fn labels_match_appendix_convention() {
        let m = model(3);
        assert_eq!(RecursiveModel::label(3, 0, 0), "000");
        assert_eq!(RecursiveModel::label(3, 1, 0), "N00");
        assert_eq!(RecursiveModel::label(3, 1, 1), "d00");
        assert_eq!(RecursiveModel::label(3, 2, 0b10), "dN0");
        assert_eq!(RecursiveModel::label(3, 3, 0b101), "dNd");
        // The skeleton's root is the all-operational word.
        let (skeleton, root) = RecursiveModel::skeleton(3).unwrap();
        assert_eq!(skeleton.state_by_label("000"), Some(root));
        assert_eq!(m.chain_skeleton().unwrap().len(), skeleton.len());
    }

    #[test]
    fn theorem_tracks_exact_for_k_1_to_5() {
        for k in 1..=5 {
            let m = model(k);
            let exact = m.mttdl_exact().unwrap().0;
            let approx = m.mttdl_theorem().0;
            let rel = (approx - exact).abs() / exact;
            // k = 1 at the full baseline is outside the linearization's
            // validity range (h_N ≈ 2.0 > 1; the exact chain saturates it),
            // so the theorem overshoots there; k ≥ 2 must track closely.
            let tol = if k == 1 { 0.25 } else { 0.05 };
            assert!(
                rel < tol,
                "k={k}: exact {exact:.4e} vs theorem {approx:.4e} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn theorem_tight_when_linearization_valid() {
        // With a 100× smaller error rate every h_α ≪ 1 and the theorem
        // should agree with the exact GTH solution to well under 1 %.
        for k in 1..=5 {
            let m = RecursiveModel::new(
                k,
                64,
                8,
                12,
                PerHour(1.0 / 400_000.0),
                PerHour(1.0 / 300_000.0),
                PerHour(0.28),
                PerHour(3.24),
                0.00024,
            )
            .unwrap();
            let exact = m.mttdl_exact().unwrap().0;
            let approx = m.mttdl_theorem().0;
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.01, "k={k}: rel {rel:.5}");
        }
    }

    #[test]
    fn lemma_recursion_matches_gth_exactly() {
        // Three independent exact methods — the GTH chain solve and the
        // appendix Lemma's scalar recursion — must agree to machine
        // precision for every k, at full baseline stiffness.
        for k in 1..=6 {
            let m = model(k);
            let gth = m.mttdl_exact().unwrap().0;
            let lemma = m.mttdl_lemma().0;
            let rel = (gth - lemma).abs() / gth;
            assert!(
                rel < 1e-10,
                "k={k}: gth {gth:.8e} vs lemma {lemma:.8e} ({rel:.2e})"
            );
        }
    }

    #[test]
    fn lemma_recursion_stiffness_proof() {
        // μ/λ ratios of 1e6 per level, k = 8: condition numbers beyond
        // 1e40 — both subtraction-free methods must still agree.
        let m = RecursiveModel::new(
            8,
            64,
            12,
            8,
            PerHour(1e-7),
            PerHour(1e-7),
            PerHour(0.5),
            PerHour(0.5),
            1e-6,
        )
        .unwrap();
        let gth = m.mttdl_exact().unwrap().0;
        let lemma = m.mttdl_lemma().0;
        assert!(gth > 1e30, "{gth:.3e}");
        assert!((gth - lemma).abs() / gth < 1e-9, "{gth:.8e} vs {lemma:.8e}");
    }

    #[test]
    fn mttdl_grows_with_tolerance() {
        let mut prev = 0.0;
        for k in 1..=4 {
            let v = model(k).mttdl_exact().unwrap().0;
            assert!(v > prev, "k={k}: {v} <= {prev}");
            prev = v;
        }
    }

    #[test]
    fn fig8_structure_for_k1() {
        // k = 1 must reproduce Figure 8: root, N, d + two loss states.
        let m = model(1);
        let c = m.ctmc().unwrap();
        assert_eq!(c.len(), 5);
        let root = c.state_by_label("0").unwrap();
        // Root exit rate: N(λ_N + dλ_d) — split between children and sector
        // loss, but totalling exactly that.
        let expected = 64.0 * (1.0 / 400_000.0 + 12.0 / 300_000.0);
        assert!((c.total_rate(root) - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn k_cap_enforced() {
        let r = RecursiveModel::new(
            MAX_EXACT_FAULT_TOLERANCE + 1,
            64,
            8,
            12,
            PerHour(1e-6),
            PerHour(1e-6),
            PerHour(0.1),
            PerHour(1.0),
            0.024,
        );
        assert!(matches!(
            r.unwrap_err(),
            Error::UnsupportedFaultTolerance { .. }
        ));
    }

    #[test]
    fn rate_validation() {
        for bad in 0..4 {
            let rates: Vec<f64> = (0..4).map(|i| if i == bad { 0.0 } else { 1e-3 }).collect();
            let r = RecursiveModel::new(
                2,
                64,
                8,
                12,
                PerHour(rates[0]),
                PerHour(rates[1]),
                PerHour(rates[2]),
                PerHour(rates[3]),
                0.024,
            );
            assert!(r.is_err(), "rate {bad} = 0 accepted");
        }
    }

    #[test]
    fn sector_share_positive_at_baseline() {
        let share = model(2).sector_loss_share().unwrap();
        assert!(share > 0.0 && share < 1.0, "share {share}");
    }

    #[test]
    fn higher_error_rate_lowers_mttdl() {
        let low = RecursiveModel::new(
            2,
            64,
            8,
            12,
            PerHour(1.0 / 400_000.0),
            PerHour(1.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.0024,
        )
        .unwrap()
        .mttdl_exact()
        .unwrap()
        .0;
        let high = model(2).mttdl_exact().unwrap().0;
        assert!(low > high);
    }

    #[test]
    fn zero_error_rate_leaves_failure_only_model() {
        let m = RecursiveModel::new(
            2,
            64,
            8,
            12,
            PerHour(1.0 / 400_000.0),
            PerHour(1.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.0,
        )
        .unwrap();
        assert_eq!(m.sector_loss_share().unwrap(), 0.0);
        let exact = m.mttdl_exact().unwrap().0;
        let approx = m.mttdl_theorem().0;
        assert!((exact - approx).abs() / exact < 0.05);
    }
}
