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

use nsr_markov::{AbsorbingAnalysis, ChainSink, ChainWalk, Ctmc, StateId};

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
    pub(crate) k: u32,
    pub(crate) n: u32,
    pub(crate) d: u32,
    pub(crate) lambda_n: f64,
    pub(crate) lambda_d: f64,
    pub(crate) mu_n: f64,
    pub(crate) mu_d: f64,
    pub(crate) h: HParams,
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
        Self::with_h(k, n, d, lambda_n, lambda_d, mu_n, mu_d, || {
            HParams::new(k, n, r, d, c_her)
        })
    }

    /// [`RecursiveModel::new`] with the `h` family from `h`, called once
    /// the tolerance and the rates have passed — the model-point stages
    /// hand over the family their geometry built.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_h(
        k: u32,
        n: u32,
        d: u32,
        lambda_n: PerHour,
        lambda_d: PerHour,
        mu_n: PerHour,
        mu_d: PerHour,
        h: impl FnOnce() -> Result<HParams>,
    ) -> Result<RecursiveModel> {
        check(k, [lambda_n.0, lambda_d.0, mu_n.0, mu_d.0])?;
        Ok(RecursiveModel {
            k,
            n,
            d,
            lambda_n: lambda_n.0,
            lambda_d: lambda_d.0,
            mu_n: mu_n.0,
            mu_d: mu_d.0,
            h: h()?,
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

    /// Builds the CTMC of the recursive construction, with the absorbing
    /// state split into [`LOSS_BY_FAILURE`] and [`LOSS_BY_SECTOR`]: the
    /// rated chain of this model's [`ChainWalk`].
    ///
    /// # Errors
    ///
    /// Cannot fail for a constructed model.
    pub fn ctmc(&self) -> Result<Ctmc> {
        Ok(self.rated()?.0)
    }

    /// Exact MTTDL: build the chain, factor `R = −Q_B`, evaluate
    /// `e₁ᵀ R⁻¹ 1`.
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures.
    pub fn mttdl_exact(&self) -> Result<Hours> {
        let (ctmc, root) = self.rated()?;
        let analysis = AbsorbingAnalysis::new(&ctmc)?;
        Ok(Hours(analysis.mean_time_to_absorption(root)?))
    }

    /// Share of eventual losses arriving through the sector path.
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures.
    pub fn sector_loss_share(&self) -> Result<f64> {
        let (ctmc, root) = self.rated()?;
        let sector = ctmc.state_by_label(LOSS_BY_SECTOR).expect("loss state");
        let analysis = AbsorbingAnalysis::new(&ctmc)?;
        Ok(analysis.absorption_probability(root, sector)?)
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

    /// The Figure A1 closed-form approximation for arbitrary `k`
    /// (`mttdl_theorem` at this model's rates).
    pub fn mttdl_theorem(&self) -> Hours {
        let rates = [self.lambda_n, self.lambda_d, self.mu_n, self.mu_d];
        mttdl_theorem(self.k, self.n, self.d, rates, &self.h)
    }
}

/// The chain for fault tolerance `k`. Its topology is a function of `k`
/// alone — no parameter enters it — which is what lets one compiled
/// elimination program serve every parameter point of a fault tolerance.
/// The states are the failure words in depth-major order, so the word of
/// `depth` letters with index `idx` is state `2^depth − 1 + idx`, followed
/// by the two loss states.
impl ChainWalk for RecursiveModel {
    fn walk<S: ChainSink>(&self, sink: &mut S) -> nsr_markov::Result<StateId> {
        let k = self.k;
        for depth in 0..=k {
            for idx in 0..(1usize << depth) {
                sink.state(|| Self::label(k, depth, idx));
            }
        }
        let loss_failure = sink.state(|| LOSS_BY_FAILURE.into());
        let loss_sector = sink.state(|| LOSS_BY_SECTOR.into());
        let word = |depth: u32, idx: usize| StateId::new((1usize << depth) - 1 + idx);
        let nf = self.n as f64;
        let df = self.d as f64;
        let (lam_n, lam_d, mu_n, mu_d) = (self.lambda_n, self.lambda_d, self.mu_n, self.mu_d);
        for depth in 0..k {
            let remaining = nf - depth as f64;
            for idx in 0..(1usize << depth) {
                let from = word(depth, idx);
                let child_n = word(depth + 1, idx << 1);
                let child_d = word(depth + 1, (idx << 1) | 1);
                if depth + 1 == k {
                    // The next failure makes some redundancy set critical;
                    // its rebuild may hit an uncorrectable sector error.
                    // The paper's h_α are *linearized* probabilities
                    // (expected error counts); they can exceed 1 at k = 1
                    // with baseline C·HER. The exact chain needs genuine
                    // probabilities, so saturate at 1 (see
                    // `HParams`-based `linear_validity`). At saturation a
                    // child rate becomes exactly 0 and the rated chain
                    // drops the transition.
                    let drives_so_far = (idx as u64).count_ones();
                    let h_n = self.h.by_drive_count(drives_so_far).min(1.0);
                    let h_d = self.h.by_drive_count(drives_so_far + 1).min(1.0);
                    sink.edge(from, child_n, remaining * lam_n * (1.0 - h_n))?;
                    sink.edge(from, child_d, remaining * df * lam_d * (1.0 - h_d))?;
                    let sector = remaining * (lam_n * h_n + df * lam_d * h_d);
                    sink.edge(from, loss_sector, sector)?;
                } else {
                    sink.edge(from, child_n, remaining * lam_n)?;
                    sink.edge(from, child_d, remaining * df * lam_d)?;
                }
                sink.edge(child_n, from, mu_n)?;
                sink.edge(child_d, from, mu_d)?;
            }
        }
        // Full-depth states: any further failure is data loss.
        let last = nf - k as f64;
        for idx in 0..(1usize << k) {
            sink.edge(word(k, idx), loss_failure, last * (lam_n + df * lam_d))?;
        }
        Ok(word(0, 0))
    }
}

/// The checks a no-internal-RAID chain makes of its fault tolerance `k`
/// and its rates `[λ_N, λ_d, μ_N, μ_d]` (per hour), in order.
///
/// # Errors
///
/// * [`Error::UnsupportedFaultTolerance`] if
///   `k > MAX_EXACT_FAULT_TOLERANCE`.
/// * [`Error::InvalidParams`] naming the first rate that is not positive
///   and finite.
pub(crate) fn check(k: u32, rates: [f64; 4]) -> Result<()> {
    if k > MAX_EXACT_FAULT_TOLERANCE {
        return Err(Error::UnsupportedFaultTolerance {
            requested: k,
            max: MAX_EXACT_FAULT_TOLERANCE,
        });
    }
    for (name, rate) in ["λ_N", "λ_d", "μ_N", "μ_d"].into_iter().zip(rates) {
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(Error::invalid(format!(
                "{name} must be positive and finite"
            )));
        }
    }
    Ok(())
}

/// The Figure A1 closed-form approximation at fault tolerance `k`, node
/// set size `n`, `d` drives per node, rates `[λ_N, λ_d, μ_N, μ_d]` (per
/// hour) and sector-error family `h`: plain arithmetic, no chain.
pub(crate) fn mttdl_theorem(k: u32, n: u32, d: u32, rates: [f64; 4], h: &HParams) -> Hours {
    let [lambda_n, lambda_d, mu_n, mu_d] = rates;
    let nf = n as f64;
    let df = d as f64;
    // The appendix's `L(x, y) = x·λ_N + y·d·λ_d`.
    let l = |x: f64, y: f64| x * lambda_n + y * df * lambda_d;
    let num = (mu_n * mu_d).powi(k as i32);
    let mut falling = 1.0; // N(N−1)···(N−k+1)
    for i in 0..k {
        falling *= nf - i as f64;
    }
    let failure_term = (nf - k as f64) * (lambda_n + df * lambda_d) * l(mu_d, mu_n).powi(k as i32);
    // The recursive operator `L_k` over the whole ordered family `h⁽ᵏ⁾`
    // (`L_1(H) = L(H₁, H₂)`;
    // `L_j(H) = L(μ_d·L_{j−1}(H_first), μ_N·L_{j−1}(H_second))`). The
    // first half of an ordered set continues with `N`, the second with
    // `d`, so a sub-family is named by the drive failures its words
    // already hold, and `L_j` over the sub-family holding `i` of them
    // reads only `L_{j−1}` at `i` and `i + 1`: the `2^k`-leaf recursion
    // collapses to `k(k+1)/2` applications of `L`, each computed once,
    // level by level in place.
    let k = k as usize;
    let mut level = [0.0; MAX_EXACT_FAULT_TOLERANCE as usize + 1];
    for (drives, slot) in level.iter_mut().enumerate().take(k) {
        *slot = l(
            h.by_drive_count(drives as u32),
            h.by_drive_count(drives as u32 + 1),
        );
    }
    for width in (1..k).rev() {
        for drives in 0..width {
            level[drives] = l(mu_d * level[drives], mu_n * level[drives + 1]);
        }
    }
    let sector_term = mu_n * mu_d * level[0];
    Hours(num / (falling * (failure_term + sector_term)))
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
    fn labels_match_appendix_convention() {
        let m = model(3);
        assert_eq!(RecursiveModel::label(3, 0, 0), "000");
        assert_eq!(RecursiveModel::label(3, 1, 0), "N00");
        assert_eq!(RecursiveModel::label(3, 1, 1), "d00");
        assert_eq!(RecursiveModel::label(3, 2, 0b10), "dN0");
        assert_eq!(RecursiveModel::label(3, 3, 0b101), "dNd");
        // The walk's root is the all-operational word.
        let (skeleton, root) = m.skeleton().unwrap();
        assert_eq!(skeleton.state_by_label("000"), Some(root));
        assert_eq!(m.ctmc().unwrap().len(), skeleton.len());
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
