//! Closed forms for nodes *without* internal RAID (§4.3 and Figure 12).
//!
//! Individual drives participate directly in the cross-node erasure code
//! (at most one drive per node per redundancy set), so a node failure and a
//! drive failure are distinct Markov states. The paper prints the MTTDL
//! approximations for node fault tolerance 1, 2 and 3; the general-`k`
//! machinery lives in [`crate::recursive`], and this module's
//! [`NoRaidSystem::mttdl_paper`] formulas are verified (in tests and in
//! `tests/recursive_model.rs`) to be special cases of it.

use crate::recursive::{self, RecursiveModel};
use crate::scope::HParams;
use crate::units::{Hours, PerHour};
use crate::Result;

/// No-internal-RAID system model at a fixed node fault tolerance.
///
/// # Example
///
/// ```
/// use nsr_core::no_raid::NoRaidSystem;
/// use nsr_core::units::PerHour;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let sys = NoRaidSystem::new(
///     2, 64, 8, 12,
///     PerHour(1.0 / 400_000.0), PerHour(1.0 / 300_000.0),
///     PerHour(0.28), PerHour(3.24),
///     0.024,
/// )?;
/// let paper = sys.mttdl_paper();
/// let exact = sys.mttdl_exact()?;
/// assert!((paper.0 - exact.0).abs() / exact.0 < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoRaidSystem {
    r: u32,
    c_her: f64,
    recursive: RecursiveModel,
}

impl NoRaidSystem {
    /// Builds the model for node fault tolerance `t`, node set size `n`,
    /// redundancy set size `r`, drives per node `d`, the four rates and
    /// `C·HER`.
    ///
    /// # Errors
    ///
    /// Propagates the validation of [`RecursiveModel::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        t: u32,
        n: u32,
        r: u32,
        d: u32,
        lambda_n: PerHour,
        lambda_d: PerHour,
        mu_n: PerHour,
        mu_d: PerHour,
        c_her: f64,
    ) -> Result<NoRaidSystem> {
        let recursive = RecursiveModel::new(t, n, r, d, lambda_n, lambda_d, mu_n, mu_d, c_her)?;
        Ok(NoRaidSystem {
            r,
            c_her,
            recursive,
        })
    }

    /// Node fault tolerance `t`.
    pub fn fault_tolerance(&self) -> u32 {
        self.recursive.k
    }

    /// The underlying recursive (appendix) model.
    pub fn recursive(&self) -> &RecursiveModel {
        &self.recursive
    }

    /// The MTTDL approximation *as printed* for `t = 1` (§4.3), `t = 2, 3`
    /// (Figure 12); other `t` fall back to the appendix theorem, of which
    /// the printed forms are special cases (`mttdl_printed` at this
    /// model's rates).
    pub fn mttdl_paper(&self) -> Hours {
        let m = &self.recursive;
        let rates = [m.lambda_n, m.lambda_d, m.mu_n, m.mu_d];
        mttdl_printed(m.k, m.n, self.r, m.d, rates, self.c_her, &m.h)
    }

    /// The appendix's general-`k` closed-form approximation (Figure A1).
    pub fn mttdl_theorem(&self) -> Hours {
        self.recursive.mttdl_theorem()
    }

    /// Exact MTTDL from the recursive CTMC.
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures.
    pub fn mttdl_exact(&self) -> Result<Hours> {
        self.recursive.mttdl_exact()
    }

    /// Exact MTTDL via the appendix Lemma's determinant recursion (an
    /// independent, matrix-free implementation of the same quantity as
    /// [`NoRaidSystem::mttdl_exact`]).
    pub fn mttdl_lemma(&self) -> Hours {
        self.recursive.mttdl_lemma()
    }
}

/// The MTTDL approximation *as printed* at node fault tolerance `t`,
/// node set size `n`, redundancy set size `r`, `d` drives per node, rates
/// `[λ_N, λ_d, μ_N, μ_d]` (per hour) and `C·HER`: §4.3's form for
/// `t = 1`, Figure 12's for `t = 2, 3`, and the appendix theorem over `h`
/// for any other `t`. Plain arithmetic, no chain.
///
/// The `λ_D` appearing in the paper's Fig-12 denominators is read as
/// `λ_d` (there is no array-failure rate without internal RAID; the
/// appendix confirms the factor is `L(μ_d, μ_N) = μ_dλ_N + μ_N·dλ_d`).
pub(crate) fn mttdl_printed(
    t: u32,
    n: u32,
    r: u32,
    d: u32,
    rates: [f64; 4],
    c_her: f64,
    h: &HParams,
) -> Hours {
    let nf = n as f64;
    let rf = r as f64;
    let df = d as f64;
    let [ln, ld, mn, md] = rates;
    let c = c_her;
    match t {
        1 => {
            // MTTDL ≈ μ_dμ_N / ( N(N−1)(λ_N+dλ_d)(μ_dλ_N+dμ_Nλ_d)
            //                    + N·d·h·μ_dμ_N(λ_d+λ_N) ),  h = (R−1)·C·HER
            let h = (rf - 1.0) * c;
            let den = nf * (nf - 1.0) * (ln + df * ld) * (md * ln + df * mn * ld)
                + nf * df * h * md * mn * (ld + ln);
            Hours(md * mn / den)
        }
        2 => {
            // Figure 12, NFT 2.
            let den = nf
                * (nf - 1.0)
                * (nf - 2.0)
                * (ln + df * ld)
                * (md * ln + df * mn * ld).powi(2)
                + nf * (rf - 1.0) * (rf - 2.0) * c * df * md * mn * (ld + ln) * (md * ln + mn * ld);
            Hours((md * mn).powi(2) / den)
        }
        3 => {
            // Figure 12, NFT 3.
            let den = nf
                * (nf - 1.0)
                * (nf - 2.0)
                * (nf - 3.0)
                * (ln + df * ld)
                * (md * ln + df * mn * ld).powi(3)
                + nf * (rf - 1.0)
                    * (rf - 2.0)
                    * (rf - 3.0)
                    * c
                    * df
                    * md
                    * mn
                    * (ld + ln)
                    * (md * ln + mn * ld).powi(2);
            Hours((md * mn).powi(3) / den)
        }
        _ => recursive::mttdl_theorem(t, n, d, rates, h),
    }
}

/// Convenience check used by tests and benches: does the `λ_D ≡ λ_d`
/// reading of Figure 12 agree with the appendix theorem? Returns the
/// largest relative difference between [`NoRaidSystem::mttdl_paper`] and
/// [`NoRaidSystem::mttdl_theorem`] over `t = 1..=3`.
///
/// # Errors
///
/// Propagates model-construction failures.
#[allow(clippy::too_many_arguments)]
pub fn printed_vs_theorem_max_rel_diff(
    n: u32,
    r: u32,
    d: u32,
    lambda_n: PerHour,
    lambda_d: PerHour,
    mu_n: PerHour,
    mu_d: PerHour,
    c_her: f64,
) -> Result<f64> {
    let mut worst = 0.0f64;
    for t in 1..=3 {
        let sys = NoRaidSystem::new(t, n, r, d, lambda_n, lambda_d, mu_n, mu_d, c_her)?;
        let paper = sys.mttdl_paper().0;
        let theorem = sys.mttdl_theorem().0;
        worst = worst.max((paper - theorem).abs() / theorem);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(t: u32) -> NoRaidSystem {
        NoRaidSystem::new(
            t,
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
    fn printed_formulas_match_theorem() {
        // The Fig-12 formulas (with λ_D read as λ_d) must coincide with the
        // appendix theorem almost exactly — they are the same algebra.
        let worst = printed_vs_theorem_max_rel_diff(
            64,
            8,
            12,
            PerHour(1.0 / 400_000.0),
            PerHour(1.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.024,
        )
        .unwrap();
        assert!(worst < 1e-10, "worst rel diff {worst}");
    }

    #[test]
    fn printed_formulas_track_exact() {
        for t in 1..=3 {
            let s = system(t);
            let paper = s.mttdl_paper().0;
            let exact = s.mttdl_exact().unwrap().0;
            let rel = (paper - exact).abs() / exact;
            // t = 1 sits outside the linearization's validity at baseline
            // (h_N ≈ 2.0 > 1, saturated in the exact chain).
            let tol = if t == 1 { 0.30 } else { 0.05 };
            assert!(rel < tol, "t={t}: paper {paper:.4e} vs exact {exact:.4e}");
        }
    }

    #[test]
    fn t_beyond_three_falls_back_to_theorem() {
        let s = system(4);
        assert_eq!(s.mttdl_paper().0, s.mttdl_theorem().0);
        assert_eq!(s.fault_tolerance(), 4);
    }

    #[test]
    fn mttdl_ordering_in_t() {
        let m1 = system(1).mttdl_paper().0;
        let m2 = system(2).mttdl_paper().0;
        let m3 = system(3).mttdl_paper().0;
        assert!(m1 < m2 && m2 < m3);
    }

    #[test]
    fn baseline_magnitudes() {
        // Sanity band from the paper's Figure 13 neighbourhood: FT2 no-IR
        // lands around 10⁷ hours; FT1 a lot lower, FT3 a lot higher.
        let m1 = system(1).mttdl_paper().0;
        let m2 = system(2).mttdl_paper().0;
        let m3 = system(3).mttdl_paper().0;
        assert!(m1 > 1e3 && m1 < 1e6, "m1 {m1:.3e}");
        assert!(m2 > 1e6 && m2 < 1e9, "m2 {m2:.3e}");
        assert!(m3 > 1e8, "m3 {m3:.3e}");
    }

    #[test]
    fn both_failure_rates_hurt_without_internal_raid() {
        // Both failure rates degrade MTTDL. (Note: at baseline the *sector*
        // term dominates the FT-2 denominator and carries a μ_d·λ_N factor,
        // so node-MTTF sensitivity is comparable to drive-MTTF sensitivity
        // even though dλ_d ≫ λ_N — visible in Figs 14/15.)
        let base = system(2).mttdl_paper().0;
        let worse_drives = NoRaidSystem::new(
            2,
            64,
            8,
            12,
            PerHour(1.0 / 400_000.0),
            PerHour(2.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.024,
        )
        .unwrap()
        .mttdl_paper()
        .0;
        let worse_nodes = NoRaidSystem::new(
            2,
            64,
            8,
            12,
            PerHour(2.0 / 400_000.0),
            PerHour(1.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.024,
        )
        .unwrap()
        .mttdl_paper()
        .0;
        assert!(worse_drives < base && worse_nodes < base);
    }

    #[test]
    fn recursive_accessor() {
        let s = system(2);
        assert_eq!(s.recursive().fault_tolerance(), 2);
        assert_eq!(s.recursive().state_count(), 7);
    }
}
