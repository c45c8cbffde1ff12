//! Node-level Markov models for nodes *with* internal RAID
//! (§4.2, Figures 5, 6 and 7).
//!
//! The hierarchical method: the array model ([`crate::raid::ArrayModel`])
//! is solved first and collapsed into two rates, `λ_D` (array failure) and
//! `λ_S` (sector error during a critical re-stripe). The node-level chain
//! then sees each node fail at rate `λ_N + λ_D`, with `λ_S` able to strike
//! only while some redundancy set is critical, scaled by the critical
//! fraction `k_t` of §5.2.1.
//!
//! The chain for node fault tolerance `t` is a birth–death chain over
//! `0..=t` failed nodes with absorption from state `t`:
//!
//! ```text
//! 0 →(N(λ_N+λ_D)) 1 → … → t →((N−t)(λ_N+λ_D+k_t·λ_S)) loss
//!       ←μ_N          ←μ_N
//! ```
//!
//! The paper writes out `t = 1, 2, 3`; this module supports any `t ≥ 1`
//! (with the `k_t` generalization of [`crate::scope::critical_fraction`]),
//! of which the printed formulas are special cases.

use nsr_markov::{AbsorbingAnalysis, ChainSink, ChainWalk, Ctmc, StateId};

use crate::raid::ArrayRates;
use crate::scope::critical_fraction;
use crate::units::{Hours, PerHour};
use crate::{Error, Result};

/// Label of the absorbing data-loss state reached through one node/array
/// failure too many.
pub const LOSS_BY_FAILURE: &str = "loss:failure";
/// Label of the absorbing data-loss state reached through a sector error
/// during a critical rebuild.
pub const LOSS_BY_SECTOR: &str = "loss:sector";

/// Node-level model for internal-RAID configurations.
///
/// # Example
///
/// ```
/// use nsr_core::internal_raid::InternalRaidSystem;
/// use nsr_core::raid::ArrayRates;
/// use nsr_core::units::PerHour;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let rates = ArrayRates {
///     lambda_array: PerHour(5e-8),
///     lambda_sector: PerHour(1e-5),
/// };
/// let sys = InternalRaidSystem::new(64, 8, 2, PerHour(2.5e-6), rates, PerHour(0.28))?;
/// let exact = sys.mttdl_exact()?;
/// let approx = sys.mttdl_paper();
/// assert!((exact.0 - approx.0).abs() / exact.0 < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InternalRaidSystem {
    n: u32,
    t: u32,
    lambda_n: f64,
    lambda_d_array: f64,
    lambda_s: f64,
    mu_n: f64,
    k_t: f64,
}

impl InternalRaidSystem {
    /// Builds the model for node set size `n`, redundancy set size `r`,
    /// node fault tolerance `t`, node failure rate `λ_N`, array output
    /// rates, and node rebuild rate `μ_N`.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] if `t == 0`, `t >= r`, `r > n`, or `n <= t`.
    /// * [`Error::InvalidParams`] for non-positive rates.
    pub fn new(
        n: u32,
        r: u32,
        t: u32,
        lambda_n: PerHour,
        array: ArrayRates,
        mu_n: PerHour,
    ) -> Result<InternalRaidSystem> {
        Self::with_k_t(n, t, lambda_n, array, mu_n, || critical_fraction(n, r, t))
    }

    /// [`InternalRaidSystem::new`] with the critical fraction from `k_t`,
    /// called once the rates have passed — the model-point stages hand
    /// over the fraction their geometry computed.
    pub(crate) fn with_k_t(
        n: u32,
        t: u32,
        lambda_n: PerHour,
        array: ArrayRates,
        mu_n: PerHour,
        k_t: impl FnOnce() -> Result<f64>,
    ) -> Result<InternalRaidSystem> {
        check(n, t, lambda_n, array, mu_n)?;
        let k_t = k_t()?;
        Ok(InternalRaidSystem {
            n,
            t,
            lambda_n: lambda_n.0,
            lambda_d_array: array.lambda_array.0,
            lambda_s: array.lambda_sector.0,
            mu_n: mu_n.0,
            k_t,
        })
    }

    /// The critical-set fraction `k_t` in effect (§5.2.1).
    pub fn critical_fraction(&self) -> f64 {
        self.k_t
    }

    /// Node fault tolerance `t`.
    pub fn fault_tolerance(&self) -> u32 {
        self.t
    }

    /// Combined per-node failure rate `λ_N + λ_D` seen by the outer model.
    pub fn combined_failure_rate(&self) -> PerHour {
        PerHour(self.lambda_n + self.lambda_d_array)
    }

    /// Builds the node-level CTMC (Figure 5/6/7 generalized to any `t`),
    /// with distinct absorbing states for failure-driven and sector-driven
    /// loss: the rated chain of this model's [`ChainWalk`].
    ///
    /// # Errors
    ///
    /// Cannot fail for a constructed model.
    pub fn ctmc(&self) -> Result<Ctmc> {
        Ok(self.rated()?.0)
    }

    /// Exact MTTDL by solving the node-level CTMC.
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures.
    pub fn mttdl_exact(&self) -> Result<Hours> {
        let (ctmc, root) = self.rated()?;
        let analysis = AbsorbingAnalysis::new(&ctmc)?;
        Ok(Hours(analysis.mean_time_to_absorption(root)?))
    }

    /// The paper's closed-form approximation, generalized to any `t`
    /// (`mttdl_closed` at this model's rates). For `t = 1, 2, 3` this is literally `MTTDL_{IR,NFT1..3}` of §4.2
    /// (with `k₁ = 1`).
    pub fn mttdl_paper(&self) -> Hours {
        let rates = [self.lambda_n, self.lambda_d_array, self.lambda_s, self.mu_n];
        mttdl_closed(self.n, self.t, rates, self.k_t)
    }

    /// The *exact* closed form printed for NFT 1:
    ///
    /// ```text
    /// MTTDL = (μ_N + (2N−1)(λ_N+λ_D) + (N−1)λ_S)
    ///         / (N(N−1)(λ_N+λ_D)(λ_N+λ_D+λ_S))
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedFaultTolerance`] unless `t == 1`.
    pub fn mttdl_nft1_exact_formula(&self) -> Result<Hours> {
        if self.t != 1 {
            return Err(Error::UnsupportedFaultTolerance {
                requested: self.t,
                max: 1,
            });
        }
        let nf = self.n as f64;
        let lam = self.lambda_n + self.lambda_d_array;
        let num = self.mu_n + (2.0 * nf - 1.0) * lam + (nf - 1.0) * self.lambda_s;
        let den = nf * (nf - 1.0) * lam * (lam + self.lambda_s);
        Ok(Hours(num / den))
    }

    /// Exact MTTDL via the stable birth–death product form
    /// ([`nsr_markov::birth_death_mtta`]) — an independent, matrix-free
    /// implementation of the same quantity as
    /// [`InternalRaidSystem::mttdl_exact`], usable as a cross-check at any
    /// stiffness.
    ///
    /// # Errors
    ///
    /// Propagates oracle validation failures (cannot occur for validated
    /// parameters).
    pub fn mttdl_birth_death(&self) -> Result<Hours> {
        let nf = self.n as f64;
        let lam = self.lambda_n + self.lambda_d_array;
        // Forward rates out of states 0..t, plus the absorption rate from
        // state t (failure and sector paths combined).
        let mut forward: Vec<f64> = (0..self.t).map(|i| (nf - i as f64) * lam).collect();
        forward.push((nf - self.t as f64) * (lam + self.k_t * self.lambda_s));
        let backward = vec![self.mu_n; self.t as usize];
        Ok(Hours(nsr_markov::birth_death_mtta(&forward, &backward)?))
    }

    /// Probability that an eventual data loss arrives through the sector
    /// path rather than a node/array failure.
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
}

/// The chain for node fault tolerance `t`: states `failed:0..=t` (state
/// `i` is id `i`), then the two loss states. The topology is a function
/// of `t` alone (RAID 5 and RAID 6 share it), which is what lets one
/// compiled elimination program serve every parameter point of a fault
/// tolerance. A zero sector rate (`λ_S = 0`) drops its transition from
/// the rated chain.
impl ChainWalk for InternalRaidSystem {
    fn walk<S: ChainSink>(&self, sink: &mut S) -> nsr_markov::Result<StateId> {
        let t = self.t as usize;
        for i in 0..=t {
            sink.state(|| format!("failed:{i}"));
        }
        let loss_failure = sink.state(|| LOSS_BY_FAILURE.into());
        let loss_sector = sink.state(|| LOSS_BY_SECTOR.into());
        let (nf, lam) = (self.n as f64, self.lambda_n + self.lambda_d_array);
        for i in 0..t {
            let (up, down) = (StateId::new(i), StateId::new(i + 1));
            sink.edge(up, down, (nf - i as f64) * lam)?;
            sink.edge(down, up, self.mu_n)?;
        }
        let (last, full) = (nf - t as f64, StateId::new(t));
        sink.edge(full, loss_failure, last * lam)?;
        sink.edge(full, loss_sector, last * self.k_t * self.lambda_s)?;
        Ok(StateId::new(0))
    }
}

/// The checks an internal-RAID chain makes of its node set size `n`,
/// fault tolerance `t` and rates, in order.
///
/// # Errors
///
/// * [`Error::Infeasible`] if `n <= t`.
/// * [`Error::InvalidParams`] for a node failure or rebuild rate that is
///   not positive and finite, or a negative array rate.
pub(crate) fn check(
    n: u32,
    t: u32,
    lambda_n: PerHour,
    array: ArrayRates,
    mu_n: PerHour,
) -> Result<()> {
    if n <= t {
        return Err(Error::infeasible(
            "node set must be larger than fault tolerance",
        ));
    }
    if !(lambda_n.0 > 0.0 && lambda_n.0.is_finite()) {
        return Err(Error::invalid("node failure rate must be positive"));
    }
    if !(mu_n.0 > 0.0 && mu_n.0.is_finite()) {
        return Err(Error::invalid("node rebuild rate must be positive"));
    }
    if !(array.lambda_array.0 >= 0.0 && array.lambda_sector.0 >= 0.0) {
        return Err(Error::invalid("array rates must be non-negative"));
    }
    Ok(())
}

/// The paper's closed-form approximation at node set size `n`, fault
/// tolerance `t`, rates `[λ_N, λ_D, λ_S, μ_N]` (per hour: node failure,
/// array failure, sector error in a critical re-stripe, node rebuild)
/// and critical fraction `k_t`, generalized to any `t`: plain
/// arithmetic, no chain.
///
/// ```text
/// MTTDL ≈ μ_N^t / ( N(N−1)···(N−t) · (λ_N+λ_D)^t · (λ_N+λ_D+k_t·λ_S) )
/// ```
pub(crate) fn mttdl_closed(n: u32, t: u32, rates: [f64; 4], k_t: f64) -> Hours {
    let [lambda_n, lambda_array, lambda_sector, mu_n] = rates;
    let lam = lambda_n + lambda_array;
    let mut denom = 1.0;
    for i in 0..=t {
        denom *= (n - i) as f64;
    }
    denom *= lam.powi(t as i32) * (lam + k_t * lambda_sector);
    Hours(mu_n.powi(t as i32) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> ArrayRates {
        ArrayRates {
            lambda_array: PerHour(5e-8),
            lambda_sector: PerHour(1.06e-5),
        }
    }

    fn system(t: u32) -> InternalRaidSystem {
        InternalRaidSystem::new(64, 8, t, PerHour(2.5e-6), rates(), PerHour(0.28)).unwrap()
    }

    #[test]
    fn nft1_exact_formula_matches_ctmc() {
        let s = system(1);
        let formula = s.mttdl_nft1_exact_formula().unwrap().0;
        let exact = s.mttdl_exact().unwrap().0;
        assert!(
            (formula - exact).abs() / exact < 1e-10,
            "{formula} vs {exact}"
        );
    }

    #[test]
    fn paper_approx_close_to_exact_for_all_t() {
        for t in 1..=3 {
            let s = system(t);
            let approx = s.mttdl_paper().0;
            let exact = s.mttdl_exact().unwrap().0;
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < 0.05,
                "t={t}: approx {approx} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn birth_death_oracle_matches_gth_chain() {
        // Two independent exact methods must agree to machine precision,
        // for the paper's tolerances and beyond.
        for t in 1..=5 {
            let s = system(t);
            let gth = s.mttdl_exact().unwrap().0;
            let bd = s.mttdl_birth_death().unwrap().0;
            assert!(
                (gth - bd).abs() / gth < 1e-11,
                "t={t}: gth {gth:.10e} vs birth-death {bd:.10e}"
            );
        }
    }

    #[test]
    fn mttdl_grows_steeply_with_tolerance() {
        let m1 = system(1).mttdl_exact().unwrap().0;
        let m2 = system(2).mttdl_exact().unwrap().0;
        let m3 = system(3).mttdl_exact().unwrap().0;
        // Each extra tolerated failure buys roughly μ/(Nλ) ~ 10³.
        assert!(m2 > 100.0 * m1);
        assert!(m3 > 100.0 * m2);
    }

    #[test]
    fn k_t_matches_scope_module() {
        assert_eq!(system(1).critical_fraction(), 1.0);
        assert!((system(2).critical_fraction() - 7.0 / 63.0).abs() < 1e-15);
        assert!((system(3).critical_fraction() - 42.0 / (63.0 * 62.0)).abs() < 1e-15);
    }

    #[test]
    fn ctmc_shape() {
        let c = system(2).ctmc().unwrap();
        assert_eq!(c.len(), 5); // 0,1,2 + two loss states
        assert_eq!(c.absorbing_states().len(), 2);
        assert_eq!(system(2).fault_tolerance(), 2);
    }

    #[test]
    fn nft1_formula_requires_t1() {
        assert!(matches!(
            system(2).mttdl_nft1_exact_formula().unwrap_err(),
            Error::UnsupportedFaultTolerance {
                requested: 2,
                max: 1
            }
        ));
    }

    #[test]
    fn constructor_validation() {
        let r = rates();
        assert!(InternalRaidSystem::new(64, 8, 0, PerHour(1e-6), r, PerHour(0.3)).is_err());
        assert!(InternalRaidSystem::new(64, 8, 8, PerHour(1e-6), r, PerHour(0.3)).is_err());
        assert!(InternalRaidSystem::new(4, 8, 2, PerHour(1e-6), r, PerHour(0.3)).is_err());
        assert!(InternalRaidSystem::new(64, 8, 2, PerHour(0.0), r, PerHour(0.3)).is_err());
        assert!(InternalRaidSystem::new(64, 8, 2, PerHour(1e-6), r, PerHour(0.0)).is_err());
        let bad = ArrayRates {
            lambda_array: PerHour(-1.0),
            lambda_sector: PerHour(0.0),
        };
        assert!(InternalRaidSystem::new(64, 8, 2, PerHour(1e-6), bad, PerHour(0.3)).is_err());
        // t = 3 with N = 3 is degenerate.
        assert!(InternalRaidSystem::new(3, 8, 3, PerHour(1e-6), r, PerHour(0.3)).is_err());
    }

    #[test]
    fn combined_rate() {
        let s = system(2);
        assert!((s.combined_failure_rate().0 - 2.55e-6).abs() < 1e-12);
    }

    #[test]
    fn sector_share_meaningful_at_baseline() {
        // With k₂λ_S comparable to λ_N+λ_D, the sector path should carry a
        // visible but minority share of losses.
        let share = system(2).sector_loss_share().unwrap();
        assert!(share > 0.05 && share < 0.75, "share {share}");
    }

    #[test]
    fn faster_rebuild_helps() {
        let slow = InternalRaidSystem::new(64, 8, 2, PerHour(2.5e-6), rates(), PerHour(0.05))
            .unwrap()
            .mttdl_exact()
            .unwrap()
            .0;
        let fast = InternalRaidSystem::new(64, 8, 2, PerHour(2.5e-6), rates(), PerHour(1.0))
            .unwrap()
            .mttdl_exact()
            .unwrap()
            .0;
        assert!(fast > slow);
    }

    #[test]
    fn supports_fault_tolerance_beyond_paper() {
        // t = 4 and 5 are extensions; the approximation should still track
        // the exact chain.
        for t in 4..=5 {
            let s = system(t);
            let approx = s.mttdl_paper().0;
            let exact = s.mttdl_exact().unwrap().0;
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.05, "t={t}: rel {rel}");
        }
    }
}
