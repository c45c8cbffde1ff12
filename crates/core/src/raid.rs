//! Array-level Markov models for RAID inside a node (§4, Figures 1 and 4).
//!
//! These are the *inner* models of the paper's hierarchical analysis: a
//! RAID 5 or RAID 6 array of `d` drives, failing in place (a drive failure
//! triggers a *re-stripe* at rate `μ` that restores redundancy on the
//! surviving drives). Solving them yields
//!
//! * `λ_D` — the rate of **array failure** (drive failures beyond the RAID
//!   tolerance), and
//! * `λ_S` — the rate of an **uncorrectable sector error during a
//!   re-stripe** while the array is critical,
//!
//! which feed the node-level models of [`crate::internal_raid`].

use nsr_markov::{AbsorbingAnalysis, Ctmc, CtmcBuilder, StateId};

use crate::units::{Hours, PerHour};
use crate::{Error, Result};

/// The internal redundancy scheme of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InternalRaid {
    /// No internal redundancy; drives participate directly in the
    /// cross-node erasure code (§4.3).
    None,
    /// RAID 5 — tolerates one internal drive failure.
    Raid5,
    /// RAID 6 — tolerates two internal drive failures.
    Raid6,
}

impl InternalRaid {
    /// Number of concurrent internal drive failures tolerated.
    pub fn tolerance(self) -> u32 {
        match self {
            InternalRaid::None => 0,
            InternalRaid::Raid5 => 1,
            InternalRaid::Raid6 => 2,
        }
    }

    /// Minimum drives per node for the scheme to make sense.
    pub fn min_drives(self) -> u32 {
        self.tolerance() + 1
    }

    /// All three variants, in paper order.
    pub fn all() -> [InternalRaid; 3] {
        [InternalRaid::None, InternalRaid::Raid5, InternalRaid::Raid6]
    }

    /// The level's code in configuration names: `nir`, `ir5` or `ir6`
    /// (the `ir5` of `ft2-ir5`).
    pub fn code(self) -> &'static str {
        match self {
            InternalRaid::None => "nir",
            InternalRaid::Raid5 => "ir5",
            InternalRaid::Raid6 => "ir6",
        }
    }
}

/// Parses a level's [`code`](InternalRaid::code) or its long alias
/// (`none`, `raid5`, `raid6`), in any case.
impl std::str::FromStr for InternalRaid {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<InternalRaid, String> {
        match s.to_ascii_lowercase().as_str() {
            "nir" | "none" => Ok(InternalRaid::None),
            "ir5" | "raid5" => Ok(InternalRaid::Raid5),
            "ir6" | "raid6" => Ok(InternalRaid::Raid6),
            _ => Err(format!("unknown internal RAID '{s}'")),
        }
    }
}

impl std::fmt::Display for InternalRaid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InternalRaid::None => write!(f, "No Internal RAID"),
            InternalRaid::Raid5 => write!(f, "Internal RAID 5"),
            InternalRaid::Raid6 => write!(f, "Internal RAID 6"),
        }
    }
}

/// The output rates of an array model, consumed by the node-level models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayRates {
    /// `λ_D`: rate of array failure (data loss through drive failures).
    pub lambda_array: PerHour,
    /// `λ_S`: rate of an uncorrectable sector error during a critical
    /// re-stripe.
    pub lambda_sector: PerHour,
}

/// Markov model of one RAID array failing in place.
///
/// # Example
///
/// ```
/// use nsr_core::raid::{ArrayModel, InternalRaid};
/// use nsr_core::units::PerHour;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let m = ArrayModel::new(
///     InternalRaid::Raid5,
///     12,                     // drives
///     PerHour(1.0 / 300_000.0), // λ_d
///     PerHour(1.0 / 34.0),      // μ (re-stripe rate)
///     0.024,                    // C·HER
/// )?;
/// let exact = m.mttdl_exact()?;
/// let paper = m.mttdl_paper();
/// assert!((exact.0 - paper.0).abs() / paper.0 < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayModel {
    raid: InternalRaid,
    d: u32,
    lambda_d: f64,
    mu: f64,
    c_her: f64,
}

/// Label of the absorbing state reached through one drive failure too many.
pub const LOSS_BY_DRIVES: &str = "loss:drives";
/// Label of the absorbing state reached through an uncorrectable sector
/// error during a critical re-stripe.
pub const LOSS_BY_SECTOR: &str = "loss:sector";

impl ArrayModel {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] for [`InternalRaid::None`] (there is no array
    ///   model without internal RAID) or when `d` is below
    ///   [`InternalRaid::min_drives`] (+1, since an array that cannot lose a
    ///   drive and keep operating cannot re-stripe).
    /// * [`Error::InvalidParams`] for non-positive rates or `C·HER ∉ [0,1)`.
    pub fn new(
        raid: InternalRaid,
        d: u32,
        lambda_d: PerHour,
        mu: PerHour,
        c_her: f64,
    ) -> Result<ArrayModel> {
        if raid == InternalRaid::None {
            return Err(Error::infeasible(
                "no array model exists without internal RAID",
            ));
        }
        if d < raid.min_drives() + 1 {
            return Err(Error::infeasible(format!(
                "{raid} needs at least {} drives, got {d}",
                raid.min_drives() + 1
            )));
        }
        if !(lambda_d.0 > 0.0 && lambda_d.0.is_finite()) {
            return Err(Error::invalid("drive failure rate must be positive"));
        }
        if !(mu.0 > 0.0 && mu.0.is_finite()) {
            return Err(Error::invalid("re-stripe rate must be positive"));
        }
        if !(0.0..1.0).contains(&c_her) {
            return Err(Error::invalid("C·HER must be in [0, 1)"));
        }
        Ok(ArrayModel {
            raid,
            d,
            lambda_d: lambda_d.0,
            mu: mu.0,
            c_her,
        })
    }

    /// The RAID level of this array.
    pub fn raid(&self) -> InternalRaid {
        self.raid
    }

    /// The probability of an uncorrectable error during the critical
    /// rebuild: `(d − f)·C·HER` where `f` is the internal tolerance — the
    /// survivors that must be read once the array is critical
    /// (`h = (d−1)·C·HER` for RAID 5, Figure 1; `(d−2)·C·HER` for RAID 6).
    pub fn uncorrectable_probability(&self) -> f64 {
        (self.d as f64 - self.raid.tolerance() as f64) * self.c_her
    }

    /// Builds the array CTMC (Figure 1 for RAID 5, Figure 4 for RAID 6)
    /// with *two* distinct absorbing states, [`LOSS_BY_DRIVES`] and
    /// [`LOSS_BY_SECTOR`], so the two loss paths can be separated.
    pub fn ctmc(&self) -> Result<Ctmc> {
        let (d, lam, mu) = (self.d as f64, self.lambda_d, self.mu);
        let f = self.raid.tolerance(); // 1 for RAID 5, 2 for RAID 6
                                       // The linearized uncorrectable probability can exceed 1 for very
                                       // wide arrays; the exact chain saturates it.
        let h = self.uncorrectable_probability().min(1.0);
        let mut b = CtmcBuilder::new();
        let degraded: Vec<StateId> = (0..=f)
            .map(|i| b.add_state(format!("failed:{i}")))
            .collect();
        let loss_drives = b.add_state(LOSS_BY_DRIVES);
        let loss_sector = b.add_state(LOSS_BY_SECTOR);

        for i in 0..f {
            let remaining = d - i as f64;
            if i + 1 == f {
                // Entering the critical state: the subsequent re-stripe may
                // hit an uncorrectable sector error.
                b.add_transition(
                    degraded[i as usize],
                    degraded[(i + 1) as usize],
                    remaining * lam * (1.0 - h),
                )?;
                b.add_transition(degraded[i as usize], loss_sector, remaining * lam * h)?;
            } else {
                b.add_transition(
                    degraded[i as usize],
                    degraded[(i + 1) as usize],
                    remaining * lam,
                )?;
            }
            // Re-stripe completes, restoring one level of redundancy.
            b.add_transition(degraded[(i + 1) as usize], degraded[i as usize], mu)?;
        }
        // One failure beyond the tolerance loses data.
        b.add_transition(degraded[f as usize], loss_drives, (d - f as f64) * lam)?;
        Ok(b.build()?)
    }

    /// Exact MTTDL from the CTMC.
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures (cannot occur for validated
    /// parameters).
    pub fn mttdl_exact(&self) -> Result<Hours> {
        let ctmc = self.ctmc()?;
        let analysis = AbsorbingAnalysis::new(&ctmc)?;
        let root = ctmc.state_by_label("failed:0").expect("root state exists");
        Ok(Hours(analysis.mean_time_to_absorption(root)?))
    }

    /// The MTTDL formula *as printed in the paper*: the exact RAID 5
    /// closed form
    ///
    /// ```text
    /// MTTDL = ((2d − 1 − dh)λ_d + μ_d) / (d(d−1)λ_d² + dλ_dμ_dh)
    /// ```
    ///
    /// and, for RAID 6, the printed approximation (the paper gives no exact
    /// RAID 6 closed form).
    pub fn mttdl_paper(&self) -> Hours {
        let (d, lam, mu) = (self.d as f64, self.lambda_d, self.mu);
        match self.raid {
            InternalRaid::Raid5 => {
                let h = (d - 1.0) * self.c_her;
                Hours(
                    ((2.0 * d - 1.0 - d * h) * lam + mu)
                        / (d * (d - 1.0) * lam * lam + d * lam * mu * h),
                )
            }
            InternalRaid::Raid6 => self.mttdl_approx(),
            InternalRaid::None => unreachable!("rejected in constructor"),
        }
    }

    /// The leading-order approximation printed in §4/§4.2:
    ///
    /// * RAID 5: `μ / (d(d−1)λ² + d(d−1)λμ·C·HER)`
    /// * RAID 6: `μ² / (d(d−1)(d−2)λ³ + d(d−1)(d−2)λ²μ·C·HER)`
    pub fn mttdl_approx(&self) -> Hours {
        let (d, lam, mu) = (self.d as f64, self.lambda_d, self.mu);
        match self.raid {
            InternalRaid::Raid5 => {
                let base = d * (d - 1.0);
                Hours(mu / (base * lam * lam + base * lam * mu * self.c_her))
            }
            InternalRaid::Raid6 => {
                let base = d * (d - 1.0) * (d - 2.0);
                Hours(mu * mu / (base * lam.powi(3) + base * lam * lam * mu * self.c_her))
            }
            InternalRaid::None => unreachable!("rejected in constructor"),
        }
    }

    /// The `λ_D`, `λ_S` output rates as printed in §4.2:
    ///
    /// * RAID 5: `λ_D = d(d−1)λ²/μ`, `λ_S = d(d−1)λ·C·HER`
    /// * RAID 6: `λ_D = d(d−1)(d−2)λ³/μ²`, `λ_S = d(d−1)(d−2)λ²·C·HER/μ`
    pub fn rates_paper(&self) -> ArrayRates {
        let (d, lam, mu) = (self.d as f64, self.lambda_d, self.mu);
        match self.raid {
            InternalRaid::Raid5 => {
                let base = d * (d - 1.0);
                ArrayRates {
                    lambda_array: PerHour(base * lam * lam / mu),
                    lambda_sector: PerHour(base * lam * self.c_her),
                }
            }
            InternalRaid::Raid6 => {
                let base = d * (d - 1.0) * (d - 2.0);
                ArrayRates {
                    lambda_array: PerHour(base * lam.powi(3) / (mu * mu)),
                    lambda_sector: PerHour(base * lam * lam * self.c_her / mu),
                }
            }
            InternalRaid::None => unreachable!("rejected in constructor"),
        }
    }

    /// Exact output rates from the CTMC: each loss path's absorption
    /// probability divided by the MTTDL (the long-run rate at which an
    /// array enters that loss state).
    ///
    /// # Errors
    ///
    /// Propagates Markov-solver failures.
    pub fn rates_exact(&self) -> Result<ArrayRates> {
        let ctmc = self.ctmc()?;
        let analysis = AbsorbingAnalysis::new(&ctmc)?;
        let root = ctmc.state_by_label("failed:0").expect("root state exists");
        let drives = ctmc
            .state_by_label(LOSS_BY_DRIVES)
            .expect("loss state exists");
        let sector = ctmc
            .state_by_label(LOSS_BY_SECTOR)
            .expect("loss state exists");
        let mttdl = analysis.mean_time_to_absorption(root)?;
        let p_drives = analysis.absorption_probability(root, drives)?;
        let p_sector = analysis.absorption_probability(root, sector)?;
        Ok(ArrayRates {
            lambda_array: PerHour(p_drives / mttdl),
            lambda_sector: PerHour(p_sector / mttdl),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAM: PerHour = PerHour(1.0 / 300_000.0);
    const MU: PerHour = PerHour(1.0 / 34.0);
    const C_HER: f64 = 0.024;

    #[test]
    fn codes_and_aliases_parse_in_any_case() {
        for (ir, alias) in InternalRaid::all()
            .into_iter()
            .zip(["none", "raid5", "raid6"])
        {
            assert_eq!(ir.code().parse(), Ok(ir));
            assert_eq!(ir.code().to_uppercase().parse(), Ok(ir));
            assert_eq!(alias.parse(), Ok(ir));
            assert_eq!(alias.to_uppercase().parse(), Ok(ir));
        }
        assert_eq!(
            "zfs".parse::<InternalRaid>(),
            Err("unknown internal RAID 'zfs'".to_string())
        );
    }

    fn raid5() -> ArrayModel {
        ArrayModel::new(InternalRaid::Raid5, 12, LAM, MU, C_HER).unwrap()
    }

    fn raid6() -> ArrayModel {
        ArrayModel::new(InternalRaid::Raid6, 12, LAM, MU, C_HER).unwrap()
    }

    #[test]
    fn raid5_exact_matches_printed_formula() {
        let m = raid5();
        let exact = m.mttdl_exact().unwrap().0;
        let paper = m.mttdl_paper().0;
        assert!((exact - paper).abs() / paper < 1e-10, "{exact} vs {paper}");
    }

    #[test]
    fn raid5_approx_close_to_exact() {
        let m = raid5();
        let exact = m.mttdl_exact().unwrap().0;
        let approx = m.mttdl_approx().0;
        // μ >> λ, so the approximation should be within a fraction of a %.
        assert!((exact - approx).abs() / exact < 0.01, "{exact} vs {approx}");
    }

    #[test]
    fn raid6_exact_close_to_printed_approx() {
        let m = raid6();
        let exact = m.mttdl_exact().unwrap().0;
        let approx = m.mttdl_paper().0;
        assert!((exact - approx).abs() / exact < 0.05, "{exact} vs {approx}");
    }

    #[test]
    fn raid6_vastly_outlives_raid5() {
        let mttdl5 = raid5().mttdl_exact().unwrap().0;
        let mttdl6 = raid6().mttdl_exact().unwrap().0;
        assert!(mttdl6 > 100.0 * mttdl5, "RAID6 {mttdl6} vs RAID5 {mttdl5}");
    }

    #[test]
    fn rates_paper_values() {
        let r = raid5().rates_paper();
        let lam = 1.0 / 300_000.0;
        let expected_d = 132.0 * lam * lam * 34.0;
        assert!((r.lambda_array.0 - expected_d).abs() / expected_d < 1e-12);
        let expected_s = 132.0 * lam * 0.024;
        assert!((r.lambda_sector.0 - expected_s).abs() / expected_s < 1e-12);
    }

    #[test]
    fn rates_exact_agree_with_paper_to_leading_order() {
        for m in [raid5(), raid6()] {
            let paper = m.rates_paper();
            let exact = m.rates_exact().unwrap();
            let rel_d = (paper.lambda_array.0 - exact.lambda_array.0).abs() / exact.lambda_array.0;
            let rel_s =
                (paper.lambda_sector.0 - exact.lambda_sector.0).abs() / exact.lambda_sector.0;
            // Baseline h = (d−1)·C·HER ≈ 0.26 is not ≪ 1, so the printed
            // linearized rates drift by O(h) from the exact split.
            assert!(rel_d < 0.45, "{:?}: λ_D rel err {rel_d}", m.raid());
            assert!(rel_s < 0.45, "{:?}: λ_S rel err {rel_s}", m.raid());
        }
    }

    #[test]
    fn rates_exact_tight_for_small_error_rate() {
        for raid in [InternalRaid::Raid5, InternalRaid::Raid6] {
            let m = ArrayModel::new(raid, 12, LAM, MU, 1e-3).unwrap();
            let paper = m.rates_paper();
            let exact = m.rates_exact().unwrap();
            let rel_d = (paper.lambda_array.0 - exact.lambda_array.0).abs() / exact.lambda_array.0;
            let rel_s =
                (paper.lambda_sector.0 - exact.lambda_sector.0).abs() / exact.lambda_sector.0;
            assert!(rel_d < 0.02, "{raid}: λ_D rel err {rel_d}");
            assert!(rel_s < 0.02, "{raid}: λ_S rel err {rel_s}");
        }
    }

    #[test]
    fn sector_loss_dominates_drive_loss_for_baseline_raid5() {
        // At baseline C·HER = 0.024 and a ~34 h re-stripe, the sector path
        // λ_S >> λ_D: λ_S/λ_D = C·HER·μ/λ ≈ 0.024·300000/34 ≈ 212.
        let r = raid5().rates_paper();
        assert!(r.lambda_sector.0 > 100.0 * r.lambda_array.0);
    }

    #[test]
    fn ctmc_shape() {
        let c5 = raid5().ctmc().unwrap();
        assert_eq!(c5.len(), 4); // 0, 1, loss:drives, loss:sector
        assert_eq!(c5.absorbing_states().len(), 2);
        let c6 = raid6().ctmc().unwrap();
        assert_eq!(c6.len(), 5);
    }

    #[test]
    fn constructor_validation() {
        assert!(ArrayModel::new(InternalRaid::None, 12, LAM, MU, C_HER).is_err());
        assert!(ArrayModel::new(InternalRaid::Raid5, 2, LAM, MU, C_HER).is_err());
        assert!(ArrayModel::new(InternalRaid::Raid6, 3, LAM, MU, C_HER).is_err());
        assert!(ArrayModel::new(InternalRaid::Raid5, 12, PerHour(0.0), MU, C_HER).is_err());
        assert!(ArrayModel::new(InternalRaid::Raid5, 12, LAM, PerHour(-1.0), C_HER).is_err());
        assert!(ArrayModel::new(InternalRaid::Raid5, 12, LAM, MU, 1.0).is_err());
    }

    #[test]
    fn tolerance_and_display() {
        assert_eq!(InternalRaid::None.tolerance(), 0);
        assert_eq!(InternalRaid::Raid5.tolerance(), 1);
        assert_eq!(InternalRaid::Raid6.tolerance(), 2);
        assert_eq!(format!("{}", InternalRaid::Raid5), "Internal RAID 5");
        assert_eq!(InternalRaid::all().len(), 3);
    }

    #[test]
    fn uncorrectable_probability_matches_figure_1() {
        // RAID 5: h = (d−1)·C·HER.
        assert!((raid5().uncorrectable_probability() - 11.0 * C_HER).abs() < 1e-15);
        // RAID 6: reading d−2 survivors during the critical rebuild.
        assert!((raid6().uncorrectable_probability() - 10.0 * C_HER).abs() < 1e-15);
    }

    #[test]
    fn mttdl_decreases_with_more_drives() {
        let small = ArrayModel::new(InternalRaid::Raid5, 6, LAM, MU, C_HER)
            .unwrap()
            .mttdl_exact()
            .unwrap()
            .0;
        let large = ArrayModel::new(InternalRaid::Raid5, 16, LAM, MU, C_HER)
            .unwrap()
            .mttdl_exact()
            .unwrap()
            .0;
        assert!(large < small);
    }

    #[test]
    fn faster_restripe_improves_mttdl() {
        let slow = ArrayModel::new(InternalRaid::Raid5, 12, LAM, PerHour(0.01), C_HER)
            .unwrap()
            .mttdl_exact()
            .unwrap()
            .0;
        let fast = ArrayModel::new(InternalRaid::Raid5, 12, LAM, PerHour(1.0), C_HER)
            .unwrap()
            .mttdl_exact()
            .unwrap()
            .0;
        assert!(fast > slow);
    }
}
