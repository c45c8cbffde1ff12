//! §5.2 "scope of sector error": critical-redundancy-set combinatorics.
//!
//! With data spread evenly over all `C(N, R)` redundancy sets, a sector
//! error can only cause data loss while a redundancy set is *critical*
//! (has already lost as many elements as the code tolerates). Only a
//! fraction of a surviving entity's data belongs to critical sets; §5.2
//! derives those fractions by counting sets through binomial coefficients.
//!
//! * Nodes with internal RAID: the `k₂`, `k₃` multipliers on `λ_S`
//!   ([`critical_fraction`]).
//! * Nodes without internal RAID: the `h`-parameter family `h_α` indexed by
//!   failure words `α ∈ {N, d}^k` ([`HParams`]).

use crate::{Error, Result};

/// Binomial coefficient `C(n, k)` as `f64` (exact for the modest arguments
/// used here; saturates to `f64` precision beyond 2⁵³).
///
/// ```
/// assert_eq!(nsr_core::scope::binomial(63, 7), 553270671.0);
/// assert_eq!(nsr_core::scope::binomial(5, 0), 1.0);
/// assert_eq!(nsr_core::scope::binomial(3, 5), 0.0);
/// ```
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * ((n - i) as f64) / ((i + 1) as f64);
    }
    acc.round()
}

/// The fraction `k_t` of a surviving node's redundancy sets that are
/// critical when `t` nodes have failed (internal-RAID models, §5.2.1):
///
/// ```text
/// k_t = C(N−t, R−t) / C(N−1, R−1) = Π_{i=1}^{t−1} (R−i)/(N−i)
/// ```
///
/// `k₁ = 1` (with a single failure every touched set is critical),
/// `k₂ = (R−1)/(N−1)`, `k₃ = (R−1)(R−2)/((N−1)(N−2))`, generalizing to any
/// `t`.
///
/// # Errors
///
/// * [`Error::Infeasible`] if `t == 0`, `t >= R`, or `R > N`.
pub fn critical_fraction(n: u32, r: u32, t: u32) -> Result<f64> {
    if r > n {
        return Err(Error::infeasible("redundancy set larger than node set"));
    }
    if t == 0 || t >= r {
        return Err(Error::infeasible("fault tolerance must satisfy 1 <= t < R"));
    }
    let mut acc = 1.0;
    for i in 1..t {
        acc *= (r - i) as f64 / (n - i) as f64;
    }
    Ok(acc)
}

/// The §5.2.2 `h`-parameter family for nodes without internal RAID at fault
/// tolerance `k`.
///
/// `h_α` is the probability of hitting an uncorrectable sector error while
/// performing the rebuild that follows failure word `α ∈ {N, d}^k` (`N` =
/// node failure, `d` = drive failure, in order of occurrence). The paper
/// shows
///
/// ```text
/// h_α = h · d^(1 − #d(α)),   h = [Π_{i=1}^{k}(R−i)] / [Π_{i=1}^{k−1}(N−i)] · C·HER
/// ```
///
/// where `#d(α)` is the number of drive failures in the word. For `k = 2`
/// this reproduces `h_NN = d·h`, `h_Nd = h_dN = h`, `h_dd = h/d`.
///
/// # Example
///
/// ```
/// use nsr_core::scope::HParams;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let h = HParams::new(2, 64, 8, 12, 0.024)?;
/// assert!((h.get("NN")? - 12.0 * h.base()).abs() < 1e-18);
/// assert!((h.get("dd")? - h.base() / 12.0).abs() < 1e-18);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HParams {
    k: u32,
    d: u32,
    base: f64,
}

impl HParams {
    /// Builds the family for fault tolerance `k`, node set size `n`,
    /// redundancy set size `r`, drives per node `d`, and the dimensionless
    /// full-drive-read error probability `c_her`.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] for `k == 0`, `k >= r`, `r > n`, `d == 0`,
    ///   or `n <= k` (the denominator products need `N − i > 0`).
    /// * [`Error::InvalidParams`] if `c_her` is not in `[0, 1)`.
    pub fn new(k: u32, n: u32, r: u32, d: u32, c_her: f64) -> Result<HParams> {
        if r > n {
            return Err(Error::infeasible("redundancy set larger than node set"));
        }
        if k == 0 || k >= r {
            return Err(Error::infeasible("fault tolerance must satisfy 1 <= k < R"));
        }
        if d == 0 {
            return Err(Error::infeasible("need at least one drive per node"));
        }
        if n <= k {
            return Err(Error::infeasible(
                "node set must be larger than fault tolerance",
            ));
        }
        if !(0.0..1.0).contains(&c_her) {
            return Err(Error::invalid("C·HER must be in [0, 1)"));
        }
        let mut base = c_her;
        for i in 1..=k {
            base *= (r - i) as f64;
        }
        for i in 1..k {
            base /= (n - i) as f64;
        }
        Ok(HParams { k, d, base })
    }

    /// The shared factor `h` (everything except the `d`-power).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The fault tolerance `k` this family was built for.
    pub fn fault_tolerance(&self) -> u32 {
        self.k
    }

    /// `h_α` for a failure word given as a string of `N`/`d` letters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if the word has the wrong length or
    /// contains letters other than `N`/`d`.
    pub fn get(&self, word: &str) -> Result<f64> {
        if word.len() != self.k as usize {
            return Err(Error::invalid(format!(
                "failure word '{word}' must have length {}",
                self.k
            )));
        }
        let mut drives = 0i32;
        for ch in word.chars() {
            match ch {
                'N' => {}
                'd' => drives += 1,
                other => {
                    return Err(Error::invalid(format!(
                        "failure word letter '{other}' must be 'N' or 'd'"
                    )))
                }
            }
        }
        Ok(self.by_drive_count(drives as u32))
    }

    /// `h_α` for a word with `drives` drive-failures (and `k − drives` node
    /// failures); all words with the same drive count share a value.
    pub fn by_drive_count(&self, drives: u32) -> f64 {
        let exp = 1i32 - drives as i32;
        self.base * (self.d as f64).powi(exp)
    }

    /// The largest member of the family (`h_{N…N} = d·h`), useful for
    /// checking the linearization's validity.
    pub fn max_value(&self) -> f64 {
        self.by_drive_count(0)
    }

    /// Whether every `h_α` is small enough (`≤ bound`) for the paper's
    /// linearized treatment to be a genuine probability. At the §6
    /// baseline this *fails* for `k = 1` (`h_N = d(R−1)·C·HER ≈ 2.0`):
    /// the paper's FT-1 closed forms overshoot there, which is one reason
    /// FT 1 is discarded after Figure 13.
    pub fn within_linear_validity(&self, bound: f64) -> bool {
        self.max_value() <= bound
    }

    /// The full ordered set `h^{(k)}`: index bits (MSB first) encode the
    /// word, `0 = N`, `1 = d`, which is exactly the appendix's reverse
    /// lexicographic order with first half `h_N ∘ h^{(k−1)}` and second
    /// half `h_d ∘ h^{(k−1)}`.
    pub fn ordered_set(&self) -> Vec<f64> {
        let size = 1usize << self.k;
        (0..size)
            .map(|idx| self.by_drive_count(idx.count_ones()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(0, 0), 1.0);
        assert_eq!(binomial(10, 1), 10.0);
        assert_eq!(binomial(10, 10), 1.0);
        assert_eq!(binomial(64, 8), 4426165368.0);
        assert_eq!(binomial(4, 7), 0.0);
        // Symmetry.
        assert_eq!(binomial(20, 6), binomial(20, 14));
        // Pascal's rule.
        assert_eq!(binomial(30, 12), binomial(29, 11) + binomial(29, 12));
    }

    #[test]
    fn critical_fraction_matches_binomial_ratio() {
        // §5.2.1: k_t = C(N−t, R−t)/C(N−1, R−1).
        for (n, r, t) in [(64u32, 8u32, 2u32), (64, 8, 3), (32, 10, 2), (16, 4, 3)] {
            let direct =
                binomial((n - t) as u64, (r - t) as u64) / binomial((n - 1) as u64, (r - 1) as u64);
            let formula = critical_fraction(n, r, t).unwrap();
            assert!(
                (direct - formula).abs() < 1e-12 * direct,
                "N={n} R={r} t={t}: {direct} vs {formula}"
            );
        }
    }

    #[test]
    fn baseline_k2_k3() {
        // N=64, R=8: k2 = 7/63, k3 = 42/(63*62).
        assert!((critical_fraction(64, 8, 2).unwrap() - 7.0 / 63.0).abs() < 1e-15);
        assert!((critical_fraction(64, 8, 3).unwrap() - 42.0 / (63.0 * 62.0)).abs() < 1e-15);
        // k1 = 1 always.
        assert_eq!(critical_fraction(64, 8, 1).unwrap(), 1.0);
    }

    #[test]
    fn critical_fraction_bounds() {
        assert!(critical_fraction(64, 8, 0).is_err());
        assert!(critical_fraction(64, 8, 8).is_err());
        assert!(critical_fraction(4, 8, 2).is_err());
        // Fraction is in (0, 1].
        for t in 1..8 {
            let f = critical_fraction(64, 8, t).unwrap();
            assert!(f > 0.0 && f <= 1.0);
        }
    }

    #[test]
    fn h_params_k1_matches_section_4_3() {
        // §4.3: h_N = d(R−1)·C·HER, h_d = (R−1)·C·HER.
        let c_her = 0.024;
        let h = HParams::new(1, 64, 8, 12, c_her).unwrap();
        assert!((h.get("N").unwrap() - 12.0 * 7.0 * c_her).abs() < 1e-15);
        assert!((h.get("d").unwrap() - 7.0 * c_her).abs() < 1e-15);
    }

    #[test]
    fn h_params_k2_matches_section_5_2_2() {
        let c_her = 0.024;
        let h = HParams::new(2, 64, 8, 12, c_her).unwrap();
        let base = 7.0 * 6.0 / 63.0 * c_her;
        assert!((h.base() - base).abs() < 1e-15);
        assert!((h.get("NN").unwrap() - 12.0 * base).abs() < 1e-15);
        assert!((h.get("Nd").unwrap() - base).abs() < 1e-15);
        assert!((h.get("dN").unwrap() - base).abs() < 1e-15);
        assert!((h.get("dd").unwrap() - base / 12.0).abs() < 1e-15);
    }

    #[test]
    fn h_params_k3_matches_section_5_2_2() {
        let c_her = 0.024;
        let h = HParams::new(3, 64, 8, 12, c_her).unwrap();
        let base = 7.0 * 6.0 * 5.0 / (63.0 * 62.0) * c_her;
        assert!((h.base() - base).abs() < 1e-15);
        assert!((h.get("NNN").unwrap() - 12.0 * base).abs() < 1e-15);
        for w in ["NNd", "NdN", "dNN"] {
            assert!((h.get(w).unwrap() - base).abs() < 1e-15, "{w}");
        }
        for w in ["Ndd", "dNd", "ddN"] {
            assert!((h.get(w).unwrap() - base / 12.0).abs() < 1e-15, "{w}");
        }
        assert!((h.get("ddd").unwrap() - base / 144.0).abs() < 1e-18);
    }

    #[test]
    fn ordered_set_layout() {
        let h = HParams::new(2, 64, 8, 12, 0.024).unwrap();
        let set = h.ordered_set();
        assert_eq!(set.len(), 4);
        // Order: NN, Nd, dN, dd (MSB-first bit encoding, 0=N).
        assert_eq!(set[0], h.get("NN").unwrap());
        assert_eq!(set[1], h.get("Nd").unwrap());
        assert_eq!(set[2], h.get("dN").unwrap());
        assert_eq!(set[3], h.get("dd").unwrap());
        // First half = h_N ∘ h^{(1)}, second = h_d ∘ h^{(1)}.
        assert!(set[0] > set[1]);
        assert!(set[2] > set[3]);
    }

    #[test]
    fn word_validation() {
        let h = HParams::new(2, 64, 8, 12, 0.024).unwrap();
        assert!(h.get("N").is_err());
        assert!(h.get("NX").is_err());
        assert!(h.get("NNN").is_err());
        assert_eq!(h.fault_tolerance(), 2);
    }

    #[test]
    fn constructor_validation() {
        assert!(HParams::new(0, 64, 8, 12, 0.024).is_err());
        assert!(HParams::new(8, 64, 8, 12, 0.024).is_err());
        assert!(HParams::new(2, 4, 8, 12, 0.024).is_err());
        assert!(HParams::new(2, 64, 8, 0, 0.024).is_err());
        assert!(HParams::new(2, 64, 8, 12, 1.5).is_err());
        assert!(HParams::new(2, 64, 8, 12, -0.1).is_err());
        // n <= k rejected.
        assert!(HParams::new(3, 3, 4, 12, 0.024).is_err());
    }

    #[test]
    fn linearization_validity_at_baseline() {
        // The paper's h_α are linearized (expected error counts). At the
        // §6 baseline the k = 1 family overshoots 1 (h_N ≈ 2.016) — the
        // linear model is out of its validity range there — while k = 2, 3
        // stay genuine probabilities.
        let h1 = HParams::new(1, 64, 8, 12, 0.024).unwrap();
        assert!(h1.max_value() > 1.0);
        assert!(!h1.within_linear_validity(1.0));
        for k in 2..=3 {
            let h = HParams::new(k, 64, 8, 12, 0.024).unwrap();
            assert!(h.within_linear_validity(0.5), "k={k}: {}", h.max_value());
            for v in h.ordered_set() {
                assert!((0.0..1.0).contains(&v), "k={k}: {v}");
            }
        }
    }
}
