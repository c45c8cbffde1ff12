//! Monte-Carlo simulation of CTMC trajectories.
//!
//! Used throughout the workspace to cross-validate the analytic solvers:
//! an independent stochastic implementation of the same chain should land
//! within its confidence interval of the GTH answers.

use nsr_rng::Rng;

use crate::builder::StateId;
use crate::ctmc::Ctmc;
use crate::{Error, Result};

/// Outcome of a single simulated run to absorption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsorptionSample {
    /// Total elapsed time until the absorbing state was entered.
    pub time: f64,
    /// The absorbing state that was hit.
    pub absorbed_in: StateId,
    /// Number of jumps taken.
    pub jumps: u64,
}

/// A sample-mean estimate with its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean (`s / √n`).
    pub std_err: f64,
    /// Number of samples.
    pub n: u64,
}

impl Estimate {
    /// Builds an estimate from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Estimate {
        assert!(!samples.is_empty(), "cannot estimate from zero samples");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Estimate {
            mean,
            std_err: (var / n).sqrt(),
            n: samples.len() as u64,
        }
    }

    /// Symmetric 95 % confidence half-width (`1.96 · std_err`).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_err
    }

    /// Whether `value` lies within the estimate's expanded 95 % interval
    /// (`k` standard errors, `k = 1.96` for a plain CI).
    pub fn contains(&self, value: f64, k: f64) -> bool {
        (value - self.mean).abs() <= k * self.std_err
    }

    /// Relative standard error (`std_err / |mean|`); `inf` for a zero mean.
    pub fn rel_err(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.std_err / self.mean.abs()
        }
    }
}

impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.6e} ± {:.2e} (n={})",
            self.mean,
            self.ci95_half_width(),
            self.n
        )
    }
}

/// Draws an `Exp(rate)` variate with inverse-transform sampling.
///
/// A non-positive (or non-finite) rate is a modelling bug in the caller —
/// historically it was only a `debug_assert`, which let release builds
/// silently produce negative or NaN waiting times (and, fed back into a
/// simulation clock, move time backwards). It is now a typed error in every
/// build profile. Callers whose aggregate hazard can legitimately vanish
/// must branch *before* drawing (treat the event as "never happens") so the
/// RNG stream stays aligned with historical seeds on the positive-rate path.
///
/// # Errors
///
/// [`Error::NonPositiveRate`] if `rate` is not strictly positive and finite.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> Result<f64> {
    if !(rate > 0.0 && rate.is_finite()) {
        return Err(Error::NonPositiveRate { rate });
    }
    let u: f64 = rng.random();
    // 1-u is in (0, 1]; ln is finite.
    Ok(-(1.0 - u).ln() / rate)
}

/// Simulates one trajectory from `from` until an absorbing state is hit.
///
/// # Errors
///
/// * [`Error::StateNotTransient`] if `from` is absorbing.
/// * [`Error::InvalidArgument`] if `max_jumps` is exceeded, which signals a
///   chain whose absorbing states are unreachable (or an unrealistically
///   tight cap).
pub fn simulate_to_absorption<R: Rng + ?Sized>(
    ctmc: &Ctmc,
    from: StateId,
    max_jumps: u64,
    rng: &mut R,
) -> Result<AbsorptionSample> {
    if from.index() >= ctmc.len() {
        return Err(Error::UnknownState {
            state: from.index(),
            len: ctmc.len(),
        });
    }
    if ctmc.is_absorbing(from) {
        return Err(Error::StateNotTransient {
            state: from.index(),
        });
    }
    let mut state = from;
    let mut time = 0.0;
    let mut jumps = 0u64;
    while !ctmc.is_absorbing(state) {
        if jumps >= max_jumps {
            return Err(Error::InvalidArgument {
                what: "max_jumps exceeded before absorption",
            });
        }
        let total = ctmc.total_rate(state);
        time += sample_exponential(rng, total)?;
        // Pick the next state proportionally to rates.
        let mut pick = rng.random::<f64>() * total;
        let transitions = ctmc.transitions_from(state);
        let mut next = transitions[transitions.len() - 1].0;
        for &(to, rate) in transitions {
            if pick < rate {
                next = to;
                break;
            }
            pick -= rate;
        }
        state = next;
        jumps += 1;
    }
    Ok(AbsorptionSample {
        time,
        absorbed_in: state,
        jumps,
    })
}

/// Estimates the mean time to absorption from `from` with `n` independent
/// trajectories.
///
/// # Errors
///
/// * [`Error::InvalidArgument`] if `n == 0`.
/// * Propagates per-trajectory errors from [`simulate_to_absorption`].
pub fn estimate_mtta<R: Rng + ?Sized>(
    ctmc: &Ctmc,
    from: StateId,
    n: u64,
    rng: &mut R,
) -> Result<Estimate> {
    if n == 0 {
        return Err(Error::InvalidArgument {
            what: "sample count must be positive",
        });
    }
    let mut samples = Vec::with_capacity(n as usize);
    for _ in 0..n {
        samples.push(simulate_to_absorption(ctmc, from, u64::MAX, rng)?.time);
    }
    Ok(Estimate::from_samples(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbsorbingAnalysis, CtmcBuilder};
    use nsr_rng::rngs::StdRng;
    use nsr_rng::SeedableRng;

    fn absorbing_chain() -> (Ctmc, StateId) {
        let mut b = CtmcBuilder::new();
        let s0 = b.add_state("0");
        let s1 = b.add_state("1");
        let s2 = b.add_state("2");
        b.add_transition(s0, s1, 0.01).unwrap();
        b.add_transition(s1, s0, 1.0).unwrap();
        b.add_transition(s1, s2, 0.02).unwrap();
        (b.build().unwrap(), s0)
    }

    #[test]
    fn exponential_sampling_mean() {
        let mut rng = StdRng::seed_from_u64(42);
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, rate).unwrap())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_rejects_degenerate_rates() {
        let mut rng = StdRng::seed_from_u64(42);
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    sample_exponential(&mut rng, rate),
                    Err(Error::NonPositiveRate { .. })
                ),
                "rate {rate} must be a typed error"
            );
        }
        // The error path must not consume randomness: the next good draw is
        // identical to a fresh stream's first draw.
        let mut fresh = StdRng::seed_from_u64(42);
        assert_eq!(
            sample_exponential(&mut rng, 2.0).unwrap(),
            sample_exponential(&mut fresh, 2.0).unwrap()
        );
    }

    #[test]
    fn simulated_mtta_matches_analysis() {
        let (c, s0) = absorbing_chain();
        let analytic = AbsorbingAnalysis::new(&c)
            .unwrap()
            .mean_time_to_absorption(s0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let est = estimate_mtta(&c, s0, 4000, &mut rng).unwrap();
        assert!(
            est.contains(analytic, 4.0),
            "analytic {analytic} not within 4σ of {est}"
        );
    }

    #[test]
    fn single_trajectory_terminates() {
        let (c, s0) = absorbing_chain();
        let mut rng = StdRng::seed_from_u64(1);
        let s = simulate_to_absorption(&c, s0, u64::MAX, &mut rng).unwrap();
        assert!(s.time > 0.0);
        assert_eq!(c.label(s.absorbed_in), "2");
        assert!(s.jumps >= 2);
    }

    #[test]
    fn jump_cap_enforced() {
        let (c, s0) = absorbing_chain();
        let mut rng = StdRng::seed_from_u64(1);
        // Absorption needs at least 2 jumps; a cap of 1 must error.
        assert!(simulate_to_absorption(&c, s0, 1, &mut rng).is_err());
    }

    #[test]
    fn starting_from_absorbing_rejected() {
        let (c, _) = absorbing_chain();
        let s2 = c.state_by_label("2").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            simulate_to_absorption(&c, s2, u64::MAX, &mut rng).unwrap_err(),
            Error::StateNotTransient { .. }
        ));
    }

    #[test]
    fn estimate_helpers() {
        let e = Estimate::from_samples(&[1.0, 2.0, 3.0]);
        assert!((e.mean - 2.0).abs() < 1e-15);
        assert_eq!(e.n, 3);
        assert!(e.contains(2.0, 1.0));
        assert!(e.rel_err() > 0.0);
        assert!(!format!("{e}").is_empty());
        let single = Estimate::from_samples(&[5.0]);
        assert_eq!(single.std_err, 0.0);
    }

    #[test]
    fn zero_samples_rejected() {
        let (c, s0) = absorbing_chain();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(estimate_mtta(&c, s0, 0, &mut rng).is_err());
    }
}
