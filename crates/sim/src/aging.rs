//! Non-Markovian failure ablation: per-entity ages and Weibull lifetimes.
//!
//! Every model in the paper assumes exponential (memoryless) component
//! lifetimes; §8 itself flags the weakness ("drive MTTF can vary
//! significantly between batches"). This simulator drops the assumption:
//! each node and drive carries its own age, lifetimes are drawn from a
//! configurable distribution (exponential, or Weibull with shape `k` —
//! `k < 1` infant mortality, `k > 1` wear-out), and failed entities are
//! replaced by fresh ones after their §5.1 rebuild completes.
//!
//! With the shape parameter at 1 the simulator reduces to the exponential
//! case and must agree with [`crate::system::SystemSim`] and the analytic
//! chains — that is the validation hook. Away from 1 it *quantifies* the
//! Markov assumption's error, something the paper could only caveat.
//!
//! Only the no-internal-RAID configurations are supported (drive and node
//! lifetimes are both explicit here; the hierarchical internal-RAID
//! collapse is inherently Markovian).

use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_markov::simulate::Estimate;

use crate::fleet::EventQueue;
use crate::system::EngineRates;
use crate::{Error, Result};

/// Component-lifetime distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifetime {
    /// Exponential with the given MTTF — the paper's assumption.
    Exponential {
        /// Mean time to failure, hours.
        mttf: f64,
    },
    /// Weibull with the given MTTF and shape (`shape < 1`: infant
    /// mortality, `shape > 1`: wear-out). The scale is derived so the
    /// mean equals `mttf`.
    Weibull {
        /// Mean time to failure, hours.
        mttf: f64,
        /// Shape parameter `k > 0`.
        shape: f64,
    },
}

impl Lifetime {
    fn validate(&self) -> Result<()> {
        let ok = match *self {
            Lifetime::Exponential { mttf } => mttf > 0.0 && mttf.is_finite(),
            Lifetime::Weibull { mttf, shape } => {
                mttf > 0.0 && mttf.is_finite() && shape > 0.0 && shape.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidArgument {
                what: "lifetime parameters must be positive",
            })
        }
    }

    /// Draws a fresh lifetime.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let e = -(1.0 - u).ln(); // Exp(1)
        match *self {
            Lifetime::Exponential { mttf } => mttf * e,
            Lifetime::Weibull { mttf, shape } => {
                // scale λ so that mean = λ·Γ(1+1/k) = mttf.
                let scale = mttf / gamma(1.0 + 1.0 / shape);
                scale * e.powf(1.0 / shape)
            }
        }
    }
}

/// Lanczos approximation of Γ(x) for x > 0 (|rel err| < 1e-10 — ample for
/// Weibull mean-matching).
#[allow(clippy::excessive_precision)]
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection for completeness.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// One ageing-simulation event on entity `.0` — node `v` is entity `v`,
/// drive `j` of node `v` is `n + v·d + j` — scheduled against the
/// entity's generation `.1`, so a later generation makes it stale.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Fail(usize, u64),
    Repaired(usize, u64),
}

/// Ageing discrete-event simulator for no-internal-RAID configurations.
///
/// # Example
///
/// ```
/// use nsr_core::config::Configuration;
/// use nsr_core::params::Params;
/// use nsr_core::raid::InternalRaid;
/// use nsr_sim::aging::{AgingSim, Lifetime};
///
/// # fn main() -> Result<(), nsr_sim::Error> {
/// let config = Configuration::new(InternalRaid::None, 1)
///     .map_err(nsr_sim::Error::Model)?;
/// let sim = AgingSim::new(
///     Params::baseline(),
///     config,
///     Lifetime::Weibull { mttf: 300_000.0, shape: 1.5 }, // wear-out drives
///     Lifetime::Exponential { mttf: 400_000.0 },
/// )?;
/// let est = sim.estimate_mttdl(100, 7)?;
/// assert!(est.mean > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AgingSim {
    rates: EngineRates,
    drive_lifetime: Lifetime,
    node_lifetime: Lifetime,
    max_events: u64,
}

impl AgingSim {
    /// Builds the simulator.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] for internal-RAID configurations (the
    ///   hierarchical collapse is only meaningful under Markov
    ///   assumptions) or invalid lifetimes.
    /// * Model errors from parameter validation.
    pub fn new(
        params: Params,
        config: Configuration,
        drive_lifetime: Lifetime,
        node_lifetime: Lifetime,
    ) -> Result<AgingSim> {
        if config.internal() != InternalRaid::None {
            return Err(Error::InvalidArgument {
                what: "aging simulation supports no-internal-RAID configurations only",
            });
        }
        let rates = EngineRates::of(&params, config)?;
        drive_lifetime.validate()?;
        node_lifetime.validate()?;
        Ok(AgingSim {
            rates,
            drive_lifetime,
            node_lifetime,
            max_events: 500_000_000,
        })
    }

    /// Simulates one trajectory to data loss; returns the loss time in
    /// hours.
    ///
    /// # Errors
    ///
    /// * [`Error::EventBudgetExhausted`] if no loss occurs within the
    ///   event budget.
    /// * [`Error::NonFiniteEventTime`] if a lifetime draw overflows (e.g.
    ///   an MTTF near `f64::MAX`): such an event would never fire.
    pub fn simulate_one<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<f64> {
        let EngineRates {
            t,
            node_rebuild_hours,
            drive_rebuild_hours,
            ref h,
            ..
        } = self.rates;
        let h = h.as_ref().expect("`new` admits only no-IR configurations");
        let (n, d) = (self.rates.n as usize, self.rates.d as usize);
        let drives_of = |node: usize| n + node * d..n + (node + 1) * d;
        let mut gen = vec![0u64; n + n * d];
        let mut down = vec![false; n + n * d];
        let (mut nodes_down, mut drives_down) = (0u32, 0u32);

        let mut queue = EventQueue::<Ev>::new();
        for v in 0..n {
            queue.push(self.node_lifetime.sample(rng), Ev::Fail(v, 0))?;
            for i in drives_of(v) {
                queue.push(self.drive_lifetime.sample(rng), Ev::Fail(i, 0))?;
            }
        }

        for _ in 0..self.max_events {
            let Some((time, ev)) = queue.pop() else {
                return Err(Error::InvalidArgument {
                    what: "event queue drained",
                });
            };
            match ev {
                Ev::Fail(i, g) => {
                    let node = if i < n { i } else { (i - n) / d };
                    // Stale, or a drive inside a failed node.
                    if g != gen[i] || down[i] || down[node] {
                        continue;
                    }
                    down[i] = true;
                    if i < n {
                        // Drives inside a failed node can no longer fail
                        // independently; bump their generations.
                        for j in drives_of(i) {
                            if !down[j] {
                                gen[j] += 1;
                            }
                        }
                        nodes_down += 1;
                    } else {
                        drives_down += 1;
                    }
                    // More failures than the code tolerates, or the one
                    // that made the system critical hits a sector error.
                    let total = nodes_down + drives_down;
                    if total > t
                        || (total == t
                            && rng.random::<f64>() < h.by_drive_count(drives_down).min(1.0))
                    {
                        return Ok(time);
                    }
                    gen[i] += 1;
                    let rebuild = if i < n {
                        node_rebuild_hours
                    } else {
                        drive_rebuild_hours
                    };
                    queue.push(time + rebuild, Ev::Repaired(i, gen[i]))?;
                }
                Ev::Repaired(i, g) => {
                    if g != gen[i] {
                        continue;
                    }
                    down[i] = false;
                    gen[i] += 1;
                    if i < n {
                        nodes_down -= 1;
                        // Fresh node and fresh drives.
                        queue.push(time + self.node_lifetime.sample(rng), Ev::Fail(i, gen[i]))?;
                        for j in drives_of(i) {
                            down[j] = false;
                            gen[j] += 1;
                            let lifetime = self.drive_lifetime.sample(rng);
                            queue.push(time + lifetime, Ev::Fail(j, gen[j]))?;
                        }
                    } else {
                        drives_down -= 1;
                        let lifetime = self.drive_lifetime.sample(rng);
                        queue.push(time + lifetime, Ev::Fail(i, gen[i]))?;
                    }
                }
            }
        }
        Err(Error::EventBudgetExhausted {
            events: self.max_events,
        })
    }

    /// Estimates the MTTDL over `samples` seeded trajectories.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] if `samples == 0`.
    /// * Propagates per-trajectory failures.
    pub fn estimate_mttdl(&self, samples: u64, seed: u64) -> Result<Estimate> {
        if samples == 0 {
            return Err(Error::InvalidArgument {
                what: "samples must be positive",
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut times = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            times.push(self.simulate_one(&mut rng)?);
        }
        Ok(Estimate::from_samples(&times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_sim(drive: Lifetime, node: Lifetime) -> AgingSim {
        let config = Configuration::new(InternalRaid::None, 1).unwrap();
        AgingSim::new(Params::baseline(), config, drive, node).unwrap()
    }

    #[test]
    fn gamma_function_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
        // Weibull mean factor at shape 2: Γ(1.5) = √π/2.
        assert!((gamma(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn weibull_sampling_mean_matches_mttf() {
        let mut rng = StdRng::seed_from_u64(9);
        for shape in [0.7, 1.0, 1.5, 3.0] {
            let lt = Lifetime::Weibull {
                mttf: 1000.0,
                shape,
            };
            let n = 40_000;
            let mean: f64 = (0..n).map(|_| lt.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!((mean - 1000.0).abs() < 25.0, "shape {shape}: mean {mean}");
        }
    }

    #[test]
    fn exponential_mode_matches_markov_simulator() {
        // shape-free exponential lifetimes: the aging simulator must agree
        // with the analytic chain (within sampling + modeling tolerance).
        let params = Params::baseline();
        let config = Configuration::new(InternalRaid::None, 1).unwrap();
        let sim = baseline_sim(
            Lifetime::Exponential { mttf: 300_000.0 },
            Lifetime::Exponential { mttf: 400_000.0 },
        );
        let est = sim.estimate_mttdl(1500, 21).unwrap();
        let analytic = config.evaluate(&params).unwrap().exact.mttdl_hours;
        assert!(
            (est.mean - analytic).abs() < 0.15 * analytic + 4.0 * est.std_err,
            "aging-exp {est} vs analytic {analytic:.4e}"
        );
    }

    #[test]
    fn weibull_shape_one_equals_exponential() {
        let exp = baseline_sim(
            Lifetime::Exponential { mttf: 300_000.0 },
            Lifetime::Exponential { mttf: 400_000.0 },
        )
        .estimate_mttdl(800, 3)
        .unwrap();
        let weib = baseline_sim(
            Lifetime::Weibull {
                mttf: 300_000.0,
                shape: 1.0,
            },
            Lifetime::Weibull {
                mttf: 400_000.0,
                shape: 1.0,
            },
        )
        .estimate_mttdl(800, 4)
        .unwrap();
        let sigma = (exp.std_err.powi(2) + weib.std_err.powi(2)).sqrt();
        assert!(
            (exp.mean - weib.mean).abs() < 5.0 * sigma,
            "exp {exp} vs weibull(1) {weib}"
        );
    }

    #[test]
    fn infant_mortality_hurts_early_reliability() {
        // Same MTTF, shape 0.7: a burst of early failures (and a heavy
        // lifetime tail) concentrates coincidences — MTTDL drops relative
        // to the exponential fleet.
        let exp = baseline_sim(
            Lifetime::Exponential { mttf: 300_000.0 },
            Lifetime::Exponential { mttf: 400_000.0 },
        )
        .estimate_mttdl(800, 11)
        .unwrap();
        let infant = baseline_sim(
            Lifetime::Weibull {
                mttf: 300_000.0,
                shape: 0.7,
            },
            Lifetime::Exponential { mttf: 400_000.0 },
        )
        .estimate_mttdl(800, 12)
        .unwrap();
        assert!(
            infant.mean < exp.mean,
            "infant-mortality {} should undercut exponential {}",
            infant.mean,
            exp.mean
        );
    }

    #[test]
    fn rejects_internal_raid_and_bad_lifetimes() {
        let params = Params::baseline();
        let ir = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        assert!(AgingSim::new(
            params,
            ir,
            Lifetime::Exponential { mttf: 1.0 },
            Lifetime::Exponential { mttf: 1.0 }
        )
        .is_err());
        let nir = Configuration::new(InternalRaid::None, 1).unwrap();
        assert!(AgingSim::new(
            params,
            nir,
            Lifetime::Exponential { mttf: 0.0 },
            Lifetime::Exponential { mttf: 1.0 }
        )
        .is_err());
        assert!(AgingSim::new(
            params,
            nir,
            Lifetime::Weibull {
                mttf: 1.0,
                shape: 0.0
            },
            Lifetime::Exponential { mttf: 1.0 }
        )
        .is_err());
        let sim = baseline_sim(
            Lifetime::Exponential { mttf: 300_000.0 },
            Lifetime::Exponential { mttf: 400_000.0 },
        );
        assert!(sim.estimate_mttdl(0, 1).is_err());
    }

    #[test]
    fn non_finite_event_times_are_rejected() {
        // Regression: an MTTF near f64::MAX passes validation (positive,
        // finite) but `mttf · Exp(1)` overflows to +∞ for any draw with
        // Exp(1) > 1.8 — which the initial fleet seeding hits almost
        // surely. Such a timestamp used to be pushed into the event
        // queue, where total_cmp sorts it past every finite time and the
        // entity silently never fails again. It must now surface as a
        // typed error the moment it is scheduled.
        let sim = baseline_sim(
            Lifetime::Exponential { mttf: 1e308 },
            Lifetime::Exponential { mttf: 400_000.0 },
        );
        let mut rng = StdRng::seed_from_u64(42);
        let err = sim.simulate_one(&mut rng).unwrap_err();
        assert!(
            matches!(err, Error::NonFiniteEventTime { time } if time.is_infinite()),
            "expected NonFiniteEventTime, got {err}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = baseline_sim(
            Lifetime::Weibull {
                mttf: 300_000.0,
                shape: 2.0,
            },
            Lifetime::Exponential { mttf: 400_000.0 },
        );
        let a = sim.estimate_mttdl(50, 77).unwrap();
        let b = sim.estimate_mttdl(50, 77).unwrap();
        assert_eq!(a.mean, b.mean);
    }
}
