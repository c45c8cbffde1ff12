//! System-level discrete-event simulation of a brick storage system.
//!
//! Unlike the Markov models, the simulator uses the *deterministic* rebuild
//! durations of the §5.1 data-movement model, allows repairs to proceed
//! concurrently, and tracks the fail-in-place spare pool. It therefore
//! stress-tests the analytic assumptions (exponential, serialized repairs)
//! as well as the solver: to leading order in `λ/μ` the MTTDL must agree.
//!
//! This module derives the rates and aggregates the samples; each
//! trajectory runs through the engine loop of [`crate::faultinject`] with
//! nothing injected and no horizon.
//!
//! Failure semantics mirror §4:
//!
//! * **No internal RAID**: nodes and individual drives fail; each failure
//!   starts a distributed rebuild. When the number of outstanding failures
//!   reaches the code tolerance `t`, the system is *critical* and the
//!   triggering rebuild suffers an uncorrectable sector error with the
//!   §5.2.2 probability `h_α` (α = the outstanding failure word). One more
//!   failure while critical is a data-loss event.
//! * **Internal RAID**: the node-internal array is collapsed to the §4.2
//!   rates (`λ_D` array failures folded into the node failure rate, `λ_S`
//!   striking while critical, scaled by the §5.2.1 fraction `k_t`).

use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::scope::HParams;
use nsr_core::sweep::parallel_map;
use nsr_core::units::HOURS_PER_YEAR;
use nsr_markov::simulate::Estimate;

use crate::faultinject::{run_seed, Campaign, LossKind};
use crate::{Error, Result};

/// Default cap on processed failure/repair events per data-loss sample.
pub const DEFAULT_EVENT_BUDGET: u64 = 200_000_000;

/// How rebuild durations are drawn — an ablation of the Markov models'
/// exponential-repair assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RepairDistribution {
    /// Deterministic durations from the §5.1 data-movement model (the
    /// physically faithful choice; default).
    #[default]
    Deterministic,
    /// Exponential durations with the same mean (the CTMC assumption).
    /// With this setting the simulator *is* (up to concurrent repairs) the
    /// Markov model, so agreement with the analytic MTTDL tightens.
    Exponential,
}

/// What terminated a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossCause {
    /// More concurrent failures than the erasure code tolerates.
    ExcessFailures,
    /// An uncorrectable sector error during a critical rebuild.
    SectorError,
}

impl std::fmt::Display for LossCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LossCause::ExcessFailures => write!(f, "excess failures"),
            LossCause::SectorError => write!(f, "sector error"),
        }
    }
}

/// One simulated time-to-data-loss observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataLossSample {
    /// Elapsed simulated time, in hours.
    pub time_hours: f64,
    /// What caused the loss.
    pub cause: LossCause,
    /// Number of component failures that occurred along the way.
    pub failure_events: u64,
    /// Fraction of the over-provisioned spare capacity consumed by
    /// fail-in-place losses when the data loss occurred (can exceed 1:
    /// the model keeps running as §3's "spare nodes are added" policy).
    pub spare_consumed: f64,
}

/// Aggregate of many runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// MTTDL estimate (hours).
    pub mttdl: Estimate,
    /// Data-loss events per PB-year implied by the MTTDL estimate.
    pub events_per_pb_year: f64,
    /// Fraction of losses caused by sector errors.
    pub sector_share: f64,
    /// Mean component-failure events per loss.
    pub mean_failures_per_loss: f64,
    /// Mean spare-capacity fraction consumed at loss time.
    pub mean_spare_consumed: f64,
}

/// The engines' plain-field view of one configuration's model point
/// ([`Configuration::model`]): the §4 failure rates, the §5.1 rebuild
/// durations and the §5.2 sector-error model, copied out as plain
/// numbers for the hot loops. [`SystemSim`], the fleet and the
/// ageing simulator each take one, and nothing in this crate derives a
/// model quantity itself.
#[derive(Debug, Clone)]
pub(crate) struct EngineRates {
    pub(crate) t: u32,
    pub(crate) n: u32,
    pub(crate) d: u32,
    pub(crate) lambda_n: f64,
    pub(crate) lambda_d: f64,
    pub(crate) node_rebuild_hours: f64,
    pub(crate) drive_rebuild_hours: f64,
    /// No-IR only: the §5.2.2 sector-error probability family.
    pub(crate) h: Option<HParams>,
    /// IR only: (λ_D, continuous critical sector-error rate per surviving
    /// node = k_t · λ_S).
    pub(crate) ir_rates: Option<(f64, f64)>,
    /// Logical capacity in PB, the events-per-PB-year normalization.
    pub(crate) capacity_pb: f64,
}

impl EngineRates {
    /// The view of `config`'s model point under `params`.
    ///
    /// # Errors
    ///
    /// The validation and feasibility errors of [`Configuration::model`].
    pub(crate) fn of(params: &Params, config: Configuration) -> Result<EngineRates> {
        let point = config.model(params)?;
        let ir_rates = point.array_rates().zip(point.k_t());
        Ok(EngineRates {
            t: config.node_fault_tolerance(),
            n: params.system.node_count,
            d: params.node.drives_per_node,
            lambda_n: point.node_failure_rate.0,
            lambda_d: point.drive_failure_rate.0,
            node_rebuild_hours: point.node_rebuild.duration.0,
            drive_rebuild_hours: point.drive_repair.duration.0,
            h: point.h().copied(),
            ir_rates: ir_rates.map(|(a, k_t)| (a.lambda_array.0, k_t * a.lambda_sector.0)),
            capacity_pb: point.logical_capacity.to_pb(),
        })
    }

    /// The competing hazard rates `(node, drive, sector)` in the state
    /// with the given down-counts. Each rate is clamped at zero: with
    /// `t` close to the node count, node deaths can shrink
    /// `alive_nodes · d` below the *global* down-drive count, and the raw
    /// difference would go negative — a negative rate fed to the
    /// exponential sampler produces a negative waiting time and moves
    /// simulated time backwards.
    pub(crate) fn hazard_rates(
        &self,
        nodes_down: u32,
        drives_down: u32,
        critical: bool,
    ) -> (f64, f64, f64) {
        let is_ir = self.ir_rates.is_some();
        let (lambda_array, critical_sector_rate) = self.ir_rates.unwrap_or((0.0, 0.0));
        let alive_nodes = (self.n as f64 - f64::from(nodes_down)).max(0.0);
        let node_rate = alive_nodes * (self.lambda_n + lambda_array);
        let drive_rate = if is_ir {
            0.0 // internal drive failures are folded into λ_D
        } else {
            (alive_nodes * self.d as f64 - f64::from(drives_down)).max(0.0) * self.lambda_d
        };
        let sector_rate = if is_ir && critical {
            alive_nodes * critical_sector_rate
        } else {
            0.0
        };
        (node_rate, drive_rate, sector_rate)
    }
}

/// The system simulator for one configuration at one parameter point.
///
/// Construction precomputes every derived rate; [`SystemSim::simulate_one`]
/// then runs a single trajectory to data loss through the fault-injection
/// engine ([`crate::faultinject`]) with nothing injected.
#[derive(Debug, Clone)]
pub struct SystemSim {
    pub(crate) params: Params,
    config: Configuration,
    pub(crate) rates: EngineRates,
    pub(crate) event_budget: u64,
    pub(crate) repair: RepairDistribution,
}

impl SystemSim {
    /// Builds a simulator.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation and model-construction errors.
    pub fn new(params: Params, config: Configuration) -> Result<SystemSim> {
        Ok(SystemSim {
            params,
            config,
            rates: EngineRates::of(&params, config)?,
            event_budget: DEFAULT_EVENT_BUDGET,
            repair: RepairDistribution::default(),
        })
    }

    /// Overrides the per-sample event budget (default
    /// [`DEFAULT_EVENT_BUDGET`]).
    pub fn with_event_budget(mut self, events: u64) -> SystemSim {
        self.event_budget = events;
        self
    }

    /// Selects the rebuild-duration distribution (ablation of the Markov
    /// exponential-repair assumption; default deterministic).
    pub fn with_repair_distribution(mut self, repair: RepairDistribution) -> SystemSim {
        self.repair = repair;
        self
    }

    /// The configuration being simulated.
    pub fn config(&self) -> Configuration {
        self.config
    }

    /// Simulates a single trajectory until data loss.
    ///
    /// # Errors
    ///
    /// * [`Error::EventBudgetExhausted`] if no loss occurs within the
    ///   event budget (the configuration is too reliable for direct
    ///   simulation at these parameters).
    /// * [`Error::StalledTrajectory`] if every hazard rate is zero with no
    ///   outstanding repair — the trajectory can never progress
    ///   (historically this panicked on an empty repair list).
    pub fn simulate_one<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<DataLossSample> {
        let run = Campaign::to_loss(self).trajectory(rng, false)?;
        let (time_hours, kind) = run.loss.expect("a run with no horizon ends in loss");
        let spare_total =
            self.params.raw_capacity().0 * (1.0 - self.params.system.capacity_utilization);
        Ok(DataLossSample {
            time_hours,
            cause: match kind {
                LossKind::ExcessFailures => LossCause::ExcessFailures,
                // Nothing is injected, so there is no latent error either.
                LossKind::SectorError | LossKind::LatentError => LossCause::SectorError,
            },
            failure_events: run.natural_failures,
            spare_consumed: run.spare_lost_bytes / spare_total,
        })
    }

    /// Runs `samples` independent trajectories (seeded deterministically)
    /// and aggregates them.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] if `samples == 0`.
    /// * Propagates per-trajectory failures.
    pub fn run(&self, samples: u64, seed: u64) -> Result<SimOutcome> {
        if samples == 0 {
            return Err(Error::InvalidArgument {
                what: "samples must be positive",
            });
        }
        let t0 = nsr_obs::metrics_timer();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut times = Vec::with_capacity(samples as usize);
        let mut sector = 0u64;
        let mut failures = 0u64;
        let mut spare = 0.0;
        for _ in 0..samples {
            let s = self.simulate_one(&mut rng)?;
            times.push(s.time_hours);
            if s.cause == LossCause::SectorError {
                sector += 1;
            }
            failures += s.failure_events;
            spare += s.spare_consumed;
        }
        crate::obs::SAMPLES.add(samples);
        crate::obs::LOSS_SECTOR.add(sector);
        crate::obs::LOSS_EXCESS.add(samples - sector);
        if let Some(t0) = t0 {
            let secs = t0.elapsed().as_secs_f64();
            crate::obs::RUN_SECONDS.observe(secs);
            crate::obs::WORKER_SAMPLES_PER_S.observe(samples as f64 / secs.max(1e-9));
        }
        let mttdl = Estimate::from_samples(&times);
        Ok(self.outcome(mttdl, sector as f64, failures as f64, spare))
    }

    /// Like [`SystemSim::run`], but splits the samples into up to
    /// `threads` chunks ([`SampleSplit`]) and runs them on
    /// [`parallel_map`], one chunk per claim: chunk `i` is
    /// `run(split.chunk(i), run_seed(seed, i))`, and the chunks merge in
    /// index order, so the outcome does not depend on which worker ran
    /// which chunk. Each chunk's `sim.worker` event records under the
    /// caller's open span.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] if `samples == 0` or `threads == 0`.
    /// * Propagates per-trajectory failures.
    pub fn run_parallel(&self, samples: u64, seed: u64, threads: u32) -> Result<SimOutcome> {
        if samples == 0 || threads == 0 {
            return Err(Error::InvalidArgument {
                what: "samples and threads must be positive",
            });
        }
        let split = SampleSplit::new(samples, threads);
        let chunks = split.threads() as usize;
        let (results, _) = parallel_map(
            chunks,
            chunks,
            1,
            || (),
            |(), i| {
                let i = i as u32;
                let r = self.run(split.chunk(i), run_seed(seed, u64::from(i)));
                if let Ok(o) = &r {
                    nsr_obs::trace::event("sim.worker", || {
                        vec![
                            ("worker", nsr_obs::Json::Num(f64::from(i))),
                            ("samples", nsr_obs::Json::Num(o.mttdl.n as f64)),
                        ]
                    });
                }
                r
            },
            |()| (),
        );
        // Merge: reconstruct a pooled estimate from per-chunk summaries.
        let outcomes = results.into_iter().collect::<Result<Vec<SimOutcome>>>()?;
        let total_n: u64 = outcomes.iter().map(|o| o.mttdl.n).sum();
        let pooled = |f: fn(&SimOutcome) -> f64| -> f64 {
            outcomes.iter().map(|o| f(o) * o.mttdl.n as f64).sum()
        };
        // Pooled variance of the mean from per-chunk standard errors
        // (conservative: ignores between-chunk mean spread).
        let var_sum: f64 = outcomes
            .iter()
            .map(|o| {
                (o.mttdl.std_err * o.mttdl.std_err) * (o.mttdl.n as f64 / total_n as f64).powi(2)
            })
            .sum();
        let mttdl = Estimate {
            mean: pooled(|o| o.mttdl.mean) / total_n as f64,
            std_err: var_sum.sqrt(),
            n: total_n,
        };
        Ok(self.outcome(
            mttdl,
            pooled(|o| o.sector_share),
            pooled(|o| o.mean_failures_per_loss),
            pooled(|o| o.mean_spare_consumed),
        ))
    }

    /// The outcome of the `mttdl.n` samples behind `mttdl`, from their
    /// sector-error losses, failure events and spare consumed, summed.
    fn outcome(&self, mttdl: Estimate, sector: f64, failures: f64, spare: f64) -> SimOutcome {
        let n = mttdl.n as f64;
        SimOutcome {
            events_per_pb_year: HOURS_PER_YEAR / (mttdl.mean * self.rates.capacity_pb),
            sector_share: sector / n,
            mean_failures_per_loss: failures / n,
            mean_spare_consumed: spare / n,
            mttdl,
        }
    }

    /// Convenience wrapper returning just the MTTDL estimate.
    ///
    /// # Errors
    ///
    /// See [`SystemSim::run`].
    pub fn estimate_mttdl(&self, samples: u64, seed: u64) -> Result<Estimate> {
        Ok(self.run(samples, seed)?.mttdl)
    }
}

/// How [`SystemSim::run_parallel`] divides `samples` into chunks, one
/// per worker.
///
/// [`SampleSplit::new`] is total over the full `u64 × u32` input domain:
/// the worker count is clamped in `u64` so it is at least 1 and never
/// exceeds `samples`. (An earlier version compared against `samples as
/// u32`, which truncates — any multiple of 2³² samples produced a zero
/// thread count and a divide-by-zero on the next line.) Chunks differ by
/// at most one, are never empty, and always sum to `samples`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSplit {
    threads: u32,
    per: u64,
    extra: u64,
}

impl SampleSplit {
    /// Computes the split. `samples == 0` yields a zero-thread split
    /// (callers reject that case before spawning anything).
    pub fn new(samples: u64, threads: u32) -> SampleSplit {
        if samples == 0 {
            return SampleSplit {
                threads: 0,
                per: 0,
                extra: 0,
            };
        }
        // Clamp in u64: `threads.min(samples as u32)` would truncate
        // `samples` (e.g. `1 << 32` becomes 0).
        let threads = threads.min(samples.min(u64::from(u32::MAX)) as u32).max(1);
        SampleSplit {
            threads,
            per: samples / u64::from(threads),
            extra: samples % u64::from(threads),
        }
    }

    /// Number of worker threads actually used (≤ the requested count).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The sample count of chunk `i` (for `i < threads()`).
    pub fn chunk(&self, i: u32) -> u64 {
        self.per + u64::from(u64::from(i) < self.extra)
    }

    /// Total samples across all chunks; always equals the `samples`
    /// passed to [`SampleSplit::new`].
    pub fn total(&self) -> u64 {
        // `per * threads <= samples`, so this cannot overflow.
        self.per * u64::from(self.threads) + self.extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsr_core::raid::InternalRaid;

    fn config(internal: InternalRaid, t: u32) -> Configuration {
        Configuration::new(internal, t).unwrap()
    }

    #[test]
    fn ft1_no_ir_matches_analytic_to_leading_order() {
        let params = Params::baseline();
        let c = config(InternalRaid::None, 1);
        let sim = SystemSim::new(params, c).unwrap();
        let out = sim.run(2000, 7).unwrap();
        let analytic = c.evaluate(&params).unwrap().exact.mttdl_hours;
        // Deterministic vs exponential repairs differ at O(λ/μ); allow 15 %
        // plus 4σ sampling noise.
        let diff = (out.mttdl.mean - analytic).abs();
        assert!(
            diff < 0.15 * analytic + 4.0 * out.mttdl.std_err,
            "sim {} vs analytic {analytic}",
            out.mttdl
        );
    }

    #[test]
    fn ft1_ir5_matches_analytic_to_leading_order() {
        let mut params = Params::baseline();
        // Degrade MTTFs so the direct simulation terminates quickly.
        params.node.mttf = nsr_core::units::Hours(20_000.0);
        params.drive.mttf = nsr_core::units::Hours(15_000.0);
        let c = config(InternalRaid::Raid5, 1);
        let sim = SystemSim::new(params, c).unwrap();
        let out = sim.run(400, 11).unwrap();
        let analytic = c.evaluate(&params).unwrap().exact.mttdl_hours;
        let diff = (out.mttdl.mean - analytic).abs();
        assert!(
            diff < 0.20 * analytic + 4.0 * out.mttdl.std_err,
            "sim {} vs analytic {analytic}",
            out.mttdl
        );
    }

    #[test]
    fn sector_losses_dominate_ft1_baseline() {
        // At baseline FT1 no-IR, h_d = 0.168 per drive failure and
        // h_N saturates at 1, so most losses should be sector errors.
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 1)).unwrap();
        let out = sim.run(500, 3).unwrap();
        assert!(out.sector_share > 0.5, "sector share {}", out.sector_share);
    }

    #[test]
    fn ft2_takes_longer_than_ft1() {
        let mut params = Params::baseline();
        params.drive.mttf = nsr_core::units::Hours(30_000.0);
        params.node.mttf = nsr_core::units::Hours(40_000.0);
        let sim1 = SystemSim::new(params, config(InternalRaid::None, 1)).unwrap();
        let sim2 = SystemSim::new(params, config(InternalRaid::None, 2)).unwrap();
        let m1 = sim1.estimate_mttdl(300, 5).unwrap();
        let m2 = sim2.estimate_mttdl(300, 5).unwrap();
        assert!(m2.mean > m1.mean, "FT2 {} vs FT1 {}", m2.mean, m1.mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 1)).unwrap();
        let a = sim.run(50, 99).unwrap();
        let b = sim.run(50, 99).unwrap();
        assert_eq!(a.mttdl.mean, b.mttdl.mean);
        let c = sim.run(50, 100).unwrap();
        assert_ne!(a.mttdl.mean, c.mttdl.mean);
    }

    #[test]
    fn parallel_run_agrees_with_serial() {
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 1)).unwrap();
        let serial = sim.run(400, 21).unwrap();
        let parallel = sim.run_parallel(400, 21, 4).unwrap();
        assert_eq!(parallel.mttdl.n, 400);
        // Different RNG streams, so only statistical agreement.
        let diff = (serial.mttdl.mean - parallel.mttdl.mean).abs();
        let sigma = (serial.mttdl.std_err.powi(2) + parallel.mttdl.std_err.powi(2)).sqrt();
        assert!(
            diff < 5.0 * sigma,
            "serial {} vs parallel {}",
            serial.mttdl,
            parallel.mttdl
        );
    }

    #[test]
    fn parallel_run_with_more_threads_than_samples() {
        // Thread count clamps to the sample count; no worker gets an
        // empty chunk.
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 1)).unwrap();
        let out = sim.run_parallel(3, 5, 16).unwrap();
        assert_eq!(out.mttdl.n, 3);
    }

    #[test]
    fn split_handles_samples_beyond_u32() {
        // Regression: `threads.min(samples as u32)` truncated `1 << 32`
        // to 0 threads and divided by zero. The split must now clamp in
        // u64 and hand out 2³² samples across all 8 workers.
        let s = SampleSplit::new(1u64 << 32, 8);
        assert_eq!(s.threads(), 8);
        assert_eq!(s.total(), 1u64 << 32);
        let sum: u64 = (0..s.threads()).map(|i| s.chunk(i)).sum();
        assert_eq!(sum, 1u64 << 32);
        assert!((0..s.threads()).all(|i| s.chunk(i) > 0));
    }

    #[test]
    fn split_is_total_over_extreme_inputs() {
        let samples = [
            0u64,
            1,
            2,
            3,
            100,
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            1u64 << 32,
            (1u64 << 32) + 1,
            3u64 << 32,
            u64::MAX - 1,
            u64::MAX,
        ];
        let threads = [0u32, 1, 2, 7, 64, 1000, u32::MAX - 1, u32::MAX];
        for &n in &samples {
            for &t in &threads {
                let s = SampleSplit::new(n, t);
                if n == 0 {
                    assert_eq!(s.threads(), 0, "samples=0 threads={t}");
                    assert_eq!(s.total(), 0);
                    continue;
                }
                assert!(s.threads() >= 1, "samples={n} threads={t}");
                assert!(u64::from(s.threads()) <= n.min(u64::from(u32::MAX)));
                assert_eq!(s.total(), n, "samples={n} threads={t}");
                // Chunks differ by at most one, first >= last, and none
                // is empty (chunks are non-increasing in i).
                let first = s.chunk(0);
                let last = s.chunk(s.threads() - 1);
                assert!(first >= last && first - last <= 1);
                assert!(last >= 1, "samples={n} threads={t}: empty chunk");
            }
        }
    }

    #[test]
    fn event_budget_enforced() {
        // Ultra-reliable config + tiny budget → budget error.
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::Raid5, 3))
            .unwrap()
            .with_event_budget(1000);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            sim.simulate_one(&mut rng).unwrap_err(),
            Error::EventBudgetExhausted { .. }
        ));
    }

    #[test]
    fn zero_samples_rejected() {
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 1)).unwrap();
        assert!(sim.run(0, 1).is_err());
        assert!(sim.run_parallel(0, 1, 2).is_err());
        assert!(sim.run_parallel(10, 1, 0).is_err());
    }

    #[test]
    fn repair_distribution_ablation() {
        // With exponential repairs the simulator realizes the CTMC's
        // assumption; both modes must land near the analytic value, and
        // the exponential mode's deviation should be explained purely by
        // sampling noise.
        let params = Params::baseline();
        let c = config(InternalRaid::None, 1);
        let analytic = c.evaluate(&params).unwrap().exact.mttdl_hours;
        let det = SystemSim::new(params, c)
            .unwrap()
            .run(2500, 5)
            .unwrap()
            .mttdl;
        let exp = SystemSim::new(params, c)
            .unwrap()
            .with_repair_distribution(RepairDistribution::Exponential)
            .run(2500, 5)
            .unwrap()
            .mttdl;
        assert!(
            (exp.mean - analytic).abs() < 0.08 * analytic + 4.0 * exp.std_err,
            "exponential mode {} vs analytic {analytic:.4e}",
            exp
        );
        assert!(
            (det.mean - analytic).abs() < 0.15 * analytic + 4.0 * det.std_err,
            "deterministic mode {} vs analytic {analytic:.4e}",
            det
        );
    }

    #[test]
    fn hazard_rates_never_negative() {
        // Regression: with enough nodes down, `alive_nodes · d` falls
        // below the global down-drive count and the raw drive-rate
        // difference goes negative. At baseline (n=64, d=12): 60 node
        // deaths leave 4·12 = 48 drive slots against 700 down drives —
        // the unclamped rate was (48 − 700)·λ_d < 0, and fed to the
        // exponential sampler it produced a *negative* waiting time,
        // moving simulated time backwards.
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 1)).unwrap();
        let (node_rate, drive_rate, sector_rate) = sim.rates.hazard_rates(60, 700, false);
        assert_eq!(drive_rate, 0.0, "negative drive rate must clamp to zero");
        assert!(node_rate >= 0.0 && sector_rate >= 0.0);
        // Even with every node down, nothing goes negative.
        let (nr, dr, sr) = sim.rates.hazard_rates(64, 1000, true);
        assert!(nr == 0.0 && dr == 0.0 && sr == 0.0);
        // Sane states still produce strictly positive hazards.
        let (nr, dr, _) = sim.rates.hazard_rates(1, 2, false);
        assert!(nr > 0.0 && dr > 0.0);
    }

    #[test]
    fn vanished_hazards_are_typed_error_not_panic() {
        // Regression: with all failure rates zero and nothing outstanding,
        // total_rate == 0 produced an infinite waiting time, the loop took
        // the completion branch (`now + inf >= inf`), and panicked on
        // `expect("completion exists")` against the empty repair list. It
        // must now be a typed error that consumes no randomness.
        let mut sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 1)).unwrap();
        sim.rates.lambda_n = 0.0;
        sim.rates.lambda_d = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            sim.simulate_one(&mut rng).unwrap_err(),
            Error::StalledTrajectory { .. }
        ));
        let mut fresh = StdRng::seed_from_u64(3);
        assert_eq!(rng.next_u64(), fresh.next_u64(), "stall must not draw");
    }

    #[test]
    fn spare_consumption_reported() {
        let sim = SystemSim::new(Params::baseline(), config(InternalRaid::None, 2)).unwrap();
        let out = sim.run(30, 13).unwrap();
        // FT2 baseline survives tens of thousands of component failures;
        // the 25 % spare pool is long exhausted by loss time.
        assert!(out.mean_spare_consumed > 1.0, "{}", out.mean_spare_consumed);
        assert!(out.mean_failures_per_loss > 1000.0);
    }
}
