//! Deterministic, seedable fault injection for the system simulator.
//!
//! The analytic models and the plain simulator both assume *well-behaved*
//! failure processes: independent exponential arrivals, full rebuild
//! bandwidth, no adversarial timing. Real durability incidents are
//! dominated by exactly the opposite — correlated failure bursts,
//! mid-rebuild interruptions, and bandwidth collapse. This module holds
//! the aggregate model's **one competing-hazards loop** and drives it
//! through those regimes; [`SystemSim::simulate_one`] is the same loop
//! with nothing injected:
//!
//! * **[`FaultPlan`]** — a declarative plan of *scheduled* injections
//!   (a node crash at hour 100), *stochastic* injections (latent sector
//!   errors as a Poisson process), *correlated bursts* (k node crashes a
//!   few minutes apart), and *bandwidth windows* (rebuilds slowed by a
//!   factor, or fully partitioned so no rebuild makes progress).
//! * **[`Campaign`]** — runs a plan against a [`SystemSim`] and reports
//!   survival, degraded-time fraction, loss cause, and the full
//!   [`EventTrace`].
//!
//! # Replay determinism
//!
//! Every random draw comes from one in-repo seeded generator
//! ([`nsr_rng::rngs::StdRng`]), and every scheduled event is ordered with
//! a total, tie-broken comparison. The guarantee is exact: **the same
//! plan and the same seed produce a byte-identical rendered event
//! trace** — on any machine, forever. Integration tests assert this
//! byte-for-byte, and the `nsr inject` CLI prints the seed of every run
//! so any observed trajectory can be replayed.

use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

use nsr_markov::simulate::sample_exponential;

use crate::system::{RepairDistribution, SystemSim};
use crate::{Error, Result};

/// What a single injection does to the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// An entire node crashes (all its drives become unavailable).
    NodeCrash,
    /// A single drive fails.
    DriveFailure,
    /// A latent sector error appears on an otherwise healthy redundancy
    /// stripe. It is silently carried until either a rebuild/scrub repairs
    /// it, or the stripe goes critical while the error is live — which is
    /// a data-loss event.
    LatentSectorError,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::NodeCrash => write!(f, "node-crash"),
            FaultKind::DriveFailure => write!(f, "drive-failure"),
            FaultKind::LatentSectorError => write!(f, "latent-sector-error"),
        }
    }
}

/// One clause of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// Inject `kind` once, at an absolute simulation time.
    At {
        /// Injection time, hours from campaign start.
        time_hours: f64,
        /// What to inject.
        kind: FaultKind,
    },
    /// Inject `kind` as a Poisson process with the given rate.
    Poisson {
        /// Expected injections per hour.
        rate_per_hour: f64,
        /// What to inject.
        kind: FaultKind,
    },
    /// A correlated burst: `count` node crashes starting at `time_hours`,
    /// spaced `spacing_hours` apart (batch-correlated failures, the regime
    /// the i.i.d. models cannot see).
    Burst {
        /// Start of the burst, hours from campaign start.
        time_hours: f64,
        /// Number of node crashes in the burst.
        count: u32,
        /// Gap between consecutive crashes, in hours.
        spacing_hours: f64,
    },
    /// Rebuild bandwidth is multiplied by `factor` during
    /// `[start_hours, end_hours)`. `factor = 0` models a network
    /// partition: rebuilds make no progress until the window closes.
    /// Overlapping windows compose by taking the most degraded factor.
    Bandwidth {
        /// Window start, hours from campaign start.
        start_hours: f64,
        /// Window end, hours from campaign start.
        end_hours: f64,
        /// Bandwidth multiplier in `[0, 1]`.
        factor: f64,
    },
}

/// A validated, immutable fault-injection plan.
///
/// Build one with [`FaultPlan::builder`], or pick a named scenario with
/// [`FaultPlan::named`]. Plans are pure data: running the same plan with
/// the same seed replays the identical campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    clauses: Vec<Clause>,
    horizon_hours: f64,
}

/// Builder for [`FaultPlan`]; validation happens at [`Builder::build`].
#[derive(Debug, Clone, Default)]
pub struct Builder {
    clauses: Vec<Clause>,
    horizon_hours: Option<f64>,
}

impl Builder {
    /// Schedules a one-shot injection at an absolute time.
    pub fn at(mut self, time_hours: f64, kind: FaultKind) -> Builder {
        self.clauses.push(Clause::At { time_hours, kind });
        self
    }

    /// Adds a stochastic (Poisson) injection stream.
    pub fn poisson(mut self, rate_per_hour: f64, kind: FaultKind) -> Builder {
        self.clauses.push(Clause::Poisson {
            rate_per_hour,
            kind,
        });
        self
    }

    /// Schedules a correlated burst of node crashes.
    pub fn burst(mut self, time_hours: f64, count: u32, spacing_hours: f64) -> Builder {
        self.clauses.push(Clause::Burst {
            time_hours,
            count,
            spacing_hours,
        });
        self
    }

    /// Adds a bandwidth-degradation (or, with `factor = 0`, partition)
    /// window.
    pub fn bandwidth(mut self, start_hours: f64, end_hours: f64, factor: f64) -> Builder {
        self.clauses.push(Clause::Bandwidth {
            start_hours,
            end_hours,
            factor,
        });
        self
    }

    /// Sets the campaign horizon (hours of simulated time to survive).
    pub fn horizon_hours(mut self, hours: f64) -> Builder {
        self.horizon_hours = Some(hours);
        self
    }

    /// Validates and freezes the plan.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] on non-finite or negative times/rates,
    /// bandwidth factors outside `[0, 1]`, empty windows or bursts, or a
    /// missing/non-positive horizon.
    pub fn build(self) -> Result<FaultPlan> {
        let horizon = self.horizon_hours.ok_or(Error::InvalidArgument {
            what: "fault plan requires a positive horizon_hours",
        })?;
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(Error::InvalidArgument {
                what: "fault plan horizon must be positive and finite",
            });
        }
        for c in &self.clauses {
            match *c {
                Clause::At { time_hours, .. } => {
                    if !time_hours.is_finite() || time_hours < 0.0 {
                        return Err(Error::InvalidArgument {
                            what: "scheduled injection time must be non-negative and finite",
                        });
                    }
                }
                Clause::Poisson { rate_per_hour, .. } => {
                    if !rate_per_hour.is_finite() || rate_per_hour < 0.0 {
                        return Err(Error::InvalidArgument {
                            what: "poisson injection rate must be non-negative and finite",
                        });
                    }
                }
                Clause::Burst {
                    time_hours,
                    count,
                    spacing_hours,
                } => {
                    if !time_hours.is_finite() || time_hours < 0.0 {
                        return Err(Error::InvalidArgument {
                            what: "burst start time must be non-negative and finite",
                        });
                    }
                    if count == 0 {
                        return Err(Error::InvalidArgument {
                            what: "burst must contain at least one crash",
                        });
                    }
                    if !spacing_hours.is_finite() || spacing_hours < 0.0 {
                        return Err(Error::InvalidArgument {
                            what: "burst spacing must be non-negative and finite",
                        });
                    }
                }
                Clause::Bandwidth {
                    start_hours,
                    end_hours,
                    factor,
                } => {
                    if !start_hours.is_finite()
                        || !end_hours.is_finite()
                        || start_hours < 0.0
                        || end_hours <= start_hours
                    {
                        return Err(Error::InvalidArgument {
                            what: "bandwidth window must satisfy 0 <= start < end, finite",
                        });
                    }
                    if !(0.0..=1.0).contains(&factor) {
                        return Err(Error::InvalidArgument {
                            what: "bandwidth factor must lie in [0, 1]",
                        });
                    }
                }
            }
        }
        Ok(FaultPlan {
            clauses: self.clauses,
            horizon_hours: horizon,
        })
    }
}

impl FaultPlan {
    /// Starts an empty plan.
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// The campaign horizon in hours.
    pub fn horizon_hours(&self) -> f64 {
        self.horizon_hours
    }

    /// The plan's clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// A plan with **no injections at all**: failures arrive purely
    /// through the engine's natural exponential hazards. MTTDL estimated
    /// under this plan must agree with the analytic CTMC prediction — the
    /// cross-check the acceptance tests pin down.
    pub fn pure_exponential(horizon_hours: f64) -> Result<FaultPlan> {
        FaultPlan::builder().horizon_hours(horizon_hours).build()
    }

    /// Named scenarios for the `nsr inject` CLI. `names()` lists them.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] for an unknown name.
    pub fn named(name: &str) -> Result<FaultPlan> {
        let year = nsr_core::units::HOURS_PER_YEAR;
        match name {
            // Nothing injected: the natural exponential process only.
            "exponential" => FaultPlan::pure_exponential(5.0 * year),
            // A correlated rack-power event: three node crashes, 6 minutes
            // apart, during prime time of year two.
            "burst" => FaultPlan::builder()
                .horizon_hours(5.0 * year)
                .burst(1.6 * year, 3, 0.1)
                .build(),
            // A day-long network partition every year, plus a month at
            // half bandwidth after the third one.
            "partition" => FaultPlan::builder()
                .horizon_hours(5.0 * year)
                .bandwidth(1.0 * year, 1.0 * year + 24.0, 0.0)
                .bandwidth(2.0 * year, 2.0 * year + 24.0, 0.0)
                .bandwidth(3.0 * year, 3.0 * year + 24.0 * 30.0, 0.5)
                .build(),
            // Latent sector errors surfacing at one per two months.
            "latent" => FaultPlan::builder()
                .horizon_hours(5.0 * year)
                .poisson(1.0 / (2.0 * 730.0), FaultKind::LatentSectorError)
                .build(),
            // Everything at once: a brownout (20 % bandwidth) with a
            // burst in the middle of it and an elevated drive-failure
            // stream throughout.
            "brownout" => FaultPlan::builder()
                .horizon_hours(5.0 * year)
                .bandwidth(0.9 * year, 1.1 * year, 0.2)
                .burst(1.0 * year, 2, 0.05)
                .poisson(1.0 / 2000.0, FaultKind::DriveFailure)
                .build(),
            _ => Err(Error::InvalidArgument {
                what: "unknown plan name (expected one of: exponential, burst, \
                       partition, latent, brownout)",
            }),
        }
    }

    /// The names accepted by [`FaultPlan::named`].
    pub fn names() -> &'static [&'static str] {
        &["exponential", "burst", "partition", "latent", "brownout"]
    }

    /// Scheduled one-shot injections (At + expanded Bursts), sorted by
    /// time with stable clause-order tie-breaking.
    ///
    /// Public so live harnesses can drive real side effects from the
    /// same plan the simulator replays: `nsr-net`'s cluster-inject
    /// campaign maps each entry to a kill-9 of a brick child process,
    /// scaling plan hours onto a wall-clock axis.
    pub fn scheduled_injections(&self) -> Vec<(f64, FaultKind)> {
        let mut out: Vec<(f64, FaultKind)> = Vec::new();
        for c in &self.clauses {
            match *c {
                Clause::At { time_hours, kind } => out.push((time_hours, kind)),
                Clause::Burst {
                    time_hours,
                    count,
                    spacing_hours,
                } => {
                    for i in 0..count {
                        out.push((time_hours + i as f64 * spacing_hours, FaultKind::NodeCrash));
                    }
                }
                Clause::Poisson { .. } | Clause::Bandwidth { .. } => {}
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Poisson streams as (rate, kind), in clause order (the draw order is
    /// part of the replay contract).
    fn poisson_streams(&self) -> Vec<(f64, FaultKind)> {
        self.clauses
            .iter()
            .filter_map(|c| match *c {
                Clause::Poisson {
                    rate_per_hour,
                    kind,
                } if rate_per_hour > 0.0 => Some((rate_per_hour, kind)),
                _ => None,
            })
            .collect()
    }

    fn bandwidth_windows(&self) -> Vec<(f64, f64, f64)> {
        self.clauses
            .iter()
            .filter_map(|c| match *c {
                Clause::Bandwidth {
                    start_hours,
                    end_hours,
                    factor,
                } => Some((start_hours, end_hours, factor)),
                _ => None,
            })
            .collect()
    }
}

/// Piecewise-constant rebuild-bandwidth profile derived from a plan's
/// [`Clause::Bandwidth`] windows.
#[derive(Debug, Clone, Default)]
struct BandwidthProfile {
    /// (start, end, factor); overlaps compose by minimum factor.
    windows: Vec<(f64, f64, f64)>,
    /// All window boundaries, sorted ascending, deduplicated.
    boundaries: Vec<f64>,
}

impl BandwidthProfile {
    fn new(windows: Vec<(f64, f64, f64)>) -> BandwidthProfile {
        let mut boundaries: Vec<f64> = windows.iter().flat_map(|&(s, e, _)| [s, e]).collect();
        boundaries.sort_by(f64::total_cmp);
        boundaries.dedup();
        BandwidthProfile {
            windows,
            boundaries,
        }
    }

    /// Effective bandwidth factor at time `t` (most-degraded window wins).
    fn factor_at(&self, t: f64) -> f64 {
        self.windows
            .iter()
            .filter(|&&(s, e, _)| s <= t && t < e)
            .map(|&(_, _, f)| f)
            .fold(1.0, f64::min)
    }

    /// First window boundary strictly after `t`, if any.
    fn next_boundary_after(&self, t: f64) -> Option<f64> {
        self.boundaries.iter().copied().find(|&b| b > t)
    }

    /// When does a rebuild needing `work` full-bandwidth hours, started at
    /// `start`, complete? Returns `f64::INFINITY` if the tail of the
    /// profile is a permanent partition. Inlined, like
    /// [`BandwidthProfile::degraded_overlap`], so that a profile with no
    /// window — the sweep's own answer, `start + work / 1.0` — costs the
    /// engine loop one test.
    #[inline]
    fn completion_time(&self, start: f64, work: f64) -> f64 {
        if self.windows.is_empty() {
            return start + work;
        }
        let mut t = start;
        let mut remaining = work;
        loop {
            let f = self.factor_at(t);
            match self.next_boundary_after(t) {
                Some(b) => {
                    if f > 0.0 {
                        let capacity = (b - t) * f;
                        if capacity >= remaining {
                            return t + remaining / f;
                        }
                        remaining -= capacity;
                    }
                    t = b;
                }
                None => {
                    if f > 0.0 {
                        return t + remaining / f;
                    }
                    return f64::INFINITY;
                }
            }
        }
    }

    /// Total overlap of `[a, b)` with degraded (factor < 1) time, summed
    /// segment by segment without allocating.
    #[inline]
    fn degraded_overlap(&self, a: f64, b: f64) -> f64 {
        if b <= a || self.windows.is_empty() {
            return 0.0;
        }
        // Sweep the segments between a, the boundaries inside (a, b),
        // and b.
        let inside = self.boundaries.iter().copied().filter(|&c| c > a && c < b);
        let mut total = 0.0;
        let mut from = a;
        for to in inside.chain(std::iter::once(b)) {
            if self.factor_at(from) < 1.0 {
                total += to - from;
            }
            from = to;
        }
        total
    }
}

/// One event in a campaign's replayable trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An injected fault fired.
    Injected(FaultKind),
    /// A natural (engine-hazard) node failure.
    NaturalNodeFailure,
    /// A natural (engine-hazard) drive failure.
    NaturalDriveFailure,
    /// A node rebuild completed.
    NodeRebuilt,
    /// A drive rebuild completed.
    DriveRebuilt,
    /// Outstanding latent sector errors were repaired by a completed
    /// rebuild's verification scrub.
    LatentRepaired,
    /// Data loss.
    Loss(LossKind),
    /// The campaign horizon was reached with data intact.
    Survived,
}

impl TraceEvent {
    /// The canonical label for this event — the text [`EventTrace::render`]
    /// prints after the timestamp, and the vocabulary post-mortem loss
    /// signatures are built from ([`crate::postmortem::PostMortem`]).
    pub fn label(&self) -> String {
        match self {
            TraceEvent::Injected(k) => format!("inject {k}"),
            TraceEvent::NaturalNodeFailure => "fail node".to_string(),
            TraceEvent::NaturalDriveFailure => "fail drive".to_string(),
            TraceEvent::NodeRebuilt => "rebuilt node".to_string(),
            TraceEvent::DriveRebuilt => "rebuilt drive".to_string(),
            TraceEvent::LatentRepaired => "latent repaired".to_string(),
            TraceEvent::Loss(kind) => format!("LOSS {kind}"),
            TraceEvent::Survived => "survived".to_string(),
        }
    }
}

/// Why a campaign lost data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossKind {
    /// More simultaneous failures than the code tolerates.
    ExcessFailures,
    /// An uncorrectable sector error during a critical rebuild.
    SectorError,
    /// An injected latent sector error was live when the stripe went
    /// critical (or was injected while critical).
    LatentError,
}

impl std::fmt::Display for LossKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LossKind::ExcessFailures => write!(f, "excess-failures"),
            LossKind::SectorError => write!(f, "sector-error"),
            LossKind::LatentError => write!(f, "latent-error"),
        }
    }
}

/// The ordered, timestamped event log of one campaign run.
///
/// [`EventTrace::render`] produces a canonical text form; the replay
/// guarantee is that the same plan + seed yield byte-identical renders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventTrace {
    events: Vec<(f64, TraceEvent)>,
}

impl EventTrace {
    fn push(&mut self, time: f64, event: TraceEvent) {
        self.events.push((time, event));
    }

    /// The raw (time, event) pairs.
    pub fn events(&self) -> &[(f64, TraceEvent)] {
        &self.events
    }

    /// The last `n` (time, event) pairs, oldest first — the bounded ring
    /// view post-mortems are built from.
    pub fn tail(&self, n: usize) -> &[(f64, TraceEvent)] {
        &self.events[self.events.len().saturating_sub(n)..]
    }

    /// Canonical text rendering (one event per line, fixed formatting).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (t, e) in &self.events {
            out.push_str(&format!("{t:>18.6}h  {}\n", e.label()));
        }
        out
    }
}

/// The outcome of a single campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Seed that produced this run (replay with the same plan + seed).
    pub seed: u64,
    /// Whether the system reached the horizon with data intact.
    pub survived: bool,
    /// Loss cause and time, when `survived` is false.
    pub loss: Option<(f64, LossKind)>,
    /// Simulated hours elapsed (horizon, or loss time).
    pub elapsed_hours: f64,
    /// Hours spent degraded: at least one failure outstanding, or rebuild
    /// bandwidth below nominal.
    pub degraded_hours: f64,
    /// Number of injected fault events that fired.
    pub injected_events: u64,
    /// Number of natural (engine-hazard) component failures.
    pub natural_failures: u64,
    /// The replayable event trace.
    pub trace: EventTrace,
}

impl CampaignReport {
    /// Fraction of elapsed time spent degraded.
    pub fn degraded_fraction(&self) -> f64 {
        if self.elapsed_hours > 0.0 {
            self.degraded_hours / self.elapsed_hours
        } else {
            0.0
        }
    }
}

/// Aggregate of many campaign runs (each with a derived seed).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Base seed; run `i` uses `base_seed ^ (0x9e3779b9 * (i + 1))`, the
    /// same stream-splitting scheme as `SystemSim::run_parallel`.
    pub base_seed: u64,
    /// Number of runs.
    pub runs: u64,
    /// Runs that survived to the horizon.
    pub survived: u64,
    /// Loss events by kind: (excess-failures, sector-error, latent-error).
    pub losses: (u64, u64, u64),
    /// Mean degraded-time fraction across runs.
    pub mean_degraded_fraction: f64,
    /// Mean injected events per run.
    pub mean_injected: f64,
    /// Seeds of the runs that lost data (for replay).
    pub loss_seeds: Vec<u64>,
    /// The most frequent loss signatures (event-chain tails, see
    /// [`crate::postmortem::PostMortem::signature`]) with their counts,
    /// descending.
    pub loss_signatures: Vec<(String, u64)>,
}

impl CampaignSummary {
    /// Fraction of runs that survived.
    pub fn survival_rate(&self) -> f64 {
        self.survived as f64 / self.runs as f64
    }
}

/// How many distinct loss signatures a campaign summary keeps.
const TOP_SIGNATURES: usize = 5;

/// Derives the per-run seed for run `i` of a campaign batch.
pub fn run_seed(base_seed: u64, i: u64) -> u64 {
    base_seed ^ 0x9e37_79b9u64.wrapping_mul(i + 1)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outstanding {
    Node,
    Drive,
}

/// How one run of the engine loop ended.
pub(crate) struct Trajectory {
    /// Loss time and kind; `None` if the run reached its horizon.
    pub(crate) loss: Option<(f64, LossKind)>,
    elapsed_hours: f64,
    degraded_hours: f64,
    injected_events: u64,
    pub(crate) natural_failures: u64,
    /// Capacity lost to fail-in-place node and drive failures, bytes.
    pub(crate) spare_lost_bytes: f64,
    /// Empty unless the run was recorded.
    trace: EventTrace,
}

/// Runs [`FaultPlan`]s against a [`SystemSim`]'s engine.
///
/// The engine loop ([`Campaign::trajectory`]) is the only competing-hazards
/// loop of the aggregate model: [`SystemSim::simulate_one`] runs it with
/// nothing injected and no horizon.
#[derive(Debug, Clone)]
pub struct Campaign<'a> {
    sim: &'a SystemSim,
    /// Simulated hours a run must survive; infinite for a run to loss.
    horizon: f64,
    /// Scheduled one-shot injections in firing order.
    schedule: Vec<(f64, FaultKind)>,
    /// Poisson injection streams, in clause order.
    poisson: Vec<(f64, FaultKind)>,
    profile: BandwidthProfile,
}

impl<'a> Campaign<'a> {
    /// Pairs a simulator with a plan.
    pub fn new(sim: &'a SystemSim, plan: &FaultPlan) -> Campaign<'a> {
        Campaign {
            sim,
            horizon: plan.horizon_hours,
            schedule: plan.scheduled_injections(),
            poisson: plan.poisson_streams(),
            profile: BandwidthProfile::new(plan.bandwidth_windows()),
        }
    }

    /// The natural hazards alone, run until data loss. Builds nothing on
    /// the heap.
    pub(crate) fn to_loss(sim: &'a SystemSim) -> Campaign<'a> {
        Campaign {
            sim,
            horizon: f64::INFINITY,
            schedule: Vec::new(),
            poisson: Vec::new(),
            profile: BandwidthProfile::default(),
        }
    }

    /// Runs one campaign trajectory from `seed`.
    ///
    /// # Errors
    ///
    /// [`Error::EventBudgetExhausted`] if the engine's event budget runs
    /// out before loss or horizon (pathological plans only).
    pub fn run(&self, seed: u64) -> Result<CampaignReport> {
        let run = self.trajectory(&mut StdRng::seed_from_u64(seed), true)?;
        let report = CampaignReport {
            seed,
            survived: run.loss.is_none(),
            loss: run.loss,
            elapsed_hours: run.elapsed_hours,
            degraded_hours: run.degraded_hours,
            injected_events: run.injected_events,
            natural_failures: run.natural_failures,
            trace: run.trace,
        };
        // A losing run tells its causal story as nested v2 spans.
        if !report.survived && nsr_obs::trace_enabled() {
            if let Some(pm) = crate::postmortem::PostMortem::from_report(&report) {
                pm.emit_spans();
            }
        }
        Ok(report)
    }

    /// Runs `runs` trajectories with seeds derived from `base_seed` and
    /// aggregates them.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if `runs == 0`; propagates run errors.
    pub fn run_many(&self, runs: u64, base_seed: u64) -> Result<CampaignSummary> {
        if runs == 0 {
            return Err(Error::InvalidArgument {
                what: "runs must be positive",
            });
        }
        let mut survived = 0u64;
        let mut losses = (0u64, 0u64, 0u64);
        let mut degraded = 0.0;
        let mut injected = 0.0;
        let mut loss_seeds = Vec::new();
        let mut post_mortems = Vec::new();
        for i in 0..runs {
            let seed = run_seed(base_seed, i);
            let r = self.run(seed)?;
            if r.survived {
                survived += 1;
            } else {
                loss_seeds.push(seed);
                match r.loss.expect("loss present when not survived").1 {
                    LossKind::ExcessFailures => losses.0 += 1,
                    LossKind::SectorError => losses.1 += 1,
                    LossKind::LatentError => losses.2 += 1,
                }
                if let Some(pm) = crate::postmortem::PostMortem::from_report(&r) {
                    post_mortems.push(pm);
                }
            }
            degraded += r.degraded_fraction();
            injected += r.injected_events as f64;
        }
        let loss_signatures = crate::postmortem::top_signatures(&post_mortems, TOP_SIGNATURES);
        crate::obs::INJECT_RUNS.add(runs);
        crate::obs::INJECT_LOSSES.add(runs - survived);
        nsr_obs::trace::event("sim.inject.campaign", || {
            vec![
                ("runs", nsr_obs::Json::Num(runs as f64)),
                ("losses", nsr_obs::Json::Num((runs - survived) as f64)),
                ("mean_injected", nsr_obs::Json::Num(injected / runs as f64)),
            ]
        });
        Ok(CampaignSummary {
            base_seed,
            runs,
            survived,
            losses,
            mean_degraded_fraction: degraded / runs as f64,
            mean_injected: injected / runs as f64,
            loss_seeds,
            loss_signatures,
        })
    }

    /// The engine loop: competing natural hazards (node, drive and
    /// critical-sector failures), deterministic or exponential rebuilds,
    /// and the plan's scheduled and Poisson injections, latent errors and
    /// bandwidth profile. `record` keeps the event trace; without it the
    /// loop neither pushes trace events nor allocates per event.
    ///
    /// Always inlined, so each caller's plan is known where the loop is
    /// compiled: under [`Campaign::to_loss`]'s empty plan the injection,
    /// trace and profile code folds away and [`SystemSim::simulate_one`]
    /// pays for the natural hazards alone.
    ///
    /// # Errors
    ///
    /// * [`Error::EventBudgetExhausted`] if neither loss nor horizon comes
    ///   within the simulator's event budget.
    /// * [`Error::StalledTrajectory`] if, with no horizon, no hazard,
    ///   injection or repair remains — the run can never progress. Nothing
    ///   is drawn on the way there.
    #[inline(always)]
    pub(crate) fn trajectory<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        record: bool,
    ) -> Result<Trajectory> {
        let e = &self.sim.rates;
        let drive_bytes = self.sim.params.drive.capacity.0;
        let mut trace = EventTrace::default();
        let mut note = |time, event| {
            if record {
                trace.push(time, event);
            }
        };
        let mut now = 0.0f64;
        // (kind, completes_at) of each failure awaiting rebuild, of which
        // `nodes_down` are nodes.
        let mut outstanding: Vec<(Outstanding, f64)> = Vec::new();
        let mut nodes_down = 0u32;
        let mut pending_latent = 0u64;
        let mut next_scheduled = 0usize;
        let mut injected_events = 0u64;
        let mut natural_failures = 0u64;
        let mut spare_lost_bytes = 0.0f64;
        let mut degraded_hours = 0.0f64;

        // `None` at the horizon, else the kind of loss.
        let loss = 'run: {
            for _ in 0..self.sim.event_budget {
                let critical = outstanding.len() as u32 == e.t;
                let (node_rate, drive_rate, sector_rate) =
                    e.hazard_rates(nodes_down, outstanding.len() as u32 - nodes_down, critical);
                let total_rate = node_rate + drive_rate + sector_rate;

                // Candidate next events: the deterministic ones, then the
                // draws. Draw order is fixed: natural hazard first, then
                // each Poisson stream in clause order — part of the replay
                // contract. A vanished natural hazard skips its draw
                // entirely (never fires) instead of feeding a zero rate
                // into the sampler.
                let t_completion = outstanding
                    .iter()
                    .map(|o| o.1)
                    .fold(f64::INFINITY, f64::min);
                let t_scheduled = self
                    .schedule
                    .get(next_scheduled)
                    .map(|&(t, _)| t.max(now))
                    .unwrap_or(f64::INFINITY);
                let t_natural = if total_rate > 0.0 {
                    now + sample_exponential(rng, total_rate)?
                } else {
                    f64::INFINITY
                };
                let mut t_poisson = f64::INFINITY;
                let mut poisson_kind = FaultKind::NodeCrash;
                for &(rate, kind) in &self.poisson {
                    let t = now + sample_exponential(rng, rate)?;
                    if t < t_poisson {
                        t_poisson = t;
                        poisson_kind = kind;
                    }
                }

                // Total order with deterministic priority on exact ties:
                // horizon, completion, scheduled, poisson, natural.
                let next = self
                    .horizon
                    .min(t_completion)
                    .min(t_scheduled)
                    .min(t_poisson)
                    .min(t_natural);

                // Account degraded time over [now, next).
                degraded_hours += if outstanding.is_empty() {
                    self.profile.degraded_overlap(now, next)
                } else {
                    next - now
                };

                if next == self.horizon {
                    if next == f64::INFINITY {
                        return Err(Error::StalledTrajectory { at_hours: now });
                    }
                    now = next;
                    note(now, TraceEvent::Survived);
                    break 'run None;
                }

                if next == t_completion {
                    now = t_completion;
                    let idx = outstanding
                        .iter()
                        .position(|o| o.1 == t_completion)
                        .expect("completion exists");
                    let (kind, _) = outstanding.swap_remove(idx);
                    let rebuilt = match kind {
                        Outstanding::Node => {
                            nodes_down -= 1;
                            TraceEvent::NodeRebuilt
                        }
                        Outstanding::Drive => TraceEvent::DriveRebuilt,
                    };
                    note(now, rebuilt);
                    // Post-rebuild verification scrubs carried latent errors.
                    if pending_latent > 0 {
                        pending_latent = 0;
                        note(now, TraceEvent::LatentRepaired);
                    }
                    continue;
                }

                // A failure-type event fires at `next`.
                now = next;
                let injected_kind = if next == t_scheduled {
                    let (_, kind) = self.schedule[next_scheduled];
                    next_scheduled += 1;
                    Some(kind)
                } else if next == t_poisson {
                    Some(poisson_kind)
                } else {
                    None
                };

                let fail_kind = match injected_kind {
                    Some(kind) => {
                        injected_events += 1;
                        note(now, TraceEvent::Injected(kind));
                        match kind {
                            FaultKind::NodeCrash => Outstanding::Node,
                            FaultKind::DriveFailure => Outstanding::Drive,
                            FaultKind::LatentSectorError => {
                                if critical {
                                    break 'run Some(LossKind::LatentError);
                                }
                                pending_latent += 1;
                                continue;
                            }
                        }
                    }
                    None => {
                        // Natural hazard: which one?
                        let pick: f64 = rng.random::<f64>() * total_rate;
                        if pick < sector_rate {
                            break 'run Some(LossKind::SectorError);
                        }
                        natural_failures += 1;
                        if pick < sector_rate + node_rate {
                            note(now, TraceEvent::NaturalNodeFailure);
                            Outstanding::Node
                        } else {
                            note(now, TraceEvent::NaturalDriveFailure);
                            Outstanding::Drive
                        }
                    }
                };
                spare_lost_bytes += match fail_kind {
                    Outstanding::Node => e.d as f64 * drive_bytes,
                    Outstanding::Drive => drive_bytes,
                };

                if outstanding.len() as u32 == e.t {
                    // Already critical: one more failure is a loss.
                    break 'run Some(LossKind::ExcessFailures);
                }

                let mean_duration = match fail_kind {
                    Outstanding::Node => e.node_rebuild_hours,
                    Outstanding::Drive => e.drive_rebuild_hours,
                };
                let work = match self.sim.repair {
                    RepairDistribution::Deterministic => mean_duration,
                    RepairDistribution::Exponential => {
                        sample_exponential(rng, 1.0 / mean_duration)?
                    }
                };
                outstanding.push((fail_kind, self.profile.completion_time(now, work)));
                nodes_down += u32::from(fail_kind == Outstanding::Node);

                if outstanding.len() as u32 == e.t {
                    // The system just went critical. A live latent error on
                    // the critical stripe is unrecoverable.
                    if pending_latent > 0 {
                        break 'run Some(LossKind::LatentError);
                    }
                    // No-IR: the triggering rebuild reads critical data and
                    // may hit an uncorrectable sector error (§5.2.2).
                    if let Some(h) = &e.h {
                        let drives = outstanding.len() as u32 - nodes_down;
                        let p = h.by_drive_count(drives).min(1.0);
                        if rng.random::<f64>() < p {
                            break 'run Some(LossKind::SectorError);
                        }
                    }
                }
            }
            return Err(Error::EventBudgetExhausted {
                events: self.sim.event_budget,
            });
        };
        if let Some(kind) = loss {
            note(now, TraceEvent::Loss(kind));
        }
        Ok(Trajectory {
            loss: loss.map(|kind| (now, kind)),
            elapsed_hours: now,
            degraded_hours,
            injected_events,
            natural_failures,
            spare_lost_bytes,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsr_core::config::Configuration;
    use nsr_core::params::Params;
    use nsr_core::raid::InternalRaid;

    fn sim() -> SystemSim {
        let config = Configuration::new(InternalRaid::None, 1).unwrap();
        SystemSim::new(Params::baseline(), config).unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(FaultPlan::builder().build().is_err()); // no horizon
        assert!(FaultPlan::builder().horizon_hours(0.0).build().is_err());
        assert!(FaultPlan::builder()
            .horizon_hours(f64::NAN)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .horizon_hours(10.0)
            .at(-1.0, FaultKind::NodeCrash)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .horizon_hours(10.0)
            .poisson(f64::INFINITY, FaultKind::DriveFailure)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .horizon_hours(10.0)
            .burst(1.0, 0, 0.1)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .horizon_hours(10.0)
            .bandwidth(5.0, 2.0, 0.5)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .horizon_hours(10.0)
            .bandwidth(1.0, 2.0, 1.5)
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .horizon_hours(10.0)
            .at(5.0, FaultKind::NodeCrash)
            .bandwidth(1.0, 2.0, 0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn named_plans_all_build() {
        for name in FaultPlan::names() {
            assert!(FaultPlan::named(name).is_ok(), "{name}");
        }
        assert!(FaultPlan::named("no-such-plan").is_err());
    }

    #[test]
    fn replay_is_byte_identical() {
        let sim = sim();
        let plan = FaultPlan::named("brownout").unwrap();
        let campaign = Campaign::new(&sim, &plan);
        let a = campaign.run(12345).unwrap();
        let b = campaign.run(12345).unwrap();
        assert_eq!(a.trace.render(), b.trace.render());
        assert_eq!(a, b);
        let c = campaign.run(54321).unwrap();
        assert_ne!(a.trace.render(), c.trace.render());
    }

    #[test]
    fn scheduled_injection_appears_in_trace() {
        let sim = sim();
        let plan = FaultPlan::builder()
            .horizon_hours(200.0)
            .at(50.0, FaultKind::NodeCrash)
            .build()
            .unwrap();
        let r = Campaign::new(&sim, &plan).run(1).unwrap();
        assert!(r
            .trace
            .events()
            .iter()
            .any(|&(t, e)| t == 50.0 && e == TraceEvent::Injected(FaultKind::NodeCrash)));
        assert_eq!(r.injected_events, 1);
    }

    #[test]
    fn burst_beyond_tolerance_loses_data() {
        // FT1 tolerates one outstanding failure; a 3-crash burst in 0.2 h
        // (far below the rebuild time) must always lose data.
        let sim = sim();
        let plan = FaultPlan::builder()
            .horizon_hours(1000.0)
            .burst(10.0, 3, 0.1)
            .build()
            .unwrap();
        let r = Campaign::new(&sim, &plan).run(7).unwrap();
        assert!(!r.survived);
        // At FT1 baseline h_N saturates to 1, so the *first* crash of the
        // burst already triggers the critical-rebuild sector check; the
        // loss is either that sector error or the follow-up excess
        // failure. Either way it happens inside the burst window.
        let (t, kind) = r.loss.unwrap();
        assert!(matches!(
            kind,
            LossKind::ExcessFailures | LossKind::SectorError
        ));
        assert!((10.0..=10.2).contains(&t), "loss at {t}");
    }

    #[test]
    fn partition_stalls_rebuild() {
        // A node crash at t=10 with a partition covering [0, 500): the
        // rebuild cannot complete inside the window.
        let sim = sim();
        let plan = FaultPlan::builder()
            .horizon_hours(400.0)
            .at(10.0, FaultKind::NodeCrash)
            .bandwidth(0.0, 500.0, 0.0)
            .build()
            .unwrap();
        let r = Campaign::new(&sim, &plan).run(3).unwrap();
        for &(t, e) in r.trace.events() {
            assert!(
                !(e == TraceEvent::NodeRebuilt && t < 400.0),
                "rebuild completed during partition at {t}"
            );
        }
        // The whole crash-to-horizon span counts as degraded.
        assert!(r.degraded_fraction() >= 0.9, "{}", r.degraded_fraction());
    }

    #[test]
    fn bandwidth_profile_completion_math() {
        let p = BandwidthProfile::new(vec![(10.0, 20.0, 0.5), (20.0, 30.0, 0.0)]);
        // Full bandwidth before 10: 4 hours of work started at 2 ends at 6.
        assert_eq!(p.completion_time(2.0, 4.0), 6.0);
        // Started at 8 with 4 hours: 2 h full + remaining 2 h at half
        // speed = 4 h wall → ends at 14.
        assert_eq!(p.completion_time(8.0, 4.0), 14.0);
        // Started at 15 with 10 h of work: 2.5 done by 20, stalled to 30,
        // 7.5 after 30 → 37.5.
        assert_eq!(p.completion_time(15.0, 10.0), 37.5);
        // Permanent partition → never.
        let forever = BandwidthProfile::new(vec![(0.0, f64::INFINITY, 0.0)]);
        assert_eq!(forever.completion_time(1.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn degraded_overlap_math() {
        let p = BandwidthProfile::new(vec![(10.0, 20.0, 0.5)]);
        assert_eq!(p.degraded_overlap(0.0, 10.0), 0.0);
        assert_eq!(p.degraded_overlap(0.0, 15.0), 5.0);
        assert_eq!(p.degraded_overlap(12.0, 30.0), 8.0);
        assert_eq!(p.degraded_overlap(25.0, 30.0), 0.0);
    }

    #[test]
    fn latent_error_is_scrubbed_by_rebuild() {
        // Inject a latent error, then a drive failure; the rebuild's
        // verification scrub must clear the latent error, and the run
        // survives a short horizon.
        let sim = sim();
        let plan = FaultPlan::builder()
            .horizon_hours(100.0)
            .at(1.0, FaultKind::LatentSectorError)
            .at(2.0, FaultKind::DriveFailure)
            .build()
            .unwrap();
        // Find a seed whose natural process stays quiet for 100 h (most
        // do: MTTFs are ~10^5 h).
        let r = Campaign::new(&sim, &plan).run(2).unwrap();
        if r.survived {
            assert!(r
                .trace
                .events()
                .iter()
                .any(|&(_, e)| e == TraceEvent::LatentRepaired));
        } else {
            // Natural coincidence made it critical with the latent error
            // live; then the loss must be attributed to it.
            assert!(matches!(
                r.loss.unwrap().1,
                LossKind::LatentError | LossKind::SectorError | LossKind::ExcessFailures
            ));
        }
    }

    #[test]
    fn latent_error_plus_critical_is_loss() {
        // FT1: one drive failure makes the system critical; a latent
        // error injected while critical is an immediate loss. (A *node*
        // crash would not work here: h_N saturates to 1 at baseline, so
        // the crash itself always absorbs into a sector loss.)
        let sim = sim();
        let plan = FaultPlan::builder()
            .horizon_hours(1000.0)
            .at(10.0, FaultKind::DriveFailure)
            .at(10.5, FaultKind::LatentSectorError)
            .bandwidth(0.0, 1000.0, 0.0) // keep the rebuild from finishing
            .build()
            .unwrap();
        // The drive failure may itself trigger the h_alpha sector check
        // (h_d ~ 0.17); scan seeds for a run where the failure survives,
        // then require the latent injection to be the loss.
        let campaign = Campaign::new(&sim, &plan);
        let mut checked = false;
        for seed in 0..20 {
            let r = campaign.run(seed).unwrap();
            if let Some((t, kind)) = r.loss {
                if t == 10.5 {
                    assert_eq!(kind, LossKind::LatentError);
                    checked = true;
                    break;
                }
            }
        }
        assert!(checked, "no seed in 0..20 reached the latent injection");
    }

    #[test]
    fn run_many_aggregates() {
        let sim = sim();
        let plan = FaultPlan::builder()
            .horizon_hours(24.0 * 30.0)
            .build()
            .unwrap();
        let s = Campaign::new(&sim, &plan).run_many(50, 9).unwrap();
        assert_eq!(s.runs, 50);
        assert_eq!(
            s.survived + s.losses.0 + s.losses.1 + s.losses.2,
            50,
            "every run accounted for"
        );
        assert_eq!(s.loss_seeds.len() as u64, 50 - s.survived);
        assert!(Campaign::new(&sim, &plan).run_many(0, 9).is_err());
    }

    #[test]
    fn pure_exponential_campaign_is_simulate_one_seed_by_seed() {
        // With nothing injected and a horizon no run reaches, a campaign
        // and `SystemSim::simulate_one` from the same seed are one
        // trajectory: same loss time to the bit, cause and failure count.
        use crate::system::LossCause;
        use nsr_core::units::Hours;
        let plan = FaultPlan::pure_exponential(1e15).unwrap();
        let mut lossy = Params::baseline();
        lossy.node.mttf = Hours(20_000.0);
        lossy.drive.mttf = Hours(15_000.0);
        for (params, internal, t) in [
            (Params::baseline(), InternalRaid::None, 1),
            (lossy, InternalRaid::None, 2),
            (lossy, InternalRaid::Raid5, 1),
            (lossy, InternalRaid::Raid6, 2),
        ] {
            for repair in [
                RepairDistribution::Deterministic,
                RepairDistribution::Exponential,
            ] {
                let config = Configuration::new(internal, t).unwrap();
                let sim = SystemSim::new(params, config)
                    .unwrap()
                    .with_repair_distribution(repair);
                let campaign = Campaign::new(&sim, &plan);
                for seed in 0..20 {
                    let r = campaign.run(seed).unwrap();
                    let s = sim.simulate_one(&mut StdRng::seed_from_u64(seed)).unwrap();
                    let (time, kind) = r.loss.expect("no run reaches the horizon");
                    let cause = match kind {
                        LossKind::ExcessFailures => LossCause::ExcessFailures,
                        LossKind::SectorError => LossCause::SectorError,
                        LossKind::LatentError => unreachable!("nothing injected"),
                    };
                    let case = format!("{config} {repair:?} seed {seed}");
                    assert_eq!(time.to_bits(), s.time_hours.to_bits(), "{case}");
                    assert_eq!(cause, s.cause, "{case}");
                    assert_eq!(r.natural_failures, s.failure_events, "{case}");
                }
            }
        }
    }
}
