//! Metric handles for the sweep engine.
//!
//! All of these are no-ops until `nsr_obs::set_metrics_enabled(true)`;
//! see `nsr-obs` for the cost contract. Solves themselves are counted
//! one layer down, in `nsr_markov::obs`.

use std::time::Instant;

use nsr_obs::trace::Span;
use nsr_obs::{Counter, Histogram, Json};

/// Sensitivity sweeps run (`sweep` / `sweep_with_workers` calls).
pub static SWEEPS: Counter = Counter::new("core.sweep.runs");
/// Configuration evaluations performed by `CachedEvaluator` — sweep
/// cells, planner survivors and one-shot `Configuration::evaluate`
/// alike (each is one closed-form computation plus one exact solve).
pub static EVALS: Counter = Counter::new("core.sweep.evals");
/// First exact solves of an evaluator: it binds its topology class's
/// shared elimination program (first point of a config's sweep column).
/// Counted per evaluator, not per compile, so the number does not depend
/// on what the process ran before; actual compiles are
/// `markov.batch.builds`.
pub static SKELETON_BUILDS: Counter = Counter::new("core.sweep.skeleton_builds");
/// Exact solves through an evaluator's already-bound program (every
/// later point: rates rewritten, one numeric elimination).
pub static SKELETON_REUSES: Counter = Counter::new("core.sweep.skeleton_reuses");
/// Exact-CTMC solves per sweep run (rows × feasible configurations).
pub static SOLVES_PER_SWEEP: Histogram = Histogram::new("core.sweep.solves_per_sweep");
/// Wall seconds each worker spent inside one sweep run.
pub static WORKER_SECONDS: Histogram = Histogram::new("core.sweep.worker_seconds");

/// Planner grid searches run (`plan::plan_search` calls).
pub static PLAN_SEARCHES: Counter = Counter::new("core.plan.searches");
/// Grid points enumerated across all planner searches.
pub static PLAN_POINTS: Counter = Counter::new("core.plan.points");
/// Grid points that passed feasibility (closed-form pass).
pub static PLAN_FEASIBLE: Counter = Counter::new("core.plan.feasible");
/// Feasible points eliminated by guard-band dominance pruning before
/// any exact solve.
pub static PLAN_PRUNED: Counter = Counter::new("core.plan.pruned");
/// Exact batched solves performed (pass-2 survivors).
pub static PLAN_SOLVES: Counter = Counter::new("core.plan.solves");
/// Points on the emitted Pareto frontier.
pub static PLAN_FRONTIER: Counter = Counter::new("core.plan.frontier_points");
/// First exact solves of a configuration on a planner worker (each
/// binds its topology class's shared elimination program).
pub static PLAN_SKELETON_BUILDS: Counter = Counter::new("core.plan.skeleton_builds");
/// Planner exact solves through an already-bound program.
pub static PLAN_SKELETON_REUSES: Counter = Counter::new("core.plan.skeleton_reuses");

/// Solved planner points whose exact MTTDL fell outside the
/// `plan::PRUNE_GUARD` band around the closed form (any in a pruned
/// search makes it re-solve exhaustively).
pub static PLAN_GUARD_VIOLATIONS: Counter = Counter::new("core.plan.guard_violations");
/// Wall seconds of a search's closed-form pass over the whole grid.
pub static PLAN_PASS1_SECONDS: Histogram = Histogram::new("core.plan.pass1_seconds");
/// Wall seconds of guard-band pruning (≈ 0 in exhaustive mode).
pub static PLAN_PRUNE_SECONDS: Histogram = Histogram::new("core.plan.prune_seconds");
/// Wall seconds of the exact solves of one pass 2.
pub static PLAN_SOLVE_SECONDS: Histogram = Histogram::new("core.plan.solve_seconds");
/// Wall seconds of the closing frontier filter and sort of one pass 2.
pub static PLAN_FRONTIER_SECONDS: Histogram = Histogram::new("core.plan.frontier_seconds");

/// The wall clock of one planner search, read at its phase boundaries —
/// and only when metrics or tracing are on.
pub(crate) struct PlanClock(Option<Instant>);

impl PlanClock {
    pub(crate) fn start() -> PlanClock {
        PlanClock((nsr_obs::metrics_enabled() || nsr_obs::trace_enabled()).then(Instant::now))
    }

    /// Charges the seconds since the previous lap to `phase` and to the
    /// search span's field of the same name (`core.plan.` dropped).
    pub(crate) fn lap(&mut self, span: &mut Span, phase: &'static Histogram) {
        if let Some(t0) = &mut self.0 {
            let now = Instant::now();
            let seconds = now.duration_since(*t0).as_secs_f64();
            phase.observe(seconds);
            let key = phase.name().trim_start_matches("core.plan.");
            span.field(key, || Json::Num(seconds));
            *t0 = now;
        }
    }
}

/// Registers every metric in this module with the global registry.
pub fn register() {
    SWEEPS.register();
    EVALS.register();
    SKELETON_BUILDS.register();
    SKELETON_REUSES.register();
    SOLVES_PER_SWEEP.register();
    WORKER_SECONDS.register();
    PLAN_SEARCHES.register();
    PLAN_POINTS.register();
    PLAN_FEASIBLE.register();
    PLAN_PRUNED.register();
    PLAN_SOLVES.register();
    PLAN_FRONTIER.register();
    PLAN_SKELETON_BUILDS.register();
    PLAN_SKELETON_REUSES.register();
    PLAN_GUARD_VIOLATIONS.register();
    PLAN_PASS1_SECONDS.register();
    PLAN_PRUNE_SECONDS.register();
    PLAN_SOLVE_SECONDS.register();
    PLAN_FRONTIER_SECONDS.register();
}
