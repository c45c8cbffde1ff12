//! Metric handles for the Markov crate.
//!
//! All of these are no-ops until `nsr_obs::set_metrics_enabled(true)`;
//! see `nsr-obs` for the cost contract. The only per-solve work added
//! when metrics are on is one `κ∞` value: a norm taken while the rates
//! are read times the largest mean time the solve already holds, `O(m)`.

use nsr_obs::{Counter, Histogram};

/// Absorbing-chain analyses constructed (`AbsorbingAnalysis::new`).
pub static SOLVES: Counter = Counter::new("markov.absorbing.solves");
/// `κ∞(R)` of the absorption matrix, one per solve (`‖R‖∞` times the
/// largest mean time to absorption).
pub static CONDITION: Histogram = Histogram::new("markov.absorbing.condition");
/// Wall seconds per analysis construction (one elimination plus one
/// replay per right-hand side).
pub static SOLVE_SECONDS: Histogram = Histogram::new("markov.absorbing.solve_seconds");
/// Allocation-free batched solves (`BatchSolver::solve_mtta`).
pub static BATCH_SOLVES: Counter = Counter::new("markov.batch.solves");
/// Elimination programs compiled (`BatchProgram::compile`). `nsr-core`
/// compiles one per topology class per process and shares it.
pub static BATCH_BUILDS: Counter = Counter::new("markov.batch.builds");

/// Registers every metric in this module with the global registry.
pub fn register() {
    SOLVES.register();
    CONDITION.register();
    SOLVE_SECONDS.register();
    BATCH_SOLVES.register();
    BATCH_BUILDS.register();
}
