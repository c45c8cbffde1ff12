//! Metric handles for the Markov crate.
//!
//! All of these are no-ops until `nsr_obs::set_metrics_enabled(true)`;
//! see `nsr-obs` for the cost contract. The only per-solve work added
//! when metrics are on is one `κ∞` estimate (a pair of triangular
//! solves), which is cheap next to the elimination it describes.

use nsr_obs::{Counter, Histogram};

/// Absorbing-chain analyses constructed (`AbsorbingAnalysis::new`).
pub static SOLVES: Counter = Counter::new("markov.absorbing.solves");
/// Analyses where LU was singular to working precision and every
/// matrix-route query fell back to GTH elimination.
pub static GTH_FALLBACKS: Counter = Counter::new("markov.absorbing.gth_fallback");
/// Analyses eliminated on the sparse (CSR-style) GTH tier.
pub static SPARSE_TIER: Counter = Counter::new("markov.absorbing.tier_sparse");
/// Analyses eliminated on the dense rate-table GTH tier.
pub static DENSE_TIER: Counter = Counter::new("markov.absorbing.tier_dense");
/// Sparse eliminations that failed and retried on the dense oracle.
pub static SPARSE_FALLBACKS: Counter = Counter::new("markov.absorbing.sparse_fallback");
/// Fill entries created per sparse elimination (0 for the fill-free
/// BFS-ordered recursive chains).
pub static FILL: Histogram = Histogram::new("markov.absorbing.fill");
/// `κ∞(R)` estimates of the absorption matrix, one per solve.
/// Infinite estimates (GTH fallback in effect) land in the overflow
/// bucket.
pub static CONDITION: Histogram = Histogram::new("markov.absorbing.condition");
/// Wall seconds per analysis construction (LU attempt + all GTH
/// elimination passes).
pub static SOLVE_SECONDS: Histogram = Histogram::new("markov.absorbing.solve_seconds");
/// Allocation-free batched solves (`BatchSolver::solve_mtta`).
pub static BATCH_SOLVES: Counter = Counter::new("markov.batch.solves");
/// Elimination programs compiled (`BatchProgram::compile`). `nsr-core`
/// compiles one per topology class per process and shares it.
pub static BATCH_BUILDS: Counter = Counter::new("markov.batch.builds");

/// Registers every metric in this module with the global registry.
pub fn register() {
    SOLVES.register();
    GTH_FALLBACKS.register();
    SPARSE_TIER.register();
    DENSE_TIER.register();
    SPARSE_FALLBACKS.register();
    FILL.register();
    CONDITION.register();
    SOLVE_SECONDS.register();
    BATCH_SOLVES.register();
    BATCH_BUILDS.register();
}
