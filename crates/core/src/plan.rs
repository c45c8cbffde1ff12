//! The capacity planner: the paper's §9 goals, and a Pareto frontier
//! search over a configuration grid (§9 grown into a tool).
//!
//! The paper closes by noting its closed forms "may be used to determine
//! redundancy configurations for a spectrum of reliability targets such
//! as in systems that offer user-configurable goals." [`feasible_plans`]
//! is that answer for the nine paper configurations: every one that
//! meets a target, ranked by [`storage_efficiency`];
//! [`min_rebuild_block_for_target`] sizes the §8 knob to the goal.
//!
//! The paper's nine configurations are points in a much larger design
//! space: `(nodes, data shards k, fault tolerance t, internal RAID,
//! spare fraction, rebuild bandwidth)`. [`ConfigSpace`] enumerates an
//! arbitrary grid over those axes and [`plan_search`] finds the exact
//! Pareto frontier of **cost** (raw/usable capacity ratio, rebuild
//! bandwidth fraction) versus **reliability** (events per PB-year,
//! mission loss probability) in two passes:
//!
//! 1. **Closed-form pass** — every feasible grid point gets the paper's
//!    closed-form MTTDL (pure arithmetic, no chain solve) and its cost
//!    vector, evaluated in parallel with the sweep engine's chunked
//!    work-claiming. A point is derived by the model-point stages of
//!    `config.rs`: each configuration class and each `(N, R)` geometry
//!    is built once per search, and only the point stage runs per grid
//!    point.
//! 2. **Guard-band dominance pruning** — the closed form is within a
//!    pinned relative band of the exact CTMC answer (`evaluate_baseline
//!    _all_nine` pins ≤ 0.35); inflating that band to [`PRUNE_GUARD`]
//!    turns closed-form comparisons into *proofs* about exact values: if
//!    `Q`'s costs are ≤ `P`'s and `Q`'s pessimistic objectives beat
//!    `P`'s optimistic ones, `Q` exactly-dominates `P` and `P` cannot be
//!    on the exact frontier. Only survivors are solved exactly: each
//!    chain is rebuilt from its geometry and the repair rates pass 1
//!    derived, and solved through a [`CachedEvaluator`] (compiled GTH
//!    programs shared per topology class, process-wide).
//!    The soundness argument — including why pruning against
//!    later-pruned points is still sound — is DESIGN.md §3j; the
//!    property tests below pin the pruned frontier bit-identical to the
//!    exhaustive one. A pruned search that finds a solved point outside
//!    the band has lost that proof and answers with the exhaustive
//!    search ([`PlanReport::exhaustive_fallback`]).
//!
//! Pruning and the closing frontier filter ask the same question — is
//! another point no costlier and better in both objectives — of one
//! grouped-order-and-staircase kernel (`dominated`), near-linear in the
//! grid.
//!
//! Determinism contract: results are merged by grid index and every
//! per-point computation is pure, so the report (and its CSV rendering)
//! is byte-identical for every `--workers` count, pruned or exhaustive.

use std::collections::HashMap;
use std::convert::identity;

use crate::config::{CachedEvaluator, Configuration, Evaluation, ModelClass, ModelGeometry};
use crate::metrics::Reliability;
use crate::params::Params;
use crate::raid::InternalRaid;
use crate::sweep::{claim_chunk, parallel_map};
use crate::units::{Bytes, PerHour, HOURS_PER_YEAR};
use crate::{Error, Result};

/// Relative guard band around the closed-form MTTDL used by the pruning
/// pass: the exact MTTDL is assumed to lie in
/// `[closed/(1+γ), closed/(1−γ)]` with `γ` = this constant.
///
/// The pinned closed-vs-exact agreement is ≤ 0.35 relative (FT 1 at
/// baseline; ≤ 0.15 elsewhere), so 0.5 leaves a comfortable margin.
/// Pruning is sound as long as the true relative error stays below the
/// guard; [`PlanReport::guard_violations`] counts solved points that
/// landed outside the band (0 in every pinned grid; any at all sends a
/// pruned search down the exhaustive path), and the property tests
/// compare pruned against exhaustive frontiers bit-for-bit.
pub const PRUNE_GUARD: f64 = 0.5;

/// An axis-aligned grid over the planner's design space.
///
/// The grid is the cartesian product of the six axes; axes the caller
/// does not want to sweep hold a single value. Points that violate a
/// model constraint (t = 0, R > N, RAID 6 on a 3-drive node, …) are
/// enumerated but reported as infeasible rather than rejected up front —
/// a planner run over a coarse grid should tell the operator *why* a
/// corner is impossible.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    /// Node-set sizes `N`.
    pub nodes: Vec<u32>,
    /// Data shards per stripe `k`; the redundancy set is `R = k + t`.
    /// `k = 1` is t+1-way replication.
    pub data_shards: Vec<u32>,
    /// Cross-node fault tolerances `t`. `t = 0` enumerates as an
    /// infeasible point (no cross-node redundancy has no MTTDL model).
    pub node_ft: Vec<u32>,
    /// Internal RAID levels.
    pub internal: Vec<InternalRaid>,
    /// Fail-in-place spare fractions in `[0, 1)`; capacity utilization
    /// is `1 − spares`. `0` disables the spare pool entirely (rebuilds
    /// defer to drive replacement; utilization 1.0).
    pub spare_frac: Vec<f64>,
    /// Rebuild bandwidth fractions in `(0, 1]` (share of drive/link
    /// bandwidth budgeted to rebuild traffic).
    pub rebuild_bw: Vec<f64>,
}

impl ConfigSpace {
    /// The default planner grid: a 648-point space around the paper's
    /// baseline (`nsr plan --grid` with no axis flags).
    pub fn default_grid() -> ConfigSpace {
        ConfigSpace {
            nodes: vec![64],
            data_shards: vec![2, 4, 6],
            node_ft: vec![1, 2, 3],
            internal: InternalRaid::all().to_vec(),
            spare_frac: vec![0.0, 0.25],
            rebuild_bw: vec![0.05, 0.1, 0.2],
        }
    }

    /// Validates the axes (values that merely make individual points
    /// infeasible are allowed; values that are meaningless everywhere —
    /// an empty axis, a spare fraction of 1.0 — are not).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParams`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty()
            || self.data_shards.is_empty()
            || self.node_ft.is_empty()
            || self.internal.is_empty()
            || self.spare_frac.is_empty()
            || self.rebuild_bw.is_empty()
        {
            return Err(Error::invalid("every grid axis needs at least one value"));
        }
        if self.spare_frac.iter().any(|&s| !(0.0..1.0).contains(&s)) {
            return Err(Error::invalid("spare fractions must be in [0, 1)"));
        }
        if self
            .rebuild_bw
            .iter()
            .any(|&b| !(b > 0.0 && b <= 1.0 && b.is_finite()))
        {
            return Err(Error::invalid(
                "rebuild bandwidth fractions must be in (0, 1]",
            ));
        }
        if self.data_shards.contains(&0) {
            return Err(Error::invalid("data shard counts must be at least 1"));
        }
        // A repeated value would enumerate the same configuration twice
        // and put both copies on the frontier.
        no_repeats("nodes", &self.nodes)?;
        no_repeats("data_shards", &self.data_shards)?;
        no_repeats("node_ft", &self.node_ft)?;
        no_repeats("internal", &self.internal)?;
        no_repeats("spare_frac", &self.spare_frac)?;
        no_repeats("rebuild_bw", &self.rebuild_bw)
    }

    /// Number of grid points (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.nodes.len()
            * self.data_shards.len()
            * self.node_ft.len()
            * self.internal.len()
            * self.spare_frac.len()
            * self.rebuild_bw.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes a grid index (row-major: nodes outermost, rebuild
    /// bandwidth innermost) into a point.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn point(&self, idx: usize) -> GridPoint {
        let mut rest = idx;
        let bw = self.rebuild_bw[rest % self.rebuild_bw.len()];
        rest /= self.rebuild_bw.len();
        let spares = self.spare_frac[rest % self.spare_frac.len()];
        rest /= self.spare_frac.len();
        let internal = self.internal[rest % self.internal.len()];
        rest /= self.internal.len();
        let t = self.node_ft[rest % self.node_ft.len()];
        rest /= self.node_ft.len();
        let k = self.data_shards[rest % self.data_shards.len()];
        rest /= self.data_shards.len();
        let nodes = self.nodes[rest % self.nodes.len()];
        rest /= self.nodes.len();
        assert_eq!(rest, 0, "grid index out of range");
        GridPoint {
            nodes,
            data_shards: k,
            node_ft: t,
            internal,
            spare_frac: spares,
            rebuild_bw: bw,
        }
    }
}

fn no_repeats<T: PartialEq + std::fmt::Debug>(axis: &str, values: &[T]) -> Result<()> {
    for (i, v) in values.iter().enumerate() {
        if values[..i].contains(v) {
            return Err(Error::invalid(format!(
                "grid axis {axis} lists {v:?} more than once"
            )));
        }
    }
    Ok(())
}

/// One point of a [`ConfigSpace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Node-set size `N`.
    pub nodes: u32,
    /// Data shards per stripe `k` (`R = k + t`).
    pub data_shards: u32,
    /// Cross-node fault tolerance `t`.
    pub node_ft: u32,
    /// Internal RAID level.
    pub internal: InternalRaid,
    /// Fail-in-place spare fraction.
    pub spare_frac: f64,
    /// Rebuild bandwidth fraction.
    pub rebuild_bw: f64,
}

impl GridPoint {
    /// Applies the point to a base parameter set (all non-grid knobs —
    /// drive MTTFs, command sizes, link speed — come from `base`).
    pub fn params(&self, base: &Params) -> Params {
        let mut p = *base;
        p.system.node_count = self.nodes;
        p.system.redundancy_set_size = self.data_shards + self.node_ft;
        p.system.capacity_utilization = 1.0 - self.spare_frac;
        p.system.rebuild_bw_utilization = self.rebuild_bw;
        p
    }

    /// The configuration code, e.g. `ft2-ir5`. Formatted from the
    /// fields, not through [`Configuration::code`]: a grid point may
    /// carry `t = 0`, which [`Configuration`] refuses.
    pub fn config_code(&self) -> String {
        format!("ft{}-{}", self.node_ft, self.internal.code())
    }
}

/// A feasible grid point after the closed-form pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanPoint {
    /// Index into the grid's enumeration order.
    pub index: usize,
    /// The grid coordinates.
    pub point: GridPoint,
    /// The validated configuration.
    pub config: Configuration,
    /// Raw/usable capacity ratio (cost axis 1; ≥ 1, lower is cheaper).
    pub cost_overhead: f64,
    /// Rebuild bandwidth fraction (cost axis 2; foreground I/O keeps the
    /// rest).
    pub cost_rebuild_bw: f64,
    /// Closed-form MTTDL in hours.
    pub closed_mttdl_hours: f64,
    /// Closed-form events per PB-year.
    pub closed_events_pb_year: f64,
    /// `μ_N` and the drive repair rate the point stage derived: with the
    /// point's geometry, what pass 2 rebuilds the chain from.
    repair: [PerHour; 2],
    /// The ranks of the two costs among their axes' distinct values
    /// ([`GridTables`]): what the dominance kernel buckets by.
    cost_rank: [u32; 2],
}

/// A frontier member: a survivor with its exact-CTMC objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// The feasible point (closed-form fields included).
    pub point: PlanPoint,
    /// Exact MTTDL in hours ([`Configuration::evaluate`]'s exact tier).
    pub exact_mttdl_hours: f64,
    /// Exact events per PB-year.
    pub exact_events_pb_year: f64,
    /// Exact mission loss probability over the search's horizon
    /// (`1 − exp(−T/MTTDL)`, the exponential-mission approximation; see
    /// [`crate::mission`] for the transient-uniformization refinement).
    pub exact_mission_loss: f64,
}

/// Options for [`plan_search`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanOptions {
    /// Worker threads; `0` resolves like the sweep engine's `auto`.
    pub workers: usize,
    /// Mission horizon in years for the mission-loss objective.
    pub mission_years: f64,
    /// Skip the pruning pass and solve every feasible point exactly
    /// (the oracle the property tests compare against).
    pub exhaustive: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            workers: 1,
            mission_years: 5.0,
            exhaustive: false,
        }
    }
}

/// The result of one planner search.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Total grid points enumerated.
    pub grid_points: usize,
    /// Points that passed feasibility.
    pub feasible: usize,
    /// Feasible points eliminated by guard-band pruning (0 in
    /// exhaustive mode).
    pub pruned: usize,
    /// Exact solves performed (`feasible − pruned`).
    pub solved: usize,
    /// Solved points whose exact MTTDL fell outside the guard band
    /// around the closed form. Nonzero values mean [`PRUNE_GUARD`] is
    /// too tight for this parameter regime (the property tests keep
    /// this at 0 for the pinned grids).
    pub guard_violations: usize,
    /// A pruned search met a guard-band violation, so its pruning proof
    /// did not hold and every feasible point was re-solved: the report
    /// is the exhaustive one (`pruned` 0, `solved` = `feasible`).
    pub exhaustive_fallback: bool,
    /// The exact Pareto frontier, sorted by ascending overhead cost,
    /// then rebuild bandwidth, then events.
    pub frontier: Vec<FrontierPoint>,
    /// Up to [`PlanReport::MAX_INFEASIBLE_EXAMPLES`] infeasible points
    /// with their reasons, in grid order (diagnostics for corner
    /// exclusions).
    pub infeasible_examples: Vec<(GridPoint, String)>,
    /// First exact solves of a configuration on a worker — each binds
    /// the shared elimination program of its topology class (one per
    /// distinct solved configuration per worker, whatever the process
    /// compiled before).
    pub skeleton_builds: u64,
    /// Exact solves through an already-bound program.
    pub skeleton_reuses: u64,
    /// The mission horizon the mission-loss objectives used.
    pub mission_years: f64,
}

impl PlanReport {
    /// Cap on retained infeasible-point examples.
    pub const MAX_INFEASIBLE_EXAMPLES: usize = 8;
}

/// Mission loss probability from an MTTDL: `1 − e^(−T/MTTDL)`.
fn mission_loss(mttdl_hours: f64, years: f64) -> f64 {
    -f64::exp_m1(-(years * HOURS_PER_YEAR) / mttdl_hours)
}

/// What one worker's share of the closed-form pass produced; both lists
/// are in ascending grid order.
#[derive(Default)]
struct Pass1 {
    feasible: Vec<PlanPoint>,
    /// The worker's first [`PlanReport::MAX_INFEASIBLE_EXAMPLES`]
    /// infeasible indices, errors still typed.
    infeasible: Vec<(usize, Error)>,
}

impl Pass1 {
    fn record(&mut self, idx: usize, point: std::result::Result<PlanPoint, &Error>) {
        match point {
            Ok(p) => self.feasible.push(p),
            Err(e) if self.infeasible.len() < PlanReport::MAX_INFEASIBLE_EXAMPLES => {
                self.infeasible.push((idx, e.clone()));
            }
            Err(_) => {}
        }
    }
}

/// What a search derives from its grid once, before pass 1: the first
/// model-point stage of every class, and each cost's rank on its axis.
///
/// The raw/usable overhead is a function of `(k, class, spare
/// fraction)` alone — not of `N`, nor of the bandwidth — so it is
/// computed once per such combo and every point copies it. Ranking the
/// at most `|k|·|t|·|IR|·|spares|` overheads and the bandwidth axis
/// gives every point its dominance bucket without hashing a cost.
struct GridTables {
    /// Every `(fault tolerance, internal RAID)` pair's class, `t`
    /// outermost — the order of those two axes in a grid index.
    classes: Vec<Result<ModelClass>>,
    /// Raw/usable overhead per `(k, class, spare fraction)` combo,
    /// row-major in grid order; NaN under a failed class, whose points
    /// are all infeasible.
    overhead: Vec<f64>,
    /// Each overhead's rank, then each bandwidth's rank ([`ranks`]).
    rank: [Vec<u32>; 2],
    /// The number of distinct overheads, then of distinct bandwidths.
    levels: [usize; 2],
}

impl GridTables {
    fn new(base: &Params, space: &ConfigSpace) -> GridTables {
        let mut classes = Vec::with_capacity(space.node_ft.len() * space.internal.len());
        for &t in &space.node_ft {
            for &internal in &space.internal {
                classes
                    .push(Configuration::new(internal, t).and_then(|c| ModelClass::new(c, base)));
            }
        }
        let combos = space.data_shards.len() * classes.len() * space.spare_frac.len();
        let mut overhead = Vec::with_capacity(combos);
        for &k in &space.data_shards {
            for class in &classes {
                for &spare_frac in &space.spare_frac {
                    overhead.push(class.as_ref().map_or(f64::NAN, |class| {
                        let set_size = k + class.config().node_fault_tolerance();
                        1.0 / class.efficiency(set_size, 1.0 - spare_frac)
                    }));
                }
            }
        }
        let (overhead_rank, overheads) = ranks(&overhead);
        let (bandwidth_rank, bandwidths) = ranks(&space.rebuild_bw);
        GridTables {
            classes,
            overhead,
            rank: [overhead_rank, bandwidth_rank],
            levels: [overheads, bandwidths],
        }
    }
}

/// Each value's rank among the distinct values of `values` in ascending
/// order, and how many distinct values there are. Values equal under
/// [`ord`] — `-0.0` and `+0.0` among them — share a rank, so comparing
/// ranks is comparing the values.
fn ranks(values: &[f64]) -> (Vec<u32>, usize) {
    let mut distinct: Vec<u64> = values.iter().map(|&v| ord(v)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let rank = values
        .iter()
        .map(|&v| distinct.partition_point(|&d| d < ord(v)) as u32)
        .collect();
    (rank, distinct.len())
}

/// Closed-form pass for geometry `g` — the `g`-th `(nodes, k, t,
/// internal RAID)` tuple in grid order, whose points are the grid indices
/// `g·S·B ..` for `S` spare fractions and `B` bandwidths: builds the
/// geometry from its class, hands `emit` every point in grid order, and
/// returns the geometry for pass 2 (`None` if it failed).
fn pass1_geometry(
    space: &ConfigSpace,
    tables: &GridTables,
    g: usize,
    emit: &mut impl FnMut(usize, std::result::Result<PlanPoint, &Error>),
) -> Option<ModelGeometry> {
    // `g` is row-major over (nodes, k, class), the class index running
    // over (t, internal RAID) as `GridTables::classes` lists them.
    let classes = &tables.classes;
    let rest = g / classes.len();
    let k = space.data_shards[rest % space.data_shards.len()];
    let nodes = space.nodes[rest / space.data_shards.len()];
    let per_geometry = space.spare_frac.len() * space.rebuild_bw.len();
    let first = g * per_geometry;
    // The geometry's first `(k, class, spare fraction)` combo.
    let combos = (g % (space.data_shards.len() * classes.len())) * space.spare_frac.len();
    let geometry = classes[g % classes.len()]
        .as_ref()
        .map_err(Error::clone)
        .and_then(|class| class.geometry(nodes, k + class.config().node_fault_tolerance()));
    let geometry = match geometry {
        Ok(geometry) => geometry,
        Err(e) => {
            for idx in first..first + per_geometry {
                emit(idx, Err(&e));
            }
            return None;
        }
    };
    let config = geometry.config();
    let [overhead_rank, bandwidth_rank] = &tables.rank;
    let mut idx = first;
    for (s, &spare_frac) in space.spare_frac.iter().enumerate() {
        let utilization = 1.0 - spare_frac;
        let combo = combos + s;
        for (b, &rebuild_bw) in space.rebuild_bw.iter().enumerate() {
            let point = GridPoint {
                nodes,
                data_shards: k,
                node_ft: config.node_fault_tolerance(),
                internal: config.internal(),
                spare_frac,
                rebuild_bw,
            };
            let planned = geometry.point(utilization, rebuild_bw).and_then(|model| {
                let closed = geometry.closed_form(&model)?;
                Ok(PlanPoint {
                    index: idx,
                    point,
                    config,
                    cost_overhead: tables.overhead[combo],
                    cost_rebuild_bw: rebuild_bw,
                    closed_mttdl_hours: closed.mttdl_hours,
                    closed_events_pb_year: closed.events_per_pb_year,
                    repair: [model.node_rebuild.rate, model.drive_repair.rate],
                    cost_rank: [overhead_rank[combo], bandwidth_rank[b]],
                })
            });
            match planned {
                Ok(p) => emit(idx, Ok(p)),
                Err(e) => emit(idx, Err(&e)),
            }
            idx += 1;
        }
    }
    Some(geometry)
}

/// The closed-form pass of [`plan_search`] on its own, on one worker:
/// every grid point of `space` in grid order, as the feasible point pass
/// 1 builds or the error that makes it infeasible.
///
/// # Errors
///
/// [`Error::InvalidParams`] for invalid base parameters or grid axes.
pub fn closed_form_pass(base: &Params, space: &ConfigSpace) -> Result<Vec<Result<PlanPoint>>> {
    base.validate()?;
    space.validate()?;
    let tables = GridTables::new(base, space);
    let geometries = space.nodes.len() * space.data_shards.len() * tables.classes.len();
    let mut out = Vec::with_capacity(space.len());
    for g in 0..geometries {
        pass1_geometry(space, &tables, g, &mut |_, p| {
            out.push(p.map_err(Error::clone))
        });
    }
    Ok(out)
}

/// The exact reliability of a pass-1 point on `geometry`, through the
/// worker's evaluator for its configuration.
fn solve_exact(
    evaluators: &mut HashMap<Configuration, CachedEvaluator>,
    geometry: &ModelGeometry,
    p: &PlanPoint,
) -> Result<Reliability> {
    let [mu_n, mu_repair] = p.repair;
    let exact = evaluators
        .entry(p.config)
        .or_insert_with(|| CachedEvaluator::new(p.config))
        .exact_mttdl(&geometry.chain(mu_n, mu_repair)?)?;
    Reliability::from_mttdl(exact, geometry.logical_capacity(1.0 - p.point.spare_frac))
}

/// Maps a float to an integer with the same `<` and `==`: `-0.0` and
/// `+0.0` coincide, so the kernel's sort order, its grouping of equal
/// vectors and its staircase comparisons cannot disagree about a tie.
fn ord(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// One point of a dominance question: `cost` is its two costs' ranks
/// on their axes ([`GridTables`]), `offered` the objective pair it offers
/// as a dominator and `asked` the pair a dominator has to beat, both
/// through [`ord`]. The frontier filter offers and asks with the exact
/// objectives; pruning offers the pessimistic bounds and asks with the
/// optimistic ones.
#[derive(Debug, Clone, Copy)]
struct DomPoint {
    cost: [u32; 2],
    offered: [u64; 2],
    asked: [u64; 2],
}

impl DomPoint {
    fn new(cost: [u32; 2], offered: [f64; 2], asked: [f64; 2]) -> DomPoint {
        DomPoint {
            cost,
            offered: offered.map(ord),
            asked: asked.map(ord),
        }
    }
}

/// Pareto-minimal `(x, y)` pairs, `x` strictly ascending and `y`
/// strictly descending: among the entries with `x` under a bound, the
/// last one has the smallest `y`.
#[derive(Default)]
struct Staircase(Vec<[u64; 2]>);

impl Staircase {
    /// Whether an entry is `≤ [x, y]` in both coordinates (`<` in both
    /// when `strict`).
    fn covers(&self, [x, y]: [u64; 2], strict: bool) -> bool {
        let under = self
            .0
            .partition_point(|e| if strict { e[0] < x } else { e[0] <= x });
        under > 0 && {
            let best = self.0[under - 1][1];
            best < y || (!strict && best == y)
        }
    }

    fn insert(&mut self, [x, y]: [u64; 2]) {
        if self.covers([x, y], false) {
            return;
        }
        // Entries the new pair makes redundant are contiguous: they
        // start at the first `x' ≥ x` and run while `y' ≥ y`.
        let lo = self.0.partition_point(|e| e[0] < x);
        let hi = lo + self.0[lo..].partition_point(|e| e[1] >= y);
        self.0.splice(lo..hi, [[x, y]]);
    }
}

/// For every point `P`, whether some point `Q` with a different cost
/// and offered pair is `≤ P` in both costs and offers objectives
/// `≤ P.asked` (`<` in both when `strict`). `levels` is the number of
/// ranks on each cost axis.
///
/// Points are visited in lexicographic (costs, offered) order with one
/// [`Staircase`] of offered pairs per second-cost rank. Every `Q` that
/// answers for `P` sorts strictly before it — weakly smaller everywhere
/// and not identical, or, under `strict`, offering less than `P.asked`,
/// which is at most what `P` offers (were it not, `P` would only be
/// kept, never wrongly dropped) — so each run of identical vectors is
/// queried against the staircases at or below its second cost and only
/// then inserted: identical vectors neither dominate nor are dominated,
/// and a point never answers for itself. `O(N·L·log N)` for `L` ranks
/// of the second cost.
///
/// The order needs no comparison of costs: the ranks name each point's
/// cost bucket, in cost order, so a counting sort places the points in
/// their buckets (ascending index within one) and each bucket is sorted
/// by its offered pair alone — a grid repeats its cost pairs many times
/// over (the benchmark grid has 1,116 pairs among 11,472 points).
fn dominated(points: &[DomPoint], levels: [usize; 2], strict: bool) -> Vec<bool> {
    let bucket = |p: &DomPoint| p.cost[0] as usize * levels[1] + p.cost[1] as usize;
    let mut starts = vec![0; levels[0] * levels[1] + 1];
    for p in points {
        starts[bucket(p) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut order = vec![0; points.len()];
    for (i, p) in points.iter().enumerate() {
        order[next[bucket(p)]] = i;
        next[bucket(p)] += 1;
    }
    let mut stairs: Vec<Staircase> = (0..levels[1]).map(|_| Staircase::default()).collect();

    let mut out = vec![false; points.len()];
    for members in starts.windows(2).map(|w| w[0]..w[1]) {
        let members = &mut order[members];
        let Some(&first) = members.first() else {
            continue;
        };
        let level = points[first].cost[1] as usize;
        members.sort_unstable_by_key(|&i| (points[i].offered, i));
        for run in members.chunk_by(|&a, &b| points[a].offered == points[b].offered) {
            for &i in run {
                out[i] = stairs[..=level]
                    .iter()
                    .any(|s| s.covers(points[i].asked, strict));
            }
            stairs[level].insert(points[run[0]].offered);
        }
    }
    out
}

/// The pessimistic and the optimistic objective pair of `p` over a
/// `years` mission. exact_mttdl ∈ [cf/(1+γ), cf/(1−γ)], and both
/// objectives are monotone decreasing in MTTDL, so they are bracketed by
/// evaluating at the band's ends.
fn guard_bounds(p: &PlanPoint, years: f64) -> [[f64; 2]; 2] {
    [PRUNE_GUARD, -PRUNE_GUARD].map(|guard| {
        [
            p.closed_events_pb_year * (1.0 + guard),
            mission_loss(p.closed_mttdl_hours / (1.0 + guard), years),
        ]
    })
}

/// Indices of `feasible` that survive guard-band pruning, in input
/// order.
///
/// A point `P` is pruned iff some other point `Q` has
/// `cost(Q) ≤ cost(P)` componentwise *and* `ub(Q) < lb(P)` in both
/// objectives — which proves `exact(Q)` strictly dominates `exact(P)`.
fn prune(feasible: &[PlanPoint], levels: [usize; 2], years: f64) -> Vec<usize> {
    let coords: Vec<DomPoint> = feasible
        .iter()
        .map(|p| {
            let [pessimistic, optimistic] = guard_bounds(p, years);
            DomPoint::new(p.cost_rank, pessimistic, optimistic)
        })
        .collect();
    let pruned = dominated(&coords, levels, true);
    (0..feasible.len()).filter(|&i| !pruned[i]).collect()
}

/// Searches `space` for the exact cost/reliability Pareto frontier.
///
/// See the module docs for the two-pass structure and the determinism
/// contract. In the default (pruned) mode only points that could be on
/// the exact frontier are solved; with [`PlanOptions::exhaustive`]
/// every feasible point is solved — both modes produce the identical
/// frontier. A pruned search that meets a guard-band violation returns
/// the exhaustive search's report, flagged.
///
/// # Errors
///
/// * [`Error::InvalidParams`] for invalid base parameters, grid axes or
///   mission horizon.
/// * Solver errors from the exact pass (a feasible model whose chain
///   cannot reach absorption would be a model bug, not a user error).
pub fn plan_search(base: &Params, space: &ConfigSpace, opts: &PlanOptions) -> Result<PlanReport> {
    base.validate()?;
    space.validate()?;
    if !(opts.mission_years > 0.0 && opts.mission_years.is_finite()) {
        return Err(Error::invalid("mission horizon must be positive"));
    }
    let total = space.len();
    crate::obs::PLAN_SEARCHES.inc();
    crate::obs::PLAN_POINTS.add(total as u64);
    let mut span = nsr_obs::trace::Span::enter("core.plan.search");
    span.field("points", || nsr_obs::Json::Num(total as f64));
    let mut clock = crate::obs::PlanClock::start();

    let workers = if opts.workers == 0 {
        crate::sweep::auto_workers(total)
    } else {
        opts.workers
    }
    .clamp(1, total.max(1));
    let years = opts.mission_years;

    // Pass 1: closed forms and costs for every grid point, one geometry
    // per work item, each worker collecting its own feasible points;
    // chunks are claimed in ascending order, so one worker's list is
    // already in grid order.
    let tables = GridTables::new(base, space);
    let per_geometry = space.spare_frac.len() * space.rebuild_bw.len();
    let share = || Pass1 {
        feasible: Vec::with_capacity(total.div_ceil(workers)),
        infeasible: Vec::new(),
    };
    let (geometries, parts) = parallel_map(
        total / per_geometry,
        workers,
        claim_chunk(total / per_geometry, workers),
        share,
        |part, g| pass1_geometry(space, &tables, g, &mut |idx, p| part.record(idx, p)),
        identity,
    );
    let mut parts = parts.into_iter();
    let Pass1 {
        mut feasible,
        mut infeasible,
    } = parts.next().expect("at least one worker");
    for part in parts {
        feasible.extend(part.feasible);
        infeasible.extend(part.infeasible);
    }
    if workers > 1 {
        feasible.sort_unstable_by_key(|p| p.index);
        infeasible.sort_unstable_by_key(|&(i, _)| i);
    }
    let infeasible_examples = infeasible
        .iter()
        .take(PlanReport::MAX_INFEASIBLE_EXAMPLES)
        .map(|(i, e)| (space.point(*i), e.to_string()))
        .collect();
    crate::obs::PLAN_FEASIBLE.add(feasible.len() as u64);
    clock.lap(&mut span, &crate::obs::PLAN_PASS1_SECONDS);

    // Pass 2 selection: guard-band pruning, unless exhaustive.
    let survivors: Vec<usize> = if opts.exhaustive {
        (0..feasible.len()).collect()
    } else {
        prune(&feasible, tables.levels, years)
    };
    let pruned = feasible.len() - survivors.len();
    clock.lap(&mut span, &crate::obs::PLAN_PRUNE_SECONDS);

    // Pass 2: exact solves for the survivors, each chain rebuilt from
    // the point's geometry and the repair rates pass 1 derived and solved
    // through the worker's evaluator for its configuration; results merge
    // by survivor index, bind/reuse tallies by sum.
    let (solved, evaluators) = parallel_map(
        survivors.len(),
        workers,
        claim_chunk(survivors.len(), workers),
        HashMap::new,
        |evaluators, i| {
            let p = &feasible[survivors[i]];
            let geometry = geometries[p.index / per_geometry]
                .as_ref()
                .expect("a feasible point's geometry was built");
            solve_exact(evaluators, geometry, p)
        },
        identity,
    );
    let (skeleton_builds, skeleton_reuses) = evaluators
        .iter()
        .flat_map(HashMap::values)
        .fold((0, 0), |(b, r), e| {
            (b + e.skeleton_builds(), r + e.skeleton_reuses())
        });
    crate::obs::PLAN_SKELETON_BUILDS.add(skeleton_builds);
    crate::obs::PLAN_SKELETON_REUSES.add(skeleton_reuses);

    let mut exact: Vec<FrontierPoint> = Vec::with_capacity(survivors.len());
    let mut guard_violations = 0;
    for (pos, r) in solved.into_iter().enumerate() {
        let rel = r?;
        let mttdl = rel.mttdl_hours;
        let p = feasible[survivors[pos]];
        let rel_err = (p.closed_mttdl_hours - mttdl).abs() / mttdl;
        if rel_err >= PRUNE_GUARD {
            guard_violations += 1;
        }
        exact.push(FrontierPoint {
            point: p,
            exact_mttdl_hours: mttdl,
            exact_events_pb_year: rel.events_per_pb_year,
            exact_mission_loss: mission_loss(mttdl, years),
        });
    }
    crate::obs::PLAN_SOLVES.add(exact.len() as u64);
    clock.lap(&mut span, &crate::obs::PLAN_SOLVE_SECONDS);

    // A violation voids the proof that the pruned points are off the
    // frontier: answer with the exhaustive search instead.
    if pruned > 0 && guard_violations > 0 {
        let all = PlanOptions {
            exhaustive: true,
            ..*opts
        };
        return plan_search(base, space, &all).map(|report| PlanReport {
            exhaustive_fallback: true,
            ..report
        });
    }
    crate::obs::PLAN_PRUNED.add(pruned as u64);
    crate::obs::PLAN_GUARD_VIOLATIONS.add(guard_violations as u64);

    // Exact 4-objective Pareto frontier over the solved set.
    let coords: Vec<DomPoint> = exact
        .iter()
        .map(|f| {
            let objectives = [f.exact_events_pb_year, f.exact_mission_loss];
            DomPoint::new(f.point.cost_rank, objectives, objectives)
        })
        .collect();
    let off_frontier = dominated(&coords, tables.levels, false);
    let mut frontier: Vec<FrontierPoint> = exact
        .into_iter()
        .zip(off_frontier)
        .filter_map(|(f, off)| (!off).then_some(f))
        .collect();
    frontier.sort_by(|a, b| {
        a.point
            .cost_overhead
            .total_cmp(&b.point.cost_overhead)
            .then(a.point.cost_rebuild_bw.total_cmp(&b.point.cost_rebuild_bw))
            .then(a.exact_events_pb_year.total_cmp(&b.exact_events_pb_year))
            .then(a.point.index.cmp(&b.point.index))
    });
    crate::obs::PLAN_FRONTIER.add(frontier.len() as u64);
    span.field("frontier", || nsr_obs::Json::Num(frontier.len() as f64));
    clock.lap(&mut span, &crate::obs::PLAN_FRONTIER_SECONDS);

    Ok(PlanReport {
        grid_points: total,
        feasible: feasible.len(),
        pruned,
        solved: survivors.len(),
        guard_violations,
        exhaustive_fallback: false,
        frontier,
        infeasible_examples,
        skeleton_builds,
        skeleton_reuses,
        mission_years: years,
    })
}

/// Renders the frontier as a deterministic CSV (stable column order,
/// Rust's shortest-round-trip float formatting): byte-identical across
/// worker counts and between pruned and exhaustive modes — ci.sh diffs
/// this against a golden file.
pub fn frontier_csv(report: &PlanReport) -> String {
    let mut out = String::from(
        "nodes,data_shards,node_ft,internal,spare_frac,rebuild_bw,\
         raw_usable,events_pb_year,mission_loss,mttdl_hours\n",
    );
    for f in &report.frontier {
        let p = f.point.point;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            p.nodes,
            p.data_shards,
            p.node_ft,
            p.internal.code(),
            p.spare_frac,
            p.rebuild_bw,
            f.point.cost_overhead,
            f.exact_events_pb_year,
            f.exact_mission_loss,
            f.exact_mttdl_hours,
        ));
    }
    out
}

/// A feasible plan: a configuration, its evaluation, and its storage
/// efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The configuration.
    pub config: Configuration,
    /// Its evaluation at the given parameters.
    pub evaluation: Evaluation,
    /// Usable fraction of raw capacity (erasure overhead × internal-RAID
    /// overhead × capacity-utilization policy).
    pub efficiency: f64,
}

/// Usable fraction of raw capacity for a configuration: cross-node code
/// overhead `(R−t)/R`, internal RAID overhead (`(d−f)/d`), and the
/// fail-in-place spare provisioning.
pub fn storage_efficiency(params: &Params, config: Configuration) -> f64 {
    config.code_and_raid_share(
        params.system.redundancy_set_size,
        params.node.drives_per_node,
    ) * params.system.capacity_utilization
}

/// Enumerates all configurations with fault tolerance `1..=max_ft` that
/// meet `target` events per PB-year, sorted by descending storage
/// efficiency (cheapest first). Infeasible combinations are silently
/// skipped.
///
/// # Errors
///
/// * [`Error::InvalidParams`] for a non-positive target or invalid base
///   parameters.
pub fn feasible_plans(params: &Params, target: f64, max_ft: u32) -> Result<Vec<Plan>> {
    if !(target > 0.0 && target.is_finite()) {
        return Err(Error::invalid("target must be positive and finite"));
    }
    params.validate()?;
    let mut plans = Vec::new();
    for ft in 1..=max_ft {
        for internal in InternalRaid::all() {
            let Ok(config) = Configuration::new(internal, ft) else {
                continue;
            };
            let Ok(evaluation) = config.evaluate(params) else {
                continue;
            };
            if evaluation.closed_form.events_per_pb_year < target {
                plans.push(Plan {
                    config,
                    evaluation,
                    efficiency: storage_efficiency(params, config),
                });
            }
        }
    }
    plans.sort_by(|a, b| b.efficiency.total_cmp(&a.efficiency));
    Ok(plans)
}

/// The smallest power-of-two rebuild block (KiB) at which `config` meets
/// `target` — the §8 "most significant controllable parameter", sized to
/// the goal. Searches 1 KiB to 4 MiB.
///
/// # Errors
///
/// * [`Error::InvalidParams`] for a non-positive target.
/// * [`Error::Infeasible`] when even a 4 MiB block (drive streaming limit)
///   cannot reach the target.
pub fn min_rebuild_block_for_target(
    params: &Params,
    config: Configuration,
    target: f64,
) -> Result<Bytes> {
    if !(target > 0.0 && target.is_finite()) {
        return Err(Error::invalid("target must be positive and finite"));
    }
    let mut kib = 1.0;
    while kib <= 4096.0 {
        let mut p = *params;
        p.system.rebuild_command = Bytes::from_kib(kib);
        if let Ok(eval) = config.evaluate(&p) {
            if eval.closed_form.events_per_pb_year < target {
                return Ok(Bytes::from_kib(kib));
            }
        }
        kib *= 2.0;
    }
    Err(Error::infeasible(format!(
        "configuration {config} cannot reach {target:.1e} events/PB-year with any \
         rebuild block up to 4 MiB"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TARGET_EVENTS_PER_PB_YEAR;
    use crate::units::Hours;

    fn small_space() -> ConfigSpace {
        ConfigSpace {
            nodes: vec![64],
            data_shards: vec![2, 5],
            node_ft: vec![1, 2, 3],
            internal: InternalRaid::all().to_vec(),
            spare_frac: vec![0.25],
            rebuild_bw: vec![0.1],
        }
    }

    #[test]
    fn space_len_and_decode_round_trip() {
        let s = small_space();
        assert_eq!(s.len(), 2 * 3 * 3);
        // Every index decodes to a distinct point; innermost axis varies
        // fastest.
        let pts: Vec<GridPoint> = (0..s.len()).map(|i| s.point(i)).collect();
        for (i, a) in pts.iter().enumerate() {
            for b in pts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(pts[0].internal, InternalRaid::None);
        assert_eq!(pts[1].internal, InternalRaid::Raid5);
        assert_eq!(s.point(0).data_shards, 2);
        assert_eq!(s.point(s.len() - 1).data_shards, 5);
    }

    #[test]
    fn invalid_axes_rejected() {
        let mut s = small_space();
        s.spare_frac = vec![1.0];
        assert!(s.validate().is_err());
        let mut s = small_space();
        s.rebuild_bw = vec![0.0];
        assert!(s.validate().is_err());
        let mut s = small_space();
        s.node_ft = vec![];
        assert!(s.validate().is_err());
        let mut s = small_space();
        s.data_shards = vec![0];
        assert!(s.validate().is_err());
    }

    #[test]
    fn a_repeated_axis_value_is_rejected_naming_the_axis() {
        type Repeat = fn(&mut ConfigSpace);
        let repeats: [(&str, Repeat); 6] = [
            ("nodes", |s| s.nodes = vec![64, 32, 64]),
            ("data_shards", |s| s.data_shards = vec![2, 2]),
            ("node_ft", |s| s.node_ft = vec![1, 2, 1]),
            ("internal", |s| s.internal.push(InternalRaid::Raid5)),
            // The two zeros are one spare fraction.
            ("spare_frac", |s| s.spare_frac = vec![0.0, 0.25, -0.0]),
            ("rebuild_bw", |s| s.rebuild_bw = vec![0.1, 0.2, 0.1]),
        ];
        for (axis, repeat) in repeats {
            let mut s = small_space();
            repeat(&mut s);
            match s.validate() {
                Err(Error::InvalidParams { what }) => {
                    assert!(what.contains(axis), "{axis}: {what}");
                }
                other => panic!("{axis}: {other:?}"),
            }
            assert!(plan_search(&Params::baseline(), &s, &PlanOptions::default()).is_err());
        }
    }

    #[test]
    fn t0_points_are_infeasible_not_errors() {
        let mut s = small_space();
        s.node_ft = vec![0, 2];
        let report = plan_search(&Params::baseline(), &s, &PlanOptions::default()).unwrap();
        assert_eq!(report.grid_points, 12);
        // The six t=0 points are infeasible, the six t=2 points feasible.
        assert_eq!(report.feasible, 6);
        assert!(report
            .infeasible_examples
            .iter()
            .any(|(p, reason)| p.node_ft == 0 && reason.contains("fault tolerance")));
    }

    #[test]
    fn replication_and_no_spares_evaluate() {
        // k=1 (replication) and spares=0 (rebuild defers to replacement;
        // full capacity utilization) are both valid corners.
        let s = ConfigSpace {
            nodes: vec![16],
            data_shards: vec![1],
            node_ft: vec![2],
            internal: vec![InternalRaid::None],
            spare_frac: vec![0.0],
            rebuild_bw: vec![0.1],
        };
        let report = plan_search(&Params::baseline(), &s, &PlanOptions::default()).unwrap();
        assert_eq!(report.feasible, 1);
        assert_eq!(report.solved, 1);
        let f = &report.frontier[0];
        // 3-way replication of 1 data shard: R = 3, raw/usable ≥ 3.
        assert!(f.point.cost_overhead >= 3.0, "{}", f.point.cost_overhead);
        assert!(f.exact_mttdl_hours > 0.0);
    }

    #[test]
    fn exact_solves_match_cached_evaluator_bit_for_bit() {
        // The batched engine must reproduce `Configuration::evaluate`'s
        // exact MTTDL exactly, across all nine paper configurations.
        let params = Params::baseline();
        for config in Configuration::all_nine() {
            let t = config.node_fault_tolerance();
            let space = ConfigSpace {
                nodes: vec![64],
                data_shards: vec![8 - t],
                node_ft: vec![t],
                internal: vec![config.internal()],
                spare_frac: vec![0.25],
                rebuild_bw: vec![0.1],
            };
            let report = plan_search(
                &params,
                &space,
                &PlanOptions {
                    exhaustive: true,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
            assert_eq!(report.solved, 1, "{config}");
            let got = report.frontier[0].exact_mttdl_hours;
            let want = config.evaluate(&params).unwrap().exact.mttdl_hours;
            assert_eq!(got.to_bits(), want.to_bits(), "{config}");
        }
    }

    #[test]
    fn pruned_equals_exhaustive_frontier_bitwise() {
        let params = Params::baseline();
        let spaces = [
            small_space(),
            ConfigSpace {
                nodes: vec![32, 64],
                data_shards: vec![1, 4, 6],
                node_ft: vec![0, 1, 2, 3],
                internal: InternalRaid::all().to_vec(),
                spare_frac: vec![0.0, 0.25],
                rebuild_bw: vec![0.05, 0.2],
            },
            ConfigSpace::default_grid(),
        ];
        for (si, space) in spaces.iter().enumerate() {
            let pruned = plan_search(&params, space, &PlanOptions::default()).unwrap();
            let exhaustive = plan_search(
                &params,
                space,
                &PlanOptions {
                    exhaustive: true,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
            assert_eq!(pruned.guard_violations, 0, "space {si}");
            assert!(
                pruned.pruned > 0,
                "space {si}: pruning should fire on multi-point grids"
            );
            assert_eq!(
                frontier_csv(&pruned),
                frontier_csv(&exhaustive),
                "space {si}: pruned and exhaustive frontiers must be identical"
            );
        }
    }

    #[test]
    fn workers_do_not_change_the_frontier() {
        let params = Params::baseline();
        let space = small_space();
        let base = plan_search(&params, &space, &PlanOptions::default()).unwrap();
        for workers in [2, 4, 7] {
            let r = plan_search(
                &params,
                &space,
                &PlanOptions {
                    workers,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                frontier_csv(&base),
                frontier_csv(&r),
                "workers={workers} must be byte-identical"
            );
        }
    }

    #[test]
    fn skeleton_reuse_dominates_on_a_grid() {
        let params = Params::baseline();
        let report = plan_search(
            &params,
            &ConfigSpace::default_grid(),
            &PlanOptions {
                exhaustive: true,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        assert!(report.skeleton_builds > 0);
        assert!(
            report.skeleton_reuses > report.skeleton_builds,
            "builds {} reuses {}",
            report.skeleton_builds,
            report.skeleton_reuses
        );
        assert_eq!(
            report.skeleton_builds + report.skeleton_reuses,
            report.solved as u64
        );
    }

    #[test]
    fn frontier_members_are_mutually_non_dominated() {
        let params = Params::baseline();
        let report = plan_search(
            &params,
            &ConfigSpace::default_grid(),
            &PlanOptions::default(),
        )
        .unwrap();
        assert!(!report.frontier.is_empty());
        for (i, a) in report.frontier.iter().enumerate() {
            for (j, b) in report.frontier.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = a.point.cost_overhead <= b.point.cost_overhead
                    && a.point.cost_rebuild_bw <= b.point.cost_rebuild_bw
                    && a.exact_events_pb_year <= b.exact_events_pb_year
                    && a.exact_mission_loss <= b.exact_mission_loss
                    && (a.point.cost_overhead < b.point.cost_overhead
                        || a.point.cost_rebuild_bw < b.point.cost_rebuild_bw
                        || a.exact_events_pb_year < b.exact_events_pb_year
                        || a.exact_mission_loss < b.exact_mission_loss);
                assert!(!dominates, "frontier member {i} dominates {j}");
            }
        }
    }

    /// A raw kernel input: costs, offered objectives, asked objectives.
    type Raw = ([f64; 2], [f64; 2], [f64; 2]);

    /// The kernel on raw inputs, each cost ranked on its axis as
    /// [`GridTables`] ranks a grid's.
    fn kernel(raw: &[Raw], strict: bool) -> Vec<bool> {
        let axis = |d: usize| ranks(&raw.iter().map(|r| r.0[d]).collect::<Vec<_>>());
        let ((first, n_first), (second, n_second)) = (axis(0), axis(1));
        let points: Vec<DomPoint> = raw
            .iter()
            .enumerate()
            .map(|(i, &(_, o, a))| DomPoint::new([first[i], second[i]], o, a))
            .collect();
        dominated(&points, [n_first, n_second], strict)
    }

    /// The kernel as it was before costs came ranked, kept as an oracle:
    /// every coordinate through [`ord`], points bucketed by their cost
    /// pair through a hash map, the distinct pairs sorted, each bucket
    /// sorted by its offered pair.
    fn dominated_hashed(raw: &[Raw], strict: bool) -> Vec<bool> {
        let key = |i: usize| {
            let (c, o, _) = raw[i];
            [c[0], c[1], o[0], o[1]].map(ord)
        };
        let mut ids: HashMap<(u64, u64), usize> = HashMap::new();
        let mut buckets: Vec<([u64; 2], Vec<usize>)> = Vec::new();
        for i in 0..raw.len() {
            let [c0, c1, _, _] = key(i);
            let b = *ids.entry((c0, c1)).or_insert_with(|| {
                buckets.push(([c0, c1], Vec::new()));
                buckets.len() - 1
            });
            buckets[b].1.push(i);
        }
        buckets.sort_unstable_by_key(|b| b.0);
        let mut levels: Vec<u64> = buckets.iter().map(|b| b.0[1]).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut stairs: Vec<Staircase> = levels.iter().map(|_| Staircase::default()).collect();
        let mut out = vec![false; raw.len()];
        for ([_, c2], mut members) in buckets {
            members.sort_unstable_by_key(|&i| (key(i)[2], key(i)[3], i));
            let at_or_below = levels.partition_point(|&l| l <= c2);
            for run in members.chunk_by(|&a, &b| key(a) == key(b)) {
                for &i in run {
                    let asked = raw[i].2.map(ord);
                    out[i] = stairs[..at_or_below]
                        .iter()
                        .any(|s| s.covers(asked, strict));
                }
                let [_, _, x, y] = key(run[0]);
                stairs[at_or_below - 1].insert([x, y]);
            }
        }
        out
    }

    /// The pruning scan the kernel replaced, kept as its oracle: the
    /// Pareto-minimal set of `(cost, offered)` vectors by a lexicographic
    /// sweep, then a witness search over that set for every point.
    fn pruned_quadratic(raw: &[Raw]) -> Vec<bool> {
        let vector = |i: usize| [raw[i].0[0], raw[i].0[1], raw[i].1[0], raw[i].1[1]];
        let mut order: Vec<usize> = (0..raw.len()).collect();
        order.sort_by(|&a, &b| {
            let by_coordinate = vector(a).into_iter().zip(vector(b));
            by_coordinate
                .map(|(x, y)| x.total_cmp(&y))
                .fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
                .then(a.cmp(&b))
        });
        let mut minimal: Vec<usize> = Vec::new();
        for &i in &order {
            let c = vector(i);
            if !minimal
                .iter()
                .any(|&m| (0..4).all(|d| vector(m)[d] <= c[d]))
            {
                minimal.push(i);
            }
        }
        (0..raw.len())
            .map(|i| {
                let (cost, _, asked) = raw[i];
                minimal.iter().any(|&m| {
                    let (q_cost, q_offered, _) = raw[m];
                    m != i
                        && q_cost[0] <= cost[0]
                        && q_cost[1] <= cost[1]
                        && q_offered[0] < asked[0]
                        && q_offered[1] < asked[1]
                })
            })
            .collect()
    }

    /// The all-pairs frontier filter the kernel replaced, kept as its
    /// oracle: weakly better everywhere, strictly somewhere.
    fn dominated_quadratic(raw: &[Raw]) -> Vec<bool> {
        let vector = |i: usize| [raw[i].0[0], raw[i].0[1], raw[i].1[0], raw[i].1[1]];
        (0..raw.len())
            .map(|i| {
                let p = vector(i);
                (0..raw.len()).any(|j| {
                    let q = vector(j);
                    j != i && (0..4).all(|d| q[d] <= p[d]) && (0..4).any(|d| q[d] < p[d])
                })
            })
            .collect()
    }

    /// Random kernel inputs built to collide: every coordinate is drawn
    /// from a small pool that always holds `-0.0`, `+0.0` and the
    /// saturated 1.0, a quarter of the points are copies of earlier
    /// ones, and the second cost has at most `levels` values.
    /// `asked ≤ offered`, as the guard band gives; the frontier cases ask
    /// with what they offer.
    fn colliding_points(
        rng: &mut nsr_rng::rngs::StdRng,
        n: usize,
        levels: usize,
        one_first_cost: bool,
        frontier: bool,
    ) -> Vec<Raw> {
        use nsr_rng::Rng;
        let mut pool = |extra: usize| -> Vec<f64> {
            let drawn = (0..extra).map(|_| rng.random::<f64>());
            [-0.0, 0.0, 1.0].into_iter().chain(drawn).collect()
        };
        let objectives = pool(1 + n / 40);
        let first_costs = if one_first_cost {
            vec![1.5]
        } else {
            pool(1 + n / 100)
        };
        let second_costs: Vec<f64> = (0..levels).map(|l| l as f64 * 0.01).collect();
        let mut out: Vec<Raw> = Vec::with_capacity(n);
        for _ in 0..n {
            if !out.is_empty() && rng.random_range_usize(0, 4) == 0 {
                out.push(out[rng.random_range_usize(0, out.len())]);
                continue;
            }
            let mut pick = |from: &[f64]| from[rng.random_range_usize(0, from.len())];
            let mut bracket = || {
                let (a, b) = (pick(&objectives), pick(&objectives));
                if a <= b {
                    [a, b]
                } else {
                    [b, a]
                }
            };
            let ([lo0, hi0], [lo1, hi1]) = (bracket(), bracket());
            let offered = [hi0, hi1];
            let asked = if frontier { offered } else { [lo0, lo1] };
            out.push(([pick(&first_costs), pick(&second_costs)], offered, asked));
        }
        out
    }

    #[test]
    fn kernel_matches_both_quadratic_oracles_on_colliding_points() {
        use nsr_rng::{Rng, SeedableRng};
        let mut rng = nsr_rng::rngs::StdRng::seed_from_u64(0x5EED_0023);
        let mut sizes = vec![0, 1, 2, 2000];
        sizes.extend((0..40).map(|_| rng.random_range_usize(0, 2001)));
        for (case, n) in sizes.into_iter().enumerate() {
            let levels = rng.random_range_usize(1, 51);
            let one_first_cost = case % 5 == 4;
            let raw = colliding_points(&mut rng, n, levels, one_first_cost, false);
            let got = kernel(&raw, true);
            assert_eq!(
                got,
                pruned_quadratic(&raw),
                "pruning, case {case}: n {n}, {levels} levels"
            );
            assert_eq!(got, dominated_hashed(&raw, true), "pruning, case {case}");
            let raw = colliding_points(&mut rng, n, levels, one_first_cost, true);
            let got = kernel(&raw, false);
            assert_eq!(
                got,
                dominated_quadratic(&raw),
                "frontier, case {case}: n {n}, {levels} levels"
            );
            assert_eq!(got, dominated_hashed(&raw, false), "frontier, case {case}");
        }
    }

    #[test]
    fn grid_ranks_bucket_colliding_overheads_as_the_oracles_do() {
        // k = 2, t = 1 and k = 4, t = 2 keep the same 2/3 of raw
        // capacity, as do k = 1, t = 1 and k = 3, t = 3, so overheads
        // collide across (k, t, internal RAID). N = 3 and 5 make the wide
        // sets infeasible there, t = 0 everywhere; the bandwidth axis is
        // listed out of order.
        let space = ConfigSpace {
            nodes: vec![3, 5, 16],
            data_shards: vec![1, 2, 3, 4, 6],
            node_ft: vec![0, 1, 2, 3],
            internal: InternalRaid::all().to_vec(),
            spare_frac: vec![0.0, 0.5],
            rebuild_bw: vec![0.4, 0.1, 0.2],
        };
        let base = Params::baseline();
        let tables = GridTables::new(&base, &space);
        let pass = closed_form_pass(&base, &space).unwrap();
        let feasible: Vec<PlanPoint> = pass.iter().filter_map(|p| p.clone().ok()).collect();
        assert!(feasible.len() < space.len());
        let feasible_at = |n: u32, k: u32, t: u32| {
            feasible
                .iter()
                .any(|p| (p.point.nodes, p.point.data_shards, p.point.node_ft) == (n, k, t))
        };
        assert!(feasible_at(16, 4, 2) && !feasible_at(5, 4, 2) && !feasible_at(3, 4, 2));

        // Equal pairs share a rank and rank order is sorted pair order.
        let pairs = |p: &PlanPoint| [p.cost_overhead, p.cost_rebuild_bw];
        let combos = |key: fn(&PlanPoint) -> [u64; 4]| {
            let mut seen: Vec<[u64; 4]> = feasible.iter().map(key).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        let distinct_costs = combos(|p| [p.cost_overhead, p.cost_rebuild_bw, 0.0, 0.0].map(ord));
        let distinct_cells = combos(|p| {
            let t = u64::from(p.point.node_ft);
            let k = u64::from(p.point.data_shards);
            [
                k,
                t << 8 | p.point.internal as u64,
                ord(p.point.spare_frac),
                ord(p.point.rebuild_bw),
            ]
        });
        assert!(
            distinct_costs < distinct_cells,
            "{distinct_costs} of {distinct_cells}"
        );
        for a in &feasible {
            for b in &feasible {
                let by_value = pairs(a).map(ord).cmp(&pairs(b).map(ord));
                assert_eq!(a.cost_rank.cmp(&b.cost_rank), by_value, "{a:?} {b:?}");
            }
        }

        // The prune and the frontier filter decide as the hashed and
        // quadratic oracles do on the float costs.
        let years = 5.0;
        let raw: Vec<Raw> = feasible
            .iter()
            .map(|p| {
                let [pessimistic, optimistic] = guard_bounds(p, years);
                (pairs(p), pessimistic, optimistic)
            })
            .collect();
        let survivors = prune(&feasible, tables.levels, years);
        let pruned: Vec<bool> = (0..feasible.len())
            .map(|i| !survivors.contains(&i))
            .collect();
        assert!(pruned.iter().any(|&p| p) && !survivors.is_empty());
        assert_eq!(pruned, pruned_quadratic(&raw));
        assert_eq!(pruned, dominated_hashed(&raw, true));
        let objectives = |p: &PlanPoint| {
            [
                p.closed_events_pb_year,
                mission_loss(p.closed_mttdl_hours, years),
            ]
        };
        let raw: Vec<Raw> = feasible
            .iter()
            .map(|p| (pairs(p), objectives(p), objectives(p)))
            .collect();
        let coords: Vec<DomPoint> = feasible
            .iter()
            .map(|p| DomPoint::new(p.cost_rank, objectives(p), objectives(p)))
            .collect();
        let off_frontier = dominated(&coords, tables.levels, false);
        assert_eq!(off_frontier, dominated_quadratic(&raw));
        assert_eq!(off_frontier, dominated_hashed(&raw, false));
    }

    #[test]
    fn ranks_share_equal_values_in_ascending_order() {
        assert_eq!(ranks(&[]), (vec![], 0));
        assert_eq!(
            ranks(&[0.5, -0.0, 1.0, 0.0, 0.5, -1.0]),
            (vec![2, 1, 3, 1, 2, 0], 4)
        );
    }

    #[test]
    fn signed_zeros_and_copies_tie_in_the_kernel() {
        // Same vector up to the sign of zero, three times: nobody wins.
        let tie: Raw = ([1.0, 0.1], [0.0, 1.0], [0.0, 1.0]);
        let negative: Raw = ([1.0, 0.1], [-0.0, 1.0], [-0.0, 1.0]);
        assert_eq!(kernel(&[tie, negative, tie], false), [false; 3]);
        // One coordinate strictly better: the other three are dominated.
        let better: Raw = ([1.0, 0.05], [0.0, 1.0], [0.0, 1.0]);
        assert_eq!(
            kernel(&[tie, negative, better, tie], false),
            [true, true, false, true]
        );
        // Strict mode needs both objectives strictly below what is asked.
        let asks_zero: Raw = ([2.0, 0.1], [0.5, 0.5], [0.0, 0.25]);
        let offers_negative_zero: Raw = ([1.0, 0.1], [-0.0, 0.0], [-0.0, 0.0]);
        assert_eq!(kernel(&[asks_zero, offers_negative_zero], true), [false; 2]);
    }

    #[test]
    fn pruned_equals_exhaustive_on_a_wide_grid_at_any_worker_count() {
        // 8 × 12 × 4 × 3 × 6 × 8 = 55,296 points on eight bandwidth levels.
        let space = ConfigSpace {
            nodes: vec![12, 16, 24, 32, 64, 96, 128, 256],
            data_shards: (1..=12).collect(),
            node_ft: vec![1, 2, 3, 4],
            internal: InternalRaid::all().to_vec(),
            spare_frac: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4],
            rebuild_bw: vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.8],
        };
        assert!(space.len() >= 50_000);
        let params = Params::baseline();
        let search = |workers, exhaustive| {
            let opts = PlanOptions {
                workers,
                exhaustive,
                ..PlanOptions::default()
            };
            plan_search(&params, &space, &opts).unwrap()
        };
        let exhaustive = search(1, true);
        assert_eq!(exhaustive.pruned, 0);
        assert_eq!(exhaustive.solved, exhaustive.feasible);
        let pruned = search(1, false);
        assert!(!pruned.exhaustive_fallback);
        assert!(pruned.pruned > pruned.solved, "{}", pruned.pruned);
        for (what, report) in [
            ("pruned, 1 worker", &pruned),
            ("pruned, 3 workers", &search(3, false)),
            ("pruned, 8 workers", &search(8, false)),
            ("exhaustive, 3 workers", &search(3, true)),
        ] {
            assert_eq!(report.grid_points, exhaustive.grid_points, "{what}");
            assert_eq!(report.feasible, exhaustive.feasible, "{what}");
            assert_eq!(report.pruned + report.solved, report.feasible, "{what}");
            assert_eq!(report.guard_violations, 0, "{what}");
            assert_eq!(
                report.infeasible_examples, exhaustive.infeasible_examples,
                "{what}"
            );
            assert_eq!(report.frontier, exhaustive.frontier, "{what}");
            assert_eq!(frontier_csv(report), frontier_csv(&exhaustive), "{what}");
            if !what.starts_with("exhaustive") {
                assert_eq!(report.pruned, pruned.pruned, "{what}");
            }
        }
    }

    #[test]
    fn a_guard_violation_falls_back_to_the_exhaustive_search() {
        // At a hard-error rate of 1e-13 the closed form is off by more
        // than the guard for some solved points, so pruning proves
        // nothing: the search must say so and answer exhaustively.
        let mut params = Params::baseline();
        params.drive.hard_error_rate_per_bit = 1e-13;
        let space = ConfigSpace::default_grid();
        let flagged = plan_search(&params, &space, &PlanOptions::default()).unwrap();
        let exhaustive = plan_search(
            &params,
            &space,
            &PlanOptions {
                exhaustive: true,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        assert!(flagged.exhaustive_fallback);
        assert!(flagged.guard_violations > 0);
        assert!(!exhaustive.exhaustive_fallback);
        assert_eq!(
            flagged,
            PlanReport {
                exhaustive_fallback: true,
                ..exhaustive
            }
        );
        // Inside the band nothing falls back.
        let baseline = plan_search(&Params::baseline(), &space, &PlanOptions::default()).unwrap();
        assert!(!baseline.exhaustive_fallback);
        assert_eq!(baseline.guard_violations, 0);
    }

    #[test]
    fn csv_shape_is_stable() {
        let params = Params::baseline();
        let report = plan_search(&params, &small_space(), &PlanOptions::default()).unwrap();
        let csv = frontier_csv(&report);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "nodes,data_shards,node_ft,internal,spare_frac,rebuild_bw,\
             raw_usable,events_pb_year,mission_loss,mttdl_hours"
        );
        assert_eq!(csv.lines().count(), report.frontier.len() + 1);
        for line in lines {
            assert_eq!(line.split(',').count(), 10);
        }
    }

    #[test]
    fn baseline_feasible_set_matches_figure_13() {
        let plans = feasible_plans(&Params::baseline(), TARGET_EVENTS_PER_PB_YEAR, 3).unwrap();
        // Exactly the five configurations below the target in Figure 13.
        assert_eq!(plans.len(), 5);
        // No FT-1 configuration sneaks in.
        assert!(plans.iter().all(|p| p.config.node_fault_tolerance() >= 2));
        // Sorted by efficiency: [FT2, no IR]? no — FT2-nir misses. The most
        // efficient feasible plan is [FT3, no IR] ((R−3)/R = 0.625·0.75)
        // vs [FT2, IR5] (0.75·11/12·0.75).
        let eff: Vec<f64> = plans.iter().map(|p| p.efficiency).collect();
        assert!(eff.windows(2).all(|w| w[0] >= w[1]), "{eff:?}");
    }

    #[test]
    fn efficiency_formula() {
        let params = Params::baseline();
        let nir2 = Configuration::new(InternalRaid::None, 2).unwrap();
        // (8−2)/8 × 1 × 0.75 = 0.5625.
        assert!((storage_efficiency(&params, nir2) - 0.5625).abs() < 1e-12);
        let ir5 = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        // 0.75 × 11/12 × 0.75.
        assert!((storage_efficiency(&params, ir5) - 0.75 * 11.0 / 12.0 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_rebuild_block_matches_figure_16() {
        // §8: "[FT2, IR5] or [FT3, no IR] meet the reliability requirement
        // with the condition that the rebuild block size is at least
        // 64 KB" — the paper's Figure 16 runs at *low* MTTFs. At the
        // baseline MTTFs the knee is earlier; at the low-MTTF corner it
        // must sit near the paper's 64 KiB.
        let baseline = Params::baseline();
        let mut low = Params::baseline();
        low.drive.mttf = Hours(100_000.0);
        low.node.mttf = Hours(100_000.0);
        for (internal, ft) in [(InternalRaid::Raid5, 2), (InternalRaid::None, 3)] {
            let config = Configuration::new(internal, ft).unwrap();
            let at_base =
                min_rebuild_block_for_target(&baseline, config, TARGET_EVENTS_PER_PB_YEAR)
                    .unwrap()
                    .0
                    / 1024.0;
            let at_low = min_rebuild_block_for_target(&low, config, TARGET_EVENTS_PER_PB_YEAR)
                .unwrap()
                .0
                / 1024.0;
            assert!(at_base <= 16.0, "{config}: baseline knee {at_base} KiB");
            assert!(
                (16.0..=128.0).contains(&at_low),
                "{config}: low-MTTF knee {at_low} KiB (paper: 64 KiB)"
            );
            assert!(at_low > at_base, "{config}");
        }
    }

    #[test]
    fn impossible_targets_are_infeasible() {
        let params = Params::baseline();
        let ft1 = Configuration::new(InternalRaid::None, 1).unwrap();
        assert!(min_rebuild_block_for_target(&params, ft1, 1e-30).is_err());
        assert!(feasible_plans(&params, 1e-30, 3).unwrap().is_empty());
    }

    #[test]
    fn argument_validation() {
        let params = Params::baseline();
        let c = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        assert!(feasible_plans(&params, 0.0, 3).is_err());
        assert!(min_rebuild_block_for_target(&params, c, f64::NAN).is_err());
    }

    #[test]
    fn relaxed_target_admits_more_plans() {
        let strict = feasible_plans(&Params::baseline(), 1e-6, 3).unwrap().len();
        let relaxed = feasible_plans(&Params::baseline(), 1e-1, 3).unwrap().len();
        assert!(relaxed > strict);
        assert_eq!(relaxed, 8); // everything but FT1-no-IR (4.4e1)
    }
}
