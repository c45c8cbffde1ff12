//! The fleet capacity planner: Pareto frontier search over a
//! configuration grid (§9 grown into a tool).
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
//!    work-claiming.
//! 2. **Guard-band dominance pruning** — the closed form is within a
//!    pinned relative band of the exact CTMC answer (`evaluate_baseline
//!    _all_nine` pins ≤ 0.35); inflating that band to [`PRUNE_GUARD`]
//!    turns closed-form comparisons into *proofs* about exact values: if
//!    `Q`'s costs are ≤ `P`'s and `Q`'s pessimistic objectives beat
//!    `P`'s optimistic ones, `Q` exactly-dominates `P` and `P` cannot be
//!    on the exact frontier. Only survivors are solved exactly, through
//!    the same [`CachedEvaluator`] the sweep engine uses (compiled GTH
//!    programs shared per topology class, process-wide).
//!    The soundness argument — including why pruning against
//!    later-pruned points is still sound — is DESIGN.md §3j; the
//!    property tests below pin the pruned frontier bit-identical to the
//!    exhaustive one.
//!
//! Determinism contract: results are merged by grid index and every
//! per-point computation is pure, so the report (and its CSV rendering)
//! is byte-identical for every `--workers` count, pruned or exhaustive.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::config::{CachedEvaluator, Configuration};
use crate::params::Params;
use crate::planner::storage_efficiency;
use crate::raid::InternalRaid;
use crate::sweep::claim_chunk;
use crate::units::HOURS_PER_YEAR;
use crate::{Error, Result};

/// Relative guard band around the closed-form MTTDL used by the pruning
/// pass: the exact MTTDL is assumed to lie in
/// `[closed/(1+γ), closed/(1−γ)]` with `γ` = this constant.
///
/// The pinned closed-vs-exact agreement is ≤ 0.35 relative (FT 1 at
/// baseline; ≤ 0.15 elsewhere), so 0.5 leaves a comfortable margin.
/// Pruning is sound as long as the true relative error stays below the
/// guard; [`PlanReport::guard_violations`] counts solved points that
/// landed outside the band (0 in every pinned grid), and the property
/// tests compare pruned against exhaustive frontiers bit-for-bit.
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
        Ok(())
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

    /// The CLI-style configuration code, e.g. `ft2-ir5`.
    pub fn config_code(&self) -> String {
        let ir = match self.internal {
            InternalRaid::None => "nir",
            InternalRaid::Raid5 => "ir5",
            InternalRaid::Raid6 => "ir6",
        };
        format!("ft{}-{ir}", self.node_ft)
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
    /// Closed-form mission loss probability over the search's horizon.
    pub closed_mission_loss: f64,
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

/// Closed-form pass for one grid point.
fn pass1(base: &Params, space: &ConfigSpace, idx: usize, years: f64) -> StdResult {
    let point = space.point(idx);
    let inner = || -> Result<PlanPoint> {
        let config = Configuration::new(point.internal, point.node_ft)?;
        let params = point.params(base);
        let closed = config.closed_form(&params)?;
        let efficiency = storage_efficiency(&params, config);
        Ok(PlanPoint {
            index: idx,
            point,
            config,
            cost_overhead: 1.0 / efficiency,
            cost_rebuild_bw: point.rebuild_bw,
            closed_mttdl_hours: closed.mttdl_hours,
            closed_events_pb_year: closed.events_per_pb_year,
            closed_mission_loss: mission_loss(closed.mttdl_hours, years),
        })
    };
    match inner() {
        Ok(p) => Ok(p),
        Err(e) => Err((point, e.to_string())),
    }
}

type StdResult = std::result::Result<PlanPoint, (GridPoint, String)>;

/// Runs `work` over `0..total` with the sweep engine's chunked
/// work-claiming, merging by index — deterministic for any worker count.
/// Each worker threads its own `S` (from `init`) through its calls; the
/// states come back alongside the results.
fn parallel_map<S, T>(
    total: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
{
    if workers <= 1 || total <= 1 {
        let mut state = init();
        let out = (0..total).map(|i| work(&mut state, i)).collect();
        return (out, vec![state]);
    }
    let next = AtomicUsize::new(0);
    let (next, init, work) = (&next, &init, &work);
    let per_worker: Vec<(Vec<(usize, T)>, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    nsr_obs::set_trace_lane(w as u64 + 1);
                    let mut state = init();
                    let mut mine = Vec::new();
                    let chunk = claim_chunk(total, workers);
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= total {
                            break;
                        }
                        let end = (start + chunk).min(total);
                        for i in start..end {
                            mine.push((i, work(&mut state, i)));
                        }
                    }
                    (mine, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("plan worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let mut states = Vec::with_capacity(workers);
    for (mine, state) in per_worker {
        states.push(state);
        for (i, v) in mine {
            slots[i] = Some(v);
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect();
    (out, states)
}

/// The guard-band coordinates of a feasible point: exact costs plus
/// optimistic (`lb_*`) and pessimistic (`ub_*`) bounds on the exact
/// objectives derived from the closed form.
#[derive(Debug, Clone, Copy)]
struct GuardCoords {
    c1: f64,
    c2: f64,
    lb_events: f64,
    ub_events: f64,
    lb_mission: f64,
    ub_mission: f64,
}

fn guard_coords(p: &PlanPoint, years: f64) -> GuardCoords {
    // exact_mttdl ∈ [cf/(1+γ), cf/(1−γ)] ⇒ objectives (both monotone
    // decreasing in MTTDL) are bracketed by evaluating at the bounds.
    let lb_mttdl = p.closed_mttdl_hours / (1.0 + PRUNE_GUARD);
    let ub_mttdl = p.closed_mttdl_hours / (1.0 - PRUNE_GUARD);
    GuardCoords {
        c1: p.cost_overhead,
        c2: p.cost_rebuild_bw,
        lb_events: p.closed_events_pb_year * (1.0 - PRUNE_GUARD),
        ub_events: p.closed_events_pb_year * (1.0 + PRUNE_GUARD),
        lb_mission: mission_loss(ub_mttdl, years),
        ub_mission: mission_loss(lb_mttdl, years),
    }
}

/// Indices of `feasible` that survive guard-band pruning, in input
/// order.
///
/// A point `P` is pruned iff some other point `Q` has
/// `cost(Q) ≤ cost(P)` componentwise *and* `ub(Q) < lb(P)` in both
/// objectives — which proves `exact(Q)` strictly dominates `exact(P)`.
/// The witness search is restricted to the Pareto-minimal set of
/// `(c1, c2, ub_events, ub_mission)` vectors: any pruning witness is
/// itself weakly dominated by a minimal element, which is then also a
/// witness (and can never be `P` itself, since `ub > lb` for every
/// point). This keeps the pass `O(N·|M|)` with `|M| ≪ N`.
fn prune(feasible: &[PlanPoint], years: f64) -> Vec<usize> {
    let coords: Vec<GuardCoords> = feasible.iter().map(|p| guard_coords(p, years)).collect();

    // Pareto-minimal set of (c1, c2, ub_events, ub_mission) under weak
    // componentwise dominance, via a lexicographic sweep: any dominator
    // of a point sorts before it, so checking kept elements suffices.
    let mut order: Vec<usize> = (0..coords.len()).collect();
    order.sort_by(|&a, &b| {
        let (ca, cb) = (&coords[a], &coords[b]);
        ca.c1
            .total_cmp(&cb.c1)
            .then(ca.c2.total_cmp(&cb.c2))
            .then(ca.ub_events.total_cmp(&cb.ub_events))
            .then(ca.ub_mission.total_cmp(&cb.ub_mission))
            .then(a.cmp(&b))
    });
    let mut minimal: Vec<usize> = Vec::new();
    for &i in &order {
        let c = &coords[i];
        let dominated = minimal.iter().any(|&m| {
            let q = &coords[m];
            q.c1 <= c.c1
                && q.c2 <= c.c2
                && q.ub_events <= c.ub_events
                && q.ub_mission <= c.ub_mission
        });
        if !dominated {
            minimal.push(i);
        }
    }

    (0..feasible.len())
        .filter(|&i| {
            let p = &coords[i];
            !minimal.iter().any(|&m| {
                m != i && {
                    let q = &coords[m];
                    q.c1 <= p.c1
                        && q.c2 <= p.c2
                        && q.ub_events < p.lb_events
                        && q.ub_mission < p.lb_mission
                }
            })
        })
        .collect()
}

/// Searches `space` for the exact cost/reliability Pareto frontier.
///
/// See the module docs for the two-pass structure and the determinism
/// contract. In the default (pruned) mode only points that could be on
/// the exact frontier are solved; with [`PlanOptions::exhaustive`]
/// every feasible point is solved — both modes produce the identical
/// frontier.
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

    let workers = if opts.workers == 0 {
        crate::sweep::auto_workers(total)
    } else {
        opts.workers
    }
    .clamp(1, total.max(1));
    let years = opts.mission_years;

    // Pass 1: closed forms and costs for every grid point.
    let (evaluated, _) = parallel_map(total, workers, || (), |(), i| pass1(base, space, i, years));
    let mut feasible = Vec::new();
    let mut infeasible_examples = Vec::new();
    for r in evaluated {
        match r {
            Ok(p) => feasible.push(p),
            Err((point, reason)) => {
                if infeasible_examples.len() < PlanReport::MAX_INFEASIBLE_EXAMPLES {
                    infeasible_examples.push((point, reason));
                }
            }
        }
    }
    crate::obs::PLAN_FEASIBLE.add(feasible.len() as u64);

    // Pass 2 selection: guard-band pruning, unless exhaustive.
    let survivors: Vec<usize> = if opts.exhaustive {
        (0..feasible.len()).collect()
    } else {
        prune(&feasible, years)
    };
    let pruned = feasible.len() - survivors.len();
    crate::obs::PLAN_PRUNED.add(pruned as u64);

    // Pass 2: exact solves for the survivors, each worker through its
    // own evaluator per configuration; results merge by survivor index,
    // bind/reuse tallies by sum.
    let (solved, evaluators) = parallel_map(
        survivors.len(),
        workers,
        HashMap::new,
        |evaluators: &mut HashMap<Configuration, CachedEvaluator>, i| {
            let p = &feasible[survivors[i]];
            evaluators
                .entry(p.config)
                .or_insert_with(|| CachedEvaluator::new(p.config))
                .evaluate(&p.point.params(base))
                .map(|e| e.exact)
        },
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

    // Exact 4-objective Pareto frontier over the solved set.
    let frontier_idx: Vec<usize> = (0..exact.len())
        .filter(|&i| {
            let p = &exact[i];
            !exact.iter().enumerate().any(|(j, q)| {
                j != i
                    && q.point.cost_overhead <= p.point.cost_overhead
                    && q.point.cost_rebuild_bw <= p.point.cost_rebuild_bw
                    && q.exact_events_pb_year <= p.exact_events_pb_year
                    && q.exact_mission_loss <= p.exact_mission_loss
                    && (q.point.cost_overhead < p.point.cost_overhead
                        || q.point.cost_rebuild_bw < p.point.cost_rebuild_bw
                        || q.exact_events_pb_year < p.exact_events_pb_year
                        || q.exact_mission_loss < p.exact_mission_loss)
            })
        })
        .collect();
    let mut frontier: Vec<FrontierPoint> = frontier_idx.into_iter().map(|i| exact[i]).collect();
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

    Ok(PlanReport {
        grid_points: total,
        feasible: feasible.len(),
        pruned,
        solved: exact.len(),
        guard_violations,
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
        let ir = match p.internal {
            InternalRaid::None => "nir",
            InternalRaid::Raid5 => "ir5",
            InternalRaid::Raid6 => "ir6",
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            p.nodes,
            p.data_shards,
            p.node_ft,
            ir,
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
