//! The nine redundancy configurations of §3 and their end-to-end
//! evaluation: parameters → rebuild rates → Markov models → events per
//! PB-year.

use std::sync::{Arc, Mutex};

use nsr_markov::{BatchProgram, BatchSolver};

use crate::internal_raid::InternalRaidSystem;
use crate::metrics::Reliability;
use crate::no_raid::NoRaidSystem;
use crate::params::{Duplex, Params};
use crate::raid::{ArrayModel, ArrayRates, InternalRaid};
use crate::rebuild::{distributed_rebuild, restripe, RebuildRate, TransferAmounts};
use crate::recursive::RecursiveModel;
use crate::scope::{critical_fraction, HParams};
use crate::units::{Bytes, BytesPerSec, Hours, PerHour};
use crate::{Error, Result};

/// One of the paper's redundancy configurations: an internal RAID level
/// crossed with a cross-node erasure-code fault tolerance.
///
/// §3 studies the 3 × 3 grid with node fault tolerance 1–3
/// ([`Configuration::all_nine`]); higher tolerances are accepted as an
/// extension (§9 notes the closed forms have "broad utility").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Configuration {
    internal: InternalRaid,
    node_ft: u32,
}

impl Configuration {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if `node_ft == 0` (some cross-node
    /// redundancy is required — a zero-tolerance system loses data on the
    /// first node failure and has no meaningful MTTDL model in the paper).
    pub fn new(internal: InternalRaid, node_ft: u32) -> Result<Configuration> {
        if node_ft == 0 {
            return Err(Error::infeasible("node fault tolerance must be at least 1"));
        }
        Ok(Configuration { internal, node_ft })
    }

    /// The internal RAID level.
    pub fn internal(&self) -> InternalRaid {
        self.internal
    }

    /// The cross-node fault tolerance `t`.
    pub fn node_fault_tolerance(&self) -> u32 {
        self.node_ft
    }

    /// The configuration's code, `ft<t>-` and the level's
    /// [`InternalRaid::code`]: `ft2-ir5`, `ft3-nir`.
    pub fn code(&self) -> String {
        format!("ft{}-{}", self.node_ft, self.internal.code())
    }

    /// Usable fraction of raw capacity before the spare pool: the
    /// cross-node code's `(R−t)/R` times the internal RAID's `(d−f)/d`.
    pub(crate) fn code_and_raid_share(&self, set_size: u32, drives: u32) -> f64 {
        let r = set_size as f64;
        let t = self.node_ft as f64;
        let d = drives as f64;
        let internal = match self.internal {
            InternalRaid::None => 1.0,
            InternalRaid::Raid5 => (d - 1.0) / d,
            InternalRaid::Raid6 => (d - 2.0) / d,
        };
        (r - t) / r * internal
    }

    /// The nine §3 configurations, grouped by fault tolerance then RAID
    /// level (the Figure 13 ordering).
    pub fn all_nine() -> Vec<Configuration> {
        let mut out = Vec::with_capacity(9);
        for ft in 1..=3 {
            for internal in InternalRaid::all() {
                out.push(Configuration {
                    internal,
                    node_ft: ft,
                });
            }
        }
        out
    }

    /// The three configurations the paper carries into the §7 sensitivity
    /// analyses: [FT2, no IR], [FT2, IR5], [FT3, no IR].
    pub fn sensitivity_set() -> [Configuration; 3] {
        [
            Configuration {
                internal: InternalRaid::None,
                node_ft: 2,
            },
            Configuration {
                internal: InternalRaid::Raid5,
                node_ft: 2,
            },
            Configuration {
                internal: InternalRaid::None,
                node_ft: 3,
            },
        ]
    }

    /// Evaluates this configuration under `params`, producing both the
    /// paper's closed-form reliability and the exact-CTMC reliability,
    /// along with the rebuild rates used.
    ///
    /// One-shot convenience over [`CachedEvaluator`]; workloads that
    /// solve the same configuration at many parameter points should hold
    /// a [`CachedEvaluator`] instead, which keeps its solver scratch and
    /// rate buffer across points. Both are the same code path and produce
    /// identical values. A workload that needs only the closed form (a
    /// figure sweep) calls [`Configuration::closed_form`] and solves no
    /// chain.
    ///
    /// # Errors
    ///
    /// * Parameter-validation errors from [`Params::validate`].
    /// * [`Error::Infeasible`] if the fault tolerance does not fit the
    ///   redundancy set (`t >= R`), the node set is too small, or the node
    ///   has too few drives for its internal RAID level.
    /// * [`Error::Markov`] if the exact solve is refused: a rate vector
    ///   under which some state cannot reach data loss, or one whose
    ///   elimination overflows to a non-finite MTTDL.
    pub fn evaluate(&self, params: &Params) -> Result<Evaluation> {
        CachedEvaluator::new(*self).evaluate(params)
    }

    /// The paper's closed-form reliability alone — pure arithmetic, no
    /// chain solve. The planner's first pass runs on this.
    ///
    /// # Errors
    ///
    /// The validation and feasibility errors of
    /// [`Configuration::evaluate`].
    pub fn closed_form(&self, params: &Params) -> Result<Reliability> {
        let (point, chain) = ModelClass::new(*self, params)?.at(params)?;
        chain.closed_form(point.logical_capacity)
    }

    /// The model point of this configuration under `params`: its rebuild
    /// rates, failure rates, sector-error model, capacity and rebuild
    /// bandwidths — every model quantity the chains, the planner, the
    /// simulators and the CLI read, from the one derivation they share.
    /// Builds no chain, so it accepts fault tolerances the exact chains
    /// refuse.
    ///
    /// # Errors
    ///
    /// The validation and feasibility errors of
    /// [`Configuration::evaluate`] that come before the chain.
    pub fn model(&self, params: &Params) -> Result<ModelPoint> {
        let sys = &params.system;
        ModelClass::new(*self, params)?
            .geometry(sys.node_count, sys.redundancy_set_size)?
            .point(sys.capacity_utilization, sys.rebuild_bw_utilization)
    }

    /// Builds the exact CTMC underlying this configuration — the chain the
    /// `exact` numbers of [`Configuration::evaluate`] come from — and the
    /// id of its fully-operational root state. Useful for transient
    /// (mission-reliability) queries, for simulation estimators that
    /// want the chain itself, and as the input of the
    /// `AbsorbingAnalysis` oracle the evaluator is tested against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Configuration::evaluate`].
    pub fn exact_chain(&self, params: &Params) -> Result<(nsr_markov::Ctmc, nsr_markov::StateId)> {
        let (_, chain) = ModelClass::new(*self, params)?.at(params)?;
        let (skeleton, root) = self.skeleton()?;
        let mut rates = Vec::new();
        chain.transition_rates_into(&mut rates);
        Ok((skeleton.with_rates(&rates)?, root))
    }

    /// The chain topology of this configuration's class and its root.
    fn skeleton(&self) -> Result<(nsr_markov::Ctmc, nsr_markov::StateId)> {
        match self.internal {
            InternalRaid::None => RecursiveModel::skeleton(self.node_ft),
            _ => InternalRaidSystem::skeleton(self.node_ft),
        }
    }
}

/// Stage 1 of a model point — the **class**: a configuration and the
/// base parameters no planner axis touches (failure rates, `C·HER`, the
/// drives' command bandwidths, the link), validated once.
///
/// A model point has exactly one derivation: [`ModelClass::new`], then
/// [`ModelClass::geometry`] for `N` and `R`, then
/// [`ModelGeometry::point`] for the spare fraction and the rebuild
/// bandwidth. [`Configuration::model`], [`Configuration::closed_form`],
/// [`CachedEvaluator`] and [`Configuration::exact_chain`] run the three
/// stages for one point; the planner builds each class and geometry once
/// per search and runs only the point stage per grid point. Every float comes from the same
/// operations in the same order whichever way a point is reached, and an
/// infeasible point fails with the same error at the same check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModelClass {
    config: Configuration,
    drives: u32,
    lambda_n: PerHour,
    lambda_d: PerHour,
    c_her: f64,
    drive_capacity: f64,
    /// `d·C`: one node's raw bytes.
    node_bytes: f64,
    /// Per-node drive bandwidth at the rebuild command size, before the
    /// rebuild share: `d · min(max_iops · rebuild_command, sustained)`.
    rebuild_disk: f64,
    /// The surviving `d − 1` drives' bandwidth at the re-stripe command
    /// size, before the rebuild share: `(d − 1) · min(max_iops ·
    /// restripe_command, sustained)`.
    restripe_disk: f64,
    /// Sustained link bandwidth per direction, before the rebuild share.
    link: f64,
    duplex: Duplex,
}

impl ModelClass {
    /// Validates `params` (all of it: this is where a one-point
    /// evaluation validates) and derives the class quantities.
    pub(crate) fn new(config: Configuration, params: &Params) -> Result<ModelClass> {
        params.validate()?;
        let d = params.node.drives_per_node;
        let drive = &params.drive;
        let sys = &params.system;
        Ok(ModelClass {
            config,
            drives: d,
            lambda_n: params.node.failure_rate(),
            lambda_d: drive.failure_rate(),
            c_her: drive.c_her(),
            drive_capacity: drive.capacity.0,
            node_bytes: d as f64 * drive.capacity.0,
            rebuild_disk: drive.command_bandwidth(sys.rebuild_command).0 * d as f64,
            restripe_disk: drive.command_bandwidth(sys.restripe_command).0 * (d - 1) as f64,
            link: sys.link_speed.sustained().0,
            duplex: sys.duplex,
        })
    }

    /// The configuration this class derives.
    pub(crate) fn config(&self) -> Configuration {
        self.config
    }

    /// Stages 2 and 3 at the point `params` describes, `params` being
    /// the parameters this class was built from, and the point's chain.
    fn at(&self, params: &Params) -> Result<(ModelPoint, ChainModel)> {
        let sys = &params.system;
        let geometry = self.geometry(sys.node_count, sys.redundancy_set_size)?;
        let point = geometry.point(sys.capacity_utilization, sys.rebuild_bw_utilization)?;
        Ok((point, geometry.chain_at(&point)?))
    }

    /// Stage 2: the geometry of `nodes` nodes in redundancy sets of
    /// `set_size`.
    ///
    /// # Errors
    ///
    /// The node- and redundancy-set checks of [`Params::validate`], then
    /// [`Error::Infeasible`] if the fault tolerance does not fit the set.
    pub(crate) fn geometry(&self, nodes: u32, set_size: u32) -> Result<ModelGeometry> {
        crate::params::check_geometry(nodes, set_size)?;
        let t = self.config.node_ft;
        let amounts = TransferAmounts::new(nodes, set_size, t)?;
        let shape = match self.config.internal {
            InternalRaid::None => {
                Shape::NoRaid(HParams::new(t, nodes, set_size, self.drives, self.c_her)?)
            }
            _ => Shape::Ir(critical_fraction(nodes, set_size, t)?),
        };
        Ok(ModelGeometry {
            class: *self,
            nodes,
            set_size,
            amounts,
            shape,
            raw_capacity: nodes as f64 * self.drives as f64 * self.drive_capacity,
            efficiency: self.config.code_and_raid_share(set_size, self.drives),
        })
    }
}

/// Stage 2 of a model point — the **geometry**: a class at node-set
/// size `N` and redundancy-set size `R` (see [`ModelClass`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModelGeometry {
    class: ModelClass,
    nodes: u32,
    set_size: u32,
    amounts: TransferAmounts,
    shape: Shape,
    /// `N·d·C`.
    raw_capacity: f64,
    /// Usable share of raw capacity before the spare pool.
    efficiency: f64,
}

/// What a geometry's chain needs beyond its rates: the `h` family
/// without internal RAID, the critical fraction `k_t` with it.
#[derive(Debug, Clone, Copy)]
enum Shape {
    NoRaid(HParams),
    Ir(f64),
}

impl ModelGeometry {
    /// Stage 3: the point at capacity utilization `utilization` (one
    /// minus the spare fraction) and rebuild bandwidth share `bandwidth`.
    /// Both must be in `(0, 1]`, as [`Params::validate`] demands.
    ///
    /// # Errors
    ///
    /// The model constructors' checks, in the order a one-point
    /// evaluation meets them.
    pub(crate) fn point(&self, utilization: f64, bandwidth: f64) -> Result<ModelPoint> {
        let c = &self.class;
        let node_data = Bytes(c.node_bytes * utilization);
        let disk = BytesPerSec(c.rebuild_disk * bandwidth);
        let net = BytesPerSec(c.link * bandwidth);
        let node_rebuild = distributed_rebuild(&self.amounts, c.duplex, node_data, disk, net);
        let (drive_repair, sector) = match self.shape {
            Shape::NoRaid(h) => {
                let drive_data = Bytes(c.drive_capacity * utilization);
                let rebuild = distributed_rebuild(&self.amounts, c.duplex, drive_data, disk, net);
                (rebuild, Sector::NoRaid(h))
            }
            Shape::Ir(k_t) => {
                let bw = BytesPerSec(c.restripe_disk * bandwidth);
                let restripe = restripe(c.drives, bw, node_data)?;
                let array = self.array(restripe.rate)?;
                (restripe, Sector::Ir { array, k_t })
            }
        };
        // Disk and link times agree at the crossover:
        //   disk_per_node / disk == link_share / (gbps · 80e6 · bandwidth)
        let crossover_link_speed = self.amounts.link_share(c.duplex) * disk.0
            / (self.amounts.disk_per_node * 80e6 * bandwidth);
        Ok(ModelPoint {
            config: c.config,
            node_failure_rate: c.lambda_n,
            drive_failure_rate: c.lambda_d,
            node_rebuild,
            drive_repair,
            logical_capacity: self.logical_capacity(utilization),
            disk_rebuild_bandwidth: disk,
            network_rebuild_bandwidth: net,
            crossover_link_speed,
            sector,
        })
    }

    /// The §4.2 array rates at re-stripe rate `mu_repair`.
    fn array(&self, mu_repair: PerHour) -> Result<ArrayRates> {
        let c = &self.class;
        let array = ArrayModel::new(c.config.internal, c.drives, c.lambda_d, mu_repair, c.c_her)?;
        Ok(array.rates_paper())
    }

    /// The chain model of `point`, a point of this geometry.
    pub(crate) fn chain_at(&self, point: &ModelPoint) -> Result<ChainModel> {
        let (mu_n, mu_repair) = (point.node_rebuild.rate, point.drive_repair.rate);
        self.chain_with(mu_n, mu_repair, point.sector)
    }

    /// The chain model at node rebuild rate `mu_n` and drive repair rate
    /// `mu_repair` (distributed drive rebuild without internal RAID, the
    /// re-stripe with it): a point's chain from its repair rates alone.
    pub(crate) fn chain(&self, mu_n: PerHour, mu_repair: PerHour) -> Result<ChainModel> {
        let sector = match self.shape {
            Shape::NoRaid(h) => Sector::NoRaid(h),
            Shape::Ir(k_t) => Sector::Ir {
                array: self.array(mu_repair)?,
                k_t,
            },
        };
        self.chain_with(mu_n, mu_repair, sector)
    }

    fn chain_with(&self, mu_n: PerHour, mu_repair: PerHour, sector: Sector) -> Result<ChainModel> {
        let c = &self.class;
        let (t, n, r, d) = (c.config.node_ft, self.nodes, self.set_size, c.drives);
        Ok(match sector {
            Sector::NoRaid(h) => ChainModel::NoRaid(NoRaidSystem::with_h(
                t,
                n,
                r,
                d,
                c.lambda_n,
                c.lambda_d,
                mu_n,
                mu_repair,
                c.c_her,
                || Ok(h),
            )?),
            Sector::Ir { array, k_t } => ChainModel::Ir(InternalRaidSystem::with_k_t(
                n,
                r,
                t,
                c.lambda_n,
                array,
                mu_n,
                || Ok(k_t),
            )?),
        })
    }

    /// The configuration this geometry derives.
    pub(crate) fn config(&self) -> Configuration {
        self.class.config
    }

    /// Logical (user-visible) capacity at capacity utilization
    /// `utilization`: raw capacity, less the spare pool, less the
    /// erasure-code overhead `t/R`. It normalizes data-loss events to
    /// PB-years (see [`crate::metrics`]); the paper does not state its
    /// normalization, so this choice is documented in `DESIGN.md`.
    pub(crate) fn logical_capacity(&self, utilization: f64) -> Bytes {
        let r = self.set_size as f64;
        let t = self.class.config.node_ft as f64;
        Bytes(self.raw_capacity * utilization * (r - t) / r)
    }

    /// Usable fraction of raw capacity at capacity utilization
    /// `utilization` (see [`crate::plan::storage_efficiency`]).
    pub(crate) fn efficiency(&self, utilization: f64) -> f64 {
        self.efficiency * utilization
    }
}

/// A model point — the last of the three stages of the one derivation
/// (class, geometry, point; DESIGN §3j): one configuration at one
/// parameter point, with everything the paper's chains, the planner, the
/// simulators and the CLI read of it. Built by [`Configuration::model`].
///
/// # Example
///
/// ```
/// use nsr_core::config::Configuration;
/// use nsr_core::params::Params;
/// use nsr_core::raid::InternalRaid;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let config = Configuration::new(InternalRaid::None, 2)?;
/// let point = config.model(&Params::baseline())?;
/// let mu_n = point.node_rebuild; // μ_N at fault tolerance 2
/// // Baseline node rebuild takes a few hours and is disk-bound.
/// assert!(mu_n.duration.0 > 1.0 && mu_n.duration.0 < 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPoint {
    /// The configuration this point derives.
    pub config: Configuration,
    /// The node failure rate `λ_N`.
    pub node_failure_rate: PerHour,
    /// The drive failure rate `λ_d`.
    pub drive_failure_rate: PerHour,
    /// The node rebuild rate `μ_N` and its bottleneck: a failed node's
    /// worth of data rebuilt onto the distributed spare space of the
    /// `N − 1` survivors (§5.1).
    pub node_rebuild: RebuildRate,
    /// The drive-level repair: without internal RAID the distributed
    /// rebuild `μ_d` of a drive's worth of data; with it the node-local
    /// re-stripe onto the surviving `d − 1` drives (fail-in-place, §3),
    /// which reads and writes the node's data once and is disk-bound.
    pub drive_repair: RebuildRate,
    /// Raw capacity less the spare pool, less the erasure-code overhead
    /// `t/R`.
    pub logical_capacity: Bytes,
    /// Aggregate drive bandwidth for rebuild I/O inside one node:
    /// `d · min(max_iops · rebuild_command, sustained) · bw_utilization`.
    pub disk_rebuild_bandwidth: BytesPerSec,
    /// Node link bandwidth for rebuild traffic, per direction:
    /// `sustained(link_speed) · bw_utilization`.
    pub network_rebuild_bandwidth: BytesPerSec,
    /// The link speed (Gb/s) at which the node rebuild's bottleneck flips
    /// from network to disk, all else fixed — the paper observes ≈3 Gb/s
    /// at the baseline (Fig 17).
    pub crossover_link_speed: f64,
    sector: Sector,
}

/// The sector-error side of a point: the §5.2.2 `h` family without
/// internal RAID, the §4.2 array rates and the §5.2.1 critical fraction
/// `k_t` with it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sector {
    NoRaid(HParams),
    Ir { array: ArrayRates, k_t: f64 },
}

impl ModelPoint {
    /// The §5.2.2 sector-error family `h` (no internal RAID only).
    pub fn h(&self) -> Option<&HParams> {
        match &self.sector {
            Sector::NoRaid(h) => Some(h),
            Sector::Ir { .. } => None,
        }
    }

    /// The §4.2 array output rates `λ_D`, `λ_S` (internal RAID only).
    pub fn array_rates(&self) -> Option<ArrayRates> {
        match self.sector {
            Sector::Ir { array, .. } => Some(array),
            Sector::NoRaid(_) => None,
        }
    }

    /// The §5.2.1 critical fraction `k_t` (internal RAID only).
    pub fn k_t(&self) -> Option<f64> {
        match self.sector {
            Sector::Ir { k_t, .. } => Some(k_t),
            Sector::NoRaid(_) => None,
        }
    }
}

/// The paper's model of one point: a [`NoRaidSystem`] or an
/// [`InternalRaidSystem`].
pub(crate) enum ChainModel {
    NoRaid(NoRaidSystem),
    Ir(InternalRaidSystem),
}

impl ChainModel {
    /// The paper's closed-form reliability of a point of logical
    /// capacity `capacity`.
    pub(crate) fn closed_form(&self, capacity: Bytes) -> Result<Reliability> {
        let mttdl = match self {
            ChainModel::NoRaid(sys) => sys.mttdl_paper(),
            ChainModel::Ir(sys) => sys.mttdl_paper(),
        };
        Reliability::from_mttdl(mttdl, capacity)
    }

    /// The point's rate vector, in the class skeleton's transition order.
    fn transition_rates_into(&self, rates: &mut Vec<f64>) {
        match self {
            ChainModel::NoRaid(sys) => sys.recursive().transition_rates_into(rates),
            ChainModel::Ir(sys) => sys.transition_rates_into(rates),
        }
    }
}

/// Compiled elimination programs, one per topology class
/// `(internal RAID?, node fault tolerance)`, shared by every evaluator in
/// the process. A class's chain structure is a pure function of that
/// key, so its program is compiled on first use and handed out as an
/// `Arc` afterwards. Nothing keyed on `Params` or rates is ever stored
/// here: every evaluation still builds its own rate vector and runs its
/// own numeric elimination.
static PROGRAMS: Mutex<Vec<(TopologyKey, Arc<BatchProgram>)>> = Mutex::new(Vec::new());

/// `(node has internal RAID, node fault tolerance)`: everything a chain's
/// structure depends on. RAID 5 and RAID 6 share the birth–death chain.
type TopologyKey = (bool, u32);

/// The shared program for `config`'s topology class, compiling it if
/// this is the class's first use in the process. Compilation happens
/// under the lock (once per class) and emits no span or event, so a
/// trace does not depend on which evaluator happened to come first.
fn program_for(config: Configuration) -> Result<Arc<BatchProgram>> {
    let key: TopologyKey = (config.internal != InternalRaid::None, config.node_ft);
    let mut programs = PROGRAMS
        .lock()
        .expect("program registry poisoned: a compile panicked");
    if let Some((_, program)) = programs.iter().find(|(k, _)| *k == key) {
        return Ok(Arc::clone(program));
    }
    let (skeleton, root) = config.skeleton()?;
    let program = Arc::new(BatchProgram::compile(&skeleton, root)?);
    programs.push((key, Arc::clone(&program)));
    Ok(program)
}

/// A reusable evaluator for workloads that solve many points of one
/// configuration (the planner's exact pass). The exact MTTDL of every
/// point comes from one numeric GTH elimination through the compiled
/// program of the configuration's topology class
/// ([`nsr_markov::BatchSolver`]): the evaluator binds the class's shared
/// program on its first evaluation, and per point only writes the
/// model's rates into a reused buffer and solves in reused scratch —
/// after the first call an evaluation allocates nothing. No chain is
/// built, cloned or looked up by label on this path;
/// [`nsr_markov::AbsorbingAnalysis`] over [`Configuration::exact_chain`]
/// stays as the independent oracle the result is pinned bit-identical
/// to.
///
/// What is shared is topology only: for every model in this crate it
/// depends on the fault tolerance and on whether the node has internal
/// RAID, never on the swept parameters (node counts, rates and error
/// probabilities all enter as rates).
#[derive(Debug, Clone)]
pub struct CachedEvaluator {
    config: Configuration,
    solver: Option<BatchSolver>,
    rates: Vec<f64>,
    skeleton_builds: u64,
    skeleton_reuses: u64,
}

impl CachedEvaluator {
    /// Creates an evaluator for one configuration, not yet bound to its
    /// class's program.
    pub fn new(config: Configuration) -> CachedEvaluator {
        CachedEvaluator {
            config,
            solver: None,
            rates: Vec::new(),
            skeleton_builds: 0,
            skeleton_reuses: 0,
        }
    }

    /// The configuration this evaluator serves.
    pub fn config(&self) -> Configuration {
        self.config
    }

    /// Times this instance bound its class's elimination program (0 or
    /// 1): its first exact solve, whether the process-wide registry
    /// compiled the program then or handed out one compiled earlier — so
    /// the count does not depend on what ran before in the process.
    pub fn skeleton_builds(&self) -> u64 {
        self.skeleton_builds
    }

    /// Exact solves served by the already-bound program — the
    /// skeleton-reuse rate of a sweep or planner workload is
    /// `reuses / (builds + reuses)`.
    pub fn skeleton_reuses(&self) -> u64 {
        self.skeleton_reuses
    }

    /// Resets the per-instance build/reuse counters (the bound program
    /// and scratch are kept). Lets a caller measure the reuse rate of
    /// one phase of a longer-lived evaluator.
    pub fn reset_metrics(&mut self) {
        self.skeleton_builds = 0;
        self.skeleton_reuses = 0;
    }

    /// Evaluates the configuration at one parameter point (see
    /// [`Configuration::evaluate`] for the semantics and error
    /// conditions).
    ///
    /// # Errors
    ///
    /// Same as [`Configuration::evaluate`].
    pub fn evaluate(&mut self, params: &Params) -> Result<Evaluation> {
        let class = ModelClass::new(self.config, params)?;
        crate::obs::EVALS.inc();
        let mut span = nsr_obs::trace::Span::enter("core.evaluate");
        span.field("config", || nsr_obs::Json::Str(self.config.to_string()));
        let out = self.evaluate_class(&class, params);
        if let Ok(e) = &out {
            span.field("closed_form_mttdl_h", || {
                nsr_obs::Json::Num(e.closed_form.mttdl_hours)
            });
            span.field("exact_mttdl_h", || nsr_obs::Json::Num(e.exact.mttdl_hours));
        }
        out
    }

    /// Body of [`CachedEvaluator::evaluate`], split out so the tracing
    /// span can observe the result.
    fn evaluate_class(&mut self, class: &ModelClass, params: &Params) -> Result<Evaluation> {
        let (point, chain) = class.at(params)?;
        let exact = self.exact_mttdl(&chain)?;
        Ok(Evaluation {
            config: self.config,
            closed_form: chain.closed_form(point.logical_capacity)?,
            exact: Reliability::from_mttdl(exact, point.logical_capacity)?,
            node_rebuild: point.node_rebuild,
            drive_repair: point.drive_repair,
        })
    }

    /// Exact MTTDL of `chain`: bind the class program on the first call,
    /// then one rate-vector fill and one numeric elimination per call.
    pub(crate) fn exact_mttdl(&mut self, chain: &ChainModel) -> Result<Hours> {
        if self.solver.is_none() {
            self.solver = Some(BatchSolver::with_program(program_for(self.config)?));
            crate::obs::SKELETON_BUILDS.inc();
            self.skeleton_builds += 1;
        } else {
            crate::obs::SKELETON_REUSES.inc();
            self.skeleton_reuses += 1;
        }
        let solver = self.solver.as_mut().expect("bound above");
        chain.transition_rates_into(&mut self.rates);
        Ok(Hours(solver.solve_mtta(&self.rates)?))
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FT {}, {}", self.node_ft, self.internal)
    }
}

/// Parses a [`Configuration::code`], in any case and with the levels'
/// long aliases (`ft2-raid5`).
impl std::str::FromStr for Configuration {
    type Err = String;

    fn from_str(name: &str) -> std::result::Result<Configuration, String> {
        let lower = name.to_ascii_lowercase();
        let (ft, internal) = lower
            .split_once('-')
            .ok_or_else(|| format!("bad config '{name}'; expected e.g. ft2-ir5"))?;
        let node_ft = ft
            .strip_prefix("ft")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad fault tolerance in '{name}'"))?;
        Configuration::new(internal.parse()?, node_ft).map_err(|e| e.to_string())
    }
}

/// The result of evaluating one configuration at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The configuration evaluated.
    pub config: Configuration,
    /// Reliability from the paper's closed-form approximation.
    pub closed_form: Reliability,
    /// Reliability from the exact CTMC solution.
    pub exact: Reliability,
    /// The node rebuild rate `μ_N` (and its bottleneck) that was used.
    pub node_rebuild: RebuildRate,
    /// The drive-level repair rate used: distributed drive rebuild `μ_d`
    /// for no-internal-RAID, re-stripe rate for internal RAID.
    pub drive_repair: RebuildRate,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_enumerates_the_grid() {
        let all = Configuration::all_nine();
        assert_eq!(all.len(), 9);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 9);
        for c in &all {
            assert!(c.node_fault_tolerance() >= 1 && c.node_fault_tolerance() <= 3);
        }
    }

    #[test]
    fn codes_round_trip_and_bad_names_say_why() {
        for c in Configuration::all_nine() {
            assert_eq!(c.code().parse(), Ok(c));
        }
        assert_eq!(Configuration::all_nine()[4].code(), "ft2-ir5");
        assert_eq!("FT2-raid5".parse(), "ft2-ir5".parse::<Configuration>());
        for (name, why) in [
            ("ft2", "bad config 'ft2'; expected e.g. ft2-ir5"),
            ("ftx-ir5", "bad fault tolerance in 'ftx-ir5'"),
            ("ft2-zfs", "unknown internal RAID 'zfs'"),
            (
                "ft0-nir",
                "infeasible configuration: node fault tolerance must be at least 1",
            ),
        ] {
            assert_eq!(name.parse::<Configuration>(), Err(why.to_string()));
        }
    }

    #[test]
    fn display_matches_paper_naming() {
        let c = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        assert_eq!(format!("{c}"), "FT 2, Internal RAID 5");
        let c = Configuration::new(InternalRaid::None, 3).unwrap();
        assert_eq!(format!("{c}"), "FT 3, No Internal RAID");
    }

    #[test]
    fn zero_ft_rejected() {
        assert!(Configuration::new(InternalRaid::None, 0).is_err());
    }

    #[test]
    fn evaluate_baseline_all_nine() {
        let params = Params::baseline();
        for config in Configuration::all_nine() {
            let eval = config.evaluate(&params).unwrap();
            assert!(eval.closed_form.mttdl_hours > 0.0, "{config}");
            assert!(eval.exact.mttdl_hours > 0.0, "{config}");
            // Closed form and exact agree to leading order. FT 1 is outside
            // the sector-error linearization's validity at baseline (h > 1,
            // saturated in the exact chains), hence the looser band there.
            let rel = (eval.closed_form.mttdl_hours - eval.exact.mttdl_hours).abs()
                / eval.exact.mttdl_hours;
            let tol = if config.node_fault_tolerance() == 1 {
                0.35
            } else {
                0.15
            };
            assert!(rel < tol, "{config}: rel diff {rel}");
        }
    }

    #[test]
    fn exact_and_closed_form_rank_configurations_identically() {
        let params = Params::baseline();
        let mut evals: Vec<Evaluation> = Configuration::all_nine()
            .into_iter()
            .map(|c| c.evaluate(&params).unwrap())
            .collect();
        let mut by_closed = evals.clone();
        evals.sort_by(|a, b| a.exact.mttdl_hours.total_cmp(&b.exact.mttdl_hours));
        by_closed.sort_by(|a, b| {
            a.closed_form
                .mttdl_hours
                .total_cmp(&b.closed_form.mttdl_hours)
        });
        let order_exact: Vec<_> = evals.iter().map(|e| e.config).collect();
        let order_closed: Vec<_> = by_closed.iter().map(|e| e.config).collect();
        assert_eq!(order_exact, order_closed);
    }

    #[test]
    fn sensitivity_set_matches_section_6_selection() {
        let set = Configuration::sensitivity_set();
        assert_eq!(format!("{}", set[0]), "FT 2, No Internal RAID");
        assert_eq!(format!("{}", set[1]), "FT 2, Internal RAID 5");
        assert_eq!(format!("{}", set[2]), "FT 3, No Internal RAID");
    }

    #[test]
    fn infeasible_combinations_rejected_at_evaluate() {
        let mut params = Params::baseline();
        params.system.redundancy_set_size = 3;
        // t = 3 with R = 3 cannot work.
        let c = Configuration::new(InternalRaid::None, 3).unwrap();
        assert!(c.evaluate(&params).is_err());

        // RAID 6 with 3 drives per node cannot re-stripe.
        let mut params = Params::baseline();
        params.node.drives_per_node = 3;
        let c = Configuration::new(InternalRaid::Raid6, 2).unwrap();
        assert!(c.evaluate(&params).is_err());
    }

    #[test]
    fn higher_ft_always_helps() {
        let params = Params::baseline();
        for internal in InternalRaid::all() {
            let m1 = Configuration::new(internal, 1)
                .unwrap()
                .evaluate(&params)
                .unwrap()
                .closed_form
                .mttdl_hours;
            let m2 = Configuration::new(internal, 2)
                .unwrap()
                .evaluate(&params)
                .unwrap()
                .closed_form
                .mttdl_hours;
            let m3 = Configuration::new(internal, 3)
                .unwrap()
                .evaluate(&params)
                .unwrap()
                .closed_form
                .mttdl_hours;
            assert!(m1 < m2 && m2 < m3, "{internal}: {m1:.2e} {m2:.2e} {m3:.2e}");
        }
    }

    #[test]
    fn ft4_extension_works() {
        // Beyond the paper's grid: FT 4 should evaluate and beat FT 3.
        let params = Params::baseline();
        let m3 = Configuration::new(InternalRaid::None, 3)
            .unwrap()
            .evaluate(&params)
            .unwrap()
            .closed_form
            .mttdl_hours;
        let m4 = Configuration::new(InternalRaid::None, 4)
            .unwrap()
            .evaluate(&params)
            .unwrap()
            .closed_form
            .mttdl_hours;
        assert!(m4 > m3);
    }
}
