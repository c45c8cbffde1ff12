//! The nine redundancy configurations of §3 and their end-to-end
//! evaluation: parameters → rebuild rates → Markov models → events per
//! PB-year.

use std::sync::{Arc, Mutex};

use nsr_markov::{BatchProgram, BatchSolver};

use crate::internal_raid::InternalRaidSystem;
use crate::metrics::Reliability;
use crate::no_raid::NoRaidSystem;
use crate::params::Params;
use crate::raid::{ArrayModel, InternalRaid};
use crate::rebuild::{RebuildModel, RebuildRate};
use crate::recursive::RecursiveModel;
use crate::units::Hours;
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
    /// One-shot convenience over [`CachedEvaluator`]; sweep workloads
    /// that evaluate the same configuration at many parameter points
    /// should hold a [`CachedEvaluator`] instead, which keeps its solver
    /// scratch and rate buffer across points. Both are the same code
    /// path and produce identical values.
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
        params.validate()?;
        let model = SystemModel::build(*self, params)?;
        Reliability::from_mttdl(
            model.closed_form_mttdl(),
            params.logical_capacity(self.node_ft),
        )
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
        params.validate()?;
        let model = SystemModel::build(*self, params)?;
        let (skeleton, root) = self.skeleton()?;
        let mut rates = Vec::new();
        model.transition_rates_into(&mut rates);
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

/// The paper's model of one configuration at one parameter point: the
/// one place `(Configuration, &Params)` becomes a [`NoRaidSystem`] or an
/// [`InternalRaidSystem`], shared by the evaluator, the planner's
/// closed-form pass and [`Configuration::exact_chain`].
struct SystemModel {
    kind: ModelKind,
    node_rebuild: RebuildRate,
    /// Distributed drive rebuild `μ_d` without internal RAID, the
    /// re-stripe rate with it.
    drive_repair: RebuildRate,
}

enum ModelKind {
    NoRaid(NoRaidSystem),
    Ir(InternalRaidSystem),
}

impl SystemModel {
    /// `params` must already have passed [`Params::validate`].
    fn build(config: Configuration, params: &Params) -> Result<SystemModel> {
        let t = config.node_ft;
        let rebuild = RebuildModel::from_validated(*params);
        let lambda_n = params.node.failure_rate();
        let lambda_d = params.drive.failure_rate();
        let c_her = params.drive.c_her();
        let (n, r, d) = (
            params.system.node_count,
            params.system.redundancy_set_size,
            params.node.drives_per_node,
        );
        let node_rebuild = rebuild.node_rebuild(t)?;
        let (kind, drive_repair) = match config.internal {
            InternalRaid::None => {
                let drive_rebuild = rebuild.drive_rebuild(t)?;
                let sys = NoRaidSystem::new(
                    t,
                    n,
                    r,
                    d,
                    lambda_n,
                    lambda_d,
                    node_rebuild.rate,
                    drive_rebuild.rate,
                    c_her,
                )?;
                (ModelKind::NoRaid(sys), drive_rebuild)
            }
            raid => {
                let restripe = rebuild.restripe()?;
                let array = ArrayModel::new(raid, d, lambda_d, restripe.rate, c_her)?;
                let sys = InternalRaidSystem::new(
                    n,
                    r,
                    t,
                    lambda_n,
                    array.rates_paper(),
                    node_rebuild.rate,
                )?;
                (ModelKind::Ir(sys), restripe)
            }
        };
        Ok(SystemModel {
            kind,
            node_rebuild,
            drive_repair,
        })
    }

    fn closed_form_mttdl(&self) -> Hours {
        match &self.kind {
            ModelKind::NoRaid(sys) => sys.mttdl_paper(),
            ModelKind::Ir(sys) => sys.mttdl_paper(),
        }
    }

    /// The point's rate vector, in the class skeleton's transition order.
    fn transition_rates_into(&self, rates: &mut Vec<f64>) {
        match &self.kind {
            ModelKind::NoRaid(sys) => sys.recursive().transition_rates_into(rates),
            ModelKind::Ir(sys) => sys.transition_rates_into(rates),
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

/// A reusable evaluator for sweep workloads. The exact MTTDL of every
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
        params.validate()?;
        crate::obs::EVALS.inc();
        let mut span = nsr_obs::trace::Span::enter("core.evaluate");
        span.field("config", || nsr_obs::Json::Str(self.config.to_string()));
        let out = self.evaluate_validated(params);
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
    fn evaluate_validated(&mut self, params: &Params) -> Result<Evaluation> {
        let model = SystemModel::build(self.config, params)?;
        let exact = self.exact_mttdl(&model)?;
        let capacity = params.logical_capacity(self.config.node_ft);
        Ok(Evaluation {
            config: self.config,
            closed_form: Reliability::from_mttdl(model.closed_form_mttdl(), capacity)?,
            exact: Reliability::from_mttdl(exact, capacity)?,
            node_rebuild: model.node_rebuild,
            drive_repair: model.drive_repair,
        })
    }

    /// Exact MTTDL of `model`: bind the class program on the first call,
    /// then one rate-vector fill and one numeric elimination per call.
    fn exact_mttdl(&mut self, model: &SystemModel) -> Result<Hours> {
        if self.solver.is_none() {
            self.solver = Some(BatchSolver::with_program(program_for(self.config)?));
            crate::obs::SKELETON_BUILDS.inc();
            self.skeleton_builds += 1;
        } else {
            crate::obs::SKELETON_REUSES.inc();
            self.skeleton_reuses += 1;
        }
        let solver = self.solver.as_mut().expect("bound above");
        model.transition_rates_into(&mut self.rates);
        Ok(Hours(solver.solve_mtta(&self.rates)?))
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FT {}, {}", self.node_ft, self.internal)
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
