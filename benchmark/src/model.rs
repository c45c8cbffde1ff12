//! The model stack, no sockets: the capacity planner's grid search
//! (`core.plan` over `markov`'s batched solver), a figure sweep
//! (`core.sweep` over `markov`'s absorbing analysis) and the fleet
//! simulator (`sim.fleet`). It is the control for every `net`/`erasure`
//! change and the only workload a solver or simulator change can move.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::plan::{frontier_csv, plan_search, ConfigSpace, PlanOptions, PlanReport};
use nsr_core::raid::InternalRaid;
use nsr_core::sweep::figure_sweep;
use nsr_markov::{AbsorbingAnalysis, BatchSolver, Ctmc};
use nsr_sim::fleet::FleetSim;

use crate::report::Report;
use crate::serve::{report_setup, SetupTime};
use crate::speed::{timed_with_host_factor, HostSpeed};
use crate::stats::{median, percentile, sorted};

/// One batch is a fixed amount of model work: `PLAN_PASSES` searches of
/// the 11,520-point grid, `SWEEP_PASSES` figure-14 sweeps and one fleet
/// decade. The counts are constants, not calibrated at run time, so a
/// faster layer finishes the same batch sooner instead of being handed
/// more work. At the defining commit the three parts take about 70, 55
/// and 155 ms.
pub const PLAN_PASSES: usize = 5;
pub const SWEEP_PASSES: usize = 500;
const FLEET_BRICKS: u64 = 100_000;
const FLEET_YEARS: f64 = 10.0;

pub struct Model {
    params: Params,
    space: ConfigSpace,
    fleet: FleetSim,
    /// The FT 3 no-internal-RAID chain, the deepest the planner solves.
    chain: Ctmc,
    solver: BatchSolver,
    rates: Vec<f64>,
    pub grid_points: u64,
    pub sweep_points: u64,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl Model {
    /// Builds every model input and runs each pass once, so lazy tables
    /// and allocator growth are paid before anything is timed.
    pub fn setup() -> Result<Model, String> {
        let params = Params::baseline();
        // The grid of BENCH_plan.json: 5 × 12 × 4 × 3 × 4 × 4 = 11,520.
        let space = ConfigSpace {
            nodes: vec![16, 32, 64, 128, 256],
            data_shards: (2..=13).collect(),
            node_ft: vec![1, 2, 3, 4],
            internal: InternalRaid::all().to_vec(),
            spare_frac: vec![0.0, 0.1, 0.25, 0.4],
            rebuild_bw: vec![0.05, 0.1, 0.2, 0.4],
        };
        let ft3_nir = Configuration::new(InternalRaid::None, 3).map_err(err("configuration"))?;
        let fleet =
            FleetSim::new(params, ft3_nir, FLEET_BRICKS, FLEET_YEARS).map_err(err("fleet"))?;
        let (chain, root) = ft3_nir.exact_chain(&params).map_err(err("exact chain"))?;
        let solver = BatchSolver::new(&chain, root).map_err(err("batch solver"))?;
        let rates = chain.transitions().iter().map(|tr| tr.rate).collect();
        let mut model = Model {
            grid_points: space.len() as u64,
            sweep_points: 0,
            params,
            space,
            fleet,
            chain,
            solver,
            rates,
        };
        model.plan_pass(false)?;
        model.sweep_points = model.sweep_pass()?;
        model.fleet_run(0)?;
        model.batch_solve()?;
        Ok(model)
    }

    /// One planner search, pruned unless `exhaustive`, on one worker.
    pub fn plan_pass(&self, exhaustive: bool) -> Result<PlanReport, String> {
        let opts = PlanOptions {
            workers: 1,
            mission_years: 5.0,
            exhaustive,
        };
        plan_search(black_box(&self.params), black_box(&self.space), &opts).map_err(err("plan"))
    }

    /// One figure-14 sweep on one worker; returns the points evaluated.
    pub fn sweep_pass(&self) -> Result<u64, String> {
        let sweep = figure_sweep(14, black_box(&self.params), 1).map_err(err("sweep"))?;
        Ok((sweep.rows.len() * sweep.configs().len()) as u64)
    }

    /// One fleet decade on one worker; returns the events processed.
    pub fn fleet_run(&self, seed: u64) -> Result<u64, String> {
        Ok(self
            .fleet
            .run(black_box(seed), 1)
            .map_err(err("fleet run"))?
            .events)
    }

    fn batch_solve(&mut self) -> Result<f64, String> {
        self.solver
            .solve_mtta(black_box(&self.rates))
            .map_err(err("batch solve"))
    }
}

/// What the end-to-end batch loop recorded. Times are per pass.
#[derive(Default)]
pub struct Batches {
    /// Host factor of each batch; pass times below are unscaled.
    pub host_factor: Vec<f64>,
    pub batch_s: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub sweep_us: Vec<f64>,
    pub fleet_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// Runs whole batches until `duration` has passed (at least one). Fleet
/// run `i` uses `seed + i`. Checks, outside every timer: the frontier
/// CSV is the same on every plan pass, and the fleet's event count for
/// `seed` repeats exactly when that seed is run again at the end.
pub fn run_batches(model: &Model, seed: u64, duration: Duration) -> Batches {
    let mut b = Batches::default();
    let mut frontier: Option<String> = None;
    let mut first_fleet_events: Option<u64> = None;
    let t0 = Instant::now();
    let mut i = 0u64;
    while i == 0 || t0.elapsed() < duration {
        let batch_t0 = Instant::now();
        let mut speed = HostSpeed::starting(batch_t0);
        for _ in 0..PLAN_PASSES {
            speed.sample();
            let (res, us) = timed(|| model.plan_pass(false));
            b.attempted += 1;
            match res {
                Ok(report) => {
                    let csv = frontier_csv(&report);
                    if *frontier.get_or_insert_with(|| csv.clone()) == csv {
                        b.plan_us.push(us);
                    } else {
                        eprintln!("FAILED plan pass: frontier CSV changed between passes");
                        b.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("FAILED {e}");
                    b.failed += 1;
                }
            }
        }
        for _ in 0..SWEEP_PASSES {
            speed.tick(batch_t0.elapsed().as_secs_f64());
            let (res, us) = timed(|| model.sweep_pass());
            b.attempted += 1;
            match res {
                Ok(points) if points == model.sweep_points => b.sweep_us.push(us),
                Ok(points) => {
                    eprintln!(
                        "FAILED sweep pass: {points} points, expected {}",
                        model.sweep_points
                    );
                    b.failed += 1;
                }
                Err(e) => {
                    eprintln!("FAILED {e}");
                    b.failed += 1;
                }
            }
        }
        speed.sample();
        let (res, us) = timed(|| model.fleet_run(seed.wrapping_add(i)));
        speed.sample();
        b.attempted += 1;
        match res {
            Ok(events) => {
                first_fleet_events.get_or_insert(events);
                b.fleet_us.push(us);
            }
            Err(e) => {
                eprintln!("FAILED {e}");
                b.failed += 1;
            }
        }
        b.batch_s.push(batch_t0.elapsed().as_secs_f64());
        b.host_factor.push(speed.factor_overall());
        i += 1;
    }
    b.attempted += 1;
    if model.fleet_run(seed).ok() != first_fleet_events {
        eprintln!("FAILED fleet replay: event count for seed {seed} did not repeat");
        b.failed += 1;
    }
    b
}

/// The per-layer readings of the model stack.
pub struct ModelLayers {
    pub plan_pass_ms: f64,
    pub plan_configs_per_s: f64,
    pub plan_exhaustive_configs_per_s: f64,
    pub plan_pruned_frac: f64,
    pub plan_exact_solves: f64,
    pub markov_batch_solve_ns: f64,
    pub markov_absorbing_solve_us: f64,
    pub sweep_pass_us: f64,
    pub sweep_points_per_s: f64,
    pub fleet_events: f64,
    pub fleet_run_ms: f64,
    pub fleet_events_per_s: f64,
    pub passes: u64,
}

/// Times each model layer on its own, `reps` repetitions apiece, and
/// reports medians. Exhaustive search bypasses pruning, which separates
/// the pruning layer from the solver under it.
pub fn probe_layers(model: &mut Model, seed: u64, reps: usize) -> Result<ModelLayers, String> {
    let mut speed = HostSpeed::starting(Instant::now());
    speed.sample();
    let mut pruned_us = Vec::new();
    let mut exhaustive_us = Vec::new();
    let mut report = None;
    for _ in 0..reps {
        let (r, us) = timed(|| model.plan_pass(false));
        report = Some(r?);
        pruned_us.push(us);
        let (r, us) = timed(|| model.plan_pass(true));
        r?;
        exhaustive_us.push(us);
        speed.sample();
    }
    let report = report.ok_or("probe_layers needs reps >= 1")?;
    let mut sweep_us = Vec::new();
    for _ in 0..reps * 20 {
        let (r, us) = timed(|| model.sweep_pass());
        r?;
        sweep_us.push(us);
    }
    let mut fleet_us = Vec::new();
    let mut events = 0;
    for _ in 0..reps {
        let (r, us) = timed(|| model.fleet_run(seed));
        events = r?;
        fleet_us.push(us);
        speed.sample();
    }
    // Sub-microsecond calls, timed in blocks of 1,000: the block's
    // microseconds are one call's nanoseconds.
    let mut batch_ns = Vec::new();
    for _ in 0..reps {
        let (r, block_us) = timed(|| {
            (0..1000).try_for_each(|_| {
                model.batch_solve().map(|mtta| {
                    black_box(mtta);
                })
            })
        });
        r?;
        batch_ns.push(block_us);
    }
    let mut absorbing_us = Vec::new();
    for _ in 0..reps * 20 {
        let (r, us) =
            timed(|| AbsorbingAnalysis::new(black_box(&model.chain)).map(|a| drop(black_box(a))));
        r.map_err(err("absorbing analysis"))?;
        absorbing_us.push(us);
    }
    speed.sample();
    let factor = speed.factor_overall();
    let scaled = |v: &[f64]| median(v) * factor;
    let plan_us = scaled(&pruned_us);
    let fleet_run_us = scaled(&fleet_us);
    let sweep_pass_us = scaled(&sweep_us);
    Ok(ModelLayers {
        plan_pass_ms: plan_us / 1e3,
        plan_configs_per_s: model.grid_points as f64 / (plan_us / 1e6),
        plan_exhaustive_configs_per_s: model.grid_points as f64 / (scaled(&exhaustive_us) / 1e6),
        plan_pruned_frac: report.pruned as f64 / report.feasible as f64,
        plan_exact_solves: report.solved as f64,
        markov_batch_solve_ns: scaled(&batch_ns),
        markov_absorbing_solve_us: scaled(&absorbing_us),
        sweep_pass_us,
        sweep_points_per_s: model.sweep_points as f64 / (sweep_pass_us / 1e6),
        fleet_events: events as f64,
        fleet_run_ms: fleet_run_us / 1e3,
        fleet_events_per_s: events as f64 / (fleet_run_us / 1e6),
        passes: (reps * 43) as u64,
    })
}

/// Model set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The end-to-end run of `model_batch`. A batch is the segment: each
/// statistic is taken within a batch, and the run reports the median
/// batch.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut model = None;
    for _ in 0..SETUPS {
        let (built, wall_s, host_factor) = timed_with_host_factor(Model::setup);
        model = Some(built?);
        setups.push(SetupTime {
            wall_s,
            host_factor,
        });
    }
    let model = model.expect("SETUPS >= 1");
    let b = run_batches(&model, seed, Duration::from_secs_f64(seconds));
    // The statistic `q` of each batch's `chunk` passes, scaled by the
    // batch's host factor or not, then the median over batches.
    let per_batch = |v: &[f64], chunk: usize, q: f64, scale: bool| -> f64 {
        let qs: Vec<f64> = v
            .chunks(chunk)
            .zip(&b.host_factor)
            .map(|(c, f)| percentile(&sorted(c.to_vec()), q) * if scale { *f } else { 1.0 })
            .collect();
        if qs.is_empty() {
            f64::NAN
        } else {
            median(&qs)
        }
    };
    let mut report = Report::default();
    report.attempted = b.attempted;
    report.failed = b.failed;
    report_setup(&mut report, &setups);
    let batch_scaled: Vec<f64> = b
        .batch_s
        .iter()
        .zip(&b.host_factor)
        .map(|(s, f)| s * f)
        .collect();
    report.set_scaled(
        "ops_per_s",
        1.0 / median(&batch_scaled),
        1.0 / median(&b.batch_s),
        b.batch_s.len() as u64,
    );
    for (name, v, chunk, q) in [
        ("primary_p50_us", &b.sweep_us, SWEEP_PASSES, 0.5),
        ("primary_p99_us", &b.sweep_us, SWEEP_PASSES, 0.99),
        ("secondary_p50_us", &b.plan_us, PLAN_PASSES, 0.5),
    ] {
        report.set_scaled(
            name,
            per_batch(v, chunk, q, true),
            per_batch(v, chunk, q, false),
            v.len() as u64,
        );
    }
    Ok(report)
}
