//! The simulator commands: `sim`, `inject`, `rare`, `fleet` and `aging`
//! — Monte Carlo, fault injection and rare-event estimates checked
//! against the analytic model.

use std::fmt::Write as _;

use nsr_rng::rngs::StdRng;
use nsr_rng::SeedableRng;
use nsr_sim::faultinject::{Campaign, FaultPlan};
use nsr_sim::fleet::{FleetRareEstimate, FleetSim};
use nsr_sim::importance::{Options, RareEvent};
use nsr_sim::splitting::SplitOptions;
use nsr_sim::system::{LossCause, SystemSim};

use crate::args::{config_from, params_from, workers_from, ParsedArgs};
use crate::{CliError, Result};

pub(crate) fn sim(args: &ParsedArgs) -> Result<String> {
    let config = config_from(args, None)?;
    let params = params_from(args)?;
    let samples = args.get_or("samples", 500u64)?;
    let seed = args.get_or("seed", 42u64)?;
    let threads = args.get_or("threads", 1u32)?;
    let sim = SystemSim::new(params, config)?;
    let out = if threads > 1 {
        sim.run_parallel(samples, seed, threads)?
    } else {
        sim.run(samples, seed)?
    };
    let analytic = config.evaluate(&params)?;
    let mut text = String::new();
    let _ = writeln!(text, "configuration:     {config}");
    let _ = writeln!(text, "simulated MTTDL:   {}", out.mttdl);
    let _ = writeln!(
        text,
        "analytic (exact):  {:.6e} h",
        analytic.exact.mttdl_hours
    );
    let _ = writeln!(text, "events/PB-year:    {:.4e}", out.events_per_pb_year);
    let _ = writeln!(text, "sector-loss share: {:.1}%", 100.0 * out.sector_share);
    let _ = writeln!(text, "failures per loss: {:.1}", out.mean_failures_per_loss);
    let _ = writeln!(
        text,
        "spare consumed:    {:.2}x provisioned",
        out.mean_spare_consumed
    );
    Ok(text)
}

pub(crate) fn inject(args: &ParsedArgs) -> Result<String> {
    let plan_name = args.get_or("plan", "burst".to_string())?;
    if plan_name == "list" {
        let mut out = String::from("named fault plans:\n");
        for name in FaultPlan::names() {
            let plan = FaultPlan::named(name)?;
            let _ = writeln!(
                out,
                "  {name:<12} {} clause(s), horizon {:.0} h",
                plan.clauses().len(),
                plan.horizon_hours()
            );
        }
        return Ok(out);
    }

    let config = config_from(args, Some("ft2-nir"))?;
    let params = params_from(args)?;
    let plan = FaultPlan::named(&plan_name)?;
    let sim = SystemSim::new(params, config)?;
    let campaign = Campaign::new(&sim, &plan);

    // Replay mode: one seed, full byte-exact event trace.
    if let Some(replay_seed) = args.get::<u64>("replay")? {
        let r = campaign.run(replay_seed)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replay of plan '{plan_name}' on {config}, seed {replay_seed}:"
        );
        out.push_str(&r.trace.render());
        let _ = writeln!(
            out,
            "outcome: {} after {:.2} h ({:.2}% degraded)",
            if r.survived { "survived" } else { "data loss" },
            r.elapsed_hours,
            100.0 * r.degraded_fraction()
        );
        return Ok(out);
    }

    let runs = args.get_or("runs", 100u64)?;
    let seed = args.get_or("seed", 42u64)?;
    let s = campaign.run_many(runs, seed)?;
    let (excess, sector, latent) = s.losses;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault-injection campaign: plan '{plan_name}' on {config}"
    );
    let _ = writeln!(
        out,
        "  horizon:         {:.0} h per run",
        plan.horizon_hours()
    );
    let _ = writeln!(
        out,
        "  runs:            {} (base seed {})",
        s.runs, s.base_seed
    );
    let _ = writeln!(
        out,
        "  survived:        {}/{} ({:.1}%)",
        s.survived,
        s.runs,
        100.0 * s.survival_rate()
    );
    let _ = writeln!(
        out,
        "  degraded time:   {:.2}% mean fraction of each run",
        100.0 * s.mean_degraded_fraction
    );
    let _ = writeln!(
        out,
        "  injected events: {:.1} mean per run",
        s.mean_injected
    );
    let _ = writeln!(
        out,
        "  data-loss events: {} (excess-failures {excess}, sector-error {sector}, \
         latent-error {latent})",
        s.runs - s.survived
    );
    if !s.loss_seeds.is_empty() {
        let _ = writeln!(out, "  loss seeds (replay with --replay SEED):");
        for chunk in s.loss_seeds.chunks(4) {
            let line: Vec<String> = chunk.iter().map(|s| s.to_string()).collect();
            let _ = writeln!(out, "    {}", line.join(", "));
        }
    }
    if !s.loss_signatures.is_empty() {
        let _ = writeln!(out, "  top loss signatures:");
        for (sig, n) in &s.loss_signatures {
            let _ = writeln!(out, "    {n:>3}x {sig}");
        }
    }
    Ok(out)
}

pub(crate) fn rare(args: &ParsedArgs) -> Result<String> {
    let config = config_from(args, None)?;
    let params = params_from(args)?;
    let cycles = args.get_or("cycles", 50_000u64)?;
    let seed = args.get_or("seed", 42u64)?;
    let bias = args.get_or("bias", 0.7f64)?;

    // Build the exact chain for this configuration and run IS on it.
    let (ctmc, root) = config.exact_chain(&params)?;
    let est = RareEvent::new(&ctmc, root)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let r = est.estimate(
        Options {
            bias,
            gamma_cycles: cycles,
            time_cycles: cycles,
            ..Options::default()
        },
        &mut rng,
    )?;
    let analytic = config.evaluate(&params)?;
    let mut text = String::new();
    let _ = writeln!(text, "configuration:       {config}");
    let _ = writeln!(
        text,
        "IS MTTDL:            {:.6e} h (±{:.1}%)",
        r.mtta,
        100.0 * r.rel_err
    );
    let _ = writeln!(
        text,
        "exact (GTH):         {:.6e} h",
        analytic.exact.mttdl_hours
    );
    let _ = writeln!(text, "per-cycle gamma:     {}", r.gamma);
    let _ = writeln!(text, "mean cycle:          {:.4e} h", r.cycle_time.mean);
    Ok(text)
}

pub(crate) fn fleet(args: &ParsedArgs) -> Result<String> {
    let config = config_from(args, Some("ft1-nir"))?;
    let params = params_from(args)?;
    let bricks = args.get_or("bricks", 10_000u64)?;
    let years = args.get_or("years", 10.0f64)?;
    let seed = args.get_or("seed", 42u64)?;
    // All cores by default, which is also what `auto` (0) asks of the engine.
    let workers = match args.get::<String>("workers")? {
        Some(_) => workers_from(args)?.try_into().unwrap_or(u32::MAX),
        None => 0,
    };
    let estimator = args.get_or("estimator", "direct".to_string())?;
    let cycles = args.get_or("cycles", 20_000u64)?;
    if !matches!(estimator.as_str(), "direct" | "is" | "splitting" | "all") {
        return Err(CliError(format!(
            "unknown estimator '{estimator}'; use direct, is, splitting or all"
        )));
    }

    let sim = FleetSim::new(params, config, bricks, years)?;
    let outcome = sim.run(seed, workers)?;
    let analytic = sim.analytic_cell_mttdl()?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet:             {} bricks = {} cells of {config} ({} entities)",
        outcome.bricks, outcome.cells, outcome.entities
    );
    let _ = writeln!(
        out,
        "mission:           {years} y ({:.0} h), seed {seed}",
        outcome.mission_hours
    );
    let _ = writeln!(
        out,
        "events:            {} processed ({} stale), {} node + {} drive failures, {} rebuilds",
        outcome.events,
        outcome.stale_events,
        outcome.node_failures,
        outcome.drive_failures,
        outcome.rebuilds
    );
    let excess = outcome
        .losses
        .iter()
        .filter(|l| l.cause == LossCause::ExcessFailures)
        .count();
    let sector = outcome.losses.len() - excess;
    let _ = writeln!(
        out,
        "losses:            {} (excess-failures {excess}, sector-error {sector})",
        outcome.losses.len()
    );
    match outcome.mttdl_estimate() {
        Some((mttdl, (lo, hi))) => {
            let _ = writeln!(
                out,
                "direct MTTDL:      {mttdl:.4e} h  (95% CI [{lo:.4e}, {hi:.4e}])"
            );
            let _ = writeln!(
                out,
                "direct rate:       {:.4e} data-loss events/PB-year",
                outcome.events_per_pb_year()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "direct MTTDL:      no losses observed; > {:.4e} h at 95% (rule of three)",
                outcome.mttdl_lower_bound()
            );
        }
    }
    let _ = writeln!(out, "analytic (exact):  {analytic:.6e} h per cell");

    let render_rare = |out: &mut String, label: &str, r: &FleetRareEstimate| {
        let _ = writeln!(
            out,
            "{label:<19}{:.6e} h per cell (±{:.1}%), fleet {:.4e} h",
            r.cell_mttdl.mtta,
            100.0 * r.cell_mttdl.rel_err,
            r.fleet_mttdl_hours
        );
        let _ = writeln!(
            out,
            "crosscheck {}: {} ({:.2} sigma from analytic)",
            r.estimator,
            if r.contains_analytic(4.0) {
                "PASS"
            } else {
                "FAIL"
            },
            r.sigmas_from_analytic()
        );
    };
    if estimator == "is" || estimator == "all" {
        let r = sim.estimate_importance(
            Options {
                gamma_cycles: cycles,
                time_cycles: cycles,
                ..Options::default()
            },
            seed,
        )?;
        render_rare(&mut out, "IS MTTDL:", &r);
    }
    if estimator == "splitting" || estimator == "all" {
        let r = sim.estimate_splitting(
            SplitOptions {
                gamma_cycles: cycles,
                time_cycles: cycles,
                ..SplitOptions::default()
            },
            seed,
        )?;
        render_rare(&mut out, "splitting MTTDL:", &r);
    }
    if args.has_flag("trace") {
        out.push_str(&outcome.canonical_trace());
    }
    Ok(out)
}

pub(crate) fn aging(args: &ParsedArgs) -> Result<String> {
    let config = config_from(args, Some("ft1-nir"))?;
    let params = params_from(args)?;
    let samples = args.get_or("samples", 400u64)?;
    let seed = args.get_or("seed", 42u64)?;
    let shape = args.get_or("shape", 1.5f64)?;
    let exp = crate::figures::aging_mttdl(&params, config, None, samples, seed)?;
    let weib = crate::figures::aging_mttdl(&params, config, Some(shape), samples, seed + 1)?;
    let analytic = config.evaluate(&params)?;
    let mut out = String::new();
    let _ = writeln!(out, "lifetime-distribution ablation for {config}:");
    let _ = writeln!(
        out,
        "  analytic (exponential):      {:.4e} h",
        analytic.exact.mttdl_hours
    );
    let _ = writeln!(out, "  simulated exponential:       {}", exp);
    let _ = writeln!(out, "  simulated Weibull (k={shape}):   {}", weib);
    let _ = writeln!(
        out,
        "  Markov-assumption error:     {:+.1}%",
        100.0 * (weib.mean - exp.mean) / exp.mean
    );
    Ok(out)
}
