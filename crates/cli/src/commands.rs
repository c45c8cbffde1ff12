//! Implementations of the `nsr` subcommands. Each returns the text it
//! would print, so the whole surface is unit-testable.

use std::fmt::Write as _;

use nsr_core::config::Configuration;
use nsr_core::metrics::TARGET_EVENTS_PER_PB_YEAR;
use nsr_core::params::Params;
use nsr_core::sweep::fig13_baseline;
use nsr_rng::rngs::StdRng;
use nsr_rng::SeedableRng;
use nsr_sim::faultinject::{Campaign, FaultPlan};
use nsr_sim::fleet::{FleetRareEstimate, FleetSim};
use nsr_sim::importance::{Options, RareEvent};
use nsr_sim::splitting::SplitOptions;
use nsr_sim::system::{LossCause, SystemSim};

use crate::args::{config_name, params_from, parse_config, ParsedArgs, PARAM_OPTIONS};
use crate::figures::{spreads, sweep_table};
use crate::render::sweep_csv;
use crate::{CliError, Result};

/// Usage text for `nsr help`.
pub const USAGE: &str = "\
nsr — reliability models for networked storage nodes (DSN 2006)

USAGE:
  nsr <command> [--option value]... [--flag]...

COMMANDS:
  baseline    Figure 13: all nine configurations at the baseline
  eval        evaluate one configuration (--config ft2-ir5)
  sweep       one sensitivity analysis (--figure 14..20; --csv for CSV;
              --workers N|auto to evaluate rows in parallel)
  figures     regenerate every file under results/ (--out DIR, default
              results; --workers N|auto)
  sim         system-level Monte Carlo (--config, --samples, --seed)
  inject      fault-injection campaign (--plan NAME|list, --runs, --seed;
              --replay SEED prints one run's exact event trace)
  rare        rare-event (importance-sampling) MTTDL (--config, --cycles)
  fleet       fleet-scale discrete-event mission (--config, --bricks N,
              --years Y, --seed S, --workers N; deterministic at any
              worker count; --estimator direct|is|splitting|all adds
              rare-event MTTDL estimates cross-checked against the
              analytic value; --trace prints the canonical replay trace)
  mission     P(data loss within --years Y) for --config
  plan        feasible configurations for --target events/PB-year; or
              --grid for a Pareto frontier search over a configuration
              space (--grid-nodes, --grid-k, --grid-t, --grid-ir,
              --grid-spares, --grid-bw as comma lists; --mission-years Y,
              --workers N|auto, --csv, --explain for decision records,
              --exhaustive to skip dominance pruning)
  spares      fail-in-place spare-capacity provisioning analysis
  aging       non-Markovian (Weibull) lifetime ablation (--shape K)
  bench       performance harness → BENCH_<suite>.json (--suite NAME|all,
              --out-dir DIR, --smoke for the fast CI mode, --check to
              validate existing reports without re-running;
              --compare OLD.json NEW.json diffs two reports and fails on
              regressions past --threshold PCT, default 25;
              --only PREFIX restricts the diff to matching case names)
  chain       export a configuration's exact CTMC as Graphviz dot (--out F)
  report      one-shot markdown reproduction report (--out FILE); or render
              observability artifacts: --metrics F / --trace F (span tree
              with self/total times, histogram p50/p95/p99) and
              --bench-dir D [--bench-baseline D] (BENCH_*.json tables with
              deltas); --cluster DIR stitches per-process JSONL parts
              (from cluster-inject --obs-dir) into one cross-process
              causal tree; --check validates artifacts without rendering
  explain     analytic decision record for one configuration
              (nsr explain ft2-ir5): chain size/density, solver tier,
              conditioning, rebuild intermediates, closed-vs-exact delta
  obs-check   validate an nsr-obs JSON-lines file (--file F; checks v2
              span links resolve; --require pat1,pat2 demands records by
              name or kind:name, e.g. span:core.evaluate)
  brick       run one storage-brick daemon (--listen ADDR, --id N);
              announces `LISTENING <addr>` on stdout, serves until killed;
              --obs [--label L] records metrics + spans under process
              label L (default brick-<id>), harvestable over the wire
  gateway     striping gateway over running bricks (--bricks a:p,b:p,...,
              --data K, --parity T, --rounds N); watches health, prints
              transitions, auto-repairs after brick deaths; --telemetry
              ADDR serves scrapes about the gateway (announced as
              `TELEMETRY <addr>`) and collects per-brick snapshots
  top         live cluster dashboard over the scrape path (--bricks
              a:p,..., --gateway a:p, --interval-ms M, --iterations N,
              --plain); per-process ops/s, serving p50/p99, pool
              reuse/redial, detector health and snapshot staleness
  cluster-inject  live kill-9 campaign over real brick child processes
              (--bricks N, --plan kill9-single|kill9-burst, --seed S,
              --pool-size P, --workers W); verdict lines are
              deterministic for a (plan, seed, bricks); --obs-dir DIR
              runs it fully traced and writes per-process trace parts
              plus the stitched cluster.canonical.jsonl causal tree
              (--no-fault-writes freezes writes for byte-identical
              traces across pool/worker counts)
  workload    YCSB-style serving benchmark over an in-process cluster
              (--objects N, --object-bytes B, --ops N, --read-pct P,
              --dist zipfian|uniform, --theta F, --seed S); replays one
              seeded op stream through healthy -> degraded -> rebuilding
              phases and reports MiB/s plus p50/p95/p99 latencies
  help        this text

CONFIGS:  ft<k>-<nir|ir5|ir6>, e.g. ft1-nir, ft2-ir5, ft3-nir

PARAMETER OVERRIDES (every command but brick, gateway, cluster-inject,
workload, top, bench and obs-check):
  --drive-mttf H  --node-mttf H  --nodes N  --rset R  --drives D
  --link-gbps G   --rebuild-kib K  --restripe-kib K
  --capacity-util F  --bw-util F  --her E  --drive-gb G  --half-duplex

OBSERVABILITY (all commands):
  --metrics-out FILE   write an nsr-obs/v1 metrics snapshot after the run
  --trace-out FILE     write the nsr-obs/v2 span/event trace after the run
";

/// The options and bare flags each command reads (space-separated),
/// beyond the observability pair every command takes, and whether it
/// also reads the parameter overrides ([`PARAM_OPTIONS`]). [`dispatch`]
/// refuses any other option before the command runs, so a misspelled
/// option fails loudly instead of silently running the default.
const COMMAND_OPTIONS: &[(&str, bool, &str)] = &[
    ("baseline", true, ""),
    ("eval", true, "config"),
    ("sweep", true, "figure workers csv"),
    ("figures", true, "out workers"),
    ("sim", true, "config samples seed threads"),
    ("inject", true, "plan config replay runs seed"),
    ("rare", true, "config cycles seed bias"),
    (
        "fleet",
        true,
        "config bricks years seed workers estimator cycles trace",
    ),
    ("mission", true, "config years"),
    (
        "plan",
        true,
        "target max-ft grid grid-nodes grid-k grid-t grid-ir grid-spares \
        grid-bw mission-years workers csv explain exhaustive",
    ),
    ("spares", true, "years"),
    (
        "report",
        true,
        "out metrics trace bench-dir bench-baseline cluster check",
    ),
    ("explain", true, "config"),
    ("brick", false, "listen id obs label"),
    (
        "gateway",
        false,
        "bricks data parity rounds objects telemetry",
    ),
    (
        "cluster-inject",
        false,
        "bricks plan seed objects object-bytes ms-per-hour \
        pool-size workers no-fault-writes obs-dir",
    ),
    (
        "workload",
        false,
        "objects object-bytes ops read-pct dist theta seed bricks data parity",
    ),
    (
        "top",
        false,
        "bricks gateway interval-ms iterations plain timeout-ms",
    ),
    ("aging", true, "config samples seed shape"),
    (
        "bench",
        false,
        "suite out-dir smoke check compare threshold only",
    ),
    ("chain", true, "config out"),
    ("obs-check", false, "file require"),
];

/// Refuses every option or flag `args`' command does not take, naming
/// them all. Unknown commands pass through to [`dispatch`]'s own error.
fn check_options(args: &ParsedArgs) -> Result<()> {
    let Some(&(_, params, own)) = COMMAND_OPTIONS
        .iter()
        .find(|(name, _, _)| *name == args.command)
    else {
        return Ok(());
    };
    let takes = |key: &str| {
        ["metrics-out", "trace-out"].contains(&key)
            || own.split(' ').any(|own| own == key)
            || (params && PARAM_OPTIONS.split(' ').any(|p| p == key))
    };
    let mut refused: Vec<&str> = args
        .options
        .keys()
        .chain(&args.flags)
        .map(String::as_str)
        .filter(|key| !takes(key))
        .collect();
    if refused.is_empty() {
        return Ok(());
    }
    refused.sort_unstable();
    Err(CliError(format!(
        "`nsr {}` does not take --{}; try `nsr help`",
        args.command,
        refused.join(", --")
    )))
}

/// Dispatches a parsed command line.
///
/// When `--metrics-out` / `--trace-out` is present, the corresponding
/// observability layer is enabled for the duration of the command and a
/// fresh `nsr-obs/v1` snapshot is written afterwards; both layers are
/// disabled again before returning, so observability stays strictly
/// per-invocation.
///
/// # Errors
///
/// Returns a [`CliError`] suitable for printing to stderr — before any
/// work runs if the command does not take one of the options passed.
pub fn dispatch(args: &ParsedArgs) -> Result<String> {
    check_options(args)?;
    let metrics_out = args.get::<String>("metrics-out")?;
    let trace_out = args.get::<String>("trace-out")?;
    if metrics_out.is_none() && trace_out.is_none() {
        return dispatch_cmd(args);
    }

    // Start from a clean slate (earlier in-process invocations may have
    // left counts or buffered records), then enable the requested layers
    // *before* registering so registration-time records (e.g. the erasure
    // kernel-tier event) are captured.
    nsr_obs::reset_metrics();
    let _ = nsr_obs::trace::drain();
    nsr_obs::set_metrics_enabled(metrics_out.is_some());
    nsr_obs::set_trace_enabled(trace_out.is_some());
    nsr_markov::obs::register();
    nsr_core::obs::register();
    nsr_sim::obs::register();
    nsr_erasure::obs::register();
    nsr_net::obs::register();

    let result = dispatch_cmd(args);
    nsr_obs::set_metrics_enabled(false);
    nsr_obs::set_trace_enabled(false);

    let mut out = result?;
    if let Some(path) = metrics_out {
        let n = nsr_obs::write_metrics(std::path::Path::new(&path), &args.command)?;
        let _ = writeln!(out, "wrote {path} ({n} metric records)");
    }
    if let Some(path) = trace_out {
        let n = nsr_obs::write_trace(std::path::Path::new(&path), &args.command)?;
        let _ = writeln!(out, "wrote {path} ({n} trace records)");
    }
    Ok(out)
}

fn dispatch_cmd(args: &ParsedArgs) -> Result<String> {
    match args.command.as_str() {
        "baseline" => baseline(args),
        "eval" => eval(args),
        "sweep" => sweep_cmd(args),
        "figures" => crate::figures::figures(args),
        "sim" => sim(args),
        "inject" => inject(args),
        "rare" => rare(args),
        "fleet" => fleet(args),
        "mission" => mission(args),
        "plan" => plan(args),
        "spares" => spares(args),
        "report" => {
            if crate::report::wants_artifact_mode(args)? {
                crate::report::artifact_report(args)
            } else {
                report(args)
            }
        }
        "explain" => crate::explain::explain(args),
        "brick" => crate::net_cmds::brick(args),
        "gateway" => crate::net_cmds::gateway(args),
        "cluster-inject" => crate::net_cmds::cluster_inject(args),
        "workload" => crate::net_cmds::workload(args),
        "top" => crate::top::top(args),
        "aging" => aging(args),
        "bench" => bench(args),
        "chain" => chain(args),
        "obs-check" => obs_check(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError(format!(
            "unknown command '{other}'; try `nsr help`"
        ))),
    }
}

fn baseline(args: &ParsedArgs) -> Result<String> {
    crate::figures::fig13(&params_from(args)?)
}

fn eval(args: &ParsedArgs) -> Result<String> {
    let config = parse_config(
        &args
            .get::<String>("config")?
            .ok_or_else(|| CliError("--config is required".into()))?,
    )?;
    let params = params_from(args)?;
    let e = config.evaluate(&params)?;
    let mut out = String::new();
    let _ = writeln!(out, "configuration: {config} ({})", config_name(config));
    let _ = writeln!(out, "closed form:   {}", e.closed_form);
    let _ = writeln!(out, "exact CTMC:    {}", e.exact);
    let _ = writeln!(
        out,
        "node rebuild:  {:.2} h ({}-bound)",
        e.node_rebuild.duration.0, e.node_rebuild.bottleneck
    );
    let _ = writeln!(
        out,
        "drive repair:  {:.2} h ({}-bound)",
        e.drive_repair.duration.0, e.drive_repair.bottleneck
    );
    let _ = writeln!(
        out,
        "margin:        {:.2} orders of magnitude vs target",
        e.closed_form.margin_orders()
    );
    Ok(out)
}

pub(crate) fn workers_from(args: &ParsedArgs) -> Result<usize> {
    let raw = args.get_or("workers", String::from("1"))?;
    if raw == "auto" {
        // 0 is the core-layer sentinel: nsr_core::sweep::sweep resolves it
        // per sweep via nsr_core::sweep::auto_workers (cores vs rows).
        return Ok(0);
    }
    let workers: usize = raw
        .parse()
        .map_err(|_| CliError(format!("--workers must be a count or `auto` (got {raw})")))?;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1 (or `auto`)".into()));
    }
    Ok(workers)
}

fn sweep_cmd(args: &ParsedArgs) -> Result<String> {
    let figure: u32 = args
        .get("figure")?
        .ok_or_else(|| CliError("--figure is required (14..20)".into()))?;
    let params = params_from(args)?;
    let workers = workers_from(args)?;
    let sweep = nsr_core::sweep::figure_sweep(figure, &params, workers)?;
    Ok(if args.has_flag("csv") {
        sweep_csv(&sweep)
    } else {
        sweep_table(&sweep)
    })
}

fn sim(args: &ParsedArgs) -> Result<String> {
    let config = parse_config(
        &args
            .get::<String>("config")?
            .ok_or_else(|| CliError("--config is required".into()))?,
    )?;
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

fn inject(args: &ParsedArgs) -> Result<String> {
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

    let config = parse_config(&args.get_or("config", "ft2-nir".to_string())?)?;
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

fn rare(args: &ParsedArgs) -> Result<String> {
    let config = parse_config(
        &args
            .get::<String>("config")?
            .ok_or_else(|| CliError("--config is required".into()))?,
    )?;
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

fn fleet(args: &ParsedArgs) -> Result<String> {
    let config = parse_config(&args.get_or("config", "ft1-nir".to_string())?)?;
    let params = params_from(args)?;
    let bricks = args.get_or("bricks", 10_000u64)?;
    let years = args.get_or("years", 10.0f64)?;
    let seed = args.get_or("seed", 42u64)?;
    let workers = args.get_or("workers", 0u32)?;
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

fn mission(args: &ParsedArgs) -> Result<String> {
    let config = parse_config(
        &args
            .get::<String>("config")?
            .ok_or_else(|| CliError("--config is required".into()))?,
    )?;
    let params = params_from(args)?;
    let years = args.get_or("years", 5.0f64)?;
    let mut out = String::new();
    let _ = writeln!(out, "mission reliability for {config}:");
    for y in [years / 5.0, years, years * 4.0] {
        let p = nsr_core::mission::loss_probability(config, &params, y)?;
        let _ = writeln!(out, "  P(data loss within {y:>7.2} y) = {p:.4e}");
    }
    Ok(out)
}

fn plan(args: &ParsedArgs) -> Result<String> {
    if args.has_flag("grid") {
        return plan_grid(args);
    }
    let params = params_from(args)?;
    let target = args.get_or("target", TARGET_EVENTS_PER_PB_YEAR)?;
    let max_ft = args.get_or("max-ft", 3u32)?;
    let plans = nsr_core::plan::feasible_plans(&params, target, max_ft)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "configurations meeting {target:.1e} events/PB-year (cheapest first):\n"
    );
    let _ = writeln!(
        out,
        "{:<28}{:>12}{:>16}{:>14}",
        "configuration", "efficiency", "events/PB-yr", "margin (dex)"
    );
    for p in &plans {
        let _ = writeln!(
            out,
            "{:<28}{:>11.1}%{:>16.3e}{:>14.1}",
            format!("{}", p.config),
            100.0 * p.efficiency,
            p.evaluation.closed_form.events_per_pb_year,
            p.evaluation.closed_form.margin_orders()
        );
    }
    if plans.is_empty() {
        let _ = writeln!(out, "  (none — relax the target or raise --max-ft)");
    } else {
        // Size the §8 knob for the cheapest plan.
        let best = plans[0].config;
        if let Ok(block) = nsr_core::plan::min_rebuild_block_for_target(&params, best, target) {
            let _ = writeln!(
                out,
                "\ncheapest plan [{best}] needs a rebuild block of at least {:.0} KiB",
                block.0 / 1024.0
            );
        }
    }
    Ok(out)
}

/// Parses a comma-separated numeric axis flag, falling back to a
/// default grid.
fn grid_axis<T>(args: &ParsedArgs, key: &str, default: &[T]) -> Result<Vec<T>>
where
    T: std::str::FromStr + Copy,
{
    match args.get::<String>(key)? {
        None => Ok(default.to_vec()),
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<T>()
                    .map_err(|_| CliError(format!("--{key}: cannot parse '{s}'")))
            })
            .collect(),
    }
}

/// Implements `nsr plan --grid`: Pareto frontier search over a
/// configuration grid via the batched planner.
fn plan_grid(args: &ParsedArgs) -> Result<String> {
    use nsr_core::plan::{frontier_csv, plan_search, ConfigSpace, PlanOptions};
    use nsr_core::raid::InternalRaid;

    let params = params_from(args)?;
    let internal = match args.get::<String>("grid-ir")? {
        None => InternalRaid::all().to_vec(),
        Some(raw) => raw
            .split(',')
            .map(|s| match s.trim() {
                "nir" => Ok(InternalRaid::None),
                "ir5" => Ok(InternalRaid::Raid5),
                "ir6" => Ok(InternalRaid::Raid6),
                other => Err(CliError(format!(
                    "--grid-ir: unknown level '{other}' (nir|ir5|ir6)"
                ))),
            })
            .collect::<Result<Vec<_>>>()?,
    };
    let space = ConfigSpace {
        nodes: grid_axis(args, "grid-nodes", &[64])?,
        data_shards: grid_axis(args, "grid-k", &[2, 4, 6])?,
        node_ft: grid_axis(args, "grid-t", &[1, 2, 3])?,
        internal,
        spare_frac: grid_axis(args, "grid-spares", &[0.0, 0.25])?,
        rebuild_bw: grid_axis(args, "grid-bw", &[0.05, 0.1, 0.2])?,
    };
    let opts = PlanOptions {
        workers: workers_from(args)?,
        mission_years: args.get_or("mission-years", 5.0f64)?,
        exhaustive: args.has_flag("exhaustive"),
    };
    let report = plan_search(&params, &space, &opts).map_err(|e| CliError(e.to_string()))?;

    if args.has_flag("csv") {
        return Ok(frontier_csv(&report));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan grid: {} points, {} feasible, {} pruned without solving, {} solved exactly",
        report.grid_points, report.feasible, report.pruned, report.solved
    );
    let _ = writeln!(
        out,
        "elimination programs: {} bound, {} reused",
        report.skeleton_builds, report.skeleton_reuses
    );
    let _ = writeln!(
        out,
        "guard band: {} of {} solved points outside ±{:.0}% of the closed form{}",
        report.guard_violations,
        report.solved,
        100.0 * nsr_core::plan::PRUNE_GUARD,
        if report.exhaustive_fallback {
            " — WARNING: pruning is not sound here, every feasible point was re-solved"
        } else {
            ""
        }
    );
    if !report.infeasible_examples.is_empty() {
        let (p, reason) = &report.infeasible_examples[0];
        let _ = writeln!(
            out,
            "infeasible corners: e.g. N={} k={} {} — {reason}",
            p.nodes,
            p.data_shards,
            p.config_code(),
        );
    }
    let _ = writeln!(
        out,
        "\nPareto frontier (cost: raw/usable + rebuild bw; objectives: \
         events/PB-yr + P(loss in {:.0} y)):\n",
        report.mission_years
    );
    let _ = writeln!(
        out,
        "{:<8}{:>6}{:>4}{:>4}{:>8}{:>6}{:>11}{:>14}{:>12}",
        "config", "nodes", "k", "t", "spares", "bw", "raw/usable", "events/PB-yr", "P(loss)"
    );
    for f in &report.frontier {
        let p = f.point.point;
        let _ = writeln!(
            out,
            "{:<8}{:>6}{:>4}{:>4}{:>8.2}{:>6.2}{:>11.3}{:>14.3e}{:>12.3e}",
            p.config_code(),
            p.nodes,
            p.data_shards,
            p.node_ft,
            p.spare_frac,
            p.rebuild_bw,
            f.point.cost_overhead,
            f.exact_events_pb_year,
            f.exact_mission_loss,
        );
    }

    if args.has_flag("explain") {
        let _ = writeln!(out, "\ndecision records:");
        for f in &report.frontier {
            let p = f.point.point;
            let point_params = p.params(&params);
            // Transient-uniformization refinement of the exponential
            // mission approximation used for the frontier objectives.
            let mission = nsr_core::mission::loss_probability(
                f.point.config,
                &point_params,
                report.mission_years,
            )
            .map_err(|e| CliError(e.to_string()))?;
            let _ = writeln!(
                out,
                "  [{} N={} k={} spares={} bw={}]",
                p.config_code(),
                p.nodes,
                p.data_shards,
                p.spare_frac,
                p.rebuild_bw
            );
            let _ = writeln!(
                out,
                "    exact MTTDL {:.4e} h; closed form {:.4e} h ({:+.1}% off exact)",
                f.exact_mttdl_hours,
                f.point.closed_mttdl_hours,
                100.0 * (f.point.closed_mttdl_hours - f.exact_mttdl_hours) / f.exact_mttdl_hours
            );
            let _ = writeln!(
                out,
                "    mission P(loss in {:.0} y): {:.4e} exponential, {:.4e} uniformized",
                report.mission_years, f.exact_mission_loss, mission
            );
            let _ = writeln!(
                out,
                "    cost: {:.3}x raw/usable, {:.0}% bandwidth held for rebuild",
                f.point.cost_overhead,
                100.0 * f.point.cost_rebuild_bw
            );
        }
    }
    Ok(out)
}

fn spares(args: &ParsedArgs) -> Result<String> {
    let params = params_from(args)?;
    let years = args.get_or("years", 5.0f64)?;
    let m = nsr_core::spares::SpareModel::new(params)?;
    let mut out = String::new();
    let _ = writeln!(out, "fail-in-place spare provisioning:");
    let _ = writeln!(
        out,
        "  drive failures:    {:.2}/year",
        m.drive_failures_per_hour() * nsr_core::units::HOURS_PER_YEAR
    );
    let _ = writeln!(
        out,
        "  node failures:     {:.2}/year",
        m.node_failures_per_hour() * nsr_core::units::HOURS_PER_YEAR
    );
    let _ = writeln!(
        out,
        "  capacity erosion:  {:.2} TB/year",
        m.capacity_loss_rate().0 * nsr_core::units::HOURS_PER_YEAR / 1e12
    );
    let _ = writeln!(
        out,
        "  spare pool:        {:.2} TB",
        m.spare_pool().0 / 1e12
    );
    let _ = writeln!(
        out,
        "  expected lifetime: {:.2} years",
        m.expected_lifetime()?.to_years()
    );
    let _ = writeln!(
        out,
        "  P(pool survives {years} y) = {:.4}",
        m.survival_probability(years)?
    );
    match m.utilization_for_lifetime(years) {
        Ok(u) => {
            let _ = writeln!(
                out,
                "  utilization for a {years}-year life: {:.1}% (baseline 75.0%)",
                100.0 * u
            );
        }
        Err(e) => {
            let _ = writeln!(out, "  {years}-year life infeasible: {e}");
        }
    }
    Ok(out)
}

fn report(args: &ParsedArgs) -> Result<String> {
    let md = report_markdown(params_from(args)?)?;
    if let Some(path) = args.get::<String>("out")? {
        std::fs::write(&path, &md)?;
        Ok(format!("wrote {path}\n"))
    } else {
        Ok(md)
    }
}

/// The one-shot markdown reproduction report `nsr report` prints.
pub(crate) fn report_markdown(params: Params) -> Result<String> {
    let mut md = String::new();
    let _ = writeln!(md, "# Reliability report — networked storage nodes\n");
    let _ = writeln!(
        md,
        "Baseline: N = {}, R = {}, d = {}, drive MTTF {} h, node MTTF {} h, \
         link {} Gb/s, rebuild block {:.0} KiB, utilization {:.0} %.\n",
        params.system.node_count,
        params.system.redundancy_set_size,
        params.node.drives_per_node,
        params.drive.mttf.0,
        params.node.mttf.0,
        params.system.link_speed.0,
        params.system.rebuild_command.0 / 1024.0,
        100.0 * params.system.capacity_utilization,
    );

    // Figure 13 table.
    let _ = writeln!(md, "## Baseline comparison (Figure 13)\n");
    let _ = writeln!(
        md,
        "| configuration | MTTDL (h) | events/PB-year | target |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    for (config, r) in fig13_baseline(&params)? {
        let _ = writeln!(
            md,
            "| {config} | {:.3e} | {:.3e} | {} |",
            r.mttdl_hours,
            r.events_per_pb_year,
            if r.meets_target() {
                "meets"
            } else {
                "**misses**"
            }
        );
    }

    // Sensitivity spreads.
    let _ = writeln!(md, "\n## Sensitivity summary (Figures 14–20)\n");
    let _ = writeln!(md, "| sweep | FT2 no-IR | FT2 IR5 | FT3 no-IR |");
    let _ = writeln!(md, "|---|---|---|---|");
    for fig in 16..=20u32 {
        let sweep = nsr_core::sweep::figure_sweep(fig, &params, 1)?;
        let mut row = format!("| {} ({}) |", sweep.x_name, sweep.x_unit);
        for (_, spread) in spreads(&sweep) {
            row.push_str(&format!(" {spread:.1}x |"));
        }
        let _ = writeln!(md, "{row}");
    }

    // Spares and mission.
    let spares_model = nsr_core::spares::SpareModel::new(params)?;
    let _ = writeln!(md, "\n## Fail-in-place provisioning\n");
    let _ = writeln!(
        md,
        "Expected spare-pool lifetime: **{:.1} years** \
         ({:.1} TB pool, {:.1} TB/year erosion).",
        spares_model.expected_lifetime()?.to_years(),
        spares_model.spare_pool().0 / 1e12,
        spares_model.capacity_loss_rate().0 * nsr_core::units::HOURS_PER_YEAR / 1e12,
    );

    let _ = writeln!(md, "\n## Mission risk (5 years)\n");
    let _ = writeln!(md, "| configuration | P(data loss in 5 y) |");
    let _ = writeln!(md, "|---|---|");
    for config in Configuration::sensitivity_set() {
        let p = nsr_core::mission::loss_probability(config, &params, 5.0)?;
        let _ = writeln!(md, "| {config} | {p:.3e} |");
    }

    // Chain structure sanity.
    let _ = writeln!(md, "\n## Model-structure validation\n");
    for config in Configuration::sensitivity_set() {
        let (ctmc, _) = config.exact_chain(&params)?;
        let diag = nsr_markov::validate_absorbing(&ctmc).map_err(|e| CliError(e.to_string()))?;
        let _ = writeln!(
            md,
            "- {config}: {} states, {} absorbing, {} trapped (must be 0)",
            ctmc.len(),
            diag.absorbing_count,
            diag.trapped_states.len()
        );
    }
    Ok(md)
}

fn aging(args: &ParsedArgs) -> Result<String> {
    let config = parse_config(&args.get_or("config", "ft1-nir".to_string())?)?;
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

fn bench(args: &ParsedArgs) -> Result<String> {
    use nsr_bench::json::Json;
    use nsr_bench::suites::{self, Mode, SUITE_NAMES};

    // --compare <old.json> <new.json>: diff two reports, no timing.
    if let Some(old_path) = args.get::<String>("compare")? {
        let new_path = args.positionals.first().ok_or_else(|| {
            CliError("--compare needs two report paths: --compare OLD.json NEW.json".into())
        })?;
        let threshold = args.get_or("threshold", 25.0f64)?;
        let only = args.get::<String>("only")?;
        let read = |path: &str| -> Result<Json> {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("reading {path}: {e}")))?;
            Json::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))
        };
        let old = read(&old_path)?;
        let new = read(new_path)?;
        let cmp = nsr_bench::compare::compare_reports_only(&old, &new, threshold, only.as_deref())
            .map_err(CliError)?;
        let text = cmp.render();
        if cmp.regressions().is_empty() {
            return Ok(text);
        }
        return Err(CliError(text));
    }

    let which = args.get_or("suite", "all".to_string())?;
    let names: Vec<&str> = if which == "all" {
        SUITE_NAMES.to_vec()
    } else {
        match SUITE_NAMES.iter().find(|n| **n == which) {
            Some(n) => vec![n],
            None => {
                return Err(CliError(format!(
                    "--suite must be one of: all, {}",
                    SUITE_NAMES.join(", ")
                )))
            }
        }
    };
    let out_dir = std::path::PathBuf::from(args.get_or("out-dir", String::from("."))?);
    let mode = if args.has_flag("smoke") {
        Mode::Smoke
    } else {
        Mode::Full
    };
    let mut out = String::new();

    // --check: validate existing reports against the schema, no timing.
    if args.has_flag("check") {
        for name in names {
            let path = out_dir.join(format!("BENCH_{name}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError(format!("reading {}: {e}", path.display())))?;
            let doc =
                Json::parse(&text).map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            suites::validate_report(&doc)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            let results = doc
                .get("results")
                .and_then(Json::as_arr)
                .map_or(0, <[_]>::len);
            let _ = writeln!(out, "{}: valid ({results} results)", path.display());
        }
        return Ok(out);
    }

    for name in names {
        let suite = suites::run_suite(name, mode).map_err(CliError)?;
        out.push_str(&suite.render_human());
        let path = out_dir.join(suite.file_name());
        nsr_bench::write_report(&suite, &path).map_err(CliError)?;
        let _ = writeln!(out, "wrote {}", path.display());
    }
    Ok(out)
}

fn obs_check(args: &ParsedArgs) -> Result<String> {
    let path = args
        .get::<String>("file")?
        .ok_or_else(|| CliError("--file is required".into()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    let records = nsr_obs::validate_jsonl(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    nsr_obs::validate_span_links(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    // Metric snapshots are nsr-obs/v1; spans and events are always v2.
    let schema = if text.contains(nsr_obs::SCHEMA_V2) {
        "nsr-obs/v2 trace"
    } else {
        "nsr-obs/v1"
    };
    let mut out = String::new();
    let _ = writeln!(out, "{path}: valid {schema} ({records} records)");
    if let Some(required) = args.get::<String>("require")? {
        // `(kind, name)` pairs actually present; a bare `name` pattern
        // matches any kind, `kind:name` demands both.
        let mut present = std::collections::HashSet::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            // validate_jsonl already proved every line parses.
            let doc = nsr_obs::Json::parse(line).expect("validated above");
            let kind = doc.get("kind").and_then(nsr_obs::Json::as_str);
            if let Some(name) = doc.get("name").and_then(nsr_obs::Json::as_str) {
                present.insert((kind.unwrap_or("?").to_string(), name.to_string()));
            }
        }
        for want in required.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let hit = match want.split_once(':') {
                Some((kind, name)) => present.contains(&(kind.to_string(), name.to_string())),
                None => present.iter().any(|(_, n)| n == want),
            };
            if !hit {
                return Err(CliError(format!(
                    "{path}: required record '{want}' not present"
                )));
            }
        }
        let _ = writeln!(out, "required names present: {required}");
    }
    Ok(out)
}

fn chain(args: &ParsedArgs) -> Result<String> {
    let config = parse_config(
        &args
            .get::<String>("config")?
            .ok_or_else(|| CliError("--config is required".into()))?,
    )?;
    let (dot, summary) = chain_dot(config, &params_from(args)?)?;
    if let Some(path) = args.get::<String>("out")? {
        std::fs::write(&path, &dot)?;
        Ok(format!("wrote {path} ({summary})\n"))
    } else {
        Ok(dot)
    }
}

/// A configuration's exact CTMC as Graphviz dot, plus a one-line
/// summary (states, absorbing states, root).
pub(crate) fn chain_dot(config: Configuration, params: &Params) -> Result<(String, String)> {
    let (ctmc, root) = config.exact_chain(params)?;
    let diag = nsr_markov::validate_absorbing(&ctmc).map_err(|e| CliError(e.to_string()))?;
    if !diag.trapped_states.is_empty() {
        return Err(CliError(format!(
            "chain has {} trapped states — model construction bug",
            diag.trapped_states.len()
        )));
    }
    let dot = nsr_markov::to_dot(&ctmc, nsr_markov::DotOptions::default());
    let summary = format!(
        "{} states, {} absorbing, root {}",
        ctmc.len(),
        diag.absorbing_count,
        ctmc.label(root)
    );
    Ok((dot, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(words: &[&str]) -> Result<String> {
        dispatch(&ParsedArgs::parse(words.iter().map(|s| s.to_string())).unwrap())
    }

    /// Whether `nsr <command> --<key>...` passes the option check.
    fn takes(command: &str, keys: &[&str]) -> bool {
        let mut words = vec![command.to_string()];
        words.extend(keys.iter().map(|k| format!("--{k}")));
        check_options(&ParsedArgs::parse(words).unwrap()).is_ok()
    }

    /// The `--option` names in `text`.
    fn option_names(text: &str) -> Vec<&str> {
        text.split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                rest[..end].trim_end_matches('-')
            })
            .filter(|name| !name.is_empty())
            .collect()
    }

    #[test]
    fn misspelled_options_are_refused_before_any_work() {
        let err = run(&["eval", "--config", "ft2-ir5", "--nodez", "32"]).unwrap_err();
        assert_eq!(err.0, "`nsr eval` does not take --nodez; try `nsr help`");
        let err = run(&["brick", "--nodes", "3", "--listen", "x", "--obz"]).unwrap_err();
        assert_eq!(
            err.0,
            "`nsr brick` does not take --nodes, --obz; try `nsr help`"
        );
        // Refused before the command runs: this bench would overwrite
        // the checked-in reports.
        let err = run(&["bench", "--help"]).unwrap_err();
        assert!(err.0.contains("--help"), "{err}");
        assert!(run(&["eval", "--config", "ft2-ir5", "--nodes", "32"]).is_ok());
    }

    #[test]
    fn every_documented_option_is_taken() {
        // USAGE: each command's own options, then the shared sections.
        let (commands, shared) = USAGE
            .split_once("COMMANDS:\n")
            .and_then(|(_, rest)| rest.split_once("\nCONFIGS:"))
            .unwrap();
        let mut blocks: Vec<(&str, String)> = Vec::new();
        for line in commands.lines() {
            if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                let (name, rest) = head.split_once(' ').unwrap_or((head, ""));
                blocks.push((name, rest.to_string()));
            } else if let Some((_, text)) = blocks.last_mut() {
                text.push_str(line);
            }
        }
        assert!(blocks.len() > 20, "{blocks:?}");
        for (command, text) in &blocks {
            for key in option_names(text) {
                // "(from cluster-inject --obs-dir)": another command's.
                let elsewhere = COMMAND_OPTIONS
                    .iter()
                    .any(|(other, _, _)| text.contains(&format!("{other} --{key}")));
                if elsewhere {
                    continue;
                }
                assert!(
                    takes(command, &[key]),
                    "USAGE: `nsr {command}` refuses --{key}"
                );
            }
        }
        let (overrides, observability) = shared.split_once("OBSERVABILITY").unwrap();
        let (heading, overrides) = overrides.split_once("):").unwrap();
        let excluded: Vec<&str> = heading
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .collect();
        for &(command, params, _) in COMMAND_OPTIONS {
            assert_eq!(
                !params,
                excluded.contains(&command),
                "USAGE's override heading misnames `{command}`"
            );
            for key in option_names(observability) {
                assert!(takes(command, &[key]), "`nsr {command}` refuses --{key}");
            }
            if params {
                for key in option_names(overrides) {
                    assert!(takes(command, &[key]), "`nsr {command}` refuses --{key}");
                }
            }
        }
        for key in PARAM_OPTIONS.split(' ') {
            assert!(
                option_names(overrides).contains(&key),
                "USAGE omits --{key}"
            );
        }

        // Every invocation in the CI script and the docs.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let mut checked = 0;
        for file in ["ci.sh", "README.md", "EXPERIMENTS.md", "DESIGN.md"] {
            let text = std::fs::read_to_string(format!("{root}{file}")).unwrap();
            for (line, words) in invocations(&text) {
                let Some((command, rest)) = words.split_first() else {
                    continue;
                };
                if !COMMAND_OPTIONS.iter().any(|(name, _, _)| name == command) {
                    continue;
                }
                let keys: Vec<&str> = rest.iter().flat_map(|w| option_names(w)).collect();
                // ci.sh misspells --nodes on purpose, to check the refusal.
                assert_eq!(
                    takes(command, &keys),
                    !keys.contains(&"nodez"),
                    "{file}: `{line}` passes an option `nsr {command}` refuses"
                );
                checked += 1;
            }
        }
        assert!(checked > 80, "only {checked} invocations found");
    }

    /// Every `nsr <command> ...` invocation in a shell script or in a
    /// markdown file's code: each with the words after `nsr`, up to the
    /// end of the command (a pipe, a redirection, a closing backtick).
    /// Shell line continuations are joined and `$NAME` variables assigned
    /// in the script are expanded.
    fn invocations(text: &str) -> Vec<(String, Vec<String>)> {
        let joined = text.replace("\\\n", " ");
        let mut vars: Vec<(String, String)> = Vec::new();
        let mut code = Vec::new();
        let mut fenced = false;
        for line in joined.lines() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if let Some((name, value)) = trimmed.split_once("=\"") {
                if name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                    vars.push((format!("${name}"), value.trim_end_matches('"').to_string()));
                    continue;
                }
            }
            if fenced || !trimmed.starts_with('#') {
                code.push(line.to_string());
            }
        }
        let mut out = Vec::new();
        for line in code {
            let mut line = line;
            for (name, value) in &vars {
                line = line.replace(name, value);
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            for (i, word) in words.iter().enumerate() {
                let word = word.trim_start_matches(['`', '(', '"']);
                if word != "nsr" && !word.ends_with("/nsr") {
                    continue;
                }
                let mut args = Vec::new();
                for w in &words[i + 1..] {
                    if ["|", ">", ">>", "2>", "&&", "||", ";", "2>&1"].contains(w)
                        || w.starts_with('>')
                    {
                        break;
                    }
                    args.push(w.trim_end_matches(['`', ')', ',', '.', ';']).to_string());
                    if w.ends_with('`') {
                        break;
                    }
                }
                out.push((words[i..].join(" "), args));
            }
        }
        out
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("nsr <command>"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn baseline_lists_nine_configs() {
        let out = run(&["baseline"]).unwrap();
        assert_eq!(out.matches("FT ").count(), 9);
        assert_eq!(out.matches("<< misses target").count(), 4);
        assert!(out.contains("paper observation 1 (FT1 misses target):        true"));
    }

    #[test]
    fn eval_reports_details() {
        let out = run(&["eval", "--config", "ft2-ir5"]).unwrap();
        assert!(out.contains("FT 2, Internal RAID 5"));
        assert!(out.contains("disk-bound"));
        assert!(run(&["eval"]).is_err()); // --config required
    }

    #[test]
    fn sweep_table_and_csv() {
        let table = run(&["sweep", "--figure", "17"]).unwrap();
        assert!(table.contains("link speed"));
        let csv = run(&["sweep", "--figure", "17", "--csv"]).unwrap();
        assert!(csv.starts_with("link speed (Gb/s)"));
        assert!(run(&["sweep", "--figure", "13"]).is_err());
        assert!(run(&["sweep"]).is_err());
    }

    #[test]
    fn sweep_workers_output_is_identical_to_serial() {
        let serial = run(&["sweep", "--figure", "16", "--csv"]).unwrap();
        for workers in ["2", "4", "auto"] {
            let parallel =
                run(&["sweep", "--figure", "16", "--csv", "--workers", workers]).unwrap();
            assert_eq!(serial, parallel, "workers = {workers}");
        }
        assert!(run(&["sweep", "--figure", "16", "--workers", "0"]).is_err());
        assert!(run(&["sweep", "--figure", "16", "--workers", "many"]).is_err());
    }

    #[test]
    fn sim_runs_small() {
        let out = run(&[
            "sim",
            "--config",
            "ft1-nir",
            "--samples",
            "50",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("simulated MTTDL"));
    }

    #[test]
    fn fleet_runs_and_is_worker_deterministic() {
        let base = [
            "fleet", "--config", "ft1-nir", "--bricks", "3200", "--years", "2", "--seed", "5",
        ];
        let mut one = base.to_vec();
        one.extend(["--workers", "1", "--trace"]);
        let mut four = base.to_vec();
        four.extend(["--workers", "4", "--trace"]);
        let a = run(&one).unwrap();
        let b = run(&four).unwrap();
        assert_eq!(a, b, "fleet output must not depend on worker count");
        assert!(a.contains("fleet:"));
        assert!(a.contains("analytic (exact):"));
        assert!(a.contains("fleet bricks=3200 cells=50"));
        assert!(run(&["fleet", "--bricks", "0"]).is_err());
        assert!(run(&["fleet", "--estimator", "bogus"]).is_err());
    }

    #[test]
    fn fleet_estimators_crosscheck_analytic() {
        let out = run(&[
            "fleet",
            "--config",
            "ft2-ir5",
            "--bricks",
            "640",
            "--years",
            "1",
            "--seed",
            "3",
            "--estimator",
            "all",
            "--cycles",
            "3000",
        ])
        .unwrap();
        assert!(out.contains("crosscheck importance: PASS"), "{out}");
        assert!(out.contains("crosscheck splitting: PASS"), "{out}");
    }

    #[test]
    fn inject_lists_plans() {
        let out = run(&["inject", "--plan", "list"]).unwrap();
        for name in FaultPlan::names() {
            assert!(out.contains(name), "missing plan {name}");
        }
    }

    #[test]
    fn inject_reports_campaign_summary() {
        let out = run(&[
            "inject", "--plan", "burst", "--config", "ft1-nir", "--runs", "20", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("survived:"));
        assert!(out.contains("degraded time:"));
        assert!(out.contains("data-loss events:"));
        // The burst plan overwhelms FT1, so losses (and their replay
        // seeds) must be reported, along with the aggregated post-mortem
        // signatures.
        assert!(out.contains("loss seeds"));
        assert!(out.contains("top loss signatures:"), "{out}");
        assert!(out.contains("LOSS "), "{out}");
        assert!(run(&["inject", "--plan", "no-such-plan"]).is_err());
    }

    #[test]
    fn inject_replay_is_deterministic() {
        let argv = [
            "inject", "--plan", "brownout", "--config", "ft2-nir", "--replay", "11",
        ];
        let a = run(&argv).unwrap();
        let b = run(&argv).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("outcome:"));
        assert!(a.contains("h  "), "expected a rendered event trace");
    }

    #[test]
    fn rare_runs_small() {
        let out = run(&[
            "rare", "--config", "ft2-ir5", "--cycles", "4000", "--seed", "3",
        ])
        .unwrap();
        assert!(out.contains("IS MTTDL"));
    }

    #[test]
    fn mission_reports_probabilities() {
        let out = run(&["mission", "--config", "ft2-ir5", "--years", "5"]).unwrap();
        assert!(out.contains("P(data loss within"));
        assert!(run(&["mission"]).is_err());
    }

    #[test]
    fn plan_lists_feasible_configs() {
        let out = run(&["plan"]).unwrap();
        assert!(out.contains("FT 2, Internal RAID 5"));
        assert!(out.contains("rebuild block"));
        let none = run(&["plan", "--target", "1e-30"]).unwrap();
        assert!(none.contains("none"));
    }

    #[test]
    fn plan_grid_table_csv_and_explain() {
        let grid = &[
            "plan",
            "--grid",
            "--grid-k",
            "2,5",
            "--grid-t",
            "1,2",
            "--grid-spares",
            "0.25",
            "--grid-bw",
            "0.1",
        ];
        let table = run(grid).unwrap();
        assert!(table.contains("Pareto frontier"));
        assert!(table.contains("elimination programs"));

        let mut csv_args = grid.to_vec();
        csv_args.push("--csv");
        let csv = run(&csv_args).unwrap();
        assert!(csv.starts_with("nodes,data_shards,node_ft,internal,"));
        assert!(csv.lines().count() >= 2);

        let mut explain_args = grid.to_vec();
        explain_args.push("--explain");
        let explained = run(&explain_args).unwrap();
        assert!(explained.contains("decision records"));
        assert!(explained.contains("uniformized"));

        assert!(run(&["plan", "--grid", "--grid-ir", "raidz"]).is_err());
    }

    #[test]
    fn plan_grid_csv_invariant_to_workers_and_pruning() {
        let base = run(&["plan", "--grid", "--csv"]).unwrap();
        for extra in [
            vec!["--workers", "4"],
            vec!["--workers", "auto"],
            vec!["--exhaustive"],
            vec!["--exhaustive", "--workers", "3"],
        ] {
            let mut words = vec!["plan", "--grid", "--csv"];
            words.extend(&extra);
            let out = run(&words).unwrap();
            assert_eq!(base, out, "{extra:?}");
        }
    }

    #[test]
    fn plan_grid_warns_and_goes_exhaustive_outside_the_guard_band() {
        let her = ["plan", "--grid", "--her", "1e-13"];
        let table = run(&her).unwrap();
        assert!(
            table.contains("WARNING: pruning is not sound here"),
            "{table}"
        );
        assert!(table.contains(", 0 pruned without solving"), "{table}");
        let csv = run(&[&her[..], &["--csv"]].concat()).unwrap();
        let exhaustive = run(&[&her[..], &["--csv", "--exhaustive"]].concat()).unwrap();
        assert_eq!(csv, exhaustive);
        // Inside the band the line reports zero and no warning.
        let baseline = run(&["plan", "--grid"]).unwrap();
        assert!(baseline.contains("guard band: 0 of "), "{baseline}");
        assert!(!baseline.contains("WARNING"), "{baseline}");
    }

    #[test]
    fn plan_grid_rejects_a_repeated_axis_value() {
        let err = run(&["plan", "--grid", "--grid-k", "2,2", "--csv"]).unwrap_err();
        assert!(err.to_string().contains("data_shards"), "{err}");
        assert!(run(&["plan", "--grid", "--grid-ir", "nir,ir5,nir"]).is_err());
    }

    #[test]
    fn spares_reports_lifetime() {
        let out = run(&["spares", "--years", "5"]).unwrap();
        assert!(out.contains("expected lifetime"));
        assert!(out.contains("capacity erosion"));
    }

    #[test]
    fn aging_compares_distributions() {
        let out = run(&[
            "aging",
            "--config",
            "ft1-nir",
            "--samples",
            "60",
            "--shape",
            "2.0",
        ])
        .unwrap();
        assert!(out.contains("Weibull"));
        assert!(out.contains("Markov-assumption error"));
    }

    #[test]
    fn bench_smoke_writes_and_checks_reports() {
        let dir = std::env::temp_dir().join(format!("nsr-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_str().unwrap();
        let out = run(&["bench", "--suite", "erasure", "--smoke", "--out-dir", dir_s]).unwrap();
        assert!(out.contains("mode: smoke"));
        assert!(out.contains("seed_baseline/"));
        assert!(dir.join("BENCH_erasure.json").exists());

        let checked = run(&["bench", "--suite", "erasure", "--check", "--out-dir", dir_s]).unwrap();
        assert!(checked.contains("valid"));

        // A corrupted report must fail --check.
        std::fs::write(dir.join("BENCH_erasure.json"), "{\"schema\": \"bogus\"}").unwrap();
        assert!(run(&["bench", "--suite", "erasure", "--check", "--out-dir", dir_s]).is_err());

        assert!(run(&["bench", "--suite", "warp"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_compare_diffs_reports() {
        let dir = std::env::temp_dir().join(format!("nsr-cmp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.json");
        let new = dir.join("new.json");
        let report = |ns: f64| {
            format!(
                "{{\"schema\":\"nsr-bench/v1\",\"suite\":\"solvers\",\"mode\":\"full\",\
                 \"results\":[{{\"name\":\"a/x\",\"ns_per_iter\":{ns},\
                 \"bytes_per_iter\":0,\"mib_per_s\":null}}]}}"
            )
        };
        std::fs::write(&old, report(1000.0)).unwrap();
        std::fs::write(&new, report(400.0)).unwrap();
        let out = run(&[
            "bench",
            "--compare",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("no regressions"), "{out}");
        assert!(out.contains("2.50x"), "{out}");

        // Comparing in the slow direction fails past the threshold…
        let err = run(&[
            "bench",
            "--compare",
            new.to_str().unwrap(),
            old.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.0.contains("REGRESS"), "{err}");
        // …unless the threshold is loosened.
        let ok = run(&[
            "bench",
            "--compare",
            new.to_str().unwrap(),
            old.to_str().unwrap(),
            "--threshold",
            "200",
        ])
        .unwrap();
        assert!(ok.contains("no regressions"), "{ok}");

        // …or the regressing case is excluded by an --only prefix that
        // matches nothing of it (here: no case at all, a usage error),
        // while a matching prefix still sees the regression.
        assert!(run(&[
            "bench",
            "--compare",
            new.to_str().unwrap(),
            old.to_str().unwrap(),
            "--only",
            "zzz/",
        ])
        .unwrap_err()
        .0
        .contains("matches no case"));
        let err = run(&[
            "bench",
            "--compare",
            new.to_str().unwrap(),
            old.to_str().unwrap(),
            "--only",
            "a/",
        ])
        .unwrap_err();
        assert!(err.0.contains("only cases under `a/`"), "{err}");

        // Missing second path is a usage error.
        assert!(run(&["bench", "--compare", old.to_str().unwrap()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_exports_dot() {
        let out = run(&["chain", "--config", "ft2-nir"]).unwrap();
        assert!(out.contains("digraph ctmc"));
        assert!(out.contains("doublecircle"));
        assert!(run(&["chain"]).is_err());
    }

    #[test]
    fn report_generates_markdown() {
        let out = run(&["report"]).unwrap();
        assert!(out.contains("# Reliability report"));
        assert!(out.contains("| FT 2, Internal RAID 5 |"));
        assert!(out.contains("trapped (must be 0)"));
    }

    #[test]
    fn sim_writes_metrics_and_trace_files() {
        // Single test for the whole obs pipeline (enable → run → snapshot
        // → validate): keeping it to one test avoids races on the global
        // metric state between parallel test threads.
        let dir = std::env::temp_dir().join(format!("nsr-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.jsonl");
        let trace = dir.join("trace.jsonl");
        let out = run(&[
            "sim",
            "--config",
            "ft1-nir",
            "--samples",
            "40",
            "--threads",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("simulated MTTDL"));
        assert!(out.contains("metric records"));
        assert!(out.contains("trace records"));
        // Both layers are switched off again after the command.
        assert!(!nsr_obs::metrics_enabled());
        assert!(!nsr_obs::trace_enabled());

        // The snapshots validate and carry the headline metrics.
        let checked = run(&[
            "obs-check",
            "--file",
            metrics.to_str().unwrap(),
            "--require",
            "sim.samples,sim.worker.samples_per_s,markov.absorbing.solves,\
             erasure.kernel.accel",
        ])
        .unwrap();
        assert!(checked.contains("valid nsr-obs/v1"));
        assert!(checked.contains("required names present"));
        let text = std::fs::read_to_string(&metrics).unwrap();
        let samples_line = text
            .lines()
            .find(|l| l.contains("\"sim.samples\""))
            .expect("sim.samples metric present");
        assert!(samples_line.contains("\"value\":40"), "{samples_line}");

        // The trace validates too and contains the per-worker events.
        run(&["obs-check", "--file", trace.to_str().unwrap()]).unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"sim.worker\""), "{trace_text}");

        // A demanded-but-absent metric fails the check.
        assert!(run(&[
            "obs-check",
            "--file",
            metrics.to_str().unwrap(),
            "--require",
            "no.such.metric",
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_check_validates_handwritten_files() {
        let dir = std::env::temp_dir().join(format!("nsr-obs-check-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.jsonl");
        std::fs::write(
            &good,
            concat!(
                "{\"schema\":\"nsr-obs/v1\",\"kind\":\"meta\",\"source\":\"t\"}\n",
                "{\"schema\":\"nsr-obs/v1\",\"kind\":\"counter\",\"name\":\"a.b\",\"value\":2}\n",
            ),
        )
        .unwrap();
        let out = run(&["obs-check", "--file", good.to_str().unwrap()]).unwrap();
        assert!(out.contains("2 records"));

        let bad = dir.join("bad.jsonl");
        std::fs::write(
            &bad,
            "{\"schema\":\"nsr-obs/v1\",\"kind\":\"counter\",\"name\":\"a\",\"value\":-1}\n",
        )
        .unwrap();
        let err = run(&["obs-check", "--file", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("line 1"), "{err}");

        assert!(run(&["obs-check"]).is_err()); // --file required
        assert!(run(&["obs-check", "--file", "/no/such/file.jsonl"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_names_the_solver_tier() {
        // What ran is the compiled program; the dense reference is solved
        // live beside it and must agree to the bit, on the largest chain
        // the CLI builds (FT7, 257 states) and on a 5-state one.
        let big = run(&["explain", "ft7-nir"]).unwrap();
        assert!(big.contains("decision record for FT 7"), "{big}");
        assert!(
            big.contains("exact solve:      compiled GTH program, 0 fill slots"),
            "{big}"
        );
        assert!(big.contains("dense reference:  agrees to the bit"), "{big}");
        // The exact condition number, where an explicit LU inverse
        // saturated near 1/eps (6.9e20).
        assert!(big.contains("kappa_inf(R) = 1.282e28"), "{big}");
        assert!(big.contains("closed-form error:"), "{big}");

        let small = run(&["explain", "--config", "ft2-ir5"]).unwrap();
        assert!(
            small.contains("exact solve:      compiled GTH program"),
            "{small}"
        );
        assert!(
            small.contains("dense reference:  agrees to the bit"),
            "{small}"
        );
        assert!(small.contains("kappa_inf(R) = 7.514e9"), "{small}");
        assert!(small.contains("crossover link:"), "{small}");

        assert!(run(&["explain"]).is_err()); // config required
        assert!(run(&["explain", "ft0-zzz"]).is_err());
    }

    #[test]
    fn report_artifact_mode_renders_and_checks() {
        let dir = std::env::temp_dir().join(format!("nsr-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.jsonl");
        std::fs::write(
            &metrics,
            concat!(
                "{\"schema\":\"nsr-obs/v1\",\"kind\":\"meta\",\"source\":\"t\"}\n",
                "{\"schema\":\"nsr-obs/v1\",\"kind\":\"counter\",\"name\":\"c.x\",\"value\":7}\n",
                "{\"schema\":\"nsr-obs/v1\",\"kind\":\"histogram\",\"name\":\"h.y\",\"count\":4,",
                "\"sum\":6,\"min\":1,\"max\":2,\"overflow\":0,",
                "\"buckets\":[{\"le\":1,\"count\":2},{\"le\":2,\"count\":2}]}\n",
            ),
        )
        .unwrap();
        let trace = dir.join("trace.jsonl");
        std::fs::write(
            &trace,
            concat!(
                "{\"schema\":\"nsr-obs/v2\",\"kind\":\"span\",\"name\":\"outer\",\"at_s\":0,",
                "\"dur_s\":0.004,\"span_id\":1,\"thread\":0,\"seq\":0}\n",
                "{\"schema\":\"nsr-obs/v2\",\"kind\":\"span\",\"name\":\"inner\",\"at_s\":0,",
                "\"dur_s\":0.001,\"span_id\":2,\"parent_id\":1,\"thread\":0,\"seq\":1}\n",
                "{\"schema\":\"nsr-obs/v2\",\"kind\":\"event\",\"name\":\"tick\",\"at_s\":0,",
                "\"parent_id\":2,\"thread\":0,\"seq\":2}\n",
            ),
        )
        .unwrap();
        let bench_dir = dir.join("bench");
        std::fs::create_dir_all(&bench_dir).unwrap();
        let report = |ns: f64| {
            format!(
                "{{\"schema\":\"nsr-bench/v1\",\"suite\":\"obs\",\"mode\":\"smoke\",\
                 \"results\":[{{\"name\":\"a/x\",\"ns_per_iter\":{ns},\
                 \"bytes_per_iter\":0,\"mib_per_s\":null}}]}}"
            )
        };
        std::fs::write(bench_dir.join("BENCH_obs.json"), report(120.0)).unwrap();
        let base_dir = dir.join("baseline");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::write(base_dir.join("BENCH_obs.json"), report(100.0)).unwrap();

        let md = run(&[
            "report",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--bench-dir",
            bench_dir.to_str().unwrap(),
            "--bench-baseline",
            base_dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(md.contains("# Flight-recorder report"), "{md}");
        assert!(md.contains("| c.x | counter | 7 |"), "{md}");
        // p50 of {1,1,2,2} is the le=1 bucket; p99 the le=2 bucket.
        assert!(
            md.contains("| h.y | 4 | 1.000e0 | 2.000e0 | 2.000e0 | 2.000e0 |"),
            "{md}"
        );
        // The span tree nests inner under outer, with self-time netted.
        assert!(md.contains("| outer | 1 | 4.000 | 3.000 |"), "{md}");
        assert!(
            md.contains("| &nbsp;&nbsp;inner | 1 | 1.000 | 1.000 |"),
            "{md}"
        );
        assert!(md.contains("| tick | 1 |"), "{md}");
        // Bench table carries the trajectory delta vs the baseline dir.
        assert!(md.contains("| a/x | 120.0 | — | +20.0% |"), "{md}");

        // --check validates without rendering.
        let checked = run(&["report", "--trace", trace.to_str().unwrap(), "--check"]).unwrap();
        assert!(checked.contains("span links resolve"), "{checked}");
        assert!(!checked.contains("# Flight-recorder"), "{checked}");

        // A trace with an orphan parent fails --check.
        let orphan = dir.join("orphan.jsonl");
        std::fs::write(
            &orphan,
            "{\"schema\":\"nsr-obs/v2\",\"kind\":\"span\",\"name\":\"s\",\"at_s\":0,\
             \"dur_s\":0,\"span_id\":1,\"parent_id\":99,\"thread\":0,\"seq\":0}\n",
        )
        .unwrap();
        assert!(run(&["report", "--trace", orphan.to_str().unwrap(), "--check"]).is_err());

        // Legacy reproduction report is untouched by the new mode.
        assert!(run(&["report"]).unwrap().contains("# Reliability report"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_check_kind_name_patterns_and_span_links() {
        let dir = std::env::temp_dir().join(format!("nsr-obs-v2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.jsonl");
        std::fs::write(
            &good,
            concat!(
                "{\"schema\":\"nsr-obs/v2\",\"kind\":\"span\",\"name\":\"core.evaluate\",",
                "\"at_s\":0,\"dur_s\":0.5,\"span_id\":1,\"thread\":0,\"seq\":0}\n",
                "{\"schema\":\"nsr-obs/v2\",\"kind\":\"event\",\"name\":\"tick\",\"at_s\":0,",
                "\"parent_id\":1,\"thread\":0,\"seq\":1}\n",
            ),
        )
        .unwrap();
        let path = good.to_str().unwrap();
        // Bare names match any kind; kind:name demands the exact kind.
        let out = run(&[
            "obs-check",
            "--file",
            path,
            "--require",
            "core.evaluate,span:core.evaluate,event:tick",
        ])
        .unwrap();
        assert!(out.contains("required names present"), "{out}");
        assert!(run(&[
            "obs-check",
            "--file",
            path,
            "--require",
            "event:core.evaluate"
        ])
        .is_err());
        assert!(run(&["obs-check", "--file", path, "--require", "span:tick"]).is_err());

        // A parent_id pointing at a span that was never emitted is a
        // structural failure even though every line validates alone.
        let orphan = dir.join("orphan.jsonl");
        std::fs::write(
            &orphan,
            "{\"schema\":\"nsr-obs/v2\",\"kind\":\"event\",\"name\":\"tick\",\"at_s\":0,\
             \"parent_id\":7,\"thread\":0,\"seq\":0}\n",
        )
        .unwrap();
        let err = run(&["obs-check", "--file", orphan.to_str().unwrap()]).unwrap_err();
        assert!(err.0.contains("parent_id"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_with_overrides() {
        let out = run(&["eval", "--config", "ft2-nir", "--drive-mttf", "750000"]).unwrap();
        assert!(out.contains("FT 2, No Internal RAID"));
    }
}
