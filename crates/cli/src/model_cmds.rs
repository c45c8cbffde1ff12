//! The model commands: `baseline`, `eval`, `sweep`, `mission`, `plan`,
//! `spares`, `report` and `chain` — the paper's closed forms and exact
//! chains, the planner and the reproduction report.

use std::fmt::Write as _;

use nsr_core::config::Configuration;
use nsr_core::metrics::TARGET_EVENTS_PER_PB_YEAR;
use nsr_core::params::Params;
use nsr_core::sweep::fig13_baseline;

use crate::args::{config_from, params_from, workers_from, ParsedArgs};
use crate::figures::{spreads, sweep_table};
use crate::render::sweep_csv;
use crate::{CliError, Result};

pub(crate) fn baseline(args: &ParsedArgs) -> Result<String> {
    crate::figures::fig13(&params_from(args)?)
}

pub(crate) fn eval(args: &ParsedArgs) -> Result<String> {
    let config = config_from(args, None)?;
    let params = params_from(args)?;
    let e = config.evaluate(&params)?;
    let mut out = String::new();
    let _ = writeln!(out, "configuration: {config} ({})", config.code());
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

pub(crate) fn sweep_cmd(args: &ParsedArgs) -> Result<String> {
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

pub(crate) fn mission(args: &ParsedArgs) -> Result<String> {
    let config = config_from(args, None)?;
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

pub(crate) fn plan(args: &ParsedArgs) -> Result<String> {
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
            .map(|s| {
                let s = s.trim();
                s.parse()
                    .map_err(|_| CliError(format!("--grid-ir: unknown level '{s}' (nir|ir5|ir6)")))
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

pub(crate) fn spares(args: &ParsedArgs) -> Result<String> {
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

pub(crate) fn report(args: &ParsedArgs) -> Result<String> {
    if crate::report::wants_artifact_mode(args)? {
        return crate::report::artifact_report(args);
    }
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

pub(crate) fn chain(args: &ParsedArgs) -> Result<String> {
    let config = config_from(args, None)?;
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
