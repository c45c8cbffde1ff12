//! `nsr explain` — the analytic path's decision record.
//!
//! Where `nsr eval` prints the *results* for a configuration, `explain`
//! prints the *decisions* the pipeline made to get there: the exact
//! chain's size and density, what solved it and whether the dense
//! reference agrees to the bit, the conditioning of the absorption
//! matrix, the rebuild-rate model's intermediates, and how far the
//! paper's closed form lands from the exact CTMC answer.

use std::fmt::Write as _;

use nsr_core::config::Configuration;
use nsr_markov::{AbsorbingAnalysis, BatchSolver};

use crate::args::{params_from, ParsedArgs};
use crate::{CliError, Result};

/// Implements `nsr explain <config>` (the configuration may also be
/// passed as `--config`).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown configurations, infeasible
/// parameters, or chain-construction failures.
pub fn explain(args: &ParsedArgs) -> Result<String> {
    let name = match args.positionals.first() {
        Some(p) => p.clone(),
        None => args.get::<String>("config")?.ok_or_else(|| {
            CliError("explain needs a configuration: `nsr explain ft2-ir5`".into())
        })?,
    };
    let config: Configuration = name.parse().map_err(CliError)?;
    let params = params_from(args)?;
    let t = config.node_fault_tolerance();

    let mut span = nsr_obs::trace::Span::enter("cli.explain");
    span.field("config", || nsr_obs::Json::Str(config.code()));

    let eval = config.evaluate(&params)?;
    let (ctmc, root) = config.exact_chain(&params)?;
    let markov_err = |e: nsr_markov::Error| CliError(e.to_string());
    let analysis = AbsorbingAnalysis::new(&ctmc).map_err(markov_err)?;

    let m = analysis.transient_states().len();
    let absorbing = analysis.absorbing_states().len();
    // Transient-block density: transient→transient nonzeros over m².
    let transient: std::collections::HashSet<_> =
        analysis.transient_states().iter().copied().collect();
    let nnz = ctmc
        .transitions()
        .iter()
        .filter(|tr| transient.contains(&tr.from) && transient.contains(&tr.to))
        .count();
    let density = if m == 0 {
        0.0
    } else {
        nnz as f64 / (m * m) as f64
    };

    // `eval.exact` came out of the compiled elimination program of this
    // chain's topology class; the dense reference solves the same chain
    // independently, here and now.
    let fill = BatchSolver::new(&ctmc, root).map_err(markov_err)?.fill();
    let reference = analysis.mean_time_to_absorption(root).map_err(markov_err)?;
    let cond = analysis.condition_estimate();

    let point = config.model(&params)?;
    let disk_bw = point.disk_rebuild_bandwidth;
    let net_bw = point.network_rebuild_bandwidth;

    let closed = eval.closed_form.mttdl_hours;
    let exact = eval.exact.mttdl_hours;
    let delta_pct = 100.0 * (closed - exact) / exact;

    span.field("states", || nsr_obs::Json::Num(ctmc.len() as f64));
    span.field("density", || nsr_obs::Json::Num(density));
    span.field("delta_pct", || nsr_obs::Json::Num(delta_pct));

    let mut out = String::new();
    let _ = writeln!(out, "decision record for {config} ({})", config.code());
    let _ = writeln!(out, "\nexact chain:");
    let _ = writeln!(
        out,
        "  states:           {} ({m} transient, {absorbing} absorbing), root {}",
        ctmc.len(),
        ctmc.label(root)
    );
    let _ = writeln!(
        out,
        "  transient block:  {nnz} nonzeros, density {density:.3}"
    );
    let _ = writeln!(
        out,
        "  exact solve:      compiled GTH program, {fill} fill slots beyond \
         structural nonzeros"
    );
    if reference.to_bits() == exact.to_bits() {
        let _ = writeln!(out, "  dense reference:  agrees to the bit");
    } else {
        let _ = writeln!(
            out,
            "  dense reference:  DISAGREES: {reference:e} h vs compiled {exact:e} h"
        );
    }
    let _ = writeln!(
        out,
        "  condition:        kappa_inf(R) = {cond:.3e} (GTH quantities unaffected)"
    );

    let _ = writeln!(out, "\nrebuild-rate model (t = {t}):");
    let _ = writeln!(
        out,
        "  disk bandwidth:    {:.1} MB/s per node (all drives, {:.0}% utilization)",
        disk_bw.0 / 1e6,
        100.0 * params.system.rebuild_bw_utilization
    );
    let _ = writeln!(
        out,
        "  network bandwidth: {:.1} MB/s per direction",
        net_bw.0 / 1e6
    );
    let _ = writeln!(
        out,
        "  node rebuild:      {:.2} h, {}-bound (mu_N = {:.3e}/h)",
        eval.node_rebuild.duration.0, eval.node_rebuild.bottleneck, eval.node_rebuild.rate.0
    );
    let _ = writeln!(
        out,
        "  drive repair:      {:.2} h, {}-bound (mu_d = {:.3e}/h)",
        eval.drive_repair.duration.0, eval.drive_repair.bottleneck, eval.drive_repair.rate.0
    );
    let _ = writeln!(
        out,
        "  crossover link:    {:.2} Gb/s (network-bound below, disk-bound above)",
        point.crossover_link_speed
    );

    let _ = writeln!(out, "\nreliability:");
    let _ = writeln!(out, "  closed form MTTDL: {closed:.6e} h");
    let _ = writeln!(out, "  exact CTMC MTTDL:  {exact:.6e} h");
    let _ = writeln!(out, "  closed-form error: {delta_pct:+.2}% vs exact");
    Ok(out)
}
