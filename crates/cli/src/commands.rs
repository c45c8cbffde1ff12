//! The `nsr` command table and dispatch. `COMMANDS` declares each
//! command once, and [`dispatch`], the option check, the positional
//! check in [`ParsedArgs::parse`] and [`usage`] all read it. Each command
//! returns the text it would print, so the whole surface is
//! unit-testable; the bodies live by crate (see the crate docs).

use std::fmt::Write as _;

use crate::args::{ParsedArgs, PARAM_OPTIONS};
use crate::{model_cmds, net_cmds, report, sim_cmds};
use crate::{CliError, Result};

/// One command: its name, whether it reads the parameter overrides
/// ([`PARAM_OPTIONS`]), the options and bare flags it takes beyond the
/// observability pair (space-separated), whether it takes positional
/// arguments, what runs it, and its help text (one line per usage line).
type Command = (&'static str, bool, &'static str, bool, Run, &'static str);

/// What runs a command: the text it prints, or the error for stderr.
type Run = fn(&ParsedArgs) -> Result<String>;

/// Every command, in usage order. Laid out one row per command, its help
/// lines under it; rustfmt would give each field a line of its own.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("baseline", true, "", false, model_cmds::baseline,
     "Figure 13: all nine configurations at the baseline"),
    ("eval", true, "config", false, model_cmds::eval,
     "evaluate one configuration (--config ft2-ir5)"),
    ("sweep", true, "figure workers csv", false, model_cmds::sweep_cmd,
     "one sensitivity analysis (--figure 14..20; --csv for CSV;
      --workers N|auto to evaluate rows in parallel)"),
    ("figures", true, "out workers", false, crate::figures::figures,
     "regenerate every file under results/ (--out DIR, default
      results; --workers N|auto)"),
    ("sim", true, "config samples seed threads", false, sim_cmds::sim,
     "system-level Monte Carlo (--config, --samples, --seed, --threads)"),
    ("inject", true, "plan config replay runs seed", false, sim_cmds::inject,
     "fault-injection campaign (--plan NAME|list, --config, --runs,
      --seed; --replay SEED prints one run's exact event trace)"),
    ("rare", true, "config cycles seed bias", false, sim_cmds::rare,
     "rare-event (importance-sampling) MTTDL (--config, --cycles,
      --seed, --bias)"),
    ("fleet", true, "config bricks years seed workers estimator cycles trace", false, sim_cmds::fleet,
     "fleet-scale discrete-event mission (--config, --bricks N,
      --years Y, --seed S, --workers N|auto; deterministic at any
      worker count; --estimator direct|is|splitting|all adds
      rare-event MTTDL estimates (--cycles N) cross-checked against
      the analytic value; --trace prints the canonical replay trace)"),
    ("mission", true, "config years", false, model_cmds::mission,
     "P(data loss within --years Y) for --config"),
    ("plan", true, "target max-ft grid grid-nodes grid-k grid-t grid-ir grid-spares grid-bw \
                    mission-years workers csv explain exhaustive", false, model_cmds::plan,
     "feasible configurations for --target events/PB-year up to
      --max-ft; or --grid for a Pareto frontier search over a
      configuration space (--grid-nodes, --grid-k, --grid-t,
      --grid-ir, --grid-spares, --grid-bw as comma lists;
      --mission-years Y, --workers N|auto, --csv, --explain for
      decision records, --exhaustive to skip dominance pruning)"),
    ("spares", true, "years", false, model_cmds::spares,
     "fail-in-place spare-capacity provisioning analysis (--years Y)"),
    ("aging", true, "config samples seed shape", false, sim_cmds::aging,
     "non-Markovian (Weibull) lifetime ablation (--config, --samples,
      --seed, --shape K)"),
    ("bench", false, "suite out-dir smoke check compare threshold only", true, report::bench,
     "performance harness → BENCH_<suite>.json (--suite NAME|all,
      --out-dir DIR, --smoke for the fast CI mode, --check to
      validate existing reports without re-running;
      --compare OLD.json NEW.json diffs two reports and fails on
      regressions past --threshold PCT, default 25;
      --only PREFIX restricts the diff to matching case names)"),
    ("chain", true, "config out", false, model_cmds::chain,
     "export a configuration's exact CTMC as Graphviz dot (--config,
      --out F)"),
    ("report", true, "out metrics trace bench-dir bench-baseline cluster check", false, model_cmds::report,
     "one-shot markdown reproduction report (--out FILE); or render
      observability artifacts: --metrics F / --trace F (span tree
      with self/total times, histogram p50/p95/p99) and
      --bench-dir D [--bench-baseline D] (BENCH_*.json tables with
      deltas); --cluster DIR stitches per-process JSONL parts
      (from cluster-inject --obs-dir) into one cross-process
      causal tree; --check validates artifacts without rendering"),
    ("explain", true, "config", true, crate::explain::explain,
     "analytic decision record for one configuration
      (nsr explain ft2-ir5 or --config ft2-ir5): chain size/density,
      solver tier, conditioning, rebuild intermediates,
      closed-vs-exact delta"),
    ("obs-check", false, "file require", false, report::obs_check,
     "validate an nsr-obs JSON-lines file (--file F; checks v2
      span links resolve; --require pat1,pat2 demands records by
      name or kind:name, e.g. span:core.evaluate)"),
    ("brick", false, "listen id obs label", false, net_cmds::brick,
     "run one storage-brick daemon (--listen ADDR, --id N);
      announces `LISTENING <addr>` on stdout, serves until killed;
      --obs [--label L] records metrics + spans under process
      label L (default brick-<id>), harvestable over the wire"),
    ("gateway", false, "bricks data parity rounds objects telemetry", false, net_cmds::gateway,
     "striping gateway over running bricks (--bricks a:p,b:p,...,
      --data K, --parity T, --rounds N, --objects N); watches
      health, prints transitions, auto-repairs after brick deaths;
      --telemetry ADDR serves scrapes about the gateway (announced
      as `TELEMETRY <addr>`) and collects per-brick snapshots"),
    ("top", false, "bricks gateway interval-ms iterations plain timeout-ms", false, crate::top::top,
     "live cluster dashboard over the scrape path (--bricks
      a:p,..., --gateway a:p, --interval-ms M, --iterations N,
      --timeout-ms T, --plain); per-process ops/s, serving
      p50/p99, pool reuse/redial, detector health and snapshot
      staleness"),
    ("cluster-inject", false, "bricks plan seed objects object-bytes ms-per-hour pool-size workers \
                               no-fault-writes obs-dir", false, net_cmds::cluster_inject,
     "live kill-9 campaign over real brick child processes
      (--bricks N, --plan kill9-single|kill9-burst, --seed S,
      --objects N, --object-bytes B, --ms-per-hour M,
      --pool-size P, --workers W); verdict lines are
      deterministic for a (plan, seed, bricks); --obs-dir DIR
      runs it fully traced and writes per-process trace parts
      plus the stitched cluster.canonical.jsonl causal tree
      (--no-fault-writes freezes writes for byte-identical
      traces across pool/worker counts)"),
    ("workload", false, "objects object-bytes ops read-pct dist theta seed bricks data parity", false,
     net_cmds::workload,
     "YCSB-style serving benchmark over an in-process cluster
      (--objects N, --object-bytes B, --ops N, --read-pct P,
      --dist zipfian|uniform, --theta F, --seed S, --bricks N,
      --data K, --parity T); replays one seeded op stream through
      healthy -> degraded -> rebuilding phases and reports MiB/s
      plus p50/p95/p99 latencies"),
];

/// The usage text above the command list.
const USAGE_HEAD: &str = "\
nsr — reliability models for networked storage nodes (DSN 2006)

USAGE:
  nsr <command> [--option value]... [--flag]...

COMMANDS:
";

/// The usage text below the command list. The override heading names
/// the rows that read no overrides; a test holds the two equal.
const USAGE_TAIL: &str = "  help        this text

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

/// The usage text `nsr help` and bare `nsr` print: each row's help
/// under its name, between the shared sections.
pub fn usage() -> String {
    let mut out = String::from(USAGE_HEAD);
    for &(name, .., help) in COMMANDS {
        let mut lines = help.lines().map(str::trim_start);
        let _ = writeln!(out, "  {name:<10}  {}", lines.next().unwrap_or(""));
        for line in lines {
            let _ = writeln!(out, "{:14}{line}", "");
        }
    }
    out + USAGE_TAIL
}

fn find(command: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|row| row.0 == command)
}

/// Whether `command`'s row takes positional arguments. An unknown
/// command takes none, so typos fail loudly.
pub(crate) fn takes_positionals(command: &str) -> bool {
    find(command).is_some_and(|row| row.3)
}

/// Refuses every option or flag `args`' command does not take, naming
/// them all. Unknown commands pass through to [`dispatch`]'s own error.
fn check_options(args: &ParsedArgs) -> Result<()> {
    let Some(&(_, params, own, ..)) = find(&args.command) else {
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
    let run: Run = match (find(&args.command), args.command.as_str()) {
        (Some(row), _) => row.4,
        (None, "help" | "--help" | "-h") => |_| Ok(usage()),
        (None, other) => {
            return Err(CliError(format!(
                "unknown command '{other}'; try `nsr help`"
            )))
        }
    };
    let metrics_out = args.get::<String>("metrics-out")?;
    let trace_out = args.get::<String>("trace-out")?;
    if metrics_out.is_none() && trace_out.is_none() {
        return run(args);
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

    let result = run(args);
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

#[cfg(test)]
mod tests {
    use nsr_sim::faultinject::FaultPlan;

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
    fn every_option_taken_is_documented() {
        let undocumented: Vec<String> = COMMANDS
            .iter()
            .flat_map(|&(command, _, own, _, _, help)| {
                let documented = option_names(help);
                own.split_whitespace()
                    .filter(move |key| !documented.contains(key))
                    .map(move |key| format!("{command} --{key}"))
            })
            .collect();
        assert!(
            undocumented.is_empty(),
            "taken but missing from the command's help: {undocumented:?}"
        );
    }

    #[test]
    fn every_documented_option_is_taken() {
        // The usage text: each command's own options, then the shared
        // sections.
        let usage = usage();
        let (commands, shared) = usage
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
                let elsewhere = COMMANDS
                    .iter()
                    .any(|row| text.contains(&format!("{} --{key}", row.0)));
                if elsewhere {
                    continue;
                }
                assert!(
                    takes(command, &[key]),
                    "usage: `nsr {command}` refuses --{key}"
                );
            }
        }
        let (overrides, observability) = shared.split_once("OBSERVABILITY").unwrap();
        let (heading, overrides) = overrides.split_once("):").unwrap();
        let excluded: Vec<&str> = heading
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .collect();
        for &(command, params, ..) in COMMANDS {
            assert_eq!(
                !params,
                excluded.contains(&command),
                "the override heading misnames `{command}`"
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
                "the usage text omits --{key}"
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
                if find(command).is_none() {
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
    fn fleet_workers_takes_auto_and_refuses_zero_like_sweep() {
        let base = ["fleet", "--bricks", "640", "--years", "1", "--seed", "3"];
        let with = |workers: &str| {
            let mut argv = base.to_vec();
            argv.extend(["--workers", workers]);
            run(&argv)
        };
        let serial = with("1").unwrap();
        assert_eq!(with("auto").unwrap(), serial);
        assert_eq!(run(&base).unwrap(), serial, "the default is all cores");
        let sweep_zero = run(&["sweep", "--figure", "16", "--workers", "0"]).unwrap_err();
        assert_eq!(with("0").unwrap_err().to_string(), sweep_zero.to_string());
        assert!(with("many").is_err());
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
    fn grid_ir_takes_the_config_spellings() {
        let frontier = |levels: &str| {
            let grid = "plan --grid --grid-k 2 --grid-t 1 --csv --grid-ir";
            let mut words: Vec<&str> = grid.split(' ').collect();
            words.push(levels);
            run(&words).unwrap()
        };
        let codes = frontier("ir5,nir");
        assert!(codes.lines().count() >= 2, "{codes}");
        assert_eq!(frontier("raid5,NIR"), codes);
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
    fn bench_refuses_a_missing_out_dir_before_running_a_suite() {
        let dir = std::env::temp_dir().join(format!("nsr-bench-missing-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap();
        // Refused up front: a suite that ran would fail only at its write,
        // with the writer's error instead of this one.
        let err = run(&["bench", "--suite", "plan", "--out-dir", dir_s]).unwrap_err();
        assert!(err.0.contains(dir_s), "{}", err.0);
        assert!(err.0.contains("not an existing directory"), "{}", err.0);
        assert!(!dir.exists());
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
