//! `nsr report` artifact mode: render observability and benchmark
//! artifacts (an `nsr-obs` metrics snapshot, a span/event trace, a
//! directory of `BENCH_*.json` reports) into one markdown post-mortem.
//!
//! The legacy zero-argument form — the paper-reproduction report — lives
//! in [`crate::commands`]; this module handles the
//! `--metrics`/`--trace`/`--bench-dir` form, plus `--check`, which
//! validates the artifacts (schema, span-link resolution, bench report
//! shape) without rendering.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use nsr_obs::Json;

use crate::args::ParsedArgs;
use crate::{CliError, Result};

/// True when any artifact-mode option is present (the dispatcher uses
/// this to pick between the legacy reproduction report and this mode).
///
/// # Errors
///
/// Returns a [`CliError`] for malformed option values.
pub fn wants_artifact_mode(args: &ParsedArgs) -> Result<bool> {
    Ok(args.get::<String>("metrics")?.is_some()
        || args.get::<String>("trace")?.is_some()
        || args.get::<String>("bench-dir")?.is_some()
        || args.get::<String>("cluster")?.is_some())
}

/// Implements `nsr report --metrics F --trace F --bench-dir D [--check]`.
///
/// # Errors
///
/// Returns a [`CliError`] when an artifact is unreadable or fails
/// validation.
pub fn artifact_report(args: &ParsedArgs) -> Result<String> {
    let metrics_path = args.get::<String>("metrics")?;
    let trace_path = args.get::<String>("trace")?;
    let bench_dir = args.get::<String>("bench-dir")?;
    let baseline_dir = args.get::<String>("bench-baseline")?;
    let cluster_dir = args.get::<String>("cluster")?;
    let check_only = args.has_flag("check");

    let mut md = String::new();
    let mut checks = String::new();
    let _ = writeln!(md, "# Flight-recorder report\n");

    if let Some(path) = &metrics_path {
        let text = read(path)?;
        let records =
            nsr_obs::validate_jsonl(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
        let _ = writeln!(checks, "{path}: OK ({records} metric records)");
        if !check_only {
            render_metrics(&mut md, &text);
        }
    }

    if let Some(path) = &trace_path {
        let text = read(path)?;
        let records =
            nsr_obs::validate_jsonl(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
        nsr_obs::validate_span_links(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
        let _ = writeln!(
            checks,
            "{path}: OK ({records} trace records, span links resolve)"
        );
        if !check_only {
            render_trace(&mut md, &text);
        }
    }

    if let Some(dir) = &cluster_dir {
        let parts = cluster_parts(dir)?;
        let refs: Vec<&str> = parts.iter().map(|(_, p)| p.as_str()).collect();
        nsr_obs::validate_cluster_links(&refs)
            .map_err(|e| CliError(format!("{dir}: cross-process span links: {e}")))?;
        let canonical =
            nsr_obs::canonical_cluster_jsonl(&refs).map_err(|e| CliError(format!("{dir}: {e}")))?;
        let _ = writeln!(
            checks,
            "{dir}: OK ({} process parts, {} canonical records, cross-process links resolve)",
            parts.len(),
            canonical.lines().count()
        );
        if !check_only {
            render_cluster(&mut md, &parts, &canonical);
        }
    }

    if let Some(dir) = &bench_dir {
        let reports = bench_reports(dir)?;
        if reports.is_empty() {
            return Err(CliError(format!("{dir}: no BENCH_*.json reports found")));
        }
        for (name, doc) in &reports {
            nsr_bench::suites::validate_report(doc)
                .map_err(|e| CliError(format!("{dir}/{name}: {e}")))?;
            let _ = writeln!(checks, "{dir}/{name}: OK (valid nsr-bench/v1)");
        }
        if !check_only {
            let baseline = match &baseline_dir {
                Some(b) => bench_reports(b)?,
                None => Vec::new(),
            };
            render_bench(&mut md, &reports, &baseline);
        }
    }

    if checks.is_empty() {
        return Err(CliError(
            "report artifact mode needs at least one of --metrics, --trace, --bench-dir, --cluster"
                .into(),
        ));
    }
    if check_only {
        return Ok(checks);
    }
    if let Some(path) = args.get::<String>("out")? {
        std::fs::write(&path, &md)?;
        Ok(format!("wrote {path}\n"))
    } else {
        Ok(md)
    }
}

fn read(path: &str) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("reading {path}: {e}")))
}

/// Reads and parses one JSON document (a `BENCH_*.json` report).
fn read_json(path: &str) -> Result<Json> {
    Json::parse(&read(path)?).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Parses every non-empty line of a validated JSONL text.
fn lines(text: &str) -> Vec<Json> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("validated upstream"))
        .collect()
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(Json::as_str)
}

fn num_field(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

fn render_metrics(md: &mut String, text: &str) {
    let docs = lines(text);
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut gauges: Vec<(String, Option<f64>)> = Vec::new();
    let _ = writeln!(md, "## Counters and gauges\n");
    for doc in &docs {
        let name = str_field(doc, "name").unwrap_or("?").to_string();
        match str_field(doc, "kind") {
            Some("counter") => counters.push((name, num_field(doc, "value").unwrap_or(0.0))),
            Some("gauge") => gauges.push((name, num_field(doc, "value"))),
            _ => {}
        }
    }
    let _ = writeln!(md, "| metric | kind | value |");
    let _ = writeln!(md, "|---|---|---|");
    for (name, v) in &counters {
        let _ = writeln!(md, "| {name} | counter | {v} |");
    }
    for (name, v) in &gauges {
        match v {
            Some(v) => {
                let _ = writeln!(md, "| {name} | gauge | {v:.4} |");
            }
            None => {
                let _ = writeln!(md, "| {name} | gauge | — |");
            }
        }
    }

    let _ = writeln!(md, "\n## Histograms\n");
    let _ = writeln!(md, "| histogram | count | p50 | p95 | p99 | max |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for doc in &docs {
        if str_field(doc, "kind") != Some("histogram") {
            continue;
        }
        let name = str_field(doc, "name").unwrap_or("?");
        let count = num_field(doc, "count").unwrap_or(0.0);
        let overflow = num_field(doc, "overflow").unwrap_or(0.0) as u64;
        let max = num_field(doc, "max");
        let entries: Vec<(f64, u64)> = doc
            .get("buckets")
            .and_then(Json::as_arr)
            .map(|bs| {
                bs.iter()
                    .filter_map(|b| {
                        let le = num_field(b, "le")?;
                        let n = num_field(b, "count")? as u64;
                        (n > 0).then_some((le, n))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let pct = |q: f64| -> String {
            nsr_obs::percentile_from_buckets(
                &entries,
                overflow,
                max.unwrap_or(f64::NEG_INFINITY),
                q,
            )
            .map_or_else(|| "—".to_string(), |v| format!("{v:.3e}"))
        };
        let max_s = max.map_or_else(|| "—".to_string(), |v| format!("{v:.3e}"));
        let _ = writeln!(
            md,
            "| {name} | {count} | {} | {} | {} | {max_s} |",
            pct(0.50),
            pct(0.95),
            pct(0.99)
        );
    }
}

/// One aggregated row of the span tree: spans sharing a causal
/// name-path.
#[derive(Default)]
struct PathAgg {
    count: u64,
    total_s: f64,
    self_s: f64,
}

fn render_trace(md: &mut String, text: &str) {
    let docs = lines(text);

    // First pass: name per span id, and per-parent child time.
    let mut names: HashMap<u64, String> = HashMap::new();
    let mut parents: HashMap<u64, u64> = HashMap::new();
    let mut child_time: HashMap<u64, f64> = HashMap::new();
    for doc in &docs {
        if str_field(doc, "kind") != Some("span") {
            continue;
        }
        let (Some(id), Some(name)) = (num_field(doc, "span_id"), str_field(doc, "name")) else {
            continue;
        };
        let id = id as u64;
        names.insert(id, name.to_string());
        if let Some(p) = num_field(doc, "parent_id") {
            parents.insert(id, p as u64);
            *child_time.entry(p as u64).or_default() += num_field(doc, "dur_s").unwrap_or(0.0);
        }
    }
    let path_of = |mut id: u64| -> String {
        let mut parts = Vec::new();
        loop {
            parts.push(names.get(&id).map_or("?", String::as_str));
            match parents.get(&id) {
                // Cycles cannot occur in a validated trace (children
                // always have larger ids), so this walk terminates.
                Some(p) => id = *p,
                None => break,
            }
        }
        parts.reverse();
        parts.join("/")
    };

    // Second pass: aggregate by path; tally events by name.
    let mut spans: BTreeMap<String, PathAgg> = BTreeMap::new();
    let mut events: BTreeMap<String, u64> = BTreeMap::new();
    for doc in &docs {
        match str_field(doc, "kind") {
            Some("span") => {
                let Some(id) = num_field(doc, "span_id") else {
                    continue;
                };
                let dur = num_field(doc, "dur_s").unwrap_or(0.0);
                let agg = spans.entry(path_of(id as u64)).or_default();
                agg.count += 1;
                agg.total_s += dur;
                agg.self_s += dur - child_time.get(&(id as u64)).copied().unwrap_or(0.0);
            }
            Some("event") => {
                *events
                    .entry(str_field(doc, "name").unwrap_or("?").to_string())
                    .or_default() += 1;
            }
            _ => {}
        }
    }

    let _ = writeln!(md, "\n## Span tree\n");
    let _ = writeln!(md, "| span | count | total (ms) | self (ms) |");
    let _ = writeln!(md, "|---|---|---|---|");
    for (path, agg) in &spans {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let _ = writeln!(
            md,
            "| {}{leaf} | {} | {:.3} | {:.3} |",
            "&nbsp;&nbsp;".repeat(depth),
            agg.count,
            1e3 * agg.total_s,
            1e3 * agg.self_s
        );
    }

    let _ = writeln!(md, "\n## Events\n");
    let _ = writeln!(md, "| event | count |");
    let _ = writeln!(md, "|---|---|");
    for (name, n) in &events {
        let _ = writeln!(md, "| {name} | {n} |");
    }
}

/// Per-process trace parts of a cluster directory: `(file name, JSONL)`
/// sorted by file name. Derived artifacts (`cluster.canonical.jsonl`,
/// `loss-*.jsonl`) are excluded — they are outputs of stitching, not
/// inputs.
fn cluster_parts(dir: &str) -> Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(Path::new(dir)).map_err(|e| CliError(format!("reading {dir}: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| CliError(format!("reading {dir}: {e}")))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".jsonl")
            || name == "cluster.canonical.jsonl"
            || name.starts_with("loss-")
        {
            continue;
        }
        out.push((name, read(&entry.path().to_string_lossy())?));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    if out.is_empty() {
        return Err(CliError(format!(
            "{dir}: no per-process .jsonl trace parts found (run `nsr cluster-inject --obs-dir {dir}`)"
        )));
    }
    Ok(out)
}

/// Renders the stitched cross-process tree: per-part record counts,
/// then the canonical span paths (each `proc:name` component names the
/// process that executed the span) aggregated by path, then events per
/// process. Canonical records carry no timings — those are wall-clock
/// and would break replay comparison — so the table is counts only.
fn render_cluster(md: &mut String, parts: &[(String, String)], canonical: &str) {
    let _ = writeln!(md, "\n## Cross-process causal tree\n");
    let _ = writeln!(md, "| process part | records |");
    let _ = writeln!(md, "|---|---|");
    for (name, text) in parts {
        let _ = writeln!(md, "| {name} | {} |", lines(text).len());
    }

    let docs = lines(canonical);
    let mut spans: BTreeMap<String, u64> = BTreeMap::new();
    let mut events: BTreeMap<String, u64> = BTreeMap::new();
    for doc in &docs {
        match str_field(doc, "kind") {
            Some("span") => {
                if let Some(path) = str_field(doc, "span_id") {
                    *spans.entry(path.to_string()).or_default() += 1;
                }
            }
            Some("event") => {
                let proc = str_field(doc, "proc").unwrap_or("?");
                let name = str_field(doc, "name").unwrap_or("?");
                *events.entry(format!("{proc}:{name}")).or_default() += 1;
            }
            _ => {}
        }
    }

    let _ = writeln!(md, "\n### Merged span tree\n");
    let _ = writeln!(md, "| span (process:name) | count |");
    let _ = writeln!(md, "|---|---|");
    for (path, n) in &spans {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let _ = writeln!(md, "| {}{leaf} | {n} |", "&nbsp;&nbsp;".repeat(depth));
    }

    let _ = writeln!(md, "\n### Events by process\n");
    let _ = writeln!(md, "| event | count |");
    let _ = writeln!(md, "|---|---|");
    for (name, n) in &events {
        let _ = writeln!(md, "| {name} | {n} |");
    }
}

type BenchDocs = Vec<(String, Json)>;

/// Reads every `BENCH_*.json` in `dir`, sorted by file name.
fn bench_reports(dir: &str) -> Result<BenchDocs> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(Path::new(dir)).map_err(|e| CliError(format!("reading {dir}: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| CliError(format!("reading {dir}: {e}")))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = read(&entry.path().to_string_lossy())?;
        let doc = Json::parse(&text).map_err(|e| CliError(format!("{dir}/{name}: {e}")))?;
        out.push((name, doc));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn render_bench(md: &mut String, reports: &BenchDocs, baseline: &BenchDocs) {
    let _ = writeln!(md, "\n## Benchmarks\n");
    for (file, doc) in reports {
        let suite = doc.get("suite").and_then(Json::as_str).unwrap_or("?");
        let mode = doc.get("mode").and_then(Json::as_str).unwrap_or("?");
        let _ = writeln!(md, "### {suite} ({mode}, {file})\n");
        let old: HashMap<String, f64> = baseline
            .iter()
            .find(|(f, _)| f == file)
            .and_then(|(_, b)| b.get("results").and_then(Json::as_arr))
            .map(|rs| {
                rs.iter()
                    .filter_map(|r| {
                        Some((
                            r.get("name")?.as_str()?.to_string(),
                            r.get("ns_per_iter")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let delta_col = !old.is_empty();
        if delta_col {
            let _ = writeln!(md, "| case | ns/iter | MiB/s | vs baseline |");
            let _ = writeln!(md, "|---|---|---|---|");
        } else {
            let _ = writeln!(md, "| case | ns/iter | MiB/s |");
            let _ = writeln!(md, "|---|---|---|");
        }
        let results = doc.get("results").and_then(Json::as_arr);
        for r in results.into_iter().flatten() {
            let name = r.get("name").and_then(Json::as_str).unwrap_or("?");
            let ns = r.get("ns_per_iter").and_then(Json::as_f64).unwrap_or(0.0);
            let mib = r
                .get("mib_per_s")
                .and_then(Json::as_f64)
                .map_or_else(|| "—".to_string(), |v| format!("{v:.0}"));
            if delta_col {
                let delta = old.get(name).map_or_else(
                    || "new".to_string(),
                    |o| format!("{:+.1}%", 100.0 * (ns - o) / o),
                );
                let _ = writeln!(md, "| {name} | {ns:.1} | {mib} | {delta} |");
            } else {
                let _ = writeln!(md, "| {name} | {ns:.1} | {mib} |");
            }
        }
        let _ = writeln!(md);
    }
}

pub(crate) fn bench(args: &ParsedArgs) -> Result<String> {
    use nsr_bench::suites::{self, Mode, SUITE_NAMES};

    // --compare <old.json> <new.json>: diff two reports, no timing.
    if let Some(old_path) = args.get::<String>("compare")? {
        let new_path = args.positionals.first().ok_or_else(|| {
            CliError("--compare needs two report paths: --compare OLD.json NEW.json".into())
        })?;
        let threshold = args.get_or("threshold", 25.0f64)?;
        let only = args.get::<String>("only")?;
        let old = read_json(&old_path)?;
        let new = read_json(new_path)?;
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
            let doc = read_json(&path.to_string_lossy())?;
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

pub(crate) fn obs_check(args: &ParsedArgs) -> Result<String> {
    let path = args
        .get::<String>("file")?
        .ok_or_else(|| CliError("--file is required".into()))?;
    let text = read(&path)?;
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
        for doc in lines(&text) {
            if let Some(name) = str_field(&doc, "name") {
                let kind = str_field(&doc, "kind").unwrap_or("?");
                present.insert((kind.to_string(), name.to_string()));
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
