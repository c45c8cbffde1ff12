//! `nsr-obs`: zero-dependency structured observability for the workspace.
//!
//! Three pieces, all hand-rolled in the style of the `nsr-bench` JSON
//! stack (which now lives here, in [`json`]):
//!
//! - [`metrics`] — a process-wide registry of atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed [`Histogram`]s, snapshotted as JSON-lines.
//! - [`trace`] — causal [`Span`]/[`trace::event`] tracing with per-thread
//!   sharded sinks merged into a deterministic JSON-lines drain.
//! - [`json`] — the shared JSON value type used for both, plus the
//!   `BENCH_*.json` reports.
//!
//! # The `nsr-obs/v1` and `nsr-obs/v2` schemas
//!
//! Every emitted line is a self-contained JSON object with a `"schema"`
//! and a `"kind"`. Metric snapshots and `meta` lines are `nsr-obs/v1`;
//! spans and events are `nsr-obs/v2`, and only v2 — each kind has
//! exactly one schema:
//!
//! | schema | kind        | fields |
//! |--------|-------------|--------|
//! | v1     | `meta`      | `source` (string; trace meta adds `dropped`) |
//! | v1     | `counter`   | `name`, `value` (non-negative integer) |
//! | v1     | `gauge`     | `name`, `value` (number, or `null` when non-finite) |
//! | v1     | `histogram` | `name`, `count`, `sum`, `min`, `max`, `overflow`, `buckets` (array of `{le, count}`) |
//! | v2     | `span`      | `name`, `at_s`, `dur_s`, `fields` (object), `span_id` (unique positive integer), `parent_id` (optional; must resolve to an emitted `span_id`), `thread`, `seq` |
//! | v2     | `event`     | `name`, `at_s`, `fields` (object), `parent_id` (optional), `thread`, `seq` |
//!
//! [`validate_line`] / [`validate_jsonl`] check each line against its
//! kind's schema; [`validate_span_links`] adds the structural check that
//! every `parent_id` resolves to an emitted `span_id` (no orphan spans).
//! The CLI's `obs-check` command and the CI smoke step are built on all
//! three.
//!
//! # Cost contract
//!
//! Both layers are **off by default**, and every recording call starts
//! with a relaxed atomic load + branch and returns immediately when
//! disabled — no allocation, no locks, no clock reads. The `obs` bench
//! suite measures the disabled path so regressions show up as a bench
//! delta.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::{Json, ParseError};
pub use metrics::{
    metrics_enabled, metrics_jsonl, metrics_timer, percentile_from_buckets, reset_metrics,
    set_metrics_enabled, write_metrics, Counter, Gauge, Histogram,
};
pub use trace::{
    adopt_parent, canonical_cluster_jsonl, canonical_jsonl, current_context, current_parent,
    no_fields, process_id_for, set_trace_capacity, set_trace_enabled, set_trace_lane,
    set_trace_process, trace_delta, trace_enabled, trace_jsonl, trace_process, write_trace, Fields,
    Span, SpanContext,
};

/// The schema identifier stamped on metric snapshots and `meta` records.
pub const SCHEMA: &str = "nsr-obs/v1";

/// The schema identifier stamped on causal trace records (spans and
/// events carrying `span_id`/`parent_id`/`thread`/`seq`).
pub const SCHEMA_V2: &str = "nsr-obs/v2";

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn field_num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn field_count(doc: &Json, key: &str) -> Result<f64, String> {
    let v = field_num(doc, key)?;
    if v.is_finite() && v >= 0.0 && v == v.trunc() {
        Ok(v)
    } else {
        Err(format!("`{key}` must be a non-negative integer, got {v}"))
    }
}

/// `key` may be a finite number or `null` (how non-finite values render).
fn field_num_or_null(doc: &Json, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(Json::Num(_)) | Some(Json::Null) => Ok(()),
        _ => Err(format!("missing or non-numeric `{key}`")),
    }
}

fn field_fields(doc: &Json) -> Result<(), String> {
    match doc.get("fields") {
        None | Some(Json::Obj(_)) => Ok(()),
        _ => Err("`fields` must be an object".into()),
    }
}

/// The v2 causal identity: required `thread`/`seq`, a required positive
/// `span_id` when `require_span_id`, and an optional positive `parent_id`.
fn v2_identity(doc: &Json, require_span_id: bool) -> Result<(), String> {
    field_count(doc, "thread")?;
    field_count(doc, "seq")?;
    if require_span_id {
        let id = field_count(doc, "span_id")?;
        if id < 1.0 {
            return Err("`span_id` must be positive".into());
        }
    }
    if let Some(p) = doc.get("parent_id") {
        let p = p
            .as_f64()
            .ok_or_else(|| "non-numeric `parent_id`".to_string())?;
        if !(p.is_finite() && p >= 1.0 && p == p.trunc()) {
            return Err(format!("`parent_id` must be a positive integer, got {p}"));
        }
    }
    Ok(())
}

/// Validates one parsed record against the `nsr-obs/v1` schema (metrics
/// and `meta`) or the `nsr-obs/v2` one (the causal `span`/`event` kinds).
pub fn validate_line(doc: &Json) -> Result<(), String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("record is not an object".into());
    }
    let schema = field_str(doc, "schema")?;
    let kind = field_str(doc, "kind")?;
    // Each kind has exactly one schema: spans and events are v2.
    let expected = match kind {
        "span" | "event" => SCHEMA_V2,
        _ => SCHEMA,
    };
    if schema != expected {
        return Err(format!(
            "schema is {schema:?}, expected {expected:?} for kind {kind:?}"
        ));
    }
    match kind {
        "meta" => {
            field_str(doc, "source")?;
        }
        "counter" => {
            field_str(doc, "name")?;
            field_count(doc, "value")?;
        }
        "gauge" => {
            field_str(doc, "name")?;
            field_num_or_null(doc, "value")?;
        }
        "histogram" => {
            field_str(doc, "name")?;
            let count = field_count(doc, "count")?;
            field_num_or_null(doc, "sum")?;
            field_num_or_null(doc, "min")?;
            field_num_or_null(doc, "max")?;
            let overflow = field_count(doc, "overflow")?;
            let buckets = doc
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or("missing or non-array `buckets`")?;
            let mut in_buckets = 0.0;
            for b in buckets {
                let le = field_num(b, "le")?;
                if !le.is_finite() {
                    return Err("bucket `le` must be finite".into());
                }
                in_buckets += field_count(b, "count")?;
            }
            if in_buckets + overflow != count {
                return Err(format!(
                    "bucket counts ({in_buckets}) + overflow ({overflow}) != count ({count})"
                ));
            }
        }
        "span" => {
            field_str(doc, "name")?;
            field_num(doc, "at_s")?;
            let dur = field_num(doc, "dur_s")?;
            if dur < 0.0 {
                return Err("`dur_s` must be non-negative".into());
            }
            field_fields(doc)?;
            v2_identity(doc, true)?;
        }
        "event" => {
            field_str(doc, "name")?;
            field_num(doc, "at_s")?;
            field_fields(doc)?;
            v2_identity(doc, false)?;
        }
        other => return Err(format!("unknown kind {other:?}")),
    }
    Ok(())
}

/// Validates a whole JSON-lines document: every non-empty line must parse
/// and pass [`validate_line`]. Returns the number of records on success;
/// errors name the offending (1-based) line.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut records = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        validate_line(&doc).map_err(|e| format!("line {}: {e}", i + 1))?;
        records += 1;
    }
    if records == 0 {
        return Err("no records found".into());
    }
    Ok(records)
}

/// The v2 structural check: every `parent_id` in the document resolves
/// to a `span_id` emitted by some span record (no orphan spans), and no
/// `span_id` is emitted twice. Lines that fail to parse are skipped —
/// run [`validate_jsonl`] first for shape errors.
pub fn validate_span_links(text: &str) -> Result<(), String> {
    let docs: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .collect();
    let mut ids = std::collections::HashSet::new();
    for doc in &docs {
        if doc.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        if let Some(id) = doc.get("span_id").and_then(Json::as_f64) {
            if !ids.insert(id.to_bits()) {
                return Err(format!("duplicate span_id {id}"));
            }
        }
    }
    for (i, doc) in docs.iter().enumerate() {
        if let Some(p) = doc.get("parent_id").and_then(Json::as_f64) {
            if !ids.contains(&p.to_bits()) {
                return Err(format!(
                    "record {} ({}): parent_id {p} does not resolve to an emitted span_id",
                    i + 1,
                    doc.get("name").and_then(Json::as_str).unwrap_or("?"),
                ));
            }
        }
    }
    Ok(())
}

/// The cross-process extension of [`validate_span_links`]: each part is
/// one process's trace JSONL (its `meta` line must carry `proc` /
/// `proc_id`, see [`trace::set_trace_process`]). Checks that span ids
/// are unique *per process*, local `parent_id`s resolve within their
/// own part, and every `remote_proc_id`/`remote_parent_id` pair
/// resolves to a span emitted by some part.
pub fn validate_cluster_links(parts: &[&str]) -> Result<(), String> {
    let mut all_spans = std::collections::HashSet::new();
    let mut parsed: Vec<(u64, Vec<Json>)> = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        validate_span_links(part).map_err(|e| format!("part {}: {e}", pi + 1))?;
        let docs: Vec<Json> = part
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| Json::parse(l).ok())
            .collect();
        let proc_id = docs
            .iter()
            .find(|d| d.get("kind").and_then(Json::as_str) == Some("meta"))
            .and_then(|d| d.get("proc_id"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("part {} has no meta line with `proc_id`", pi + 1))?
            as u64;
        for doc in &docs {
            if doc.get("kind").and_then(Json::as_str) != Some("span") {
                continue;
            }
            if let Some(id) = doc.get("span_id").and_then(Json::as_f64) {
                all_spans.insert((proc_id, id.to_bits()));
            }
        }
        parsed.push((proc_id, docs));
    }
    for (pi, (_, docs)) in parsed.iter().enumerate() {
        for (i, doc) in docs.iter().enumerate() {
            let (rp, rs) = (
                doc.get("remote_proc_id").and_then(Json::as_f64),
                doc.get("remote_parent_id").and_then(Json::as_f64),
            );
            match (rp, rs) {
                (None, None) => {}
                (Some(rp), Some(rs)) => {
                    if !all_spans.contains(&(rp as u64, rs.to_bits())) {
                        return Err(format!(
                            "part {}, record {}: remote parent ({rp}, {rs}) does not \
                             resolve to a span emitted by any part",
                            pi + 1,
                            i + 1
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "part {}, record {}: remote_proc_id and remote_parent_id \
                         must appear together",
                        pi + 1,
                        i + 1
                    ))
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> Result<(), String> {
        validate_line(&Json::parse(s).unwrap())
    }

    #[test]
    fn accepts_well_formed_records() {
        for good in [
            r#"{"schema":"nsr-obs/v1","kind":"meta","source":"nsr sim"}"#,
            r#"{"schema":"nsr-obs/v1","kind":"counter","name":"a.b","value":3}"#,
            r#"{"schema":"nsr-obs/v1","kind":"gauge","name":"a.b","value":0.5}"#,
            r#"{"schema":"nsr-obs/v1","kind":"gauge","name":"a.b","value":null}"#,
            concat!(
                r#"{"schema":"nsr-obs/v1","kind":"histogram","name":"h","count":3,"#,
                r#""sum":2.5,"min":0.5,"max":1.5,"overflow":1,"#,
                r#""buckets":[{"le":1,"count":1},{"le":2,"count":1}]}"#
            ),
            concat!(
                r#"{"schema":"nsr-obs/v2","kind":"span","name":"s","at_s":0.1,"dur_s":0.2,"#,
                r#""span_id":3,"parent_id":1,"thread":2,"seq":17,"fields":{}}"#
            ),
            concat!(
                r#"{"schema":"nsr-obs/v2","kind":"span","name":"root","at_s":0,"dur_s":0,"#,
                r#""span_id":1,"thread":0,"seq":0,"fields":{}}"#
            ),
            concat!(
                r#"{"schema":"nsr-obs/v2","kind":"event","name":"e","at_s":0.1,"#,
                r#""parent_id":3,"thread":2,"seq":18,"fields":{"w":1}}"#
            ),
            r#"{"schema":"nsr-obs/v2","kind":"event","name":"e","at_s":0.1,"thread":2,"seq":18,"fields":{}}"#,
        ] {
            assert_eq!(line(good), Ok(()), "rejected {good}");
        }
    }

    #[test]
    fn rejects_malformed_records() {
        for bad in [
            r#"[1,2]"#,                                                // not an object
            r#"{"kind":"counter","name":"a","value":1}"#,              // no schema
            r#"{"schema":"nsr-bench/v1","kind":"meta","source":"x"}"#, // wrong schema
            r#"{"schema":"nsr-obs/v1","kind":"widget","name":"a"}"#,   // unknown kind
            r#"{"schema":"nsr-obs/v1","kind":"counter","value":1}"#,   // no name
            r#"{"schema":"nsr-obs/v1","kind":"counter","name":"a","value":-1}"#,
            r#"{"schema":"nsr-obs/v1","kind":"counter","name":"a","value":1.5}"#,
            r#"{"schema":"nsr-obs/v1","kind":"span","name":"s","at_s":0,"dur_s":-1}"#,
            concat!(
                r#"{"schema":"nsr-obs/v1","kind":"histogram","name":"h","count":5,"#,
                r#""sum":0,"min":null,"max":null,"overflow":0,"buckets":[]}"#
            ), // counts don't add up
            // v2 is trace-only: metric kinds stay v1.
            r#"{"schema":"nsr-obs/v2","kind":"counter","name":"a","value":1}"#,
            r#"{"schema":"nsr-obs/v2","kind":"meta","source":"x"}"#,
            // Spans and events are v2 only.
            r#"{"schema":"nsr-obs/v1","kind":"span","name":"s","at_s":0.1,"dur_s":0.2,"fields":{}}"#,
            r#"{"schema":"nsr-obs/v1","kind":"event","name":"e","at_s":0.1,"fields":{"w":1}}"#,
            // v2 spans need their causal identity.
            r#"{"schema":"nsr-obs/v2","kind":"span","name":"s","at_s":0,"dur_s":0,"fields":{}}"#,
            concat!(
                r#"{"schema":"nsr-obs/v2","kind":"span","name":"s","at_s":0,"dur_s":0,"#,
                r#""span_id":0,"thread":0,"seq":0,"fields":{}}"#
            ), // span_id must be positive
            concat!(
                r#"{"schema":"nsr-obs/v2","kind":"event","name":"e","at_s":0,"#,
                r#""parent_id":1.5,"thread":0,"seq":0,"fields":{}}"#
            ), // fractional parent_id
        ] {
            assert!(line(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn validate_jsonl_counts_and_locates_errors() {
        let good = concat!(
            "{\"schema\":\"nsr-obs/v1\",\"kind\":\"meta\",\"source\":\"t\"}\n",
            "\n",
            "{\"schema\":\"nsr-obs/v1\",\"kind\":\"counter\",\"name\":\"c\",\"value\":1}\n",
        );
        assert_eq!(validate_jsonl(good), Ok(2));
        let bad = "{\"schema\":\"nsr-obs/v1\",\"kind\":\"meta\",\"source\":\"t\"}\nnot json\n";
        let err = validate_jsonl(bad).unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn span_links_resolve_or_error() {
        let root = concat!(
            r#"{"schema":"nsr-obs/v2","kind":"span","name":"root","at_s":0,"dur_s":0,"#,
            r#""span_id":1,"thread":0,"seq":0,"fields":{}}"#
        );
        let child = concat!(
            r#"{"schema":"nsr-obs/v2","kind":"event","name":"child","at_s":0,"#,
            r#""parent_id":1,"thread":0,"seq":1,"fields":{}}"#
        );
        let ok = format!("{root}\n{child}\n");
        assert_eq!(validate_span_links(&ok), Ok(()));
        let orphan = format!("{child}\n");
        let err = validate_span_links(&orphan).unwrap_err();
        assert!(err.contains("parent_id 1"), "{err}");
        let dup = format!("{root}\n{root}\n");
        assert!(validate_span_links(&dup).unwrap_err().contains("duplicate"));
    }
}
