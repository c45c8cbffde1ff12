//! Diffing two `nsr-bench/v1` reports (`nsr bench --compare`).
//!
//! Both documents are schema-validated, cases are matched by name, and
//! every matched case's time change is reported as a speedup factor. A
//! case counts as a *regression* when its new time exceeds the old time
//! by more than the caller's threshold percentage; cases present in only
//! one report are listed separately and never fail the comparison (suite
//! membership evolves — renames should be visible, not fatal).

use nsr_obs::Json;

use crate::suites;

/// One case present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseDiff {
    /// Case name (`group/case` style).
    pub name: String,
    /// Nanoseconds per iteration in the old report.
    pub old_ns: f64,
    /// Nanoseconds per iteration in the new report.
    pub new_ns: f64,
}

impl CaseDiff {
    /// How many times faster the new measurement is (>1 = improvement).
    pub fn speedup(&self) -> f64 {
        self.old_ns / self.new_ns
    }

    /// Relative time change in percent (positive = slower).
    pub fn change_pct(&self) -> f64 {
        (self.new_ns / self.old_ns - 1.0) * 100.0
    }

    /// Whether this case regressed past `threshold_pct`.
    pub fn is_regression(&self, threshold_pct: f64) -> bool {
        self.change_pct() > threshold_pct
    }
}

/// The full result of comparing two reports of the same suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Suite name shared by both reports.
    pub suite: String,
    /// `mode` field of the old report (`full` / `smoke`).
    pub old_mode: String,
    /// `mode` field of the new report.
    pub new_mode: String,
    /// Regression threshold in percent.
    pub threshold_pct: f64,
    /// Case-name prefix the comparison was restricted to, if any.
    pub only_prefix: Option<String>,
    /// Cases present in both reports, in new-report order.
    pub cases: Vec<CaseDiff>,
    /// Case names only the old report has.
    pub only_in_old: Vec<String>,
    /// Case names only the new report has.
    pub only_in_new: Vec<String>,
}

impl Comparison {
    /// The cases that regressed past the threshold.
    pub fn regressions(&self) -> Vec<&CaseDiff> {
        self.cases
            .iter()
            .filter(|c| c.is_regression(self.threshold_pct))
            .collect()
    }

    /// Renders the aligned comparison table plus a one-line verdict.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let only = self
            .only_prefix
            .as_deref()
            .map(|p| format!("; only cases under `{p}`"))
            .unwrap_or_default();
        let mut out = format!(
            "comparing suite `{}` (old: {}, new: {}; regression threshold +{:.0}%{only})\n",
            self.suite, self.old_mode, self.new_mode, self.threshold_pct
        );
        if self.old_mode != self.new_mode {
            out.push_str(
                "warning: reports were recorded in different modes — times are not comparable\n",
            );
        }
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>14} {:>9} {:>8}",
            "case", "old", "new", "speedup", ""
        );
        for c in &self.cases {
            let verdict = if c.is_regression(self.threshold_pct) {
                "REGRESS"
            } else if c.speedup() > 1.0 + self.threshold_pct / 100.0 {
                "faster"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<44} {:>12.1}ns {:>12.1}ns {:>8.2}x {:>8}",
                c.name,
                c.old_ns,
                c.new_ns,
                c.speedup(),
                verdict
            );
        }
        for name in &self.only_in_old {
            let _ = writeln!(out, "{name:<44} (removed — only in old report)");
        }
        for name in &self.only_in_new {
            let _ = writeln!(out, "{name:<44} (new case — only in new report)");
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            let _ = writeln!(
                out,
                "no regressions past +{:.0}% across {} shared case(s)",
                self.threshold_pct,
                self.cases.len()
            );
        } else {
            let _ = writeln!(
                out,
                "{} case(s) regressed past +{:.0}%",
                regressions.len(),
                self.threshold_pct
            );
        }
        out
    }
}

/// Name → `ns_per_iter` pairs of a validated report, in document order.
fn cases_of(doc: &Json) -> Vec<(String, f64)> {
    doc.get("results")
        .and_then(Json::as_arr)
        .map(|results| {
            results
                .iter()
                .filter_map(|r| {
                    let name = r.get("name")?.as_str()?.to_string();
                    let ns = r.get("ns_per_iter")?.as_f64()?;
                    Some((name, ns))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compares two parsed `nsr-bench/v1` reports of the same suite.
///
/// # Errors
///
/// Schema violations in either document, suite-name mismatch, or a
/// non-finite/negative threshold.
pub fn compare_reports(old: &Json, new: &Json, threshold_pct: f64) -> Result<Comparison, String> {
    compare_reports_only(old, new, threshold_pct, None)
}

/// [`compare_reports`] restricted to cases whose name starts with
/// `only`. Filtering happens before matching, so cases outside the
/// prefix never appear in the diff, the membership lists, or the
/// verdict. A prefix that matches nothing is an error — a gate that
/// silently compares zero cases would always pass.
///
/// This exists for CI gates that pin one stable region of a suite
/// (e.g. the disabled-path no-ops of `obs`, whose timings are mode-
/// independent) while the rest of the suite is only measured in
/// incomparable smoke mode.
///
/// # Errors
///
/// Everything [`compare_reports`] rejects, plus a prefix matching no
/// case in the new report.
pub fn compare_reports_only(
    old: &Json,
    new: &Json,
    threshold_pct: f64,
    only: Option<&str>,
) -> Result<Comparison, String> {
    if !(threshold_pct.is_finite() && threshold_pct >= 0.0) {
        return Err(format!(
            "threshold must be a non-negative percentage, got {threshold_pct}"
        ));
    }
    suites::validate_report(old).map_err(|e| format!("old report: {e}"))?;
    suites::validate_report(new).map_err(|e| format!("new report: {e}"))?;
    let suite_of = |doc: &Json| {
        doc.get("suite")
            .and_then(Json::as_str)
            .expect("validated")
            .to_string()
    };
    let mode_of = |doc: &Json| {
        doc.get("mode")
            .and_then(Json::as_str)
            .expect("validated")
            .to_string()
    };
    let (old_suite, new_suite) = (suite_of(old), suite_of(new));
    if old_suite != new_suite {
        return Err(format!(
            "cannot compare different suites (`{old_suite}` vs `{new_suite}`)"
        ));
    }

    let keep = |name: &str| only.is_none_or(|p| name.starts_with(p));
    let old_cases: Vec<_> = cases_of(old).into_iter().filter(|(n, _)| keep(n)).collect();
    let new_cases: Vec<_> = cases_of(new).into_iter().filter(|(n, _)| keep(n)).collect();
    if let Some(prefix) = only {
        if new_cases.is_empty() {
            return Err(format!(
                "--only prefix {prefix:?} matches no case in the new report"
            ));
        }
    }
    let mut cases = Vec::new();
    let mut only_in_new = Vec::new();
    for (name, new_ns) in &new_cases {
        match old_cases.iter().find(|(n, _)| n == name) {
            Some((_, old_ns)) => cases.push(CaseDiff {
                name: name.clone(),
                old_ns: *old_ns,
                new_ns: *new_ns,
            }),
            None => only_in_new.push(name.clone()),
        }
    }
    let only_in_old = old_cases
        .iter()
        .filter(|(n, _)| !new_cases.iter().any(|(m, _)| m == n))
        .map(|(n, _)| n.clone())
        .collect();

    Ok(Comparison {
        suite: new_suite,
        old_mode: mode_of(old),
        new_mode: mode_of(new),
        threshold_pct,
        only_prefix: only.map(str::to_string),
        cases,
        only_in_old,
        only_in_new,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(suite: &str, mode: &str, cases: &[(&str, f64)]) -> Json {
        Json::obj([
            ("schema", Json::Str(suites::SCHEMA.into())),
            ("suite", Json::Str(suite.into())),
            ("mode", Json::Str(mode.into())),
            (
                "results",
                Json::Arr(
                    cases
                        .iter()
                        .map(|(name, ns)| {
                            Json::obj([
                                ("name", Json::Str((*name).into())),
                                ("ns_per_iter", Json::Num(*ns)),
                                ("bytes_per_iter", Json::Num(0.0)),
                                ("mib_per_s", Json::Null),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let doc = report("solvers", "full", &[("a/x", 100.0), ("a/y", 2000.0)]);
        let cmp = compare_reports(&doc, &doc, 10.0).unwrap();
        assert_eq!(cmp.cases.len(), 2);
        assert!(cmp.regressions().is_empty());
        assert!(cmp.only_in_old.is_empty() && cmp.only_in_new.is_empty());
        assert!(cmp.render().contains("no regressions"));
    }

    #[test]
    fn slowdown_past_threshold_is_flagged() {
        let old = report("solvers", "full", &[("a/x", 100.0), ("a/y", 100.0)]);
        let new = report("solvers", "full", &[("a/x", 125.0), ("a/y", 105.0)]);
        let cmp = compare_reports(&old, &new, 10.0).unwrap();
        let regs = cmp.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "a/x");
        assert!(cmp.render().contains("REGRESS"));
        // A looser threshold absolves it.
        assert!(compare_reports(&old, &new, 30.0)
            .unwrap()
            .regressions()
            .is_empty());
    }

    #[test]
    fn speedups_and_membership_changes_are_reported() {
        let old = report("solvers", "full", &[("a/x", 1000.0), ("gone/case", 5.0)]);
        let new = report("solvers", "full", &[("a/x", 100.0), ("fresh/case", 7.0)]);
        let cmp = compare_reports(&old, &new, 10.0).unwrap();
        assert_eq!(cmp.cases.len(), 1);
        assert!((cmp.cases[0].speedup() - 10.0).abs() < 1e-12);
        assert_eq!(cmp.only_in_old, vec!["gone/case".to_string()]);
        assert_eq!(cmp.only_in_new, vec!["fresh/case".to_string()]);
        assert!(cmp.regressions().is_empty());
        let text = cmp.render();
        assert!(text.contains("faster"));
        assert!(text.contains("only in old"));
        assert!(text.contains("only in new"));
    }

    #[test]
    fn only_prefix_restricts_the_comparison() {
        // `b/slow` regresses 10x, but a comparison pinned to `a/` must
        // not see it — in the diff, the membership lists, or the verdict.
        let old = report("obs", "full", &[("a/x", 100.0), ("b/slow", 100.0)]);
        let new = report(
            "obs",
            "smoke",
            &[("a/x", 105.0), ("b/slow", 1000.0), ("b/fresh", 1.0)],
        );
        let cmp = compare_reports_only(&old, &new, 25.0, Some("a/")).unwrap();
        assert_eq!(cmp.cases.len(), 1);
        assert_eq!(cmp.cases[0].name, "a/x");
        assert!(cmp.regressions().is_empty());
        assert!(cmp.only_in_old.is_empty() && cmp.only_in_new.is_empty());
        assert!(cmp.render().contains("only cases under `a/`"));
        // Unfiltered, the same pair regresses.
        assert_eq!(
            compare_reports(&old, &new, 25.0)
                .unwrap()
                .regressions()
                .len(),
            1
        );
        // A prefix matching nothing is an error, not a vacuous pass.
        assert!(compare_reports_only(&old, &new, 25.0, Some("zzz/"))
            .unwrap_err()
            .contains("matches no case"));
    }

    #[test]
    fn mismatched_suites_and_bad_inputs_error() {
        let a = report("solvers", "full", &[("a/x", 1.0)]);
        let b = report("erasure", "full", &[("a/x", 1.0)]);
        assert!(compare_reports(&a, &b, 10.0).is_err());
        assert!(compare_reports(&a, &Json::Null, 10.0).is_err());
        assert!(compare_reports(&a, &a, -5.0).is_err());
        assert!(compare_reports(&a, &a, f64::NAN).is_err());
        // Mode mismatch compares but warns.
        let smoke = report("solvers", "smoke", &[("a/x", 1.0)]);
        let cmp = compare_reports(&a, &smoke, 10.0).unwrap();
        assert!(cmp.render().contains("different modes"));
    }
}
