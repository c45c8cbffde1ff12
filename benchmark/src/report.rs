//! The metric tables and the result line.
//!
//! `BENCHMARK.json` lists the same names, units and directions; a test
//! compares the two, so they cannot drift apart.

/// One metric as `BENCHMARK.json` declares it.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// What a user of the system sees, with the share of the parent's median
/// by which each may get worse. Every workload reports every one; what
/// "primary" and "secondary" mean per workload is in the README table.
pub const END_TO_END: &[(Spec, f64)] = &[
    (spec("setup_s", "s", "lower"), 0.25),
    (spec("ops_per_s", "1/s", "higher"), 0.15),
    (spec("primary_p50_us", "us", "lower"), 0.15),
    (spec("primary_p99_us", "us", "lower"), 0.25),
    (spec("secondary_p50_us", "us", "lower"), 0.15),
];

/// Single layers, timed from the benchmark's own code around one public
/// call each, plus the cost side (CPU, memory) and the load generator's
/// own behaviour. Reported by the traced run; no bound.
pub const PER_LAYER: &[Spec] = &[
    spec("erasure.encode_us", "us", "lower"),
    spec("erasure.reconstruct_us", "us", "lower"),
    spec("wire.encode_put_us", "us", "lower"),
    spec("wire.decode_put_us", "us", "lower"),
    spec("brick.heartbeat_rtt_us", "us", "lower"),
    spec("brick.put_shard_rtt_us", "us", "lower"),
    spec("brick.get_shard_rtt_us", "us", "lower"),
    spec("pool.fanout_get_rtt_us", "us", "lower"),
    spec("pool.fanout_put_rtt_us", "us", "lower"),
    spec("pool.reconnects", "count", "lower"),
    spec("gateway.retries", "count", "lower"),
    spec("gateway.ops_per_s", "1/s", "higher"),
    spec("gateway.get_p50_us", "us", "lower"),
    spec("gateway.get_p99_us", "us", "lower"),
    spec("gateway.put_p50_us", "us", "lower"),
    spec("gateway.put_p99_us", "us", "lower"),
    spec("gateway.get_unaccounted_us", "us", "lower"),
    spec("gateway.put_unaccounted_us", "us", "lower"),
    spec("gateway.get_layers_frac", "ratio", "higher"),
    spec("gateway.put_layers_frac", "ratio", "higher"),
    spec("gateway.degraded_get_frac", "ratio", "lower"),
    spec("degraded.get_p50_us", "us", "lower"),
    spec("degraded.get_p99_us", "us", "lower"),
    spec("detector.kill_to_dead_ms", "ms", "lower"),
    spec("rebuild.mib_per_s", "MiB/s", "higher"),
    spec("rebuild.objects_per_s", "1/s", "higher"),
    spec("rebuild.shards_moved", "count", "lower"),
    spec("rebuild.bytes_moved", "count", "lower"),
    spec("rebuild.objects_repaired", "count", "lower"),
    spec("obs.traced_put_overhead_frac", "ratio", "lower"),
    spec("trace.overhead_frac", "ratio", "lower"),
    spec("trace.harness_self_us", "us", "lower"),
    spec("plan.pass_ms", "ms", "lower"),
    spec("plan.configs_per_s", "1/s", "higher"),
    spec("plan.exhaustive_configs_per_s", "1/s", "higher"),
    spec("plan.pruned_frac", "ratio", "higher"),
    spec("plan.exact_solves", "count", "lower"),
    spec("markov.batch_solve_ns", "ns", "lower"),
    spec("markov.absorbing_solve_us", "us", "lower"),
    spec("sweep.pass_us", "us", "lower"),
    spec("sweep.points_per_s", "1/s", "higher"),
    spec("fleet.events", "count", "lower"),
    spec("fleet.run_ms", "ms", "lower"),
    spec("fleet.events_per_s", "1/s", "higher"),
    spec("process.cpu_us_per_op", "us", "lower"),
    spec("process.peak_rss_mib", "MiB", "lower"),
    spec("loadgen.overhead_frac", "ratio", "lower"),
    spec("loadgen.paced_get_p99_us", "us", "lower"),
    spec("loadgen.paced_put_p99_us", "us", "lower"),
    spec("loadgen.paced_max_lag_us", "us", "lower"),
    spec("loadgen.paced_stalls_over_10ms", "count", "lower"),
];

/// What one run measured.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// The same statistic before host-speed scaling, where it was scaled.
    unscaled: Vec<(&'static str, f64)>,
    /// Samples (ops, passes or cycles) behind each reported statistic.
    pub samples: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// False once any check that is not an op failed: a frontier hash
    /// that moved, an object left lost or deferred after a rebuild.
    pub check_failures: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.push((name, value));
        self.samples.push((name, samples));
    }

    /// A host-speed-scaled value and the unscaled one it came from.
    pub fn set_scaled(&mut self, name: &'static str, value: f64, unscaled: f64, samples: u64) {
        self.set(name, value, samples);
        self.unscaled.push((name, unscaled));
    }

    /// Records a failed check that is not an op.
    pub fn fail_check(&mut self, what: &str) {
        eprintln!("FAILED check: {what}");
        self.check_failures += 1;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures == 0
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// One human-readable line per metric, then the result object the
    /// driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
    /// A metric that is missing or not finite is a harness error.
    pub fn render<'a>(&self, specs: impl Iterator<Item = &'a Spec>) -> Result<String, String> {
        let mut human = String::new();
        let mut fields = Vec::new();
        for s in specs {
            let v = self
                .value(s.name)
                .ok_or_else(|| format!("metric `{}` was not measured", s.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite (no samples?)", s.name));
            }
            let n = self
                .samples
                .iter()
                .find(|(name, _)| *name == s.name)
                .map_or(0, |&(_, n)| n);
            let unscaled = self
                .unscaled
                .iter()
                .find(|(name, _)| *name == s.name)
                .map_or(String::new(), |(_, u)| format!("  unscaled {u:.4}"));
            human.push_str(&format!(
                "{:<34} {v:>16.4} {:<6} n={n:<8} {} is better{unscaled}\n",
                s.name, s.unit, s.better
            ));
            fields.push(format!(
                "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                s.name, s.unit
            ));
        }
        Ok(format!(
            "{human}{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.check_failures,
            fields.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        for (s, _) in END_TO_END {
            r.set(s.name, 1.25, 10);
        }
        r.attempted = 5;
        let out = r
            .render(END_TO_END.iter().map(|(s, _)| s))
            .expect("renders");
        let last = out.lines().last().expect("a line");
        let doc = nsr_obs::Json::parse(last).expect("json");
        let nsr_obs::Json::Obj(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(nsr_obs::Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(nsr_obs::Json::as_str), Some("s"));
    }

    #[test]
    fn missing_or_nan_metric_is_an_error() {
        let mut r = Report::default();
        assert!(r.render(PER_LAYER.iter()).is_err());
        for s in PER_LAYER {
            r.set(s.name, f64::NAN, 0);
        }
        assert!(r.render(PER_LAYER.iter()).is_err());
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(s, _)| s.name)
            .chain(PER_LAYER.iter().map(|s| s.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|(_, b)| *b <= 0.25));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    /// `BENCHMARK.json` must declare exactly these tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        use nsr_obs::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let own = |s: &Spec, bound| {
            (
                s.name.to_string(),
                s.unit.to_string(),
                s.better.to_string(),
                bound,
            )
        };
        let e2e: Vec<_> = END_TO_END.iter().map(|(s, b)| own(s, Some(*b))).collect();
        let layers: Vec<_> = PER_LAYER.iter().map(|s| own(s, None)).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
    }
}
