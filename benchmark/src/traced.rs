//! The traced run (`--trace 1`): every per-layer metric, at the
//! workload's own sizes.
//!
//! Every workload's traced run visits every layer with the same code and
//! only the geometry differs, because the result object must carry every
//! per-layer metric on every workload. For `model_batch`, which has no
//! objects, the serving layers are read at the 64 KiB geometry and are its
//! control readings: a model change should move none of them.
//!
//! Phases, each a fixed share of `--seconds`:
//! closed loop with everything off (the reference p50s, CPU per op, the
//! load generator's own share), the same loop under the span recorder
//! with replayed layer calls, the same loop with the program's `nsr_obs`
//! tracing and metrics on, a paced phase, two failure-and-rebuild cycles
//! under the recorder, and the model passes.

use std::path::Path;
use std::time::Duration;

use crate::degraded::{cycle, rebuild_mib_per_s};
use crate::host::{cpu_seconds, peak_rss_mib};
use crate::layers::{traced_loop, ReplayKit, HEALTHY};
use crate::load::{closed_loop, paced_loop, Dataset, Geometry, OpStream, Until};
use crate::model::{probe_layers, Model};
use crate::report::Report;
use crate::serve::{setup_cluster, SEGMENTS};
use crate::spans::Recorder;
use crate::stats::{median, percentile};

const UNTRACED_SHARE: f64 = 0.15;
const TRACED_SHARE: f64 = 0.15;
const OBS_SHARE: f64 = 0.10;
const PACED_SHARE: f64 = 0.15;
const CYCLES: usize = 2;
const CYCLE_GETS_SHARE: f64 = 0.08;

fn p50(spans: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str) -> (f64, u64) {
    let v = spans.get(name).map_or(&[][..], Vec::as_slice);
    (percentile(v, 0.5), v.len() as u64)
}

pub fn run(
    workload: &str,
    geom: &Geometry,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Report, String> {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let mut report = Report::default();
    let mut data = Dataset::generate(seed, geom.objects, geom.object_bytes);
    let (cluster, _) = setup_cluster(geom, &mut data, seed)?;
    let gw = &cluster.gw;

    // Everything off: the numbers the other phases are compared with.
    let cpu0 = cpu_seconds();
    let mut ops = OpStream::new(seed, 1, geom, geom.read_pct);
    let plain = closed_loop(
        gw,
        &mut data,
        &mut ops,
        Until::Elapsed(share(UNTRACED_SHARE)),
    );
    let cpu_s = cpu0.zip(cpu_seconds()).map_or(f64::NAN, |(a, b)| b - a);
    let (gets, puts) = (plain.latencies(true), plain.latencies(false));
    let n_ops = plain.samples.len() as u64;
    report.set("gateway.ops_per_s", plain.ops_per_s(SEGMENTS, true), n_ops);
    report.set(
        "gateway.get_p50_us",
        percentile(&gets, 0.5),
        gets.len() as u64,
    );
    report.set(
        "gateway.get_p99_us",
        percentile(&gets, 0.99),
        gets.len() as u64,
    );
    report.set(
        "gateway.put_p50_us",
        percentile(&puts, 0.5),
        puts.len() as u64,
    );
    report.set(
        "gateway.put_p99_us",
        percentile(&puts, 0.99),
        puts.len() as u64,
    );
    report.set(
        "process.cpu_us_per_op",
        cpu_s * 1e6 / n_ops as f64 * plain.speed.factor_overall(),
        n_ops,
    );
    report.set(
        "loadgen.overhead_frac",
        plain.loadgen_overhead_frac(),
        n_ops,
    );

    // The benchmark's span recorder on, layer calls replayed under each op.
    let mut rec = Recorder::new();
    let live: Vec<u32> = (0..geom.bricks as u32).collect();
    let mut kit = ReplayKit::new(&cluster.addrs, &live, geom.object_bytes)?;
    let mut ops = OpStream::new(seed, 2, geom, geom.read_pct);
    let traced = traced_loop(
        gw,
        &mut data,
        &mut ops,
        share(TRACED_SHARE),
        &mut rec,
        &mut kit,
        &HEALTHY,
    )?;
    drop(kit);
    let under_get = rec.durations_us("op.get", traced.speed.factor_overall());
    let under_put = rec.durations_us("op.put", traced.speed.factor_overall());
    for (name, span, spans) in [
        ("erasure.encode_us", "erasure.encode", &under_put),
        ("wire.encode_put_us", "wire.encode_put", &under_put),
        ("wire.decode_put_us", "wire.decode_put", &under_put),
        ("brick.put_shard_rtt_us", "brick.put_shard_rtt", &under_put),
        ("pool.fanout_put_rtt_us", "pool.fanout_put_rtt", &under_put),
        ("brick.heartbeat_rtt_us", "brick.heartbeat_rtt", &under_get),
        ("brick.get_shard_rtt_us", "brick.get_shard_rtt", &under_get),
        ("pool.fanout_get_rtt_us", "pool.fanout_get_rtt", &under_get),
    ] {
        let (v, n) = p50(spans, span);
        report.set(name, v, n);
    }
    // The budget line: what the layers under the gateway account for, and
    // what is left as the gateway's own time.
    let (get_us, n_get) = p50(&under_get, "gateway.get");
    let (put_us, n_put) = p50(&under_put, "gateway.put");
    let get_layers = p50(&under_get, "pool.fanout_get_rtt").0;
    let put_layers = p50(&under_put, "erasure.encode").0 + p50(&under_put, "pool.fanout_put_rtt").0;
    report.set("gateway.get_unaccounted_us", get_us - get_layers, n_get);
    report.set("gateway.put_unaccounted_us", put_us - put_layers, n_put);
    report.set("gateway.get_layers_frac", get_layers / get_us, n_get);
    report.set("gateway.put_layers_frac", put_layers / put_us, n_put);
    report.set(
        "trace.overhead_frac",
        percentile(&traced.latencies(true), 0.5) / percentile(&gets, 0.5) - 1.0,
        n_get,
    );
    report.set(
        "trace.harness_self_us",
        rec.root_self_us("op.get") * traced.speed.factor_overall(),
        n_get,
    );

    // The program's own telemetry on. Its counters only count while
    // metrics are enabled, so they cover this phase alone.
    let reconnects0 = nsr_net::obs::POOL_RECONNECTS.get();
    let retries0 = nsr_net::obs::RETRIES.get();
    nsr_obs::set_metrics_enabled(true);
    nsr_obs::set_trace_enabled(true);
    let mut ops = OpStream::new(seed, 3, geom, geom.read_pct);
    let observed = closed_loop(gw, &mut data, &mut ops, Until::Elapsed(share(OBS_SHARE)));
    nsr_obs::set_trace_enabled(false);
    nsr_obs::set_metrics_enabled(false);
    drop(nsr_obs::trace::drain());
    let observed_puts = observed.latencies(false);
    report.set(
        "obs.traced_put_overhead_frac",
        percentile(&observed_puts, 0.5) / percentile(&puts, 0.5) - 1.0,
        observed_puts.len() as u64,
    );
    let n_observed = observed.samples.len() as u64;
    report.set(
        "pool.reconnects",
        (nsr_net::obs::POOL_RECONNECTS.get() - reconnects0) as f64,
        n_observed,
    );
    report.set(
        "gateway.retries",
        (nsr_net::obs::RETRIES.get() - retries0) as f64,
        n_observed,
    );

    // Open loop at the workload's fixed rate.
    let mut ops = OpStream::new(seed, 4, geom, geom.read_pct);
    let paced = paced_loop(
        gw,
        &mut data,
        &mut ops,
        geom.paced_ops_per_s,
        share(PACED_SHARE),
    );
    report.set(
        "loadgen.paced_get_p99_us",
        percentile(&paced.get_us, 0.99),
        paced.get_us.len() as u64,
    );
    report.set(
        "loadgen.paced_put_p99_us",
        percentile(&paced.put_us, 0.99),
        paced.put_us.len() as u64,
    );
    report.set(
        "loadgen.paced_max_lag_us",
        paced.max_lag_us,
        paced.attempted,
    );
    report.set(
        "loadgen.paced_stalls_over_10ms",
        paced.stalls_over_10ms as f64,
        paced.attempted,
    );
    cluster.shutdown();
    report.attempted =
        plain.attempted() + traced.attempted() + observed.attempted() + paced.attempted;
    report.failed = plain.failed + traced.failed + observed.failed + paced.failed;

    // Failure and rebuild, degraded gets under the recorder.
    let (mut detect_ms, mut mib_s, mut obj_s, mut lat) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut degraded, mut repair, mut factors) = (0, None, Vec::new());
    for i in 0..CYCLES {
        let c = cycle(
            geom,
            &mut data,
            seed,
            i as u64,
            share(CYCLE_GETS_SHARE),
            Some(&mut rec),
        )?;
        report.attempted += c.attempted;
        report.failed += c.failed;
        for what in &c.check_failures {
            report.fail_check(what);
        }
        detect_ms.extend(&c.kill_to_dead_ms);
        if c.repair.objects_repaired > 0 {
            mib_s.push(rebuild_mib_per_s(&c));
            obj_s.push(c.repair.objects_repaired as f64 / (c.repair_s * c.repair_host_factor));
        }
        lat.extend(c.gets.latencies(true));
        factors.push(c.gets.speed.factor_overall());
        degraded += c.gets.degraded_gets;
        repair = Some(c.repair);
    }
    let lat = crate::stats::sorted(lat);
    let n_lat = lat.len() as u64;
    let repair = repair.ok_or("no rebuild cycle ran")?;
    report.set("degraded.get_p50_us", percentile(&lat, 0.5), n_lat);
    report.set("degraded.get_p99_us", percentile(&lat, 0.99), n_lat);
    report.set(
        "gateway.degraded_get_frac",
        degraded as f64 / n_lat as f64,
        n_lat,
    );
    let (v, n) = p50(
        &rec.durations_us("op.degraded_get", median(&factors)),
        "erasure.reconstruct",
    );
    report.set("erasure.reconstruct_us", v, n);
    report.set(
        "detector.kill_to_dead_ms",
        median(&detect_ms),
        detect_ms.len() as u64,
    );
    report.set("rebuild.mib_per_s", median(&mib_s), mib_s.len() as u64);
    report.set("rebuild.objects_per_s", median(&obj_s), obj_s.len() as u64);
    // Layouts rotate by object id, so these counts are exact per geometry.
    report.set("rebuild.shards_moved", repair.shards_moved as f64, 1);
    report.set("rebuild.bytes_moved", repair.bytes_moved as f64, 1);
    report.set(
        "rebuild.objects_repaired",
        repair.objects_repaired as f64,
        1,
    );

    // The model stack, one layer at a time.
    let mut model = Model::setup()?;
    let reps = (seconds / 4.0).ceil().max(1.0) as usize;
    let m = probe_layers(&mut model, seed, reps)?;
    report.attempted += m.passes;
    for (name, v) in [
        ("plan.pass_ms", m.plan_pass_ms),
        ("plan.configs_per_s", m.plan_configs_per_s),
        (
            "plan.exhaustive_configs_per_s",
            m.plan_exhaustive_configs_per_s,
        ),
        ("plan.pruned_frac", m.plan_pruned_frac),
        ("plan.exact_solves", m.plan_exact_solves),
        ("markov.batch_solve_ns", m.markov_batch_solve_ns),
        ("markov.absorbing_solve_us", m.markov_absorbing_solve_us),
        ("sweep.pass_us", m.sweep_pass_us),
        ("sweep.points_per_s", m.sweep_points_per_s),
        ("fleet.events", m.fleet_events),
        ("fleet.run_ms", m.fleet_run_ms),
        ("fleet.events_per_s", m.fleet_events_per_s),
    ] {
        report.set(name, v, reps as u64);
    }

    report.set(
        "process.peak_rss_mib",
        peak_rss_mib().unwrap_or(f64::NAN),
        1,
    );
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    rec.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", rec.len(), path.display());
    Ok(report)
}
