//! End-to-end run of the healthy serving workloads (`serve_small`,
//! `serve_large`): closed loop, one client, observability off.

use std::time::Duration;

use crate::cluster::Cluster;
use crate::load::{closed_loop, populate, Dataset, Geometry, OpStream, Until};
use crate::report::Report;
use crate::speed::timed_with_host_factor;
use crate::stats::median;

/// Time slices a measured phase is cut into; a metric is the median of
/// its per-slice values. Many short slices: the host's slow spells last
/// a second or more, and the median slice should sit outside them.
pub const SEGMENTS: usize = 100;
/// Slices for a 99th percentile, which needs a few hundred samples in
/// each to have any beyond it.
pub const TAIL_SEGMENTS: usize = 20;

/// Set-ups per run. `setup_s` is their median, so one slow thread spawn
/// or page-fault storm does not decide it.
const SETUPS: usize = 5;

/// Starts a cluster, stores every object and runs the warm-up ops.
/// Returns the cluster and the wall time all of that took.
pub fn setup_cluster(
    geom: &Geometry,
    data: &mut Dataset,
    seed: u64,
) -> Result<(Cluster, SetupTime), String> {
    data.reset();
    let (cluster, wall_s, host_factor) = timed_with_host_factor(|| {
        let cluster = Cluster::start(geom.bricks)?;
        populate(&cluster.gw, data)?;
        let mut warm = OpStream::new(seed, 0, geom, geom.read_pct);
        let warmed = closed_loop(&cluster.gw, data, &mut warm, Until::Ops(geom.warmup_ops));
        if warmed.failed > 0 {
            return Err(format!("{} warm-up ops failed", warmed.failed));
        }
        Ok(cluster)
    });
    Ok((
        cluster?,
        SetupTime {
            wall_s,
            host_factor,
        },
    ))
}

/// How long a set-up took, and the host factor measured around it.
#[derive(Clone, Copy)]
pub struct SetupTime {
    pub wall_s: f64,
    pub host_factor: f64,
}

/// Sets `setup_s` to the median of the scaled set-up times.
pub fn report_setup(report: &mut Report, setups: &[SetupTime]) {
    let scaled: Vec<f64> = setups.iter().map(|s| s.wall_s * s.host_factor).collect();
    let walls: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    report.set_scaled(
        "setup_s",
        median(&scaled),
        median(&walls),
        setups.len() as u64,
    );
}

pub fn run(geom: &Geometry, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut data = Dataset::generate(seed, geom.objects, geom.object_bytes);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    for _ in 0..SETUPS {
        if let Some(previous) = cluster.take() {
            Cluster::shutdown(previous);
        }
        let (c, setup) = setup_cluster(geom, &mut data, seed)?;
        setups.push(setup);
        cluster = Some(c);
    }
    let cluster = cluster.expect("SETUPS >= 1");

    let mut ops = OpStream::new(seed, 1, geom, geom.read_pct);
    let phase = closed_loop(
        &cluster.gw,
        &mut data,
        &mut ops,
        Until::Elapsed(Duration::from_secs_f64(seconds)),
    );
    cluster.shutdown();
    let gets = phase.latencies(true).len() as u64;
    let puts = phase.latencies(false).len() as u64;
    let mut report = Report::default();
    report.attempted = phase.attempted();
    report.failed = phase.failed;
    report_setup(&mut report, &setups);
    report.set_scaled(
        "ops_per_s",
        phase.ops_per_s(SEGMENTS, true),
        phase.ops_per_s(SEGMENTS, false),
        gets + puts,
    );
    for (name, segments, is_get, q, n) in [
        ("primary_p50_us", SEGMENTS, true, 0.5, gets),
        ("primary_p99_us", TAIL_SEGMENTS, true, 0.99, gets),
        ("secondary_p50_us", SEGMENTS, false, 0.5, puts),
    ] {
        report.set_scaled(
            name,
            phase.latency_us(segments, true, is_get, q),
            phase.latency_us(segments, false, is_get, q),
            n,
        );
    }
    Ok(report)
}
