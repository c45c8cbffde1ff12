//! One failure-and-rebuild cycle, and the `degraded_rebuild` workload
//! made of them.
//!
//! A cycle runs on a fresh 10-brick cluster: store every object, stop
//! bricks 1 and 4 (`t` of them), pump heartbeats until the detector has
//! declared both dead, serve uniform gets (a read that lost a data shard
//! goes through `ReedSolomon::reconstruct`), time one `repair_all()` onto
//! the two spares while nothing else runs, then re-read a 1-in-16 sample
//! and require healthy reads of identical bytes. Cycles of 1,024 objects
//! on fresh clusters, not one long-lived cluster: a single 4,096-object
//! cluster gave a bimodal degraded-get median between identical runs.

use std::time::{Duration, Instant};

use nsr_net::gateway::{ReadMode, RepairReport};

use crate::cluster::Cluster;
use crate::layers::{traced_loop, ReplayKit, DEGRADED};
use crate::load::{closed_loop, populate, Dataset, Geometry, OpStream, Phase, Until};
use crate::report::Report;
use crate::serve::{report_setup, SetupTime};
use crate::spans::Recorder;
use crate::speed::timed_with_host_factor;
use crate::stats::median;

/// Bricks per cycle: `k + t = 8` hold a stripe, two are spares.
const BRICKS: usize = 10;
/// The bricks stopped in every cycle.
const VICTIMS: [u32; 2] = [1, 4];
/// One object in this many is re-read after the rebuild.
const VERIFY_STRIDE: usize = 16;

pub struct Cycle {
    pub setup: SetupTime,
    pub kill_to_dead_ms: Vec<f64>,
    pub gets: Phase,
    /// Wall seconds of `repair_all`, and the host factor around it.
    pub repair_s: f64,
    pub repair_host_factor: f64,
    pub repair: RepairReport,
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not ops: objects left lost or deferred.
    pub check_failures: Vec<String>,
}

/// Runs one cycle; `cycle_no` seasons the key sequence. With a recorder,
/// the degraded gets run through the traced loop.
pub fn cycle(
    geom: &Geometry,
    data: &mut Dataset,
    seed: u64,
    cycle_no: u64,
    gets_for: Duration,
    rec: Option<&mut Recorder>,
) -> Result<Cycle, String> {
    data.reset();
    let (cluster, wall_s, host_factor) = timed_with_host_factor(|| {
        let cluster = Cluster::start(BRICKS)?;
        populate(&cluster.gw, data)?;
        cluster.warm_detector();
        Ok::<_, String>(cluster)
    });
    let mut cluster = cluster?;
    let mut out = Cycle {
        setup: SetupTime {
            wall_s,
            host_factor,
        },
        kill_to_dead_ms: Vec::new(),
        gets: Phase::starting(Instant::now()),
        repair_s: f64::NAN,
        repair_host_factor: f64::NAN,
        repair: RepairReport::default(),
        attempted: 0,
        failed: 0,
        check_failures: Vec::new(),
    };

    for v in VICTIMS {
        cluster.kill(v)?;
    }
    let killed_at = Instant::now();
    for (v, ms) in VICTIMS.iter().zip(cluster.wait_dead(&VICTIMS, killed_at)) {
        out.attempted += 1;
        match ms {
            Some(ms) => out.kill_to_dead_ms.push(ms),
            None => {
                eprintln!("FAILED detection: brick {v} not declared dead within the deadline");
                out.failed += 1;
            }
        }
    }
    if out.failed > 0 {
        // Serving against undetected dead bricks would measure retry
        // back-off, not degraded reads; give the cycle up as failed.
        cluster.shutdown();
        return Ok(out);
    }

    let mut ops = OpStream::new(seed, 16 + cycle_no, geom, 100);
    out.gets = match rec {
        None => closed_loop(&cluster.gw, data, &mut ops, Until::Elapsed(gets_for)),
        Some(rec) => {
            let live: Vec<u32> = (0..BRICKS as u32)
                .filter(|b| !VICTIMS.contains(b))
                .collect();
            let mut kit = ReplayKit::new(&cluster.addrs, &live, geom.object_bytes)?;
            traced_loop(
                &cluster.gw,
                data,
                &mut ops,
                gets_for,
                rec,
                &mut kit,
                &DEGRADED,
            )?
        }
    };
    out.attempted += out.gets.attempted();
    out.failed += out.gets.failed;

    let (repaired, repair_s, repair_host_factor) =
        timed_with_host_factor(|| cluster.gw.repair_all());
    (out.repair_s, out.repair_host_factor) = (repair_s, repair_host_factor);
    out.attempted += 1;
    match repaired {
        Ok(report) => {
            if !report.lost_objects.is_empty() || !report.deferred_objects.is_empty() {
                out.check_failures.push(format!(
                    "rebuild left {} objects lost and {} deferred",
                    report.lost_objects.len(),
                    report.deferred_objects.len()
                ));
            }
            out.repair = report;
        }
        Err(e) => {
            eprintln!("FAILED repair_all: {e}");
            out.failed += 1;
        }
    }

    for key in (cycle_no as usize % VERIFY_STRIDE..geom.objects as usize).step_by(VERIFY_STRIDE) {
        out.attempted += 1;
        match cluster.gw.get(key as u64) {
            Ok((bytes, ReadMode::Healthy)) if bytes == data.expected(key as u64) => {}
            Ok((_, mode)) => {
                eprintln!("FAILED post-rebuild get obj{key}: {mode:?} read or wrong bytes");
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("FAILED post-rebuild get obj{key}: {e}");
                out.failed += 1;
            }
        }
    }
    cluster.shutdown();
    Ok(out)
}

/// MiB of shard bytes written onto spares per second of `repair_all`,
/// host-speed scaled.
pub fn rebuild_mib_per_s(c: &Cycle) -> f64 {
    c.repair.bytes_moved as f64 / (1024.0 * 1024.0) / (c.repair_s * c.repair_host_factor)
}

/// The end-to-end run: `cycles` cycles sharing `seconds` of degraded
/// serving; every metric is the median over the cycles.
pub fn run(geom: &Geometry, seed: u64, seconds: f64, cycles: usize) -> Result<Report, String> {
    let mut data = Dataset::generate(seed, geom.objects, geom.object_bytes);
    let gets_for = Duration::from_secs_f64(seconds / cycles as f64);
    let mut report = Report::default();
    let mut setups = Vec::new();
    // Per cycle: (scaled, unscaled) of each statistic.
    let (mut rate, mut p50, mut p99, mut per_object_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut gets = 0;
    for i in 0..cycles {
        let c = cycle(geom, &mut data, seed, i as u64, gets_for, None)?;
        report.attempted += c.attempted;
        report.failed += c.failed;
        for what in &c.check_failures {
            report.fail_check(what);
        }
        let n = c.gets.samples.len();
        if n == 0 || c.repair.objects_repaired == 0 {
            continue;
        }
        gets += n as u64;
        setups.push(c.setup);
        let both = |f: &dyn Fn(bool) -> f64| (f(true), f(false));
        rate.push(both(&|s| c.gets.ops_per_s(1, s)));
        p50.push(both(&|s| c.gets.latency_us(1, s, true, 0.5)));
        p99.push(both(&|s| c.gets.latency_us(1, s, true, 0.99)));
        let unscaled = c.repair_s * 1e6 / c.repair.objects_repaired as f64;
        per_object_us.push((unscaled * c.repair_host_factor, unscaled));
        eprintln!(
            "cycle {i}: setup {:.0} ms, detect {:.0} ms, {n} gets ({} degraded) p50 {:.1} p99 {:.1} us, \
             rebuild {:.1} MiB/s, host factor {:.3}",
            c.setup.wall_s * 1e3,
            median(&c.kill_to_dead_ms),
            c.gets.degraded_gets,
            p50[p50.len() - 1].0,
            p99[p99.len() - 1].0,
            rebuild_mib_per_s(&c),
            c.gets.speed.factor_overall()
        );
    }
    if setups.is_empty() {
        return Err("no cycle completed".to_string());
    }
    report_setup(&mut report, &setups);
    for (name, per_cycle, n) in [
        ("ops_per_s", &rate, gets),
        ("primary_p50_us", &p50, gets),
        ("primary_p99_us", &p99, gets),
        ("secondary_p50_us", &per_object_us, setups.len() as u64),
    ] {
        let scaled: Vec<f64> = per_cycle.iter().map(|v| v.0).collect();
        let unscaled: Vec<f64> = per_cycle.iter().map(|v| v.1).collect();
        report.set_scaled(name, median(&scaled), median(&unscaled), n);
    }
    Ok(report)
}
