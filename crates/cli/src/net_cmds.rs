//! The networked-brick-store subcommands: `nsr brick` (a storage
//! daemon), `nsr gateway` (a striping gateway with live failure
//! detection and auto-repair), and `nsr cluster-inject` (the kill-9
//! fault campaign over real child processes).
//!
//! `brick` and `gateway` are long-running daemons, so unlike the
//! analytic commands they print progress to stdout as they go instead
//! of returning one final string.

use std::fmt::Write as _;
use std::io::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use nsr_net::brick::{BrickConfig, BrickServer};
use nsr_net::cluster::{run_campaign, ClusterConfig};
use nsr_net::detector::Health;
use nsr_net::gateway::{Gateway, GatewayConfig, RepairReport};

use crate::args::ParsedArgs;
use crate::{CliError, Result};

impl From<nsr_net::Error> for CliError {
    fn from(e: nsr_net::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Enables the observability layers for a long-running daemon and names
/// the process for cross-process trace stitching. Unlike the analytic
/// commands (which write artifacts on exit), daemons are harvested live
/// over the scrape path, so both layers stay on until the process dies.
fn enable_daemon_obs(label: &str) {
    nsr_obs::reset_metrics();
    let _ = nsr_obs::trace::drain();
    nsr_obs::set_metrics_enabled(true);
    nsr_obs::set_trace_enabled(true);
    nsr_net::obs::register();
    nsr_obs::set_trace_process(label);
}

/// `nsr brick --listen ADDR --id N [--obs] [--label L]`: binds,
/// announces `LISTENING <addr>` as the first stdout line (so a parent
/// that bound port 0 can learn the real port), then serves until a
/// shutdown frame or a kill. With `--obs` the brick records metrics and
/// spans under the process label `L` (default `brick-<id>`), all
/// harvestable over the wire via `Frame::Scrape`.
pub fn brick(args: &ParsedArgs) -> Result<String> {
    let listen = args.get_or("listen", String::from("127.0.0.1:0"))?;
    let id = args.get_or("id", 0u32)?;
    if args.has_flag("obs") {
        let label = args.get_or("label", format!("brick-{id}"))?;
        enable_daemon_obs(&label);
    }
    let server = BrickServer::bind(listen.as_str(), BrickConfig::new(id))?;
    // The announce line must reach the parent before the accept loop
    // blocks, so it is printed and flushed here, not returned.
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().ok();
    server.run()?;
    Ok(format!("brick {id} shut down\n"))
}

fn parse_brick_list(args: &ParsedArgs) -> Result<Vec<SocketAddr>> {
    let list = args
        .get::<String>("bricks")?
        .ok_or_else(|| CliError("--bricks a:port,b:port,... is required".into()))?;
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<SocketAddr>()
                .map_err(|_| CliError(format!("bad brick address '{s}'")))
        })
        .collect()
}

/// Serves `Frame::Scrape` requests about the *gateway* process: its own
/// metrics snapshot and trace delta, plus the cluster-status blob the
/// collector assembles from per-brick scrapes. One thread per
/// connection; anything other than a scrape gets a `BAD_REQUEST` reply.
fn serve_gateway_telemetry(
    listener: std::net::TcpListener,
    gw: std::sync::Arc<Gateway>,
    snap_seq: std::sync::Arc<std::sync::atomic::AtomicU64>,
) {
    use nsr_net::wire::{read_frame, reply_code, Frame};
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let gw = std::sync::Arc::clone(&gw);
        let snap_seq = std::sync::Arc::clone(&snap_seq);
        std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(&stream);
            loop {
                let frame = match read_frame(&mut reader) {
                    Ok(Some(f)) => f,
                    Ok(None) | Err(_) => return,
                };
                let reply = match frame {
                    Frame::Scrape { cursor, max_lines } => {
                        nsr_net::obs::SCRAPE_REQUESTS.inc();
                        let seq = snap_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                        let (label, proc_id) = nsr_obs::trace_process().unwrap_or_else(|| {
                            ("gateway".into(), nsr_obs::process_id_for("gateway"))
                        });
                        let (next_cursor, lines) = nsr_obs::trace_delta(cursor, max_lines as usize);
                        nsr_net::obs::SCRAPE_LINES.add(lines.len() as u64);
                        let mut trace = String::new();
                        for line in &lines {
                            trace.push_str(line);
                            trace.push('\n');
                        }
                        Frame::ScrapeReply {
                            proc_id,
                            snap_seq: seq,
                            next_cursor,
                            metrics: nsr_obs::metrics_jsonl(&label).into_bytes(),
                            label,
                            trace: trace.into_bytes(),
                            status: gw.telemetry_status().into_bytes(),
                        }
                    }
                    _ => Frame::ErrorReply {
                        code: reply_code::BAD_REQUEST,
                        detail: "telemetry port serves scrapes only".into(),
                    },
                };
                if (&stream).write_all(&reply.encode()).is_err() {
                    return;
                }
            }
        });
    }
}

/// `nsr gateway --bricks a,b,c [--data K --parity T] [--rounds N]
/// [--telemetry ADDR]`: connects to running bricks, writes a few demo
/// objects, then watches — each round pumps heartbeats, prints health
/// transitions, auto-repairs after deaths (`RepairRound`: onto spares,
/// then a scrub once a rejoined brick is adopted), and proves the data is
/// still readable. `--rounds 0` (the default) runs until killed; the README
/// quickstart drives this against two bricks and a kill -9.
///
/// `--telemetry ADDR` turns the gateway into a scrapeable process: it
/// enables metrics + tracing under the label `gateway`, binds a
/// listener that answers `Frame::Scrape` (announced as
/// `TELEMETRY <addr>` on stdout), and runs the collector each round so
/// per-brick snapshots merge into the labeled cluster registry that
/// `nsr top` reads.
pub fn gateway(args: &ParsedArgs) -> Result<String> {
    let addrs = parse_brick_list(args)?;
    let data = args.get_or("data", 2usize)?;
    let parity = args.get_or("parity", 1usize)?;
    let rounds = args.get_or("rounds", 0u64)?;
    let demo_objects = args.get_or("objects", 4u64)?;
    let telemetry = args.get::<String>("telemetry")?;
    if telemetry.is_some() {
        enable_daemon_obs("gateway");
    }
    let gw = std::sync::Arc::new(Gateway::connect(addrs, GatewayConfig::new(data, parity))?);
    if let Some(addr) = &telemetry {
        let listener = std::net::TcpListener::bind(addr.as_str())
            .map_err(|e| CliError(format!("binding telemetry listener on {addr}: {e}")))?;
        println!(
            "TELEMETRY {}",
            listener
                .local_addr()
                .map_err(|e| CliError(format!("telemetry local_addr: {e}")))?
        );
        // Detached on purpose: with --rounds N the serving loop returns
        // while scrape connections may still be open; the thread dies
        // with the process.
        let gw = std::sync::Arc::clone(&gw);
        let snap_seq = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::spawn(move || serve_gateway_telemetry(listener, gw, snap_seq));
    }
    println!(
        "gateway up: {} bricks, geometry {data}+{parity} (tolerates {parity} failure(s))",
        gw.brick_count()
    );
    for _ in 0..8 {
        gw.pump_heartbeats();
        std::thread::sleep(Duration::from_millis(100));
    }
    for id in 0..demo_objects {
        let payload: Vec<u8> = (0..1024u64)
            .map(|i| ((i * 31 + id * 7) % 251) as u8)
            .collect();
        gw.put(id, &payload)?;
        println!("put obj{id} ({} bytes)", payload.len());
    }
    std::io::stdout().flush().ok();

    let mut round = 0u64;
    let mut repairs = RepairRound::default();
    // The last repair report printed: a round that would print the same
    // (an object deferred round after round) prints nothing.
    let mut repaired = String::new();
    loop {
        round += 1;
        if telemetry.is_some() {
            // Collector pass: fold every brick's metrics snapshot and
            // trace delta into the labeled cluster registry.
            gw.collect_scrapes(4096);
        }
        for tr in gw.pump_heartbeats() {
            let lat = tr
                .detection_latency_s
                .map(|s| format!(" ({:.0} ms after last beat)", s * 1e3))
                .unwrap_or_default();
            println!(
                "brick {} {} -> {}{lat}",
                tr.brick,
                tr.from.name(),
                tr.to.name()
            );
        }
        let (report, _) = repairs.run(&gw);
        if report != repaired {
            print!("{report}");
            repaired = report;
        }
        if round.is_multiple_of(10) {
            let mut readable = 0usize;
            let ids = gw.object_ids();
            let total = ids.len();
            for id in ids {
                if gw.get(id).is_ok() {
                    readable += 1;
                }
            }
            let health: Vec<String> = gw
                .health_summary()
                .into_iter()
                .map(|(id, h)| format!("{id}:{}", h.name()))
                .collect();
            println!(
                "status: {readable}/{total} objects readable; {}",
                health.join(" ")
            );
        }
        std::io::stdout().flush().ok();
        if rounds > 0 && round >= rounds {
            return Ok(format!("gateway exiting after {round} round(s)\n"));
        }
        std::thread::sleep(Duration::from_millis(500));
    }
}

/// The daemon round's repair step: re-replicates what failed bricks held
/// onto spares, adopts rejoined bricks as spares, and scrubs once it has
/// adopted one. Adoption wipes a brick, so until the scrub every layout
/// that names it is one failure closer to loss; the scrub also restores
/// the objects an earlier repair deferred for want of a spare. What a
/// scrub defers waits for the next adoption.
///
/// A repair pass that finished leaves the bricks' health as it found it
/// but for its own `Dead → Rebuilding` marks. Until that health changes
/// a second pass could only re-plan and re-defer the same objects, so
/// the round skips it and reports what the pass left unrepaired, which
/// is what the second pass would report. An interrupted pass is retried
/// the next round, and a round with no failed brick forgets the pass.
#[derive(Default)]
struct RepairRound {
    /// The health a finished repair pass left, and the lines naming what
    /// it could not make whole.
    settled: Option<(Vec<(u32, Health)>, String)>,
}

impl RepairRound {
    /// One round's repair step: the lines it reports, and whether it ran
    /// a repair pass.
    fn run(&mut self, gw: &Gateway) -> (String, bool) {
        let mut out = String::new();
        let health = gw.health_summary();
        let failed = health
            .iter()
            .any(|(_, h)| matches!(h, Health::Dead | Health::Rebuilding));
        let settled = self
            .settled
            .as_ref()
            .filter(|(seen, _)| failed && *seen == health);
        let pass = failed && settled.is_none();
        if let Some((_, unrepaired)) = settled {
            out.push_str(unrepaired);
        } else if failed {
            self.settled = None;
            match gw.repair_all() {
                Ok(report) => {
                    if report.shards_moved > 0 {
                        let _ = writeln!(
                            out,
                            "repair: moved {} shard(s), {} B, {} object(s) back to full redundancy",
                            report.shards_moved, report.bytes_moved, report.objects_repaired
                        );
                    }
                    let mut unrepaired = String::new();
                    report_unrepaired(&mut unrepaired, "repair", &report);
                    out.push_str(&unrepaired);
                    self.settled = Some((gw.health_summary(), unrepaired));
                }
                Err(e) => {
                    let _ = writeln!(out, "repair deferred: {e}");
                }
            }
        } else {
            self.settled = None;
        }
        let adopted = gw.adopt_rejoined();
        for id in &adopted {
            let _ = writeln!(out, "brick {id} rejoined as a spare");
        }
        if !adopted.is_empty() {
            match gw.scrub_repair() {
                Ok(report) => {
                    let _ = writeln!(out, "scrub: restored {} shard(s)", report.shards_moved);
                    report_unrepaired(&mut out, "scrub", &report);
                }
                Err(e) => {
                    let _ = writeln!(out, "scrub deferred: {e}");
                }
            }
        }
        (out, pass)
    }
}

/// The lines naming what a repair or scrub pass could not make whole.
fn report_unrepaired(out: &mut String, pass: &str, report: &RepairReport) {
    if !report.deferred_objects.is_empty() {
        let _ = writeln!(
            out,
            "{pass}: objects {:?} deferred (still readable, not yet whole)",
            report.deferred_objects
        );
    }
    if !report.lost_objects.is_empty() {
        let _ = writeln!(
            out,
            "{pass}: objects {:?} beyond repair",
            report.lost_objects
        );
    }
}

/// `nsr workload [--objects N --object-bytes B --ops N --read-pct P
/// --dist zipfian|uniform --theta F --seed S --bricks N --data K
/// --parity T]`: a YCSB-style serving benchmark over an in-process
/// loopback cluster. Runs [`nsr_net::workload::serving_run`] — the
/// same seeded op stream through three cluster states: healthy,
/// degraded (one brick killed and declared dead), and rebuilding
/// (repair running concurrently with serving) — and reports per-phase
/// throughput plus p50/p95/p99 op latencies. The op streams are a pure
/// function of `(seed, phase)`, so two runs with the same arguments
/// issue identical key/op sequences.
pub fn workload(args: &ParsedArgs) -> Result<String> {
    use nsr_net::local::loopback_config;
    use nsr_net::workload::{serving_run, KeyDist, WorkloadSpec};

    let spec = WorkloadSpec {
        objects: args.get_or("objects", 64u64)?,
        object_bytes: args.get_or("object-bytes", 64 * 1024usize)?,
        ops: args.get_or("ops", 400usize)?,
        read_pct: args.get_or("read-pct", 95u32)?,
        dist: match args.get_or("dist", String::from("zipfian"))?.as_str() {
            "zipfian" => KeyDist::Zipfian {
                theta: args.get_or("theta", 0.99f64)?,
            },
            "uniform" => KeyDist::Uniform,
            other => {
                return Err(CliError(format!(
                    "unknown --dist '{other}' (expected zipfian or uniform)"
                )))
            }
        },
        seed: args.get_or("seed", 42u64)?,
    };
    let brick_count = args.get_or("bricks", 4usize)?;
    let data_shards = args.get_or("data", 2usize)?;
    let parity_shards = args.get_or("parity", 1usize)?;
    let mut cfg = loopback_config(data_shards, parity_shards);
    cfg.jitter_seed = spec.seed;
    let run = serving_run(&spec, brick_count, cfg)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload: {} objects x {} B, {} ops/phase, {}% reads, {} dist, seed {}",
        spec.objects,
        spec.object_bytes,
        spec.ops,
        spec.read_pct,
        match spec.dist {
            KeyDist::Zipfian { theta } => format!("zipfian(theta={theta})"),
            KeyDist::Uniform => "uniform".to_string(),
        },
        spec.seed
    );
    let _ = writeln!(
        out,
        "cluster: {brick_count} bricks, geometry {data_shards}+{parity_shards}"
    );
    for (name, s) in run.phases() {
        let us = |v: f64| v * 1e6;
        let _ = writeln!(
            out,
            "{name:<11} {:>8.1} MiB/s {:>8.0} ops/s  {} get / {} put / {} degraded  \
             get p50={:.1}us p95={:.1}us p99={:.1}us  put p50={:.1}us p99={:.1}us",
            s.mib_per_sec(),
            s.ops_per_sec(),
            s.gets,
            s.puts,
            s.degraded_gets,
            us(s.get_percentile_s(0.50)),
            us(s.get_percentile_s(0.95)),
            us(s.get_percentile_s(0.99)),
            us(s.put_percentile_s(0.50)),
            us(s.put_percentile_s(0.99)),
        );
    }
    let _ = match &run.repair {
        Ok(report) => writeln!(
            out,
            "repair: moved {} shard(s), {} B, {} object(s) repaired",
            report.shards_moved, report.bytes_moved, report.objects_repaired
        ),
        Err(e) => writeln!(out, "repair deferred: {e}"),
    };
    Ok(out)
}

/// `nsr cluster-inject --bricks N --plan NAME --seed S [--pool-size P]
/// [--workers W] [--obs-dir DIR] [--no-fault-writes]`: the live kill-9
/// campaign. Spawns `N` brick child processes (from this same binary),
/// loads objects, kill-9s victims on the plan's seeded schedule, waits
/// for detection, rebuilds onto spares, restarts the victims, and
/// verifies every object — zero loss at or below `t` concurrent
/// failures, typed loss above. The verdict lines are a pure function of
/// `(plan, seed, bricks, objects)`.
///
/// With `--obs-dir` the campaign runs fully traced: bricks spawn with
/// `--obs` and generational labels, victims are scraped right before
/// each kill, and the directory receives one JSONL part per process
/// (`gateway.jsonl`, `brick-N[.rG].jsonl`), the merged
/// `cluster.canonical.jsonl` causal tree, and a filtered
/// `loss-objN.jsonl` view per loss event. `--no-fault-writes` freezes
/// the object set before the first kill so the merged span tree is
/// byte-identical at any `--pool-size`/`--workers`.
pub fn cluster_inject(args: &ParsedArgs) -> Result<String> {
    let bricks = args.get_or("bricks", 6usize)?;
    let plan = args.get_or("plan", String::from("kill9-single"))?;
    let seed = args.get_or("seed", 42u64)?;
    let exe = std::env::current_exe()
        .map_err(|e| CliError(format!("cannot locate own binary to spawn bricks: {e}")))?;
    let mut cfg = ClusterConfig::new(bricks, &plan, seed, exe);
    cfg.objects = args.get_or("objects", cfg.objects)?;
    cfg.object_bytes = args.get_or("object-bytes", cfg.object_bytes)?;
    cfg.ms_per_hour = args.get_or("ms-per-hour", cfg.ms_per_hour)?;
    cfg.pool_size = args.get_or("pool-size", cfg.pool_size)?;
    cfg.workers = args.get_or("workers", cfg.workers)?;
    if args.has_flag("no-fault-writes") {
        cfg.fault_window_writes = false;
    }
    let obs_dir = args.get::<String>("obs-dir")?;
    if let Some(dir) = &obs_dir {
        std::fs::create_dir_all(dir)?;
        cfg.obs = true;
        enable_daemon_obs("gateway");
    }
    let campaign_result = run_campaign(&cfg);
    // The gateway's own part is rendered *here*, not inside the
    // campaign: the campaign span only closes when run_campaign
    // returns, and rendering earlier would leave dangling parent links.
    let gateway_part = obs_dir
        .as_ref()
        .map(|_| nsr_obs::trace_jsonl("cluster-inject"));
    if obs_dir.is_some() {
        nsr_obs::set_metrics_enabled(false);
        nsr_obs::set_trace_enabled(false);
    }
    let outcome = campaign_result?;
    let mut out = outcome.render();
    if let Some(dir) = &obs_dir {
        let gateway_part = gateway_part.expect("rendered above");
        out.push_str(&write_cluster_artifacts(
            dir,
            &gateway_part,
            &outcome.brick_parts,
            &outcome.verdict_lines,
        )?);
    }
    finish_cluster_output(&mut out, &outcome);
    Ok(out)
}

/// Appends the detection-latency summary to a campaign's rendered
/// output.
fn finish_cluster_output(out: &mut String, outcome: &nsr_net::cluster::CampaignOutcome) {
    if !outcome.detection_latencies_s.is_empty() {
        let mut lat = outcome.detection_latencies_s.clone();
        lat.sort_by(f64::total_cmp);
        let p = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize] * 1e3;
        let _ = writeln!(
            out,
            "info detection latency p50={:.0}ms p99={:.0}ms",
            p(0.5),
            p(0.99)
        );
    }
}

/// Writes the per-process trace parts, the stitched canonical tree, and
/// the per-loss filtered views for a traced campaign. Returns the
/// `wrote …` summary lines for stdout.
fn write_cluster_artifacts(
    dir: &str,
    gateway_part: &str,
    brick_parts: &[(String, String)],
    verdict_lines: &[String],
) -> Result<String> {
    let dirp = std::path::Path::new(dir);
    std::fs::write(dirp.join("gateway.jsonl"), gateway_part)?;
    for (label, part) in brick_parts {
        std::fs::write(dirp.join(format!("{label}.jsonl")), part)?;
    }
    let mut parts: Vec<&str> = vec![gateway_part];
    parts.extend(brick_parts.iter().map(|(_, p)| p.as_str()));
    nsr_obs::validate_cluster_links(&parts)
        .map_err(|e| CliError(format!("cross-process span links: {e}")))?;
    let canonical = nsr_obs::canonical_cluster_jsonl(&parts)
        .map_err(|e| CliError(format!("stitching cluster trace: {e}")))?;
    std::fs::write(dirp.join("cluster.canonical.jsonl"), &canonical)?;
    let mut out = format!(
        "info wrote {dir}/cluster.canonical.jsonl ({} parts, {} records)\n",
        parts.len(),
        canonical.lines().count()
    );
    // One filtered causal view per loss event: canonical span paths
    // carry their full ancestry, so the per-object lines remain a
    // readable tree on their own.
    for line in verdict_lines {
        let Some(rest) = line.strip_prefix("loss obj=") else {
            continue;
        };
        let Some(id) = rest.split_whitespace().next() else {
            continue;
        };
        let needle = format!("\"object\":{id}");
        let view: String = canonical
            .lines()
            .filter(|l| l.contains(&needle))
            .map(|l| format!("{l}\n"))
            .collect();
        let path = dirp.join(format!("loss-obj{id}.jsonl"));
        std::fs::write(&path, view)?;
        let _ = writeln!(out, "info wrote {}", path.display());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use nsr_net::local::{LocalCluster, Pace};

    use super::*;

    /// Two failures one at a time at 1+1: the round after brick 0 comes
    /// back must leave every object whole again, so losing brick 1 next
    /// loses nothing. Adopting the rejoined brick wipes it; without a
    /// scrub every layout still names an empty brick 0.
    #[test]
    fn a_round_that_adopts_a_brick_restores_redundancy_before_the_next_failure() {
        let mut c = LocalCluster::start(2, GatewayConfig::new(1, 1), Pace::Mock).expect("cluster");
        for _ in 0..10 {
            c.pump();
        }
        let objects: Vec<Vec<u8>> = (0..4u8).map(|id| vec![id; 1024]).collect();
        for (id, data) in objects.iter().enumerate() {
            c.gw.put(id as u64, data).expect("put");
        }
        c.kill(0).expect("brick 0 dead");
        let mut repairs = RepairRound::default();
        let (first, _) = repairs.run(&c.gw);
        assert!(
            first.contains("repair: objects [0, 1, 2, 3] deferred"),
            "{first}"
        );
        c.restart(0).expect("restart");
        let mut rounds = 0;
        while c.gw.health_summary()[0].1 != Health::Rejoined {
            rounds += 1;
            assert!(rounds < 32, "brick 0 never rejoined");
            c.pump();
        }
        let (second, _) = repairs.run(&c.gw);
        assert_eq!(
            second,
            "brick 0 rejoined as a spare\nscrub: restored 4 shard(s)\n"
        );
        c.stop(1).expect("stop brick 1");
        for (id, data) in objects.iter().enumerate() {
            let (got, _) = c.gw.get(id as u64).expect("get after the second failure");
            assert_eq!(&got, data, "object {id}");
        }
    }

    /// A brick that stays dead is repaired once, not every round: with
    /// no spare at 1+1 a second pass could only re-defer the same
    /// objects. When the health changes — the brick back and adopted,
    /// then dead again — the round repairs again.
    #[test]
    fn a_repair_pass_runs_once_per_change_of_health() {
        let mut c = LocalCluster::start(2, GatewayConfig::new(1, 1), Pace::Mock).expect("cluster");
        for _ in 0..10 {
            c.pump();
        }
        let objects: Vec<Vec<u8>> = (0..4u8).map(|id| vec![id; 1024]).collect();
        for (id, data) in objects.iter().enumerate() {
            c.gw.put(id as u64, data).expect("put");
        }
        let deferred = "repair: objects [0, 1, 2, 3] deferred (still readable, not yet whole)\n";
        c.kill(0).expect("brick 0 dead");
        let mut repairs = RepairRound::default();
        let mut passes = 0;
        for round in 0..6 {
            c.pump();
            let (report, pass) = repairs.run(&c.gw);
            passes += usize::from(pass);
            // What the one pass deferred, every round, as a rerun would say.
            assert_eq!(report, deferred, "round {round}");
        }
        assert_eq!(passes, 1);

        c.restart(0).expect("restart");
        let mut rounds = 0;
        while c.gw.health_summary()[0].1 != Health::Rejoined {
            rounds += 1;
            assert!(rounds < 32, "brick 0 never rejoined");
            c.pump();
        }
        let (report, pass) = repairs.run(&c.gw);
        assert!(!pass, "no brick is failed");
        assert_eq!(
            report,
            "brick 0 rejoined as a spare\nscrub: restored 4 shard(s)\n"
        );
        for (id, data) in objects.iter().enumerate() {
            assert_eq!(c.gw.object_layout(id as u64).expect("layout").len(), 2);
            let (got, _) = c.gw.get(id as u64).expect("get after the scrub");
            assert_eq!(&got, data, "object {id}");
        }

        c.kill(0).expect("brick 0 dead again");
        let (report, pass) = repairs.run(&c.gw);
        assert!(pass, "the health changed: {report}");
        assert_eq!(report, deferred);
        let (report, pass) = repairs.run(&c.gw);
        assert!(!pass);
        assert_eq!(report, deferred);
    }
}
