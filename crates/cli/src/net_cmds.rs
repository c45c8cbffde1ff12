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
use nsr_net::gateway::{Gateway, GatewayConfig};

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
/// transitions, auto-repairs after deaths, and proves the data is still
/// readable. `--rounds 0` (the default) runs until killed; the README
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
        let failed: Vec<u32> = gw
            .health_summary()
            .into_iter()
            .filter(|&(_, h)| matches!(h, Health::Dead | Health::Rebuilding))
            .map(|(id, _)| id)
            .collect();
        if !failed.is_empty() {
            match gw.repair_all() {
                Ok(report) if report.shards_moved > 0 => {
                    println!(
                        "repair: moved {} shard(s), {} B, {} object(s) back to full redundancy",
                        report.shards_moved, report.bytes_moved, report.objects_repaired
                    );
                }
                Ok(report) => {
                    if !report.lost_objects.is_empty() {
                        println!("repair: objects {:?} beyond repair", report.lost_objects);
                    }
                }
                Err(e) => println!("repair deferred: {e}"),
            }
        }
        for rejoined in gw.adopt_rejoined() {
            println!("brick {rejoined} rejoined as a spare");
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
