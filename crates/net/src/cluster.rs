//! The kill-9 campaign behind `nsr cluster-inject`: starts N bricks as
//! child processes through the cluster harness
//! ([`LocalCluster`] on [`BrickHost::Processes`]), kill-9s victims on a
//! seeded [`FaultPlan`] schedule (plan hours scaled onto a wall-clock
//! axis), and verifies the erasure contract on real processes — zero
//! data loss at or below `t` concurrent failures, correct *typed* loss
//! above `t`. How a brick is started, silenced and brought back is the
//! harness's; this module owns the schedule, the phases and the verdict.
//!
//! Determinism contract: the campaign's verdict and loss signatures are
//! a pure function of `(plan, seed, bricks, objects)`. Everything that
//! could leak wall-clock timing into them is kept out: all layout-
//! affecting puts happen before the first kill for above-`t` plans,
//! victims are drawn from a seeded RNG, and timing measurements go to
//! `info` lines which are explicitly excluded from the replay
//! comparison.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use nsr_obs::{Json, Span};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};
use nsr_sim::faultinject::{FaultKind, FaultPlan};

use crate::detector::{Health, Transition};
use crate::error::Error;
use crate::gateway::ReadMode;
use crate::local::{loopback_config, BrickHost, LocalCluster, Pace};
use crate::workload::object_payload;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Brick daemons to spawn (≥ 4).
    pub bricks: usize,
    /// Plan name: `kill9-single` or `kill9-burst`.
    pub plan: String,
    /// Seed for victim selection, object contents and retry jitter.
    pub seed: u64,
    /// Objects written in the load phase.
    pub objects: usize,
    /// Size of each object.
    pub object_bytes: usize,
    /// Path to the `nsr` binary to spawn bricks from.
    pub brick_exe: PathBuf,
    /// Wall milliseconds per plan hour (schedule compression).
    pub ms_per_hour: u64,
    /// Connections per brick in the gateway pool.
    pub pool_size: usize,
    /// Verify-phase reader threads. Verify gets always run on spawned
    /// workers (even with one) so their spans have identical parentage
    /// at every worker count — part of the replay-determinism contract.
    pub workers: usize,
    /// Run bricks with tracing enabled and harvest their telemetry over
    /// the scrape path: victims are scraped immediately before each
    /// kill (kill -9 loses everything the scrape hasn't shipped) and
    /// every live brick at campaign end, yielding one JSONL part per
    /// brick *process* in [`CampaignOutcome::brick_parts`].
    pub obs: bool,
    /// Keep writing objects through the fault window on below-`t`
    /// plans. `false` freezes the object set before the first kill so
    /// the campaign's span tree is a pure function of the seed — the
    /// cross-process trace-determinism tests rely on it.
    pub fault_window_writes: bool,
}

impl ClusterConfig {
    /// Defaults for `bricks` bricks running `plan` under `seed`,
    /// spawning bricks from `brick_exe`.
    pub fn new(bricks: usize, plan: &str, seed: u64, brick_exe: PathBuf) -> Self {
        ClusterConfig {
            bricks,
            plan: plan.to_string(),
            seed,
            objects: 24,
            object_bytes: 4096,
            brick_exe,
            ms_per_hour: 100,
            pool_size: 2,
            workers: 1,
            obs: false,
            fault_window_writes: true,
        }
    }

    /// Erasure geometry for this brick count: `(k, t)` with `k + t + 1
    /// ≤ bricks` so at least one spare always exists for rebuild.
    pub fn geometry(&self) -> (usize, usize) {
        let t = if self.bricks >= 6 { 2 } else { 1 };
        let k = (self.bricks - t - 2).max(2);
        (k, t)
    }
}

/// Result of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Deterministic lines: identical across runs with the same
    /// `(plan, seed, bricks, objects)`. The first is the campaign
    /// header, then `verdict=…`, then one sorted `loss …` signature per
    /// lost object.
    pub verdict_lines: Vec<String>,
    /// Timing and progress stats — informational, excluded from replay
    /// comparison.
    pub info_lines: Vec<String>,
    /// Detection latencies (seconds) observed for kill-9'd bricks.
    pub detection_latencies_s: Vec<f64>,
    /// One `(label, jsonl)` telemetry part per brick *process* when
    /// [`ClusterConfig::obs`] is set: a synthesized meta line followed
    /// by the trace lines harvested over the scrape path. A brick id
    /// that was killed and restarted contributes two parts with
    /// generational labels (`brick-3`, then `brick-3-r1`).
    pub brick_parts: Vec<(String, String)>,
}

impl CampaignOutcome {
    /// All lines in display order, `info` lines prefixed so consumers
    /// comparing replays can filter on `^(campaign|verdict|loss)`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.verdict_lines {
            out.push_str(l);
            out.push('\n');
        }
        for l in &self.info_lines {
            out.push_str("info ");
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// Renders one harvested telemetry entry as a standalone JSONL trace
/// part: bricks stream raw trace lines over the scrape path (never a
/// finished dump with its own header), so the meta line is synthesized
/// here from the registry entry.
fn render_brick_part(t: &crate::gateway::BrickTelemetry) -> String {
    let mut out = Json::obj([
        ("schema", Json::Str("nsr-obs/v1".to_string())),
        ("kind", Json::Str("meta".to_string())),
        ("source", Json::Str("cluster-inject".to_string())),
        ("proc", Json::Str(t.label.clone())),
        ("proc_id", Json::Num(t.proc_id as f64)),
    ])
    .render_compact();
    out.push('\n');
    for line in &t.trace_lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The named live plans. Times are plan-hours; the campaign compresses
/// them by [`ClusterConfig::ms_per_hour`].
fn live_plan(name: &str) -> Result<FaultPlan, Error> {
    let plan = match name {
        // One kill while puts are in flight: below t, must be lossless.
        "kill9-single" => FaultPlan::builder()
            .at(1.0, FaultKind::NodeCrash)
            .horizon_hours(4.0)
            .build(),
        // Three near-simultaneous kills (spacing far below the
        // detection threshold): above t for the 6-brick geometry, must
        // produce typed loss on exactly the stripes that lost > t
        // shards.
        "kill9-burst" => FaultPlan::builder()
            .burst(1.0, 3, 0.001)
            .horizon_hours(4.0)
            .build(),
        other => {
            return Err(Error::InvalidConfig {
                what: format!("unknown cluster plan `{other}` (want kill9-single or kill9-burst)"),
            })
        }
    };
    plan.map_err(|e| Error::InvalidConfig {
        what: format!("plan construction failed: {e}"),
    })
}

/// Runs one kill-9 campaign end to end. See the module docs for the
/// phase structure and the determinism contract.
pub fn run_campaign(cfg: &ClusterConfig) -> Result<CampaignOutcome, Error> {
    let mut span = Span::enter("net.cluster.campaign");
    span.field("plan", {
        let plan = cfg.plan.clone();
        move || Json::Str(plan)
    });
    span.field("bricks", || Json::Num(cfg.bricks as f64));
    span.field("seed", || Json::Num(cfg.seed as f64));
    if cfg.bricks < 4 {
        return Err(Error::InvalidConfig {
            what: format!("need at least 4 bricks, got {}", cfg.bricks),
        });
    }
    let (k, t) = cfg.geometry();
    let plan = live_plan(&cfg.plan)?;
    let schedule: Vec<(f64, FaultKind)> = plan
        .scheduled_injections()
        .into_iter()
        .filter(|(_, kind)| *kind == FaultKind::NodeCrash)
        .collect();
    let started = Instant::now();
    let mut info = Vec::new();

    // --- Spawn phase -----------------------------------------------------
    // Fast detector pacing so the whole campaign stays in CI budget.
    let mut gw_cfg = loopback_config(k, t);
    gw_cfg.jitter_seed = cfg.seed;
    gw_cfg.pool_size = cfg.pool_size;
    let host = BrickHost::Processes {
        exe: cfg.brick_exe.clone(),
        obs: cfg.obs,
    };
    let mut cluster = LocalCluster::start_on(host, cfg.bricks, gw_cfg, Pace::Wall)?;
    let mut brick_parts: Vec<(String, String)> = Vec::new();
    info.push(format!(
        "spawned {} bricks in {:?}",
        cfg.bricks,
        started.elapsed()
    ));
    let mut transitions: Vec<Transition> = Vec::new();
    for _ in 0..8 {
        transitions.extend(cluster.pump());
    }

    // --- Load phase ------------------------------------------------------
    let above_t = schedule.len() > t;
    for id in 0..cfg.objects as u64 {
        cluster
            .gw
            .put(id, &object_payload(cfg.seed, id, cfg.object_bytes))?;
    }
    info.push(format!(
        "loaded {} objects in {:?}",
        cfg.objects,
        started.elapsed()
    ));

    // --- Fault phase -----------------------------------------------------
    // Victims drawn without replacement from a seeded RNG. For plans
    // above t the layout set is frozen (no concurrent puts) so the loss
    // set replays exactly; at or below t, puts stay active through the
    // kill to prove the lossless path under live writes. Victims due at
    // once are stopped with no pump between them, so a burst stays a
    // burst.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut alive: Vec<usize> = (0..cfg.bricks).collect();
    let mut victims: Vec<usize> = Vec::new();
    for _ in &schedule {
        let pick = rng.random_range_usize(0, alive.len());
        victims.push(alive.remove(pick));
    }
    // Fault-window writes are wall-clock paced (the while loop below
    // spins until the schedule says kill), so their count — and hence
    // the span tree — varies run to run. Replay-determinism campaigns
    // turn them off via the config flag.
    let live_writes = !above_t && cfg.fault_window_writes;
    let fault_t0 = Instant::now();
    let mut next_extra_object = 1_000_000u64;
    let mut put_extra = |cluster: &LocalCluster| {
        let object = next_extra_object;
        next_extra_object += 1;
        cluster
            .gw
            .put(object, &object_payload(cfg.seed, object, cfg.object_bytes))
    };
    for (&victim, (hours, _)) in victims.iter().zip(&schedule) {
        let due = Duration::from_millis((hours * cfg.ms_per_hour as f64) as u64);
        while fault_t0.elapsed() < due {
            if live_writes {
                put_extra(&cluster)?;
            }
            transitions.extend(cluster.pump());
        }
        if cfg.obs {
            // Last-chance harvest: kill -9 destroys everything the
            // scrape path hasn't shipped, and the registry entry must
            // not survive to pollute the brick id's next incarnation.
            cluster.gw.collect_scrapes(1 << 20);
            if let Some(t) = cluster.gw.take_collected(victim as u32) {
                brick_parts.push((t.label.clone(), render_brick_part(&t)));
            }
        }
        cluster.stop(victim)?;
        nsr_obs::trace::event("net.cluster.kill9", || {
            vec![("brick", Json::Num(victim as f64))]
        });
        if live_writes {
            // Keep writing straight through the failure window.
            put_extra(&cluster)?;
        }
    }
    info.push(format!("killed bricks {victims:?}"));

    // --- Settle phase: wait for detection --------------------------------
    transitions.extend(cluster.pump_until(&victims, Health::Dead, "campaign: wait for Dead")?);
    let is_victim = |brick: u32| victims.contains(&(brick as usize));
    let detection_latencies_s: Vec<f64> = transitions
        .iter()
        .filter(|tr| tr.to == Health::Dead && is_victim(tr.brick))
        .filter_map(|tr| tr.detection_latency_s)
        .collect();
    info.push(format!(
        "detection latencies {:?}",
        detection_latencies_s
            .iter()
            .map(|s| format!("{:.0}ms", s * 1e3))
            .collect::<Vec<_>>()
    ));

    // Expected loss, frozen at detection time: objects with more than t
    // shards on victim bricks. (For below-t plans this is empty by
    // construction.)
    let gw = &cluster.gw;
    let mut expected_lost: Vec<u64> = Vec::new();
    for id in gw.object_ids() {
        let overlap = gw
            .object_layout(id)
            .expect("committed object")
            .iter()
            .filter(|&&b| is_victim(b))
            .count();
        if overlap > t {
            expected_lost.push(id);
        }
    }

    // --- Rebuild phase ---------------------------------------------------
    let rebuild_t0 = Instant::now();
    let mut attempts = 0;
    let report = loop {
        attempts += 1;
        match gw.repair_all() {
            Ok(report) => break report,
            Err(Error::RebuildInterrupted { .. }) if attempts < 16 => {
                // A source died mid-transfer; let detection catch up and
                // resume from the per-shard checkpoint.
                cluster.pump();
            }
            Err(e) => return Err(e),
        }
    };
    info.push(format!(
        "rebuild moved {} shards ({} B) in {:?}, {} object(s) deferred (no spare)",
        report.shards_moved,
        report.bytes_moved,
        rebuild_t0.elapsed(),
        report.deferred_objects.len()
    ));

    // --- Rejoin phase: restart victims on fresh ports --------------------
    for &victim in &victims {
        cluster.restart(victim)?;
        nsr_obs::trace::event("net.cluster.restart", || {
            vec![("brick", Json::Num(victim as f64))]
        });
    }
    cluster.pump_until(&victims, Health::Healthy, "campaign: wait for Healthy")?;
    let gw = &cluster.gw;

    // --- Scrub phase -----------------------------------------------------
    // Rejoined bricks come back empty (adoption wipes stale shards) and
    // the rebuild pass may have deferred objects that had no spare while
    // the victims were down. A presence-driven scrub restores every
    // missing shard in place now that the full fleet is healthy.
    let scrub_t0 = Instant::now();
    let mut scrub_restored = 0u64;
    let mut scrub_attempts = 0;
    loop {
        scrub_attempts += 1;
        let report = gw.scrub_repair()?;
        scrub_restored += report.shards_moved;
        if report.deferred_objects.is_empty() {
            break;
        }
        if scrub_attempts >= 16 {
            return Err(Error::Protocol {
                what: format!(
                    "scrub could not restore objects {:?} with all bricks healthy",
                    report.deferred_objects
                ),
            });
        }
        cluster.pump();
    }
    info.push(format!(
        "scrub restored {scrub_restored} shard(s) in {:?}",
        scrub_t0.elapsed()
    ));

    // --- Verify phase ----------------------------------------------------
    // Reads always run on spawned worker threads, even with a single
    // worker: a worker thread has no open span, so every verify
    // `net.get` is a root span regardless of worker count — running
    // them inline would parent them under the campaign span and make
    // the merged trace depend on `workers`.
    type VerifyRead = (u64, Result<(Vec<u8>, ReadMode), Error>);
    let object_ids = gw.object_ids();
    let workers = cfg.workers.max(1);
    let chunk = object_ids.len().div_ceil(workers).max(1);
    let mut results: Vec<VerifyRead> = Vec::with_capacity(object_ids.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = object_ids
            .chunks(chunk)
            .map(|ids| s.spawn(move || ids.iter().map(|&id| (id, gw.get(id))).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            results.extend(h.join().expect("verify worker"));
        }
    });
    results.sort_by_key(|&(id, _)| id);
    let mut losses: Vec<(u64, usize, usize)> = Vec::new();
    let mut verified = 0u64;
    for (id, result) in results {
        match result {
            Ok((bytes, mode)) => {
                let expect = object_payload(cfg.seed, id, cfg.object_bytes);
                if bytes != expect {
                    return Err(Error::Protocol {
                        what: format!("obj{id} read back corrupt ({} bytes)", bytes.len()),
                    });
                }
                if mode != ReadMode::Healthy {
                    // Scrub finished with nothing deferred, so every
                    // surviving object must be back at full redundancy.
                    return Err(Error::Protocol {
                        what: format!("obj{id} still degraded after rebuild and scrub"),
                    });
                }
                verified += 1;
            }
            Err(Error::DataLoss {
                object,
                missing,
                tolerated,
            }) => losses.push((object, missing, tolerated)),
            Err(e) => return Err(e),
        }
    }
    losses.sort_unstable();
    let lost_ids: Vec<u64> = losses.iter().map(|&(id, _, _)| id).collect();
    if lost_ids != expected_lost {
        return Err(Error::Protocol {
            what: format!(
                "loss set mismatch: erasure math predicts {expected_lost:?}, cluster lost {lost_ids:?}"
            ),
        });
    }
    info.push(format!(
        "verified {verified} objects, total wall time {:?}",
        started.elapsed()
    ));

    // --- Final telemetry sweep -------------------------------------------
    // Every brick still standing (survivors plus rejoined generations)
    // ships the tail of its trace buffer; together with the pre-kill
    // harvests this yields one part per brick process that ever ran.
    if cfg.obs {
        gw.collect_scrapes(1 << 20);
        for t in gw.collected_telemetry().values() {
            brick_parts.push((t.label.clone(), render_brick_part(t)));
        }
    }

    // --- Verdict ---------------------------------------------------------
    let mut verdict_lines = vec![format!(
        "campaign plan={} seed={} bricks={} geometry={}+{} objects={}",
        cfg.plan, cfg.seed, cfg.bricks, k, t, cfg.objects
    )];
    verdict_lines.push(if losses.is_empty() {
        "verdict=NO-LOSS lost=0".to_string()
    } else {
        format!("verdict=LOSS lost={}", losses.len())
    });
    for (id, missing, tolerated) in &losses {
        verdict_lines.push(format!(
            "loss obj={id} missing={missing} tolerated={tolerated}"
        ));
    }
    nsr_obs::trace::event("net.cluster.verdict", || {
        vec![
            ("loss", Json::Bool(!losses.is_empty())),
            ("lost_objects", Json::Num(losses.len() as f64)),
        ]
    });
    span.field("lost_objects", || Json::Num(losses.len() as f64));
    Ok(CampaignOutcome {
        verdict_lines,
        info_lines: info,
        detection_latencies_s,
        brick_parts,
    })
}
