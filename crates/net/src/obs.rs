//! Metric handles for the networked brick store.
//!
//! All of these are no-ops until `nsr_obs::set_metrics_enabled(true)`.
//! Instrumentation sits on request boundaries and health transitions —
//! never inside the per-byte socket loops.

use std::time::Instant;

use nsr_obs::{Counter, Gauge, Histogram};

/// Frames served by brick daemons (any request kind).
pub static BRICK_REQUESTS: Counter = Counter::new("net.brick.requests");
/// Gateway puts that committed (metadata installed).
pub static PUTS: Counter = Counter::new("net.gateway.puts");
/// Gateway gets that returned object bytes (healthy or degraded).
pub static GETS: Counter = Counter::new("net.gateway.gets");
/// Gets that needed erasure reconstruction (≥ 1 data shard unreachable).
pub static DEGRADED_GETS: Counter = Counter::new("net.gateway.degraded_gets");
/// Gets that failed with typed data loss (> t shards unavailable).
pub static LOSS_GETS: Counter = Counter::new("net.gateway.loss_gets");
/// Transient shard-op failures that triggered a backoff + retry.
pub static RETRIES: Counter = Counter::new("net.gateway.retries");
/// Pool checkouts served by an already-connected slot.
pub static POOL_REUSES: Counter = Counter::new("net.pool.reuses");
/// Pool checkouts that had to dial a fresh connection.
pub static POOL_RECONNECTS: Counter = Counter::new("net.pool.reconnects");
/// Gateway put latency in seconds, observed by the serving workload.
pub static SERVING_PUT_S: Histogram = Histogram::new("net.serving.put_s");
/// Gateway get latency in seconds, observed by the serving workload.
pub static SERVING_GET_S: Histogram = Histogram::new("net.serving.get_s");
/// Bricks currently in the `Healthy` state.
pub static HEALTHY_BRICKS: Gauge = Gauge::new("net.detect.healthy_bricks");
/// Bricks the detector has declared dead over the process lifetime.
pub static DEATHS: Counter = Counter::new("net.detect.deaths");
/// Killed bricks that came back and were re-adopted as spares.
pub static REJOINS: Counter = Counter::new("net.detect.rejoins");
/// Seconds from last heartbeat of a brick to its `Dead` declaration.
pub static DETECT_LATENCY_S: Histogram = Histogram::new("net.detect.latency_s");
/// Shards re-replicated onto spares by the rebuild coordinator.
pub static REBUILD_SHARDS: Counter = Counter::new("net.rebuild.shards_moved");
/// Bytes moved by the rebuild coordinator.
pub static REBUILD_BYTES: Counter = Counter::new("net.rebuild.bytes_moved");
/// Rebuild passes interrupted by a mid-transfer source death.
pub static REBUILD_INTERRUPTED: Counter = Counter::new("net.rebuild.interrupted");
/// Batched rounds run by rebuild and scrub: one per fetch or store round
/// of a window (one [`Frame::Batch`](crate::wire::Frame::Batch) per brick).
pub static REBUILD_ROUNDS: Counter = Counter::new("net.rebuild.rounds");
/// Seconds per repaired object spent fetching source shards (rebuild and
/// scrub: the batched round plus any per-shard retries).
pub static REBUILD_FETCH_S: Histogram = Histogram::new("net.rebuild.fetch_s");
/// Seconds per repaired object spent in erasure reconstruction.
pub static REBUILD_RECONSTRUCT_S: Histogram = Histogram::new("net.rebuild.reconstruct_s");
/// Seconds per repaired object spent writing the re-created shards to
/// their spares (rebuild) or layout bricks (scrub).
pub static REBUILD_PUT_S: Histogram = Histogram::new("net.rebuild.put_s");
/// Seconds per repaired object spent committing: layout update under
/// the metadata lock, checkpoint, counters and trace events.
pub static REBUILD_COMMIT_S: Histogram = Histogram::new("net.rebuild.commit_s");
/// Telemetry scrapes served by this process (brick or gateway).
pub static SCRAPE_REQUESTS: Counter = Counter::new("net.scrape.requests");
/// Trace lines shipped in scrape replies by this process.
pub static SCRAPE_LINES: Counter = Counter::new("net.scrape.lines");
/// Per-brick scrapes merged into the gateway's cluster registry.
pub static SCRAPES_COLLECTED: Counter = Counter::new("net.scrape.collected");

/// Registers every metric in this module with the global registry.
pub fn register() {
    BRICK_REQUESTS.register();
    PUTS.register();
    GETS.register();
    DEGRADED_GETS.register();
    LOSS_GETS.register();
    RETRIES.register();
    POOL_REUSES.register();
    POOL_RECONNECTS.register();
    SERVING_PUT_S.register();
    SERVING_GET_S.register();
    HEALTHY_BRICKS.register();
    DEATHS.register();
    REJOINS.register();
    DETECT_LATENCY_S.register();
    REBUILD_SHARDS.register();
    REBUILD_BYTES.register();
    REBUILD_INTERRUPTED.register();
    REBUILD_ROUNDS.register();
    REBUILD_FETCH_S.register();
    REBUILD_RECONSTRUCT_S.register();
    REBUILD_PUT_S.register();
    REBUILD_COMMIT_S.register();
    SCRAPE_REQUESTS.register();
    SCRAPE_LINES.register();
    SCRAPES_COLLECTED.register();
}

/// The phases of a rebuild or scrub window, in the order it runs them.
#[derive(Clone, Copy)]
pub(crate) enum Phase {
    Fetch,
    Reconstruct,
    Put,
    Commit,
}

/// The phase clock of one rebuild or scrub window. The objects of a
/// window share each round, so the time of each phase is summed over the
/// window and split evenly over the objects it repaired: the
/// `net.rebuild.*_s` histograms keep their unit, seconds per repaired
/// object. With metrics disabled no clock is read.
pub(crate) struct WindowLaps {
    lap: Option<Instant>,
    secs: [f64; 4],
}

impl WindowLaps {
    pub(crate) fn start() -> WindowLaps {
        WindowLaps {
            lap: nsr_obs::metrics_timer(),
            secs: [0.0; 4],
        }
    }

    /// Adds the seconds since the last lap to `phase`.
    pub(crate) fn lap(&mut self, phase: Phase) {
        if let Some(t0) = &mut self.lap {
            let now = Instant::now();
            self.secs[phase as usize] += now.duration_since(*t0).as_secs_f64();
            *t0 = now;
        }
    }

    /// Observes each phase's share once per object the window repaired.
    pub(crate) fn finish(&self, repaired: u64) {
        if self.lap.is_none() || repaired == 0 {
            return;
        }
        let phases = [
            &REBUILD_FETCH_S,
            &REBUILD_RECONSTRUCT_S,
            &REBUILD_PUT_S,
            &REBUILD_COMMIT_S,
        ];
        for (phase, secs) in phases.into_iter().zip(self.secs) {
            for _ in 0..repaired {
                phase.observe(secs / repaired as f64);
            }
        }
    }
}
