//! The gateway: stripes objects across brick daemons with the
//! `nsr-erasure` Reed–Solomon codec, serves puts and gets through a
//! pipelined shard fan-out over pooled per-brick connections (one
//! outstanding request per brick, replies assembled in shard-index
//! order so results are deterministic by construction), routes reads
//! around dead bricks (degraded reconstruction from any `k'` healthy
//! shards), retries transient transport faults with capped exponential
//! backoff plus seeded jitter, and runs the failure detector + rebuild
//! coordinator that re-replicates a dead brick's shards onto spares.
//!
//! Every data request the gateway sends goes through one call, a round
//! (`Gateway::round`, the gateway's only call to
//! [`ConnectionPool::fanout_ahead`]): a list of `(brick, DataRequest)`
//! pairs, each brick's requests sent in one write — a brick named once
//! gets the bare request, one named more than once a
//! [`Frame::Batch`](crate::wire::Frame::Batch) — then each reply read
//! into where the caller says, in request order, with a bounded number
//! of bricks' requests on the wire ahead of the reply being read. A get
//! is one round of `GetShard`s and a put one of `PutShard`s, one per
//! layout brick, so every brick gets a bare request; only a get of large
//! shards bounds its read-ahead, every other round sends all at once.
//!
//! A round settles every request it is given and returns one result per
//! request. What the batched send missed takes the per-request retry
//! path inside the round: the same `DataRequest`, alone, through the
//! same writer, its reply read by the same receive, under the retry
//! policy. A store the round did not land is retried whatever it saw, a
//! fetch only when it missed in transit; a delete is best effort and
//! gets one attempt. The fallback reads (a get's spare parity, a
//! repair's spare sources) are rounds of one, and every clean-up delete
//! is a round without trace context.
//!
//! Fan-out determinism contract: the round never changes *what* a
//! request returns, only how many are in flight. With `fanout: false` in
//! [`GatewayConfig`] a round sends nothing batched and every request
//! takes the retry path, serially and in order — the reference the
//! fan-out must match — and results are assembled by index either way.
//!
//! Rebuild and scrub work through objects in windows (up to
//! `REPAIR_WINDOW_BYTES` of stripe buffers, at most
//! `REPAIR_WINDOW_OBJECTS` objects): a window's fetches go out as one
//! round, one batch per source brick, and its rebuilt shards as one more
//! round, one batch per spare (scrub: per layout brick). A round is a few
//! wake-ups of each brick for the whole window instead of one per shard.
//! The commits — layout, checkpoint, report, trace events — stay per
//! object, in object order, each only after that object's writes have
//! settled, strictly in lost-position order and only up to the first
//! failed write. The window is cut at the first object that cannot
//! complete; every shard the store round landed past that point is taken
//! back. That is why `RepairReport`, `export_meta()`, every brick's
//! shards and the resumable checkpoint are what the serial path (one
//! object per window, nothing sent in rounds) produces, and why seeded
//! campaign replays stay byte-identical with fan-out enabled.
//!
//! Copy budget: a fetched shard goes from its socket straight to where
//! it is needed. A fetch lands in a caller-supplied buffer; `get`
//! reserves its result once and appends each data shard to it in
//! position order, so a healthy result is never zero-filled. A data
//! position the batched send missed is zero-filled once a later one
//! lands, and its retry lands in its slice; a degraded `get` rebuilds
//! only the missing *data* positions, directly into their slices
//! (parity gets scratch buffers, and only once a data brick is out of
//! reach). A get of shards at least
//! the socket read buffer's size keeps one brick's request ahead of the
//! reply it reads, so at most two replies are in flight. Rebuild and
//! scrub land shards in owned per-position buffers, one set per window
//! slot, kept from window to window, and write them back from the same
//! buffers. There is no
//! per-shard `Vec` and no concatenation anywhere on the read path (DESIGN
//! §3h has the before/after count).
//!
//! Code width: an object of `n` bytes is cut into `data_shards_for(n,
//! k)` data shards — one per whole page, at least one, at most the
//! configured `k` — plus the same `t` parity shards, so no shard is
//! smaller than a page and a one-page object is `t + 1` copies. The width
//! is not stored: every path reads it back as `layout.len() − t`.
//!
//! Consistency model: an object's metadata (length + shard layout) is
//! committed only after every shard of a put has been acknowledged, so
//! a gateway or brick crash mid-put can never produce a torn object —
//! the put either committed (fully readable) or never happened. Rebuild
//! commits metadata per *shard*, which is what makes an interrupted
//! rebuild resumable: completed moves are already durable in the layout
//! and are never redone.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nsr_erasure::rs::ReedSolomon;
use nsr_obs::{Counter, Json, Span, SpanContext};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

use crate::client::BrickClient;
use crate::clock::{Clock, WallClock};
use crate::detector::{DetectorConfig, FailureDetector, Health, Transition};
use crate::error::Error;
use crate::obs;
use crate::pool::ConnectionPool;
use crate::wire::{DataRequest, IO_READ_BUF_LEN, MAX_BATCH_LEN, MAX_SHARD_LEN};

/// Capped exponential backoff with jitter for transient transport
/// faults.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts before the budget is exhausted (≥ 1).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Cap on the exponentially growing delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(80),
        }
    }
}

/// Gateway tuning.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Data shards of the widest object (`k`): an object narrower than
    /// `k` pages is cut one way per whole page (see [`data_shards_for`]).
    pub data_shards: usize,
    /// Parity shards per object (`t` — the tolerated concurrent
    /// failures).
    pub parity_shards: usize,
    /// Per-socket connect/read/write deadline.
    pub timeout: Duration,
    /// Backoff policy for transient shard-op failures.
    pub retry: RetryPolicy,
    /// Failure-detector thresholds.
    pub detector: DetectorConfig,
    /// Seed for retry jitter (campaign runs pin this for replay).
    pub jitter_seed: u64,
    /// Connections kept per brick. The pipelined fan-out uses one lane;
    /// extra lanes serve concurrent callers without head-of-line
    /// blocking.
    pub pool_size: usize,
    /// Serve put/get and run rebuild/scrub through the pipelined shard
    /// fan-out fast path. `false` forces the serial per-shard reference
    /// path the fan-out must match byte-for-byte (the property tests
    /// compare the two).
    pub fanout: bool,
}

impl GatewayConfig {
    /// A `k`-data / `t`-parity config with default timeouts.
    pub fn new(data_shards: usize, parity_shards: usize) -> Self {
        GatewayConfig {
            data_shards,
            parity_shards,
            timeout: Duration::from_millis(500),
            retry: RetryPolicy::default(),
            detector: DetectorConfig::default(),
            jitter_seed: 0,
            pool_size: 2,
            fanout: true,
        }
    }
}

/// Per-object metadata: committed layout and sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object length in bytes (shards carry zero padding past this).
    pub len: u64,
    /// Length of each shard.
    pub shard_len: u32,
    /// Brick id holding shard `pos`, for `pos` in `0..k' + t`, where
    /// `k'` is the object's own data width.
    pub layout: Vec<u32>,
}

/// Outcome of a [`Gateway::repair_all`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Shards re-replicated onto spares in this pass.
    pub shards_moved: u64,
    /// Bytes moved in this pass.
    pub bytes_moved: u64,
    /// Objects brought back to full redundancy.
    pub objects_repaired: u64,
    /// Shards already moved by earlier (interrupted) passes of the same
    /// rebuild generation — the checkpoint this pass resumed from.
    pub resumed_from: u64,
    /// Objects that could not be repaired because more than `t` of
    /// their shards are on failed bricks (typed loss, surfaced by
    /// `get` as [`Error::DataLoss`]).
    pub lost_objects: Vec<u64>,
    /// Objects still recoverable (≤ `t` shards lost) whose lost shards
    /// could not all be re-replicated because fewer healthy bricks
    /// outside their layout exist than shards needing new homes. They
    /// stay degraded-readable; repair them once a brick rejoins (see
    /// [`Gateway::scrub_repair`]).
    pub deferred_objects: Vec<u64>,
}

/// How a completed read was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// All data shards came straight from their bricks.
    Healthy,
    /// At least one shard was unavailable; the object was erasure-
    /// reconstructed from `k'` surviving shards.
    Degraded,
}

/// One brick's telemetry as accumulated by the gateway's scrape
/// collector: the latest metrics snapshot plus every trace line shipped
/// so far (the per-brick cursor guarantees no replay).
#[derive(Debug, Clone, Default)]
pub struct BrickTelemetry {
    /// Stable id of the brick process (from its scrape replies).
    pub proc_id: u64,
    /// The brick's process label (e.g. `brick-3`).
    pub label: String,
    /// Snapshot sequence after the most recent scrape.
    pub snap_seq: u64,
    /// Trace cursor to resume the next scrape from.
    pub cursor: u64,
    /// Latest full metrics snapshot, JSONL.
    pub metrics: String,
    /// Accumulated trace lines across every scrape, oldest first.
    pub trace_lines: Vec<String>,
}

/// Cap on accumulated per-brick trace lines in the collector registry.
const COLLECT_TRACE_CAP: usize = 1 << 16;

/// Stripe-buffer bytes one repair or scrub window may hold: the objects
/// of a window share one batched fetch round and one batched store
/// round. 2 MiB is ~24 objects of 64 KiB at 6+2 and one of 1 MiB.
const REPAIR_WINDOW_BYTES: usize = 2 << 20;

/// Most objects in one repair or scrub window, whatever their size.
const REPAIR_WINDOW_OBJECTS: usize = 32;

/// A round's read-ahead with no bound: every request is on the wire
/// before the first reply is read. Puts, repair, scrub and gets of
/// shards that fit the socket read buffer go so.
const ALL_AT_ONCE: usize = usize::MAX;

/// A get's read-ahead once its shards are at least `IO_READ_BUF_LEN`,
/// the size the reader lands straight from the socket: the reply being
/// read and one brick ahead of it. Sent all at once, six 171 KiB replies
/// wait in socket buffers and leave the cache before the first is
/// copied. Pinned to one CPU, depth 1 and 2 read alike; with the bricks
/// free to run beside the gateway, depth 1 waits through each brick in
/// turn and reads ~25 % slower than all at once, depth 2 about as fast.
/// Off the pin a bounded round's p99 suffers more in minutes of host
/// CPU steal (EXPERIMENTS §Bounded read-ahead, "Depth 1 against
/// depth 2, off the pin").
const LARGE_GET_DEPTH: usize = 2;

/// Bytes of one page: no object is cut into data shards smaller than
/// this.
pub const PAGE_BYTES: usize = 4096;

/// Data shards of a `len`-byte object on a gateway whose widest code has
/// `k`: one per whole page of the object, at least one and at most `k`.
/// A shard below a page costs a brick round trip for less than a page of
/// data; a one-page object is stored as `t + 1` copies instead (the
/// `(1, t)` Reed–Solomon generator is all ones).
pub fn data_shards_for(len: usize, k: usize) -> usize {
    (len / PAGE_BYTES).clamp(1, k)
}

/// A striping gateway over a fixed set of brick daemons.
pub struct Gateway {
    cfg: GatewayConfig,
    /// One codec per data width: `codecs[w - 1]` is `w + t`.
    codecs: Vec<ReedSolomon>,
    pool: ConnectionPool,
    detector: Mutex<FailureDetector>,
    meta: Mutex<BTreeMap<u64, ObjectMeta>>,
    rng: Mutex<StdRng>,
    hb_seq: AtomicU64,
    rebuild_checkpoint: AtomicU64,
    collected: Mutex<BTreeMap<u32, BrickTelemetry>>,
}

impl Gateway {
    /// Creates a gateway over `bricks` (brick id = index) using real
    /// wall-clock time for failure detection.
    pub fn connect(bricks: Vec<SocketAddr>, cfg: GatewayConfig) -> Result<Gateway, Error> {
        Self::with_clock(bricks, cfg, Arc::new(WallClock::new()))
    }

    /// Creates a gateway with an explicit [`Clock`] (tests inject a
    /// mock; `connect` uses the wall clock).
    pub fn with_clock(
        bricks: Vec<SocketAddr>,
        cfg: GatewayConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Gateway, Error> {
        let r = cfg.data_shards + cfg.parity_shards;
        if bricks.len() < r {
            return Err(Error::InvalidConfig {
                what: format!(
                    "{} bricks cannot hold a {}+{} stripe",
                    bricks.len(),
                    cfg.data_shards,
                    cfg.parity_shards
                ),
            });
        }
        // The widest first: a geometry it refuses is refused as configured.
        let widest = ReedSolomon::new(cfg.data_shards, cfg.parity_shards)?;
        let mut codecs = (1..cfg.data_shards)
            .map(|k| ReedSolomon::new(k, cfg.parity_shards))
            .collect::<Result<Vec<_>, _>>()?;
        codecs.push(widest);
        let detector = FailureDetector::new(clock, cfg.detector.clone(), 0..bricks.len() as u32);
        let pool = ConnectionPool::new(bricks, cfg.timeout, cfg.pool_size);
        let rng = StdRng::seed_from_u64(cfg.jitter_seed);
        Ok(Gateway {
            cfg,
            codecs,
            pool,
            detector: Mutex::new(detector),
            meta: Mutex::new(BTreeMap::new()),
            rng: Mutex::new(rng),
            hb_seq: AtomicU64::new(0),
            rebuild_checkpoint: AtomicU64::new(0),
            collected: Mutex::new(BTreeMap::new()),
        })
    }

    /// Shards of the widest object (`k + t`).
    pub fn redundancy(&self) -> usize {
        self.cfg.data_shards + self.cfg.parity_shards
    }

    /// Concurrent brick failures the code tolerates (`t`).
    pub fn tolerated(&self) -> usize {
        self.cfg.parity_shards
    }

    /// The code of an object whose layout is `width` bricks wide: `width
    /// − t` data shards and `t` parity.
    fn codec(&self, width: usize) -> &ReedSolomon {
        &self.codecs[width - self.tolerated() - 1]
    }

    /// Number of bricks the gateway addresses.
    pub fn brick_count(&self) -> usize {
        self.pool.len()
    }

    /// Replaces the address of brick `id` (a killed brick restarts on a
    /// fresh port) and drops any cached connection to the old address.
    pub fn set_brick_addr(&self, id: u32, addr: SocketAddr) {
        self.pool.set_addr(id, addr);
    }

    /// Current health of every brick, in id order.
    pub fn health_summary(&self) -> Vec<(u32, Health)> {
        let det = self.detector.lock().expect("detector lock");
        (0..self.pool.len() as u32)
            .map(|id| (id, det.health(id).expect("tracked brick")))
            .collect()
    }

    /// Committed object ids, ascending.
    pub fn object_ids(&self) -> Vec<u64> {
        self.meta
            .lock()
            .expect("meta lock")
            .keys()
            .copied()
            .collect()
    }

    /// The committed shard layout of `object` (brick id per position).
    pub fn object_layout(&self, object: u64) -> Option<Vec<u32>> {
        self.meta
            .lock()
            .expect("meta lock")
            .get(&object)
            .map(|m| m.layout.clone())
    }

    /// Probes every brick once, feeds arrivals to the failure detector,
    /// and evaluates silence thresholds. Returns the health transitions
    /// this round caused, in brick-id order. Drive this from a loop —
    /// the `nsr gateway` daemon uses a background thread, the cluster
    /// harness its control loop (which is what keeps campaign replays
    /// deterministic).
    pub fn pump_heartbeats(&self) -> Vec<Transition> {
        let seq = self.hb_seq.fetch_add(1, Ordering::SeqCst);
        let mut alive = Vec::new();
        for id in 0..self.pool.len() as u32 {
            if let Ok(ack) = self.shard_op(id, "heartbeat", |c| c.heartbeat(seq)) {
                alive.push((id, ack.snap_seq));
            }
        }
        let mut det = self.detector.lock().expect("detector lock");
        let mut transitions = Vec::new();
        for (id, snap_seq) in alive {
            transitions.extend(det.heartbeat(id));
            // Piggybacked scrape-staleness signal: no extra RTT.
            det.note_snapshot(id, snap_seq);
        }
        transitions.extend(det.tick());
        transitions
    }

    /// One collector round: scrapes every brick that answers and merges
    /// the snapshots into the labeled cluster registry, resuming each
    /// brick's trace stream from its stored cursor. Returns the brick
    /// ids scraped this round. Scrapes ride the same pooled connections
    /// as data traffic and carry no trace context — telemetry transport
    /// must not perturb the causal tree it reports.
    pub fn collect_scrapes(&self, max_lines: u32) -> Vec<u32> {
        let mut scraped = Vec::new();
        for id in 0..self.pool.len() as u32 {
            let cursor = self
                .collected
                .lock()
                .expect("collected lock")
                .get(&id)
                .map(|t| t.cursor)
                .unwrap_or(0);
            let Ok(snap) = self.shard_op(id, "scrape", |c| c.scrape(cursor, max_lines)) else {
                continue;
            };
            obs::SCRAPES_COLLECTED.inc();
            let mut reg = self.collected.lock().expect("collected lock");
            let entry = reg.entry(id).or_default();
            entry.proc_id = snap.proc_id;
            entry.label = snap.label;
            entry.snap_seq = snap.snap_seq;
            entry.cursor = snap.next_cursor;
            entry.metrics = snap.metrics;
            entry
                .trace_lines
                .extend(snap.trace.lines().map(str::to_string));
            if entry.trace_lines.len() > COLLECT_TRACE_CAP {
                let excess = entry.trace_lines.len() - COLLECT_TRACE_CAP;
                entry.trace_lines.drain(..excess);
            }
            scraped.push(id);
        }
        scraped
    }

    /// The collector's merged per-brick registry (cloned snapshot),
    /// keyed by brick id.
    pub fn collected_telemetry(&self) -> BTreeMap<u32, BrickTelemetry> {
        self.collected.lock().expect("collected lock").clone()
    }

    /// Removes and returns one brick's accumulated telemetry. The
    /// campaign harness harvests a victim's entry right before killing
    /// it: the kill loses the process's own buffers, and the entry must
    /// not bleed into the fresh process that later reuses the brick id
    /// (its trace cursor restarts at zero).
    pub fn take_collected(&self, id: u32) -> Option<BrickTelemetry> {
        self.collected.lock().expect("collected lock").remove(&id)
    }

    /// Renders the gateway's cluster-status blob for scrape replies: one
    /// JSONL record per brick with detector health, the piggybacked
    /// snapshot sequence/age, and the collected process label. This is
    /// what `nsr top` folds into its per-brick rows.
    pub fn telemetry_status(&self) -> String {
        let det = self.detector.lock().expect("detector lock");
        let reg = self.collected.lock().expect("collected lock");
        let mut out = String::new();
        for id in 0..self.pool.len() as u32 {
            let health = det.health(id).map(Health::name).unwrap_or("untracked");
            let mut pairs = vec![
                ("kind", Json::Str("brick_status".into())),
                ("brick", Json::Num(id as f64)),
                ("health", Json::Str(health.into())),
            ];
            if let Some(age) = det.snapshot_age_s(id) {
                pairs.push(("snap_age_s", Json::Num(age)));
            }
            if let Some(seq) = det.snapshot_seq(id) {
                pairs.push(("snap_seq", Json::Num(seq as f64)));
            }
            if let Some(t) = reg.get(&id) {
                pairs.push(("label", Json::Str(t.label.clone())));
            }
            out.push_str(&Json::obj(pairs).render_compact());
            out.push('\n');
        }
        out
    }

    /// Re-admits rejoined bricks as spares: wipes any stale shards they
    /// still hold (best effort; a kill-9'd in-memory brick comes back
    /// empty anyway) and marks them healthy. Returns the adopted ids.
    pub fn adopt_rejoined(&self) -> Vec<u32> {
        let rejoined: Vec<u32> = self
            .health_summary()
            .into_iter()
            .filter(|&(_, h)| h == Health::Rejoined)
            .map(|(id, _)| id)
            .collect();
        let mut adopted = Vec::new();
        for id in rejoined {
            if let Ok(entries) = self.shard_op(id, "list_shards", |c| c.list_shards()) {
                self.delete_shards(entries.into_iter().map(|shard| (id, shard)));
            }
            if self
                .detector
                .lock()
                .expect("detector lock")
                .adopt_spare(id)
                .is_some()
            {
                adopted.push(id);
            }
        }
        adopted
    }

    /// Stores `data` as `object`, erasure-coded across `k' + t` healthy
    /// bricks, `k'` being [`data_shards_for`] its length. Metadata
    /// commits only after every shard is acknowledged; then the shards of
    /// an older version that the new layout does not overwrite are
    /// deleted, best effort.
    ///
    /// # Errors
    ///
    /// [`Error::ObjectTooLarge`] — before anything is encoded or sent —
    /// when a shard of `data` would exceed [`MAX_SHARD_LEN`]; otherwise
    /// the transport and placement errors of the fan-out.
    pub fn put(&self, object: u64, data: &[u8]) -> Result<(), Error> {
        let max = self.cfg.data_shards.saturating_mul(MAX_SHARD_LEN);
        if data.len() > max {
            return Err(Error::ObjectTooLarge {
                len: data.len(),
                max,
            });
        }
        let mut span = Span::enter("net.put");
        span.field("object", || Json::Num(object as f64));
        span.field("bytes", || Json::Num(data.len() as f64));
        // Parity buffers are reused across this thread's puts: steady-
        // state serving re-encodes into the same allocation instead of
        // paying an allocate-and-zero per object.
        PARITY_SCRATCH.with(|cell| self.put_inner(object, data, &mut cell.borrow_mut()))
    }

    fn put_inner(&self, object: u64, data: &[u8], scratch: &mut Vec<Vec<u8>>) -> Result<(), Error> {
        // Captured once, on the thread holding the open `net.put` span:
        // fan-out closures may run after the pool reorders work, and the
        // serial retry path redials connections, so every shard request
        // re-announces this same context.
        let ctx = nsr_obs::current_context();
        let mut excluded: BTreeSet<u32> = BTreeSet::new();
        let (shards, shard_len) = self.encode_object(data, scratch)?;
        let r = shards.len();
        // Every brick that fails all its retries mid-put is excluded and
        // the whole put restarted on a fresh layout — up to three layouts
        // before the error propagates.
        for _layout_attempt in 0..3 {
            let healthy: Vec<u32> = self
                .detector
                .lock()
                .expect("detector lock")
                .healthy()
                .into_iter()
                .filter(|id| !excluded.contains(id))
                .collect();
            if healthy.len() < r {
                return Err(Error::InsufficientBricks {
                    need: r,
                    have: healthy.len(),
                });
            }
            let layout = rotate_pick(&healthy, object, r);
            let stores: Vec<(u32, DataRequest<'_>)> = (0..r)
                .map(|at| {
                    let (pos, data) = (at as u32, shards[at].as_ref());
                    (layout[at], DataRequest::PutShard { object, pos, data })
                })
                .collect();
            // Every shard request goes out before any reply is awaited;
            // a position that misses (stale connection, fresh death)
            // is retried alone inside the round.
            let stored = self.round(&stores, ctx, None, ALL_AT_ONCE, |_, c| c.recv_put_reply());
            if let Some((_, err)) = first_failure(&stored) {
                // Metadata never committed: scrub the orphan shards (best
                // effort, every one that landed) and rule every brick whose
                // store failed out of the next layout.
                self.delete_shards(landed(&stores, &stored));
                let failed = layout.iter().zip(&stored).filter(|(_, res)| res.is_err());
                excluded.extend(failed.map(|(brick, _)| *brick));
                if excluded.len() + r > self.brick_count() {
                    return Err(err);
                }
                continue;
            }
            let meta = ObjectMeta {
                len: data.len() as u64,
                shard_len,
                layout: layout.clone(),
            };
            let old = self.meta.lock().expect("meta lock").insert(object, meta);
            // The old version's shards this put did not overwrite:
            // positions past the new width, and positions whose brick
            // changed, deleted in one round, best effort. A dead brick is
            // skipped; adoption wipes it before it serves again.
            if let Some(old) = old.filter(|old| old.layout != layout) {
                let readable = self.readable(&old.layout);
                let stale = (0..old.layout.len())
                    .filter(|&at| readable[at] && layout.get(at) != Some(&old.layout[at]))
                    .map(|at| (old.layout[at], (object, at as u32)));
                self.delete_shards(stale);
            }
            obs::PUTS.inc();
            return Ok(());
        }
        Err(Error::RetriesExhausted {
            op: "put",
            attempts: 3,
            last: "three shard layouts failed".to_string(),
        })
    }

    /// Reads `object`, reconstructing from any `k'` of its shards when
    /// bricks are down (`k'` is the object's own data width). Returns the
    /// bytes and whether the read was degraded.
    pub fn get(&self, object: u64) -> Result<(Vec<u8>, ReadMode), Error> {
        let mut span = Span::enter("net.get");
        span.field("object", || Json::Num(object as f64));
        let ctx = nsr_obs::current_context();
        let meta = self
            .meta
            .lock()
            .expect("meta lock")
            .get(&object)
            .cloned()
            .ok_or(Error::ObjectNotFound { object })?;
        let r = meta.layout.len();
        let k = r - self.tolerated();
        let readable = self.readable(&meta.layout);
        // The result is reserved once, k' whole shards wide (the tail
        // shard's padding is cut off at the end), and never zero-filled
        // on a healthy read: the round reads the data shards in position
        // order and appends each to it. A data position still missing
        // when a later one lands is zero-filled, and its retry — or, if
        // its brick is gone, its rebuild — lands straight in its slice.
        // Parity lands in scratch buffers that exist only once a read
        // needs them.
        let shard_len = meta.shard_len as usize;
        let mut out: Vec<u8> = Vec::with_capacity(k * shard_len);
        let mut parity: Vec<Vec<u8>> = vec![Vec::new(); r - k];
        let mut present = vec![false; r];
        let depth = if shard_len >= IO_READ_BUF_LEN {
            LARGE_GET_DEPTH
        } else {
            ALL_AT_ONCE
        };
        // Fetches `positions` (ascending) in one round, marks those that
        // landed and returns their number.
        let mut fetch = |positions: &[usize]| {
            for &pos in positions.iter().filter(|&&pos| pos >= k) {
                parity[pos - k] = vec![0u8; shard_len];
            }
            let requests: Vec<(u32, DataRequest<'_>)> = positions
                .iter()
                .map(|&at| {
                    let pos = at as u32;
                    (meta.layout[at], DataRequest::GetShard { object, pos })
                })
                .collect();
            // A data shard is appended after zero-filling any position
            // before it that missed; a retry of a position that a later
            // one has passed lands in its slice.
            let fetched = self.round(&requests, ctx, None, depth, |i, c| {
                let (pos, request) = (positions[i], requests[i].1);
                let at = pos * shard_len;
                if pos >= k {
                    recv_fetch(c, request, &mut parity[pos - k])
                } else if out.len() <= at {
                    out.resize(at, 0);
                    let (object, pos) = request.shard();
                    c.recv_shard_append(request.name(), object, pos, &mut out, shard_len)
                } else {
                    recv_fetch(c, request, &mut out[at..at + shard_len])
                }
            });
            out.resize(k * shard_len, 0);
            for (res, &pos) in fetched.iter().zip(positions) {
                present[pos] = res.is_ok();
            }
            fetched.iter().filter(|res| res.is_ok()).count()
        };
        // Every readable data position (a healthy read needs nothing
        // else), plus just enough readable parity to reach k when data
        // bricks are known-unreadable.
        let mut wanted: Vec<usize> = (0..k).filter(|&pos| readable[pos]).collect();
        let need = k - wanted.len();
        wanted.extend((k..r).filter(|&pos| readable[pos]).take(need));
        let mut have = fetch(&wanted);
        // A wanted shard that stayed unavailable through its retries is
        // made up from the remaining readable parity, one at a time.
        for pos in (k..r).filter(|&pos| readable[pos] && !wanted.contains(&pos)) {
            if have >= k {
                break;
            }
            have += fetch(&[pos]);
        }
        let lost_data: Vec<usize> = (0..k).filter(|&pos| !present[pos]).collect();
        if !lost_data.is_empty() {
            if have < k {
                let missing = r - have;
                obs::LOSS_GETS.inc();
                span.field("outcome", || Json::Str("loss".into()));
                return Err(Error::DataLoss {
                    object,
                    missing,
                    tolerated: self.tolerated(),
                });
            }
            // Only the data: parity this read never fetched stays unbuilt.
            let mut stripe = data_and_parity(&mut out, &mut parity, shard_len);
            self.rebuild_shards(&mut stripe, &present, &lost_data)?;
            obs::DEGRADED_GETS.inc();
            nsr_obs::trace::event("net.get.degraded", || {
                vec![
                    ("object", Json::Num(object as f64)),
                    ("shards_present", Json::Num(have as f64)),
                ]
            });
        }
        out.truncate(meta.len as usize);
        obs::GETS.inc();
        let mode = if lost_data.is_empty() {
            ReadMode::Healthy
        } else {
            ReadMode::Degraded
        };
        Ok((out, mode))
    }

    /// Re-replicates every shard stranded on dead bricks onto healthy
    /// spares. Metadata commits per shard, so progress survives both an
    /// interrupted pass and a coordinator restart (see
    /// [`export_meta`](Self::export_meta)): a rerun resumes from the
    /// committed layout instead of shard 0.
    ///
    /// Objects are repaired in windows of up to 2 MiB of stripe buffers
    /// and at most 32 objects: the
    /// source shards of a whole window are fetched in one batched round,
    /// its rebuilt shards stored in another, and each object committed in
    /// object order. What a pass leaves behind — result or error, layout,
    /// checkpoint, every brick's shards — is what repairing one object
    /// at a time leaves.
    ///
    /// # Errors
    ///
    /// * [`Error::RebuildInterrupted`] when a source or spare brick
    ///   dies mid-transfer (it was healthy when the pass planned the
    ///   move but stopped serving before it completed). The checkpoint
    ///   is kept; pump heartbeats and call again to resume.
    ///
    /// An object whose lost shards outnumber the healthy bricks outside
    /// its layout is *not* an error: it is reported in
    /// [`RepairReport::deferred_objects`] and stays degraded-readable
    /// until a brick rejoins.
    pub fn repair_all(&self) -> Result<RepairReport, Error> {
        let mut span = Span::enter("net.rebuild");
        let ctx = nsr_obs::current_context();
        let failed: Vec<u32> = {
            let mut det = self.detector.lock().expect("detector lock");
            let failed = det.failed();
            for &b in &failed {
                det.mark_rebuilding(b);
            }
            failed
        };
        let resumed_from = self.rebuild_checkpoint.load(Ordering::SeqCst);
        let mut report = RepairReport {
            resumed_from,
            ..RepairReport::default()
        };
        if failed.is_empty() {
            return Ok(report);
        }
        span.field("failed_bricks", || Json::Num(failed.len() as f64));
        span.field("resumed_from", || Json::Num(resumed_from as f64));
        // Only objects with a shard on a failed brick need this pass.
        let objects: Vec<(u64, ObjectMeta)> = self
            .meta
            .lock()
            .expect("meta lock")
            .iter()
            .filter(|(_, m)| m.layout.iter().any(|b| failed.contains(b)))
            .map(|(&id, m)| (id, m.clone()))
            .collect();
        let mut window = Window::new(self.cfg.fanout);
        for (id, m) in objects {
            let r = m.layout.len();
            let k = r - self.tolerated();
            let lost: Vec<usize> = (0..r)
                .filter(|&pos| failed.contains(&m.layout[pos]))
                .collect();
            if lost.len() > self.tolerated() {
                report.lost_objects.push(id);
                continue;
            }
            // Ascending, so membership is a binary search.
            let healthy: Vec<u32> = self.detector.lock().expect("detector lock").healthy();
            // Plan the reads: sources the detector believes can serve.
            let sources: Vec<usize> = (0..r)
                .filter(|pos| !lost.contains(pos) && healthy.binary_search(&m.layout[*pos]).is_ok())
                .collect();
            if sources.len() < k {
                // Not an interruption — the detector already knows these
                // bricks are gone, the object is simply beyond repair
                // (and beyond t, else `lost` would have caught it).
                report.lost_objects.push(id);
                continue;
            }
            // Plan the writes before fetching anything: each lost
            // position needs its own healthy brick outside the layout.
            // With many concurrent deaths every survivor may already
            // hold a shard of this object — then there is nowhere to
            // re-replicate to, but the object is still readable (lost
            // ≤ t), so defer it rather than fail the whole pass.
            let spares: Vec<u32> = healthy
                .iter()
                .copied()
                .filter(|b| !m.layout.contains(b))
                .collect();
            if spares.len() < lost.len() {
                report.deferred_objects.push(id);
                continue;
            }
            // Consecutive offsets modulo the spare count: distinct
            // spares per lost position, rotated by id for balance.
            let targets: Vec<u32> = (0..lost.len())
                .map(|i| spares[(id as usize + i) % spares.len()])
                .collect();
            if window.is_full_before(&m) {
                self.repair_window(&mut window, &mut report, &mut span, ctx)?;
            }
            window.push(id, m, sources, lost, targets);
        }
        self.repair_window(&mut window, &mut report, &mut span, ctx)?;
        // Bricks with no remaining layout references are fully drained.
        let meta = self.meta.lock().expect("meta lock");
        let referenced: BTreeSet<u32> = meta
            .values()
            .flat_map(|m| m.layout.iter().copied())
            .collect();
        drop(meta);
        let mut det = self.detector.lock().expect("detector lock");
        for &b in &failed {
            if !referenced.contains(&b) {
                det.finish_rebuilding(b);
            }
        }
        drop(det);
        // A clean pass closes the rebuild generation.
        self.rebuild_checkpoint.store(0, Ordering::SeqCst);
        span.field("shards_moved", || Json::Num(report.shards_moved as f64));
        Ok(report)
    }

    /// Repairs the objects of one window and empties it: one round of
    /// fetches over their primary sources, then — object by object — a
    /// round of one per spare source while a fetch is short, and the
    /// reconstruct; one round of stores onto the spares, then — object by
    /// object, in order — the commit. The window is cut at the first
    /// object that cannot complete: the objects before it commit, nothing
    /// of it or after it does, and every shard the store round landed
    /// past the cut is deleted again, exactly as if the objects had been
    /// repaired one at a time.
    fn repair_window(
        &self,
        window: &mut Window,
        report: &mut RepairReport,
        span: &mut Span,
        ctx: Option<SpanContext>,
    ) -> Result<(), Error> {
        if window.plans.is_empty() {
            return Ok(());
        }
        let t = self.tolerated();
        let mut laps = obs::WindowLaps::start();
        let Window { plans, bufs, .. } = &mut *window;
        let wanted: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(j, plan)| plan.sources[..plan.k(t)].iter().map(move |&pos| (j, pos)))
            .collect();
        let requests: Vec<(u32, DataRequest<'_>)> =
            wanted.iter().map(|&(j, pos)| plans[j].fetch(pos)).collect();
        let fetched = self.round(
            &requests,
            ctx,
            Some(&obs::REBUILD_ROUNDS),
            ALL_AT_ONCE,
            |i, c| {
                let (j, pos) = wanted[i];
                recv_fetch(c, requests[i].1, &mut bufs[j][pos])
            },
        );
        let mut fetched = wanted.iter().zip(fetched);
        // Object by object: the spare sources, then reconstruct.
        // `complete` objects go on to the store round; `cut` is what
        // stopped the next one.
        let mut cut: Option<Cut> = None;
        let mut complete = 0;
        for (j, plan) in plans.iter().enumerate() {
            let k = plan.k(t);
            let mut present = vec![false; plan.meta.layout.len()];
            for (&(_, pos), res) in fetched.by_ref().take(k) {
                present[pos] = res.is_ok();
            }
            // Any shortfall walks the remaining sources one at a time.
            let mut have = present.iter().filter(|&&p| p).count();
            for &pos in &plan.sources[k..] {
                if have >= k {
                    break;
                }
                let source = [plan.fetch(pos)];
                let res = self.round(&source, ctx, None, ALL_AT_ONCE, |_, c| {
                    recv_fetch(c, source[0].1, &mut bufs[j][pos])
                });
                if res[0].is_ok() {
                    present[pos] = true;
                    have += 1;
                }
            }
            laps.lap(obs::Phase::Fetch);
            if have < k {
                // Planned sources stopped serving mid-transfer.
                cut = Some(Cut::Interrupted);
                break;
            }
            let rebuilt = self.rebuild_shards(&mut stripe(&mut bufs[j]), &present, &plan.lost);
            laps.lap(obs::Phase::Reconstruct);
            if let Err(e) = rebuilt {
                cut = Some(Cut::Failed(e));
                break;
            }
            complete += 1;
        }
        let plans = &plans[..complete];
        let stores: Vec<(u32, DataRequest<'_>)> = plans
            .iter()
            .zip(bufs.iter())
            .flat_map(|(plan, bufs)| plan.stores(bufs))
            .collect();
        let stored = self.round(
            &stores,
            ctx,
            Some(&obs::REBUILD_ROUNDS),
            ALL_AT_ONCE,
            |_, c| c.recv_put_reply(),
        );
        laps.lap(obs::Phase::Put);
        let mut repaired = 0;
        // Each object's writes are `stores[from..to]`.
        let mut from = 0;
        for plan in plans {
            let (id, lost, targets) = (plan.id, &plan.lost, &plan.targets);
            let to = from + lost.len();
            let failure = first_failure(&stored[from..to]);
            // Per-shard commit, strictly in lost-position order and only
            // up to the first failed write: each new home is durable in
            // the layout immediately, exactly as the serial path leaves
            // it.
            let committed = failure.as_ref().map_or(lost.len(), |&(at, _)| at);
            for (&pos, &spare) in lost.iter().zip(targets).take(committed) {
                self.commit_move(id, pos, spare, plan.meta.shard_len as u64, report);
            }
            laps.lap(obs::Phase::Commit);
            if let Some((at, err)) = failure {
                // Shards the store round landed past the failed write, of
                // this object or a later one, were never committed; the
                // serial path would not have kept them, so delete them
                // (best effort).
                let past = from + at + 1;
                self.delete_shards(landed(&stores[past..], &stored[past..]));
                cut = Some(match err {
                    // The chosen spare died between health snapshot and
                    // transfer — same interruption semantics as a source
                    // death.
                    Error::Io { .. } | Error::Timeout { .. } | Error::RetriesExhausted { .. } => {
                        Cut::Interrupted
                    }
                    e => Cut::Failed(e),
                });
                break;
            }
            from = to;
            repaired += 1;
        }
        report.objects_repaired += repaired;
        laps.finish(repaired);
        window.clear();
        match cut {
            None => Ok(()),
            // The checkpoint in the error is the one the commits left.
            Some(Cut::Interrupted) => Err(self.interrupted(span)),
            Some(Cut::Failed(e)) => Err(e),
        }
    }

    /// Books one shard moved to `spare`: the layout under the metadata
    /// lock, the checkpoint, the report, counters and the trace event.
    fn commit_move(&self, id: u64, pos: usize, spare: u32, bytes: u64, report: &mut RepairReport) {
        self.meta
            .lock()
            .expect("meta lock")
            .get_mut(&id)
            .expect("object present")
            .layout[pos] = spare;
        self.rebuild_checkpoint.fetch_add(1, Ordering::SeqCst);
        report.shards_moved += 1;
        report.bytes_moved += bytes;
        obs::REBUILD_SHARDS.inc();
        obs::REBUILD_BYTES.add(bytes);
        nsr_obs::trace::event("net.rebuild.shard", || {
            vec![
                ("object", Json::Num(id as f64)),
                ("pos", Json::Num(pos as f64)),
                ("spare", Json::Num(spare as f64)),
            ]
        });
    }

    /// Presence-driven repair: probes every healthy brick in every
    /// object's layout for its shard and re-creates any that are
    /// missing, writing each shard back to its *layout* brick (the
    /// layout never changes). This is the recovery path for the two
    /// gaps [`repair_all`](Self::repair_all) leaves behind: objects it
    /// deferred because no spare existed at the time, and rejoined
    /// bricks that came back empty (adoption wipes stale shards, so
    /// layouts referencing them read degraded until scrubbed). Objects
    /// go in windows as in `repair_all`: one batched probe round and one
    /// batched store round per window.
    ///
    /// An object whose missing shards cannot all be restored this pass
    /// — a layout brick is unhealthy, or a write raced a fresh death —
    /// lands in [`RepairReport::deferred_objects`]; call again once the
    /// cluster settles. Objects with fewer than `k'` shards anywhere land
    /// in [`RepairReport::lost_objects`].
    pub fn scrub_repair(&self) -> Result<RepairReport, Error> {
        let mut span = Span::enter("net.scrub");
        let ctx = nsr_obs::current_context();
        let mut report = RepairReport::default();
        // Ascending, so membership is a binary search.
        let healthy: Vec<u32> = self.detector.lock().expect("detector lock").healthy();
        let objects: Vec<(u64, ObjectMeta)> = self
            .meta
            .lock()
            .expect("meta lock")
            .iter()
            .map(|(&id, m)| (id, m.clone()))
            .collect();
        let mut window = Window::new(self.cfg.fanout);
        for (id, m) in objects {
            // Probe every healthy layout brick.
            let probe: Vec<usize> = (0..m.layout.len())
                .filter(|&pos| healthy.binary_search(&m.layout[pos]).is_ok())
                .collect();
            if window.is_full_before(&m) {
                self.scrub_window(&mut window, &mut report, ctx)?;
            }
            window.push(id, m, probe, Vec::new(), Vec::new());
        }
        self.scrub_window(&mut window, &mut report, ctx)?;
        // Windows settle their verdicts out of order; the lists are by id.
        report.deferred_objects.sort_unstable();
        report.lost_objects.sort_unstable();
        span.field("shards_restored", || Json::Num(report.shards_moved as f64));
        Ok(report)
    }

    /// Scrubs the objects of one window (their `sources` are the positions
    /// to probe) and empties it: one round of probes, a reconstruct per
    /// object with shards to restore, and one round of stores back to the
    /// layout bricks.
    fn scrub_window(
        &self,
        window: &mut Window,
        report: &mut RepairReport,
        ctx: Option<SpanContext>,
    ) -> Result<(), Error> {
        if window.plans.is_empty() {
            return Ok(());
        }
        let t = self.tolerated();
        let mut laps = obs::WindowLaps::start();
        let Window { plans, bufs, .. } = &mut *window;
        let wanted: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(j, plan)| plan.sources.iter().map(move |&pos| (j, pos)))
            .collect();
        let requests: Vec<(u32, DataRequest<'_>)> =
            wanted.iter().map(|&(j, pos)| plans[j].fetch(pos)).collect();
        let probed = self.round(
            &requests,
            ctx,
            Some(&obs::REBUILD_ROUNDS),
            ALL_AT_ONCE,
            |i, c| {
                let (j, pos) = wanted[i];
                recv_fetch(c, requests[i].1, &mut bufs[j][pos])
            },
        );
        let mut probed = wanted.iter().zip(probed);
        let mut restorable = Vec::new();
        for (j, plan) in plans.iter_mut().enumerate() {
            let (id, layout) = (plan.id, &plan.meta.layout);
            let (r, k) = (layout.len(), plan.k(t));
            let mut present = vec![false; r];
            let mut unavailable = r - plan.sources.len();
            for (&(_, pos), res) in probed.by_ref().take(plan.sources.len()) {
                match res {
                    Ok(()) => present[pos] = true,
                    // Absent, or there at the wrong size: restore it.
                    Err(Error::ShardNotFound { .. } | Error::ShardLength { .. }) => {
                        plan.lost.push(pos)
                    }
                    // A probe that fails in transit is neither present
                    // nor restorable right now.
                    Err(_) => unavailable += 1,
                }
            }
            laps.lap(obs::Phase::Fetch);
            if plan.lost.is_empty() {
                continue;
            }
            if present.iter().filter(|&&p| p).count() < k {
                if unavailable > 0 {
                    report.deferred_objects.push(id);
                } else {
                    report.lost_objects.push(id);
                }
                continue;
            }
            self.rebuild_shards(&mut stripe(&mut bufs[j]), &present, &plan.lost)?;
            laps.lap(obs::Phase::Reconstruct);
            plan.targets = plan.lost.iter().map(|&pos| layout[pos]).collect();
            restorable.push(j);
        }
        let stores: Vec<(u32, DataRequest<'_>)> = restorable
            .iter()
            .flat_map(|&j| plans[j].stores(&bufs[j]))
            .collect();
        let stored = self.round(
            &stores,
            ctx,
            Some(&obs::REBUILD_ROUNDS),
            ALL_AT_ONCE,
            |_, c| c.recv_put_reply(),
        );
        laps.lap(obs::Phase::Put);
        let mut repaired = 0;
        // Each object's writes are `stores[from..to]`.
        let mut from = 0;
        for &j in &restorable {
            let plan = &plans[j];
            let (id, lost, targets) = (plan.id, &plan.lost, &plan.targets);
            let to = from + lost.len();
            // The layout never changes, so a restored shard counts where
            // it landed — including one past a failed position, which the
            // next pass will find present.
            for i in (0..lost.len()).filter(|&i| stored[from + i].is_ok()) {
                let (pos, brick, bytes) = (lost[i], targets[i], plan.meta.shard_len as u64);
                report.shards_moved += 1;
                report.bytes_moved += bytes;
                obs::REBUILD_SHARDS.inc();
                obs::REBUILD_BYTES.add(bytes);
                nsr_obs::trace::event("net.scrub.shard", || {
                    vec![
                        ("object", Json::Num(id as f64)),
                        ("pos", Json::Num(pos as f64)),
                        ("brick", Json::Num(brick as f64)),
                    ]
                });
            }
            laps.lap(obs::Phase::Commit);
            if stored[from..to].iter().any(Result::is_err) {
                report.deferred_objects.push(id);
            } else {
                repaired += 1;
            }
            from = to;
        }
        report.objects_repaired += repaired;
        laps.finish(repaired);
        window.clear();
        Ok(())
    }

    /// Serializes object metadata to a line-oriented text form a
    /// restarted coordinator can [`import_meta`](Self::import_meta).
    pub fn export_meta(&self) -> String {
        let meta = self.meta.lock().expect("meta lock");
        let mut out = String::from("nsr-net-meta/v1\n");
        for (id, m) in meta.iter() {
            let layout: Vec<String> = m.layout.iter().map(u32::to_string).collect();
            out.push_str(&format!(
                "object {id} len {} shard_len {} layout {}\n",
                m.len,
                m.shard_len,
                layout.join(",")
            ));
        }
        out
    }

    /// Restores metadata exported by [`export_meta`](Self::export_meta)
    /// — the coordinator-restart path: a fresh gateway with imported
    /// metadata resumes an in-flight rebuild from the committed layout.
    pub fn import_meta(&self, text: &str) -> Result<(), Error> {
        let mut lines = text.lines();
        if lines.next() != Some("nsr-net-meta/v1") {
            return Err(Error::Decode {
                what: "metadata export missing nsr-net-meta/v1 header".to_string(),
            });
        }
        let mut parsed = BTreeMap::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let bad = || Error::Decode {
                what: format!("malformed metadata line `{line}`"),
            };
            if toks.len() != 8
                || toks[0] != "object"
                || toks[2] != "len"
                || toks[4] != "shard_len"
                || toks[6] != "layout"
            {
                return Err(bad());
            }
            let id: u64 = toks[1].parse().map_err(|_| bad())?;
            let len: u64 = toks[3].parse().map_err(|_| bad())?;
            let shard_len: u32 = toks[5].parse().map_err(|_| bad())?;
            let layout = toks[7]
                .split(',')
                .map(|s| s.parse::<u32>().map_err(|_| bad()))
                .collect::<Result<Vec<u32>, Error>>()?;
            // Any width from t + 1 to k + t: the width rule may have
            // changed since the export (one that predates it is k + t
            // wide at every length), so it is not checked against `len`.
            let t = self.tolerated();
            if !(t + 1..=self.redundancy()).contains(&layout.len()) {
                return Err(Error::Decode {
                    what: format!(
                        "object {id} layout has {} entries, geometry needs {} to {}",
                        layout.len(),
                        t + 1,
                        self.redundancy()
                    ),
                });
            }
            // `get` sizes its result from these two before any brick has
            // answered: the shard must be the one a put of `len` bytes at
            // this width writes, and no larger than a frame carries.
            let k = (layout.len() - t) as u64;
            if u64::from(shard_len) != len.div_ceil(k).max(1) || shard_len as usize > MAX_SHARD_LEN
            {
                return Err(Error::Decode {
                    what: format!(
                        "object {id}: shard_len {shard_len} is not that of len {len} over {k} data shards"
                    ),
                });
            }
            // Two shards on one brick are lost together, and a put never
            // places them so.
            let mut bricks = layout.clone();
            bricks.sort_unstable();
            if let Some(w) = bricks.windows(2).find(|w| w[0] == w[1]) {
                return Err(Error::Decode {
                    what: format!("object {id} layout names brick {} twice", w[0]),
                });
            }
            parsed.insert(
                id,
                ObjectMeta {
                    len,
                    shard_len,
                    layout,
                },
            );
        }
        *self.meta.lock().expect("meta lock") = parsed;
        Ok(())
    }

    /// Splits `data` into `k' + t` shard views for a put, `k'` being
    /// [`data_shards_for`] its length. The `k'` data shards borrow
    /// straight from the caller's bytes (owned only when a tail shard
    /// needs zero padding); the `t` parity shards are computed into
    /// `scratch`, whose buffers are resized to fit and borrowed — a
    /// steady-state put of a constant object size touches no allocator
    /// at all.
    fn encode_object<'a>(
        &self,
        data: &'a [u8],
        scratch: &'a mut Vec<Vec<u8>>,
    ) -> Result<(Vec<ShardBuf<'a>>, u32), Error> {
        let t = self.tolerated();
        let k = data_shards_for(data.len(), self.cfg.data_shards);
        let shard_len = data.len().div_ceil(k).max(1);
        let mut shards: Vec<ShardBuf<'a>> = Vec::with_capacity(k + t);
        for pos in 0..k {
            let start = (pos * shard_len).min(data.len());
            let end = ((pos + 1) * shard_len).min(data.len());
            if end - start == shard_len {
                shards.push(ShardBuf::Borrowed(&data[start..end]));
            } else {
                let mut padded = vec![0u8; shard_len];
                padded[..end - start].copy_from_slice(&data[start..end]);
                shards.push(ShardBuf::Owned(padded));
            }
        }
        scratch.resize_with(t, Vec::new);
        for p in scratch.iter_mut() {
            p.resize(shard_len, 0);
        }
        self.codec(k + t)
            .encode_parity_into(&shards, &mut scratch[..])?;
        shards.extend(scratch.iter().map(|p| ShardBuf::Borrowed(p.as_slice())));
        Ok((shards, shard_len as u32))
    }

    /// Whether the detector believes each brick of `layout` can serve.
    fn readable(&self, layout: &[u32]) -> Vec<bool> {
        let det = self.detector.lock().expect("detector lock");
        layout
            .iter()
            .map(|&b| det.health(b).map(Health::readable).unwrap_or(false))
            .collect()
    }

    /// One attempt of `f` against a pooled connection to brick `id` —
    /// the pool reconnects a dropped lane first and discards the
    /// connection on error.
    fn shard_op<T>(
        &self,
        id: u32,
        op: &'static str,
        f: impl FnOnce(&mut BrickClient) -> Result<T, Error>,
    ) -> Result<T, Error> {
        self.pool.with(id, op, f)
    }

    /// The gateway's one call for data requests, and its only call to
    /// [`ConnectionPool::fanout_ahead`]: settles every request in
    /// `requests` (all of one kind) and returns one result per request,
    /// aligned with them.
    ///
    /// Each brick named gets its requests, in order, through one
    /// `send_batch` — bare when the brick is named once, as every brick
    /// is in a get or a put, since a layout never names a brick twice —
    /// and `recv(i, client)` then reads the reply to request `i`, with at
    /// most `depth` bricks' requests on the wire at once. When no brick
    /// is named twice the replies are read in request order; otherwise
    /// brick by brick, each brick's in request order. A reply that breaks
    /// the stream fails the rest of its brick's requests and drops the
    /// lane; a failed connect or send fails all of them. `rounds`, if
    /// given, counts this batched send.
    ///
    /// Then, in request order, the retry path takes what the batched
    /// send missed: the request alone, after the trace context, its
    /// reply read by the same `recv`, under the retry policy. A store is
    /// retried unless it landed, a fetch only when it missed in transit;
    /// a delete is best effort and is sent once. With `cfg.fanout` off
    /// nothing is batched and every request takes the retry path — the
    /// serial reference.
    fn round(
        &self,
        requests: &[(u32, DataRequest<'_>)],
        ctx: Option<SpanContext>,
        rounds: Option<&'static Counter>,
        depth: usize,
        mut recv: impl FnMut(usize, &mut BrickClient) -> Result<(), Error>,
    ) -> Vec<Result<(), Error>> {
        let mut seen: Vec<Option<Result<(), Error>>> = vec![None; requests.len()];
        if self.cfg.fanout && !requests.is_empty() {
            if let Some(rounds) = rounds {
                rounds.inc();
            }
            // The requests in request order, or grouped by brick (stable,
            // so each brick's keep their order) when a brick is named
            // twice: brick `bricks[g]` gets `batch[starts[g]..starts[g +
            // 1]]`. The scan for a repeat stops at the first one, so it is
            // quadratic in the bricks, not in the requests.
            let mut order: Vec<usize> = (0..requests.len()).collect();
            let repeats = (1..requests.len()).any(|i| {
                requests[..i]
                    .iter()
                    .any(|(brick, _)| *brick == requests[i].0)
            });
            if repeats {
                order.sort_by_key(|&i| requests[i].0);
            }
            let batch: Vec<DataRequest<'_>> = order.iter().map(|&i| requests[i].1).collect();
            let (mut bricks, mut starts) = (Vec::new(), Vec::new());
            for (n, &i) in order.iter().enumerate() {
                if bricks.last() != Some(&requests[i].0) {
                    bricks.push(requests[i].0);
                    starts.push(n);
                }
            }
            starts.push(order.len());
            let group = |g: usize| starts[g]..starts[g + 1];
            let per_brick = self.pool.fanout_ahead(
                &bricks,
                requests[0].1.name(),
                depth,
                |g, c| {
                    send_ctx(c, ctx)?;
                    c.send_batch(&batch[group(g)])
                },
                |g, c| {
                    for &i in &order[group(g)] {
                        match recv(i, c) {
                            Err(e) if e.breaks_stream() => return Err(e),
                            res => seen[i] = Some(res),
                        }
                    }
                    Ok(())
                },
            );
            for (g, res) in per_brick.into_iter().enumerate() {
                if let Err(e) = res {
                    for &i in &order[group(g)] {
                        seen[i].get_or_insert_with(|| Err(e.clone()));
                    }
                }
            }
        }
        let mut results = Vec::with_capacity(requests.len());
        for (i, (seen, &(brick, request))) in seen.into_iter().zip(requests).enumerate() {
            let alone = |c: &mut BrickClient| {
                send_ctx(c, ctx)?;
                c.send_batch(&[request])?;
                recv(i, c)
            };
            let op = request.name();
            results.push(match (seen, request) {
                (Some(Ok(())), _) => Ok(()),
                // A delete gets one attempt: the batched one, if it was made.
                (None, DataRequest::DeleteShard { .. }) => self.shard_op(brick, op, alone),
                (Some(Err(e)), DataRequest::DeleteShard { .. }) => Err(e),
                // A fetch's typed answer (`ShardNotFound`) stands; a store
                // is retried whatever the round saw.
                (Some(Err(e)), DataRequest::GetShard { .. } | DataRequest::RebuildFetch { .. })
                    if !e.is_transient() =>
                {
                    Err(e)
                }
                _ => self.shard_op_with_retry(brick, op, alone),
            });
        }
        results
    }

    /// Rebuilds positions `want` of a `k' + t`-wide stripe from the shards
    /// marked `present` (at least `k'`), straight into their buffers in
    /// `stripe` and nothing else — `get` asks for its missing data shards,
    /// rebuild and scrub for the shards they are about to write back.
    fn rebuild_shards(
        &self,
        stripe: &mut [&mut [u8]],
        present: &[bool],
        want: &[usize],
    ) -> Result<(), Error> {
        let absent: Vec<usize> = (0..present.len()).filter(|&pos| !present[pos]).collect();
        let codec = self.codec(present.len());
        let plan = codec.plan_reconstruction(&absent)?;
        Ok(codec.reconstruct_into(&plan, stripe, want)?)
    }

    /// Deletes `shards` (each a brick and the `(object, pos)` it holds),
    /// best effort, in rounds of at most [`MAX_BATCH_LEN`] requests, the
    /// most a brick takes in one batch. A clean-up sends no trace context
    /// and is not counted as a rebuild round.
    fn delete_shards(&self, shards: impl IntoIterator<Item = (u32, (u64, u32))>) {
        let deletes: Vec<(u32, DataRequest<'_>)> = shards
            .into_iter()
            .map(|(brick, (object, pos))| (brick, DataRequest::DeleteShard { object, pos }))
            .collect();
        for deletes in deletes.chunks(MAX_BATCH_LEN as usize) {
            self.round(deletes, None, None, ALL_AT_ONCE, |_, c| {
                c.recv_delete_reply()
            });
        }
    }

    /// Counts and types a pass cut short by a source or spare that
    /// stopped serving mid-transfer; the per-shard checkpoint is kept.
    fn interrupted(&self, span: &mut Span) -> Error {
        obs::REBUILD_INTERRUPTED.inc();
        span.field("outcome", || Json::Str("interrupted".into()));
        Error::RebuildInterrupted {
            resumed_from: self.rebuild_checkpoint.load(Ordering::SeqCst),
        }
    }

    /// `shard_op` under the retry policy: transient errors back off
    /// exponentially (capped, jittered) and re-attempt; permanent errors
    /// and exhausted budgets propagate typed.
    fn shard_op_with_retry<T>(
        &self,
        id: u32,
        op: &'static str,
        mut f: impl FnMut(&mut BrickClient) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let policy = &self.cfg.retry;
        let mut last: Option<Error> = None;
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                obs::RETRIES.inc();
                std::thread::sleep(self.backoff_delay(attempt));
            }
            match self.shard_op(id, op, &mut f) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(Error::RetriesExhausted {
            op,
            attempts: policy.max_attempts,
            last: last.expect("at least one attempt failed").to_string(),
        })
    }

    fn backoff_delay(&self, attempt: u32) -> Duration {
        let policy = &self.cfg.retry;
        let exp = policy.base_delay.as_secs_f64() * 2f64.powi(attempt.saturating_sub(1) as i32);
        let capped = exp.min(policy.max_delay.as_secs_f64());
        // Jitter in [0.5, 1.0)× keeps synchronized retries from
        // hammering a recovering brick in lockstep.
        let jitter = self
            .rng
            .lock()
            .expect("rng lock")
            .random_range_f64(0.5, 1.0);
        Duration::from_secs_f64(capped * jitter)
    }
}

thread_local! {
    /// Per-thread parity scratch reused across puts — see
    /// [`Gateway::put`]. Thread-local (rather than a gateway field)
    /// so concurrent puts on different threads never contend for it.
    static PARITY_SCRATCH: std::cell::RefCell<Vec<Vec<u8>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One shard's bytes during a put: data shards borrow from the caller's
/// object, parity shards live in the put's thread-local scratch (only a
/// zero-padded tail shard is owned).
enum ShardBuf<'a> {
    Borrowed(&'a [u8]),
    Owned(Vec<u8>),
}

impl AsRef<[u8]> for ShardBuf<'_> {
    fn as_ref(&self) -> &[u8] {
        match self {
            ShardBuf::Borrowed(s) => s,
            ShardBuf::Owned(v) => v,
        }
    }
}

/// What stopped a repair window short of its last object.
enum Cut {
    /// A source or spare stopped serving mid-transfer.
    Interrupted,
    /// Anything else, returned as it is.
    Failed(Error),
}

/// One object of a repair or scrub window: what the pass planned for it.
struct Plan {
    id: u64,
    meta: ObjectMeta,
    /// Positions to fetch: rebuild's sources, the first `k` primary;
    /// scrub's probes.
    sources: Vec<usize>,
    /// Positions to re-create, and the brick each one goes to.
    lost: Vec<usize>,
    targets: Vec<u32>,
}

impl Plan {
    /// The object's data width, `k'`.
    fn k(&self, t: usize) -> usize {
        self.meta.layout.len() - t
    }

    /// The fetch of position `at` from its layout brick.
    fn fetch(&self, at: usize) -> (u32, DataRequest<'static>) {
        let (object, pos) = (self.id, at as u32);
        (
            self.meta.layout[at],
            DataRequest::RebuildFetch { object, pos },
        )
    }

    /// The writes of the shards re-created in `bufs`, one per lost
    /// position, each to its target.
    fn stores<'a>(&'a self, bufs: &'a [Vec<u8>]) -> impl Iterator<Item = (u32, DataRequest<'a>)> {
        let object = self.id;
        self.lost
            .iter()
            .zip(&self.targets)
            .map(move |(&pos, &brick)| {
                let (data, pos) = (bufs[pos].as_slice(), pos as u32);
                (brick, DataRequest::PutShard { object, pos, data })
            })
    }
}

/// The objects a repair or scrub pass works on together, and one owned
/// buffer per position of each, kept from window to window.
struct Window {
    plans: Vec<Plan>,
    bufs: Vec<Vec<Vec<u8>>>,
    /// Stripe bytes of the planned objects.
    bytes: usize,
    /// Most objects: [`REPAIR_WINDOW_OBJECTS`], or one — an object at a
    /// time, the serial reference — with the fan-out off.
    cap: usize,
}

impl Window {
    fn new(fanout: bool) -> Window {
        Window {
            plans: Vec::new(),
            bufs: Vec::new(),
            bytes: 0,
            cap: if fanout { REPAIR_WINDOW_OBJECTS } else { 1 },
        }
    }

    /// Whether the object `meta` describes must wait for the next window:
    /// this one holds its object cap, or the object's stripe would take it
    /// past [`REPAIR_WINDOW_BYTES`]. An empty window takes an object of
    /// any size.
    fn is_full_before(&self, meta: &ObjectMeta) -> bool {
        !self.plans.is_empty()
            && (self.plans.len() == self.cap
                || self.bytes + stripe_bytes(meta) > REPAIR_WINDOW_BYTES)
    }

    /// Plans one more object, one buffer per layout position, each one
    /// shard long (stale bytes are harmless: a position counts only once
    /// fetched or rebuilt).
    fn push(
        &mut self,
        id: u64,
        meta: ObjectMeta,
        sources: Vec<usize>,
        lost: Vec<usize>,
        targets: Vec<u32>,
    ) {
        let j = self.plans.len();
        if self.bufs.len() == j {
            self.bufs.push(Vec::new());
        }
        self.bufs[j].resize_with(meta.layout.len(), Vec::new);
        for buf in &mut self.bufs[j] {
            buf.resize(meta.shard_len as usize, 0);
        }
        self.bytes += stripe_bytes(&meta);
        self.plans.push(Plan {
            id,
            meta,
            sources,
            lost,
            targets,
        });
    }

    fn clear(&mut self) {
        self.plans.clear();
        self.bytes = 0;
    }
}

/// Bytes of one object's whole stripe, parity included.
fn stripe_bytes(meta: &ObjectMeta) -> usize {
    meta.layout.len() * meta.shard_len as usize
}

/// The first request of `results` that failed, and its error.
fn first_failure(results: &[Result<(), Error>]) -> Option<(usize, Error)> {
    let at = results.iter().position(Result::is_err)?;
    Some((at, results[at].clone().unwrap_err()))
}

/// The shard of every store in `stores` that landed, with its brick.
fn landed<'a>(
    stores: &'a [(u32, DataRequest<'_>)],
    stored: &'a [Result<(), Error>],
) -> impl Iterator<Item = (u32, (u64, u32))> + 'a {
    let landed = stores.iter().zip(stored).filter(|(_, res)| res.is_ok());
    landed.map(|((brick, store), _)| (*brick, store.shard()))
}

/// Reads the reply to fetch `request` straight into `dst`.
fn recv_fetch(c: &mut BrickClient, request: DataRequest<'_>, dst: &mut [u8]) -> Result<(), Error> {
    let (object, pos) = request.shard();
    c.recv_shard_into(request.name(), object, pos, dst)
}

/// The stripe view a `get` fetches and rebuilds through: the result
/// buffer cut into its `k'` data shards, then the parity scratch buffers
/// (empty until a read needs them).
fn data_and_parity<'a>(
    data: &'a mut [u8],
    parity: &'a mut [Vec<u8>],
    shard_len: usize,
) -> Vec<&'a mut [u8]> {
    data.chunks_mut(shard_len)
        .chain(parity.iter_mut().map(Vec::as_mut_slice))
        .collect()
}

/// The stripe view rebuild and scrub reconstruct through: one window
/// object's buffers, which [`Window::push`] made one shard long.
fn stripe(bufs: &mut [Vec<u8>]) -> Vec<&mut [u8]> {
    bufs.iter_mut().map(Vec::as_mut_slice).collect()
}

/// Sends the remote trace context ahead of a data-op request when one
/// is open. With tracing disabled (or no open span) `ctx` is `None` and
/// nothing extra crosses the wire — legacy single-process behavior.
fn send_ctx(c: &mut BrickClient, ctx: Option<SpanContext>) -> Result<(), Error> {
    match ctx {
        Some(ctx) => c.send_trace_ctx(ctx),
        None => Ok(()),
    }
}

/// Picks `r` bricks from the (ascending) healthy list, rotated by the
/// object id so consecutive objects spread their spare capacity across
/// different bricks.
fn rotate_pick(healthy: &[u32], object: u64, r: usize) -> Vec<u32> {
    let start = (object as usize) % healthy.len();
    (0..r)
        .map(|i| healthy[(start + i) % healthy.len()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_pick_spreads_layouts() {
        let healthy = [0, 1, 2, 3, 4, 5];
        assert_eq!(rotate_pick(&healthy, 0, 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(rotate_pick(&healthy, 1, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(rotate_pick(&healthy, 5, 5), vec![5, 0, 1, 2, 3]);
        assert_eq!(rotate_pick(&healthy, 6, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn width_rule_cuts_one_data_shard_per_whole_page() {
        const K: usize = 6;
        let table = [
            (0, 1),
            (1, 1),
            (4095, 1),
            (4096, 1),
            (8191, 1),
            (8192, 2),
            (K * 4096 - 1, K - 1),
            (K * 4096, K),
            (64 * 1024, K),
            (1024 * 1024, K),
        ];
        for (len, width) in table {
            assert_eq!(data_shards_for(len, K), width, "{len} bytes");
            // No shard below a page, unless the object is one shard.
            if width > 1 {
                assert!(len.div_ceil(width) >= PAGE_BYTES, "{len} bytes");
            }
        }
    }

    #[test]
    fn import_takes_every_width_from_t_plus_one_to_k_plus_t() {
        let cfg = GatewayConfig::new(3, 2);
        let addrs: Vec<SocketAddr> = (0..6)
            .map(|i| format!("127.0.0.1:{}", 23000 + i).parse().unwrap())
            .collect();
        let gw = Gateway::connect(addrs, cfg).expect("gateway");
        let import = |layout: &str, shard_len: u32| {
            gw.import_meta(&format!(
                "nsr-net-meta/v1\nobject 1 len 10 shard_len {shard_len} layout {layout}\n"
            ))
        };
        // Whatever the width rule says for 10 bytes (one data shard), the
        // shard must be the one a put at the layout's width cuts.
        for (layout, shard_len) in [("0,1,2", 10), ("0,1,2,3", 5), ("0,1,2,3,4", 4)] {
            import(layout, shard_len).expect(layout);
            import(layout, shard_len + 1).expect_err(layout);
        }
        // Widths t and k + t + 1.
        for (layout, shard_len) in [("0,1", 10), ("0,1,2,3,4,5", 3)] {
            let err = import(layout, shard_len).expect_err(layout);
            assert!(
                matches!(&err, Error::Decode { what } if what.contains("geometry needs 3 to 5")),
                "{err}"
            );
        }
    }

    #[test]
    fn meta_round_trips_through_export() {
        let cfg = GatewayConfig::new(3, 2);
        // No bricks contacted: construction only validates geometry.
        let addrs: Vec<SocketAddr> = (0..5)
            .map(|i| format!("127.0.0.1:{}", 20000 + i).parse().unwrap())
            .collect();
        let gw = Gateway::connect(addrs.clone(), cfg.clone()).expect("gateway");
        gw.meta.lock().unwrap().insert(
            7,
            ObjectMeta {
                len: 1000,
                shard_len: 334,
                layout: vec![0, 1, 2, 3, 4],
            },
        );
        let text = gw.export_meta();
        let gw2 = Gateway::connect(addrs, cfg).expect("gateway");
        gw2.import_meta(&text).expect("import");
        assert_eq!(
            gw2.meta.lock().unwrap().get(&7),
            Some(&ObjectMeta {
                len: 1000,
                shard_len: 334,
                layout: vec![0, 1, 2, 3, 4],
            })
        );
    }

    #[test]
    fn import_rejects_bad_header_and_geometry() {
        let cfg = GatewayConfig::new(3, 2);
        let addrs: Vec<SocketAddr> = (0..5)
            .map(|i| format!("127.0.0.1:{}", 21000 + i).parse().unwrap())
            .collect();
        let gw = Gateway::connect(addrs, cfg).expect("gateway");
        assert!(matches!(
            gw.import_meta("garbage"),
            Err(Error::Decode { .. })
        ));
        assert!(matches!(
            gw.import_meta("nsr-net-meta/v1\nobject 1 len 10 shard_len 4 layout 0,1\n"),
            Err(Error::Decode { .. })
        ));
        // Sizes a get would allocate from: no empty shards, none larger
        // than a frame, and k of them must hold the object.
        for sizes in [
            "len 0 shard_len 0",
            "len 10 shard_len 3",
            "len 10 shard_len 4000000000",
        ] {
            let text = format!("nsr-net-meta/v1\nobject 1 {sizes} layout 0,1,2,3,4\n");
            assert!(
                matches!(gw.import_meta(&text), Err(Error::Decode { .. })),
                "{sizes}"
            );
        }
        gw.import_meta("nsr-net-meta/v1\nobject 1 len 10 shard_len 4 layout 0,1,2,3,4\n")
            .expect("3 x 4 bytes hold 10");
        // The shard cap is the one the put path enforces, to the byte
        // (each object three shards long, as a put at 3 + 2 cuts it).
        let at_cap = |shard_len: usize| {
            let len = 3 * shard_len;
            gw.import_meta(&format!(
                "nsr-net-meta/v1\nobject 1 len {len} shard_len {shard_len} layout 0,1,2,3,4\n"
            ))
        };
        at_cap(MAX_SHARD_LEN).expect("the largest shard a put writes");
        assert!(matches!(
            at_cap(MAX_SHARD_LEN + 1),
            Err(Error::Decode { .. })
        ));
    }

    #[test]
    fn import_rejects_a_layout_naming_a_brick_twice() {
        let cfg = GatewayConfig::new(3, 2);
        let addrs: Vec<SocketAddr> = (0..5)
            .map(|i| format!("127.0.0.1:{}", 22000 + i).parse().unwrap())
            .collect();
        let gw = Gateway::connect(addrs, cfg).expect("gateway");
        gw.import_meta("nsr-net-meta/v1\nobject 1 len 10 shard_len 4 layout 4,3,2,1,0\n")
            .expect("distinct bricks in any order");
        let err = gw
            .import_meta("nsr-net-meta/v1\nobject 2 len 10 shard_len 4 layout 0,1,2,3,1\n")
            .unwrap_err();
        assert!(
            matches!(&err, Error::Decode { what } if what.contains("brick 1 twice")),
            "{err}"
        );
        // A refused import leaves the metadata it replaces untouched.
        assert!(gw.meta.lock().unwrap().contains_key(&1));
    }
}
