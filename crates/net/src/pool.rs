//! Per-brick connection pool: persistent [`BrickClient`] slots with
//! idle-deadline-aware keepalive and transparent reconnect.
//!
//! Bricks drop connections that stay idle past their read deadline
//! (2 s by default), so a naive client pays a redial — and, because the
//! stale socket fails mid-request first, a retry with a backoff sleep —
//! on the first request after any idle stretch. The pool removes both
//! costs: every brick gets a fixed set of connection *lanes* that are
//! dialed on demand, reused across requests, and refreshed by a
//! background keepalive thread that heartbeats any connected lane
//! approaching the idle deadline. Keepalive probes are wire-level only —
//! they never feed the failure detector, so campaign replay determinism
//! is untouched.
//!
//! The pool is also where the pipelined shard fan-out lives:
//! [`ConnectionPool::fanout`] locks one lane per brick, runs a send
//! phase and then a receive phase in caller order, which keeps one
//! request outstanding per brick while replies are still assembled
//! deterministically by index.
//!
//! Locking protocol: `fanout` acquires lane locks in ascending brick-id
//! order, one brick at a time and never the same brick twice, which
//! makes concurrent fan-outs deadlock-free; the keepalive thread only
//! ever `try_lock`s, so it can never stall a serving request.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::client::BrickClient;
use crate::error::Error;
use crate::obs;

/// Sequence number used by keepalive probes — distinct from the
/// detector's monotonically increasing heartbeat sequence so the two
/// kinds of probe are distinguishable in a packet capture.
const KEEPALIVE_SEQ: u64 = u64::MAX;

struct Slot {
    client: Option<BrickClient>,
    last_used: Instant,
}

impl Slot {
    /// Books the outcome of one exchange on this lane: a completed one —
    /// success or a well-framed typed error reply — refreshes the idle
    /// clock; one that broke the transport or the framing leaves the
    /// stream in an unknown state, so the connection is dropped.
    fn settle<T>(&mut self, res: &Result<T, Error>) {
        match res {
            Err(e) if e.breaks_stream() => self.client = None,
            _ => self.last_used = Instant::now(),
        }
    }
}

struct PoolInner {
    addrs: Mutex<Vec<SocketAddr>>,
    /// `lanes[brick][lane]` — one mutexed slot per connection.
    lanes: Vec<Vec<Mutex<Slot>>>,
    timeout: Duration,
    stop: AtomicBool,
    /// Pairs with `wake` so `Drop` can interrupt the keepalive sleep.
    stop_mutex: Mutex<()>,
    wake: Condvar,
}

/// A pool of persistent brick connections (see the module docs).
pub struct ConnectionPool {
    inner: Arc<PoolInner>,
    keepalive: Option<std::thread::JoinHandle<()>>,
}

impl ConnectionPool {
    /// Creates a pool over `addrs` (brick id = index) with `lanes`
    /// connections per brick, all unconnected until first use.
    pub fn new(addrs: Vec<SocketAddr>, timeout: Duration, lanes: usize) -> ConnectionPool {
        let lanes = lanes.max(1);
        let slot = || {
            Mutex::new(Slot {
                client: None,
                last_used: Instant::now(),
            })
        };
        let lanes = (0..addrs.len())
            .map(|_| (0..lanes).map(|_| slot()).collect())
            .collect();
        ConnectionPool {
            inner: Arc::new(PoolInner {
                addrs: Mutex::new(addrs),
                lanes,
                timeout,
                stop: AtomicBool::new(false),
                stop_mutex: Mutex::new(()),
                wake: Condvar::new(),
            }),
            keepalive: None,
        }
    }

    /// Starts the background keepalive thread: any connected lane idle
    /// for `refresh` or longer is re-warmed with a heartbeat, keeping it
    /// below the brick's read deadline (`refresh` must be comfortably
    /// smaller than that deadline). A zero `refresh` disables keepalive.
    pub fn start_keepalive(&mut self, refresh: Duration) {
        if refresh.is_zero() || self.keepalive.is_some() {
            return;
        }
        let inner = Arc::clone(&self.inner);
        self.keepalive = Some(std::thread::spawn(move || keepalive_loop(&inner, refresh)));
    }

    /// Number of bricks the pool addresses.
    pub fn len(&self) -> usize {
        self.inner.lanes.len()
    }

    /// Whether the pool addresses zero bricks.
    pub fn is_empty(&self) -> bool {
        self.inner.lanes.is_empty()
    }

    /// Replaces the address of brick `id` (a killed brick restarts on a
    /// fresh port) and drops every cached connection to the old address.
    pub fn set_addr(&self, id: u32, addr: SocketAddr) {
        self.inner.addrs.lock().expect("addrs lock")[id as usize] = addr;
        for lane in &self.inner.lanes[id as usize] {
            lane.lock().expect("slot lock").client = None;
        }
    }

    /// Runs `f` on a pooled connection to brick `id`, dialing one if no
    /// lane is connected. A transport or framing error drops the
    /// connection so the next checkout starts clean (a typed reply such
    /// as shard-not-found leaves the stream in sync and the lane warm);
    /// connect failures are reported as `op`.
    pub fn with<T>(
        &self,
        id: u32,
        op: &'static str,
        f: impl FnOnce(&mut BrickClient) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut slot = self.lock_lane(id);
        self.inner.ensure_connected(&mut slot, id, op)?;
        let client = slot.client.as_mut().expect("connected");
        let res = f(client);
        slot.settle(&res);
        res
    }

    /// Pipelined scatter-gather over the bricks in `ids`: locks one lane
    /// per brick in ascending brick-id order, runs `send` for every index
    /// in caller order, then `recv` for every index in caller order. Each
    /// connection carries exactly one outstanding request, so a failure
    /// on one brick never desyncs another — the result vector is
    /// per-index, aligned with `ids`, and indices that failed in
    /// transport or framing have had their connection dropped.
    ///
    /// A brick named at more than one index is served at the first only.
    /// Every later index gets the transient [`Error::DuplicateBrick`]
    /// without waiting for a lane: with one lane per brick, or every
    /// other lane busy, that wait would be on the lane this call already
    /// holds, forever. Callers retry it per shard after the fan-out.
    pub fn fanout<T>(
        &self,
        ids: &[u32],
        op: &'static str,
        mut send: impl FnMut(usize, &mut BrickClient) -> Result<(), Error>,
        mut recv: impl FnMut(usize, &mut BrickClient) -> Result<T, Error>,
    ) -> Vec<Result<T, Error>> {
        // Stable: a repeated brick's first index sorts first.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_by_key(|&i| ids[i]);
        let mut guards: Vec<Option<MutexGuard<'_, Slot>>> = (0..ids.len()).map(|_| None).collect();
        let mut results: Vec<Option<Result<T, Error>>> = (0..ids.len()).map(|_| None).collect();
        // Acquire + connect phase, ascending brick id.
        for (n, &i) in order.iter().enumerate() {
            if n > 0 && ids[order[n - 1]] == ids[i] {
                results[i] = Some(Err(Error::DuplicateBrick { brick: ids[i] }));
                continue;
            }
            let mut slot = self.lock_lane(ids[i]);
            match self.inner.ensure_connected(&mut slot, ids[i], op) {
                Ok(()) => guards[i] = Some(slot),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        // Send phase, caller order.
        for i in 0..ids.len() {
            if results[i].is_some() {
                continue;
            }
            let slot = guards[i].as_mut().expect("acquired");
            if let Err(e) = send(i, slot.client.as_mut().expect("connected")) {
                slot.client = None;
                results[i] = Some(Err(e));
            }
        }
        // Every request is on the wire. Yielding once lets any brick
        // thread that is runnable but has not run answer before the
        // receive loop below reads, so it finds replies already
        // buffered. It does not make the fan-out two context switches:
        // on one CPU (Linux 6.18, 6+2 geometry, 683-byte shards) a woken
        // brick thread mostly preempts the gateway during the send
        // phase, and the gateway thread takes ~4.3 involuntary switches
        // and no voluntary ones per 6-shard get (`nonvoluntary_ctxt_switches`
        // in `/proc/thread-self/status`, 20,000 gets).
        std::thread::yield_now();
        // Receive phase, caller order — deterministic assembly.
        for i in 0..ids.len() {
            if results[i].is_some() {
                continue;
            }
            let slot = guards[i].as_mut().expect("acquired");
            let res = recv(i, slot.client.as_mut().expect("connected"));
            slot.settle(&res);
            results[i] = Some(res);
        }
        results
            .into_iter()
            .map(|r| r.expect("every index resolved"))
            .collect()
    }

    /// Locks a lane of brick `id`: the first free lane if any, else
    /// blocks on lane 0. Multi-brick callers go through `fanout`, whose
    /// ascending-id acquisition of distinct bricks keeps this
    /// deadlock-free.
    fn lock_lane(&self, id: u32) -> MutexGuard<'_, Slot> {
        let lanes = &self.inner.lanes[id as usize];
        for lane in lanes {
            if let Ok(guard) = lane.try_lock() {
                return guard;
            }
        }
        lanes[0].lock().expect("slot lock")
    }
}

impl Drop for ConnectionPool {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let _unused = self.inner.stop_mutex.lock().expect("stop lock");
        self.inner.wake.notify_all();
        drop(_unused);
        if let Some(handle) = self.keepalive.take() {
            let _ = handle.join();
        }
    }
}

impl PoolInner {
    fn ensure_connected(&self, slot: &mut Slot, id: u32, op: &'static str) -> Result<(), Error> {
        if slot.client.is_some() {
            obs::POOL_REUSES.inc();
            return Ok(());
        }
        let addr = self.addrs.lock().expect("addrs lock")[id as usize];
        let client = BrickClient::connect(addr, self.timeout).map_err(|e| match e {
            Error::Io { detail, .. } => Error::Io { op, detail },
            other => other,
        })?;
        obs::POOL_RECONNECTS.inc();
        slot.client = Some(client);
        slot.last_used = Instant::now();
        Ok(())
    }
}

fn keepalive_loop(inner: &PoolInner, refresh: Duration) {
    // Wake often enough that a lane is always refreshed within
    // ~1.25 × refresh of its last use.
    let step = (refresh / 4).max(Duration::from_millis(5));
    loop {
        let guard = inner.stop_mutex.lock().expect("stop lock");
        let (guard, _) = inner
            .wake
            .wait_timeout(guard, step)
            .expect("keepalive wait");
        drop(guard);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        for lanes in &inner.lanes {
            for lane in lanes {
                // A busy lane is by definition not idle — skip it rather
                // than ever blocking a serving request.
                let Ok(mut slot) = lane.try_lock() else {
                    continue;
                };
                if slot.client.is_none() || slot.last_used.elapsed() < refresh {
                    continue;
                }
                let alive = slot
                    .client
                    .as_mut()
                    .expect("connected")
                    .heartbeat(KEEPALIVE_SEQ)
                    .is_ok();
                if alive {
                    slot.last_used = Instant::now();
                    obs::POOL_KEEPALIVES.inc();
                } else {
                    slot.client = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::{BrickConfig, BrickServer};
    use crate::wire::Frame;

    fn start_brick(id: u32) -> (SocketAddr, std::thread::JoinHandle<Result<(), Error>>) {
        BrickServer::bind("127.0.0.1:0", BrickConfig::new(id))
            .expect("bind")
            .spawn()
    }

    fn stop_brick(addr: SocketAddr) {
        let mut c = BrickClient::connect(addr, Duration::from_millis(300)).expect("connect");
        c.shutdown().expect("shutdown");
    }

    #[test]
    fn with_reuses_a_connection_across_requests() {
        let (addr, handle) = start_brick(0);
        let pool = ConnectionPool::new(vec![addr], Duration::from_millis(300), 1);
        for seq in 0..3 {
            let ack = pool
                .with(0, "heartbeat", |c| c.heartbeat(seq))
                .expect("heartbeat");
            assert_eq!(ack.brick_id, 0);
        }
        stop_brick(addr);
        handle.join().expect("join").expect("run");
    }

    #[test]
    fn fanout_failures_are_per_brick() {
        let (a, ha) = start_brick(0);
        let (b, hb) = start_brick(1);
        let pool = ConnectionPool::new(vec![a, b], Duration::from_millis(300), 1);
        stop_brick(b);
        hb.join().expect("join").expect("run");
        let results = pool.fanout(
            &[0, 1],
            "heartbeat",
            |i, c| c.send_request(&Frame::Heartbeat { seq: i as u64 }),
            |_i, c| c.recv_reply(),
        );
        assert!(results[0].is_ok(), "live brick unaffected: {results:?}");
        assert!(results[1].is_err(), "dead brick reported: {results:?}");
        // The pool recovers: the live brick's lane is still warm.
        assert!(pool.with(0, "heartbeat", |c| c.heartbeat(9)).is_ok());
        stop_brick(a);
        ha.join().expect("join").expect("run");
    }

    /// With one lane per brick, locking the brick's lane a second time
    /// in one fan-out would wait on this call's own lock forever.
    #[test]
    fn a_brick_named_twice_is_served_once_without_a_self_deadlock() {
        let (addr, handle) = start_brick(0);
        let timeout = Duration::from_millis(300);
        let pool = Arc::new(ConnectionPool::new(vec![addr], timeout, 1));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = Arc::clone(&pool);
        let fanout = std::thread::spawn(move || {
            let results = worker.fanout(
                &[0, 0],
                "heartbeat",
                |i, c| c.send_request(&Frame::Heartbeat { seq: i as u64 }),
                |_i, c| c.recv_reply(),
            );
            let _ = tx.send(results);
        });
        // A deadlocked fan-out never sends; joining it would hang too.
        let results = rx
            .recv_timeout(10 * timeout)
            .expect("fanout returned within its timeout");
        fanout.join().expect("fanout thread");
        assert!(results[0].is_ok(), "first index served: {results:?}");
        assert!(
            matches!(&results[1], Err(e @ Error::DuplicateBrick { brick: 0 })
                if e.is_transient() && !e.breaks_stream()),
            "later index refused, transiently: {results:?}"
        );
        // The fan-out released its lane: a per-shard retry gets through.
        assert!(pool.with(0, "heartbeat", |c| c.heartbeat(1)).is_ok());
        stop_brick(addr);
        handle.join().expect("join").expect("run");
    }

    #[test]
    fn keepalive_outlives_a_short_brick_deadline() {
        let mut cfg = BrickConfig::new(0);
        cfg.read_timeout = Duration::from_millis(250);
        let (addr, handle) = BrickServer::bind("127.0.0.1:0", cfg).expect("bind").spawn();
        let mut pool = ConnectionPool::new(vec![addr], Duration::from_millis(300), 1);
        pool.start_keepalive(Duration::from_millis(60));
        pool.with(0, "heartbeat", |c| c.heartbeat(0)).expect("warm");
        // Idle well past the brick's read deadline: without keepalive
        // the brick would have dropped the connection and the next
        // request on it would fail.
        std::thread::sleep(Duration::from_millis(700));
        pool.with(0, "heartbeat", |c| c.heartbeat(1))
            .expect("connection survived the idle stretch");
        stop_brick(addr);
        handle.join().expect("join").expect("run");
    }
}
