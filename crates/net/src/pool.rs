//! Per-brick connection pool: persistent [`BrickClient`] slots with
//! transparent reconnect.
//!
//! Every brick gets a fixed set of connection *lanes* that are dialed on
//! demand and reused across requests. A brick bounds each frame, not the
//! wait for the next one, so a lane left idle stays connected for as long
//! as both ends are up: the pool sends nothing of its own and starts no
//! thread.
//!
//! The pool is also where the pipelined shard fan-out lives:
//! [`ConnectionPool::fanout_ahead`] locks one lane per brick, then walks
//! the bricks in caller order, reading each reply while at most `depth`
//! requests are on the wire, the one being read included. Each brick has
//! one request outstanding at most, and replies are assembled
//! deterministically by index. [`ConnectionPool::fanout`] is the same
//! walk with every request sent before the first reply is read. A bound
//! matters for large replies: six 171 KiB shards requested at once wait
//! in socket buffers, out of cache, until the reader gets to them.
//!
//! Locking protocol: a fan-out acquires lane locks in ascending brick-id
//! order, one brick at a time and never the same brick twice, which
//! makes concurrent fan-outs deadlock-free.

use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::client::BrickClient;
use crate::error::Error;
use crate::obs;

struct Slot {
    client: Option<BrickClient>,
}

impl Slot {
    /// Books the outcome of one exchange on this lane: one that broke
    /// the transport or the framing leaves the stream in an unknown
    /// state, so the connection is dropped; a completed one — success or
    /// a well-framed typed error reply — keeps it.
    fn settle<T>(&mut self, res: &Result<T, Error>) {
        if res.as_ref().is_err_and(Error::breaks_stream) {
            self.client = None;
        }
    }
}

/// A pool of persistent brick connections (see the module docs).
pub struct ConnectionPool {
    addrs: Mutex<Vec<SocketAddr>>,
    /// `lanes[brick][lane]` — one mutexed slot per connection.
    lanes: Vec<Vec<Mutex<Slot>>>,
    timeout: Duration,
}

impl ConnectionPool {
    /// Creates a pool over `addrs` (brick id = index) with `lanes`
    /// connections per brick, all unconnected until first use.
    pub fn new(addrs: Vec<SocketAddr>, timeout: Duration, lanes: usize) -> ConnectionPool {
        let lanes = lanes.max(1);
        let slot = || Mutex::new(Slot { client: None });
        let lanes = (0..addrs.len())
            .map(|_| (0..lanes).map(|_| slot()).collect())
            .collect();
        ConnectionPool {
            addrs: Mutex::new(addrs),
            lanes,
            timeout,
        }
    }

    /// Number of bricks the pool addresses.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the pool addresses zero bricks.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Replaces the address of brick `id` (a killed brick restarts on a
    /// fresh port) and drops every cached connection to the old address.
    pub fn set_addr(&self, id: u32, addr: SocketAddr) {
        self.addrs.lock().expect("addrs lock")[id as usize] = addr;
        for lane in &self.lanes[id as usize] {
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
        self.ensure_connected(&mut slot, id, op)?;
        let client = slot.client.as_mut().expect("connected");
        let res = f(client);
        slot.settle(&res);
        res
    }

    /// Pipelined scatter-gather over the bricks in `ids` with every
    /// request on the wire before the first reply is read:
    /// [`fanout_ahead`](Self::fanout_ahead) at a depth of `ids.len()`.
    pub fn fanout<T>(
        &self,
        ids: &[u32],
        op: &'static str,
        send: impl FnMut(usize, &mut BrickClient) -> Result<(), Error>,
        recv: impl FnMut(usize, &mut BrickClient) -> Result<T, Error>,
    ) -> Vec<Result<T, Error>> {
        self.fanout_ahead(ids, op, ids.len(), send, recv)
    }

    /// Pipelined scatter-gather over the bricks in `ids` with bounded
    /// read-ahead: locks one lane per brick in ascending brick-id order,
    /// then, in caller order, runs `recv` for each index once `send` has
    /// run for it and for the indices after it up to `depth` requests in
    /// all (at least one: depth 1 is one request at a time, depth 2 one
    /// brick ahead of the reply being read). Each connection carries
    /// exactly one outstanding request, so a failure on one brick never
    /// desyncs another: the result vector is per-index, aligned with
    /// `ids`, and indices that failed in transport or framing have had
    /// their connection dropped. The depth changes only how many replies
    /// wait at once, never what any index returns.
    ///
    /// A brick named at more than one index is served at the first only.
    /// Every later index gets the transient [`Error::DuplicateBrick`]
    /// without waiting for a lane: with one lane per brick, or every
    /// other lane busy, that wait would be on the lane this call already
    /// holds, forever. Callers retry it per shard after the fan-out.
    pub fn fanout_ahead<T>(
        &self,
        ids: &[u32],
        op: &'static str,
        depth: usize,
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
            match self.ensure_connected(&mut slot, ids[i], op) {
                Ok(()) => guards[i] = Some(slot),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        // Caller order: before reply `i` is read, every request up to
        // index `i + depth - 1` is on the wire.
        let mut sent = 0;
        for i in 0..ids.len() {
            let window = ids.len().min(i.saturating_add(depth.max(1)));
            for j in sent..window {
                if results[j].is_some() {
                    continue;
                }
                let slot = guards[j].as_mut().expect("acquired");
                if let Err(e) = send(j, slot.client.as_mut().expect("connected")) {
                    slot.client = None;
                    results[j] = Some(Err(e));
                }
            }
            if i == 0 {
                // The first window is on the wire. Yielding once lets
                // any brick thread that is runnable but has not run
                // answer before the first read, so it finds the reply
                // already buffered. It does not make the fan-out two
                // context switches: on one CPU (Linux 6.18, 6+2
                // geometry, 683-byte shards, all sent at once) a woken
                // brick thread mostly preempts the gateway while it
                // sends, and the gateway thread takes ~4.3 involuntary
                // switches and no voluntary ones per 6-shard get
                // (`nonvoluntary_ctxt_switches` in
                // `/proc/thread-self/status`, 20,000 gets).
                std::thread::yield_now();
            }
            sent = window;
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
    /// blocks on lane 0. Multi-brick callers go through `fanout_ahead`,
    /// whose ascending-id acquisition of distinct bricks keeps this
    /// deadlock-free.
    fn lock_lane(&self, id: u32) -> MutexGuard<'_, Slot> {
        let lanes = &self.lanes[id as usize];
        for lane in lanes {
            if let Ok(guard) = lane.try_lock() {
                return guard;
            }
        }
        lanes[0].lock().expect("slot lock")
    }

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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

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

    /// Read-ahead changes how many requests are on the wire, never what
    /// an index returns: with the middle of three bricks shut down after
    /// its lane was dialed, one at a time, one ahead and all at once give
    /// the same per-index results, and the broken lane is dropped while
    /// the live bricks' lanes stay warm.
    #[test]
    fn read_ahead_depth_never_changes_a_result() {
        let (a, ha) = start_brick(0);
        let (c, hc) = start_brick(2);
        let acked = |r: &Result<(u64, u32), Error>| r.clone().ok();
        for depth in [1, 2, usize::MAX] {
            let (b, hb) = start_brick(1);
            let pool = ConnectionPool::new(vec![a, b, c], Duration::from_millis(300), 1);
            for id in 0..3 {
                pool.with(id, "heartbeat", |c| c.heartbeat(0))
                    .expect("warm");
            }
            stop_brick(b);
            hb.join().expect("join").expect("run");
            let results = pool.fanout_ahead(
                &[0, 1, 2],
                "heartbeat",
                depth,
                |i, c| c.send_request(&Frame::Heartbeat { seq: i as u64 }),
                |_i, c| match c.recv_reply()? {
                    Frame::HeartbeatAck { seq, brick_id, .. } => Ok((seq, brick_id)),
                    other => panic!("not an ack: {other:?}"),
                },
            );
            let ctx = format!("depth {depth}: {results:?}");
            assert_eq!(
                results.iter().map(acked).collect::<Vec<_>>(),
                [Some((0, 0)), None, Some((2, 2))],
                "{ctx}"
            );
            assert!(
                results[1].as_ref().is_err_and(Error::breaks_stream),
                "{ctx}"
            );
            let connected = |id: usize| pool.lanes[id][0].lock().expect("slot").client.is_some();
            assert_eq!(
                (0..3).map(connected).collect::<Vec<_>>(),
                [true, false, true],
                "{ctx}"
            );
        }
        for (addr, handle) in [(a, ha), (c, hc)] {
            stop_brick(addr);
            handle.join().expect("join").expect("run");
        }
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
}
