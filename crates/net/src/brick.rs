//! The brick daemon: a TCP server storing erasure-coded shards keyed by
//! `(object, pos)`, one handler thread per connection. Every frame is
//! bounded by read/write timeouts, so a peer that stalls mid-frame can
//! never wedge a handler; the wait *between* frames is not. An idle
//! connection is not a fault: its handler wakes once per read deadline
//! to see whether the brick was stopped, and otherwise waits on until
//! the peer closes the socket (a dropped gateway, or a killed process
//! whose kernel closes it). A peer that vanishes without closing (a
//! host crash) therefore leaves one parked handler per pooled lane.
//!
//! Shards live in memory — the paper's brick is a storage *node* model,
//! and what this layer exercises is the distributed-systems surface
//! (detection, degraded reads, rebuild), not the disk. A kill-9 of a
//! brick therefore loses its shards, which is exactly the failure the
//! erasure code and rebuild coordinator exist to absorb.
//!
//! One loop serves every request. A [`Frame::Batch`] is read whole —
//! every request it announces — before any of them is served; any other
//! request, data or control, is served as a batch of one. The replies
//! leave in order, in one gathered write, through one writer
//! (`wire::Gather`), so a bare request and a batch of one get the same
//! bytes back. A batch that cannot be read whole (a count over
//! [`MAX_BATCH_LEN`], a request that is not a data request, EOF before
//! the last request) is answered with one typed `BAD_REQUEST`, best
//! effort, and the connection dropped: nothing in it is served.

use std::collections::BTreeMap;
use std::io::{self, BufRead};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nsr_obs::{Json, Span, SpanContext};

use crate::error::Error;
use crate::obs;
use crate::wire::{read_frame_reusing, reply_code, write_frame, Frame, Gather, MAX_BATCH_LEN};

/// Tuning for a brick daemon.
#[derive(Debug, Clone)]
pub struct BrickConfig {
    /// This brick's id, echoed in heartbeat acks.
    pub id: u32,
    /// Per-socket read deadline.
    pub read_timeout: Duration,
    /// Per-socket write deadline.
    pub write_timeout: Duration,
}

impl BrickConfig {
    /// Default timeouts (2 s) for brick `id`.
    pub fn new(id: u32) -> Self {
        BrickConfig {
            id,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// Shards are shared buffers: a read clones the handle under the map
/// lock and writes the bytes to its socket after the lock is released,
/// so a large shard is neither copied nor does sending it hold up the
/// other connections; an overwrite swaps the handle, so a read sees one
/// whole version or the other.
///
/// A buffer that leaves the map (overwrite or delete) is kept as its
/// connection's *spare* if no read still holds it (`Arc::try_unwrap`),
/// and the connection's next put of exactly that length is read into it
/// instead of a fresh zero-filled allocation (`wire::read_frame_reusing`).
/// A buffer a racing reader holds is never reused, a put of another
/// length never sees a stale tail (the spare is dropped), and memory is
/// bounded by one shard per connection.
type ShardMap = BTreeMap<(u64, u32), Arc<Vec<u8>>>;

/// What a request is answered with.
enum Reply {
    /// A stored shard, written straight from the shared buffer.
    Shard(Arc<Vec<u8>>),
    /// Anything else.
    Frame(Frame),
}

/// Per-server telemetry shared by every connection handler: the scrape
/// snapshot sequence (bumped per served scrape, echoed on heartbeat
/// acks as the staleness signal) and a coarse served-request count.
struct Telemetry {
    snap_seq: AtomicU64,
    requests: AtomicU64,
}

/// A running brick server bound to a local address.
pub struct BrickServer {
    cfg: BrickConfig,
    listener: TcpListener,
    addr: SocketAddr,
    shards: Arc<Mutex<ShardMap>>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
}

impl BrickServer {
    /// Binds to `addr` (use port 0 to let the OS pick) without starting
    /// the accept loop.
    pub fn bind(addr: impl ToSocketAddrs, cfg: BrickConfig) -> Result<BrickServer, Error> {
        let listener = TcpListener::bind(addr).map_err(|e| Error::from_io("bind", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::from_io("local_addr", &e))?;
        Ok(BrickServer {
            cfg,
            listener,
            addr,
            shards: Arc::new(Mutex::new(BTreeMap::new())),
            stop: Arc::new(AtomicBool::new(false)),
            telemetry: Arc::new(Telemetry {
                snap_seq: AtomicU64::new(0),
                requests: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves the OS-picked port after `bind("…:0")`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the accept loop until a [`Frame::Shutdown`] arrives. Each
    /// connection gets its own handler thread; the shutdown handler
    /// wakes the accept loop with a dummy connection so `run` returns
    /// promptly. In-flight handlers are not joined — the listener
    /// closes immediately and each handler winds down on its own within
    /// its read deadline.
    pub fn run(self) -> Result<(), Error> {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::from_io("accept", &e)),
            };
            let cfg = self.cfg.clone();
            let shards = Arc::clone(&self.shards);
            let stop = Arc::clone(&self.stop);
            let telemetry = Arc::clone(&self.telemetry);
            let addr = self.addr;
            std::thread::spawn(move || {
                // Handler errors mean the peer vanished or spoke garbage;
                // the brick just drops that connection and keeps serving.
                let _ = handle_connection(stream, &cfg, &shards, &stop, &telemetry, addr);
            });
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        Ok(())
    }

    /// Spawns the accept loop on a background thread and returns the
    /// bound address plus the join handle — the in-process harness used
    /// by tests (the `nsr brick` daemon calls [`run`](Self::run)
    /// directly).
    pub fn spawn(self) -> (SocketAddr, std::thread::JoinHandle<Result<(), Error>>) {
        let addr = self.addr;
        let handle = std::thread::spawn(move || self.run());
        (addr, handle)
    }
}

fn handle_connection(
    stream: TcpStream,
    cfg: &BrickConfig,
    shards: &Mutex<ShardMap>,
    stop: &Arc<AtomicBool>,
    telemetry: &Telemetry,
    self_addr: SocketAddr,
) -> Result<(), Error> {
    stream
        .set_read_timeout(Some(cfg.read_timeout))
        .map_err(|e| Error::from_io("set_read_timeout", &e))?;
    stream
        .set_write_timeout(Some(cfg.write_timeout))
        .map_err(|e| Error::from_io("set_write_timeout", &e))?;
    // Replies must leave as soon as they are flushed. Without this, a
    // shard reply smaller than the (huge, on loopback) MSS sits in the
    // Nagle buffer until the peer's delayed ACK — a ~40 ms stall per
    // fetch that dwarfs the actual transfer.
    stream
        .set_nodelay(true)
        .map_err(|e| Error::from_io("set_nodelay", &e))?;
    let mut reader = io::BufReader::with_capacity(
        crate::wire::IO_READ_BUF_LEN,
        stream
            .try_clone()
            .map_err(|e| Error::from_io("clone_stream", &e))?,
    );
    let mut writer = io::BufWriter::with_capacity(crate::wire::IO_WRITE_BUF_LEN, stream);
    // Remote trace context announced by the previous frame on this
    // connection; consumed by the next non-context request.
    let mut pending_ctx: Option<SpanContext> = None;
    // The last shard buffer this connection displaced (see `ShardMap`).
    let mut spare: Vec<u8> = Vec::new();
    // The requests being served and their replies, kept across requests.
    let mut batch: Vec<Frame> = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    loop {
        // Wait for the first byte of the next frame. A deadline that
        // expires here is idleness, not a fault: a stopped brick's
        // handler leaves, any other waits on. This is the read the
        // frame's header would have made, so serving costs no syscall.
        match reader.fill_buf() {
            // Peer closed cleanly between frames — normal teardown.
            Ok([]) => return Ok(()),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => match Error::from_io("read_frame", &e) {
                Error::Timeout { .. } if stop.load(Ordering::SeqCst) => return Ok(()),
                Error::Timeout { .. } => continue,
                e => return Err(e),
            },
        }
        let request = match read_frame_reusing(&mut reader, &mut spare) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()),
            // Stalled past the read deadline mid-frame: drop the
            // connection. This is what keeps a wedged peer from pinning
            // a handler thread forever.
            Err(Error::Timeout { .. }) => return Ok(()),
            Err(e @ Error::Decode { .. }) => return Err(refuse(&mut writer, e)),
            Err(e) => return Err(e),
        };
        // A shut-down brick is dead to every peer, including ones with
        // connections already open — drop them without answering, the
        // same silence a killed process would produce.
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Trace-context prefix frames are fire-and-forget: remember the
        // remote parent for the next request, send nothing back.
        if let Frame::TraceCtx { proc, span } = request {
            pending_ctx = Some(SpanContext {
                proc_id: proc,
                span_id: span,
            });
            continue;
        }
        // A batch is read whole before any of it is served; any other
        // request is served as a batch of one.
        let shutting_down = matches!(request, Frame::Shutdown);
        if let Frame::Batch { count } = request {
            if let Err(e) = read_batch(&mut reader, count, &mut spare, &mut batch) {
                return Err(refuse(&mut writer, e));
            }
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
        } else {
            batch.push(request);
        }
        // One context parents every handler span of the batch.
        let ctx = pending_ctx.take();
        for request in batch.drain(..) {
            obs::BRICK_REQUESTS.inc();
            telemetry.requests.fetch_add(1, Ordering::Relaxed);
            replies.push(dispatch(request, cfg, shards, ctx, telemetry, &mut spare));
        }
        // The replies, in order, in one write: a shard straight from the
        // stored buffer, no copy.
        let mut out = Gather::default();
        for reply in &replies {
            match reply {
                Reply::Shard(data) => out.shard_data(data)?,
                Reply::Frame(frame) => out.frame(frame),
            }
        }
        out.write_to(&mut writer)?;
        // Let go of the shards sent, so an overwrite can recycle them.
        replies.clear();
        if shutting_down {
            stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so run() observes the stop flag.
            let _ = TcpStream::connect_timeout(&self_addr, Duration::from_millis(200));
            return Ok(());
        }
    }
}

/// Answers a request the brick cannot serve with a typed `BAD_REQUEST`
/// (best effort) and hands back the error, after which the connection is
/// dropped: resynchronising a length-prefixed stream mid-frame, or
/// mid-batch, is not possible.
fn refuse(writer: &mut impl io::Write, e: Error) -> Error {
    let _ = write_frame(
        writer,
        &Frame::ErrorReply {
            code: reply_code::BAD_REQUEST,
            detail: e.to_string(),
        },
    );
    e
}

/// Reads the `count` requests a [`Frame::Batch`] announces into `requests`,
/// all of them before any is served, into `spare` as `read_frame_reusing`
/// does. Any frame but a data request, a count over [`MAX_BATCH_LEN`],
/// and EOF before the last request are errors.
fn read_batch(
    reader: &mut impl io::BufRead,
    count: u32,
    spare: &mut Vec<u8>,
    requests: &mut Vec<Frame>,
) -> Result<(), Error> {
    if count > MAX_BATCH_LEN {
        return Err(Error::Protocol {
            what: format!("batch of {count} requests exceeds the {MAX_BATCH_LEN}-request cap"),
        });
    }
    for read in 0..count {
        match read_frame_reusing(reader, spare)? {
            Some(request) if request.is_data_request() => requests.push(request),
            Some(other) => {
                return Err(Error::Protocol {
                    what: format!("`{}` inside a batch", other.name()),
                })
            }
            None => {
                return Err(Error::Decode {
                    what: format!("connection closed after {read} of {count} batched requests"),
                })
            }
        }
    }
    Ok(())
}

fn dispatch(
    request: Frame,
    cfg: &BrickConfig,
    shards: &Mutex<ShardMap>,
    ctx: Option<SpanContext>,
    telemetry: &Telemetry,
    spare: &mut Vec<u8>,
) -> Reply {
    Reply::Frame(match request {
        // By-value dispatch: the decoded shard bytes — read off the wire
        // into an exactly-sized buffer — move straight into the store,
        // so a put never copies the payload on the brick.
        Frame::PutShard { object, pos, data } => {
            let _span = handler_span("net.brick.put", ctx, cfg.id, object, pos);
            let displaced = shards
                .lock()
                .expect("shard map lock")
                .insert((object, pos), Arc::new(data));
            recycle(displaced, spare);
            Frame::Ok
        }
        Frame::GetShard { object, pos } => {
            let _span = handler_span("net.brick.get", ctx, cfg.id, object, pos);
            return fetch_shard(shards, object, pos);
        }
        Frame::RebuildFetch { object, pos } => {
            let _span = handler_span("net.brick.rebuild_fetch", ctx, cfg.id, object, pos);
            nsr_obs::trace::event("net.brick.rebuild_fetch", || {
                vec![
                    ("brick", Json::Num(cfg.id as f64)),
                    ("object", Json::Num(object as f64)),
                    ("pos", Json::Num(pos as f64)),
                ]
            });
            return fetch_shard(shards, object, pos);
        }
        Frame::DeleteShard { object, pos } => {
            let _span = handler_span("net.brick.delete", ctx, cfg.id, object, pos);
            let removed = shards
                .lock()
                .expect("shard map lock")
                .remove(&(object, pos));
            recycle(removed, spare);
            Frame::Ok
        }
        Frame::Heartbeat { seq } => Frame::HeartbeatAck {
            seq,
            brick_id: cfg.id,
            shards: shards.lock().expect("shard map lock").len() as u64,
            snap_seq: telemetry.snap_seq.load(Ordering::Relaxed),
            load: telemetry.requests.load(Ordering::Relaxed),
        },
        Frame::ListShards => Frame::ShardList {
            entries: shards
                .lock()
                .expect("shard map lock")
                .keys()
                .copied()
                .collect(),
        },
        Frame::Scrape { cursor, max_lines } => scrape_reply(cursor, max_lines, cfg, telemetry),
        Frame::Shutdown => Frame::Ok,
        // A response frame arriving as a request is a protocol violation.
        other => Frame::ErrorReply {
            code: reply_code::BAD_REQUEST,
            detail: format!("unexpected request frame `{}`", other.name()),
        },
    })
}

/// Keeps a shard buffer that just left the map as the connection's spare
/// — only if no read still holds it, so a racing reader's bytes are never
/// reused. Called after the map lock is released; the previous spare, and
/// a buffer a reader still holds once that reader lets go, are freed.
fn recycle(displaced: Option<Arc<Vec<u8>>>, spare: &mut Vec<u8>) {
    if let Some(buf) = displaced.and_then(|arc| Arc::try_unwrap(arc).ok()) {
        *spare = buf;
    }
}

/// Opens the brick-side handler span for a data operation. With a
/// remote context the span records its cross-process parent; without
/// one (legacy peer, or tracing disabled) no span is recorded at all,
/// keeping single-process traces exactly as they were.
fn handler_span(
    name: &'static str,
    ctx: Option<SpanContext>,
    brick: u32,
    object: u64,
    pos: u32,
) -> Option<Span> {
    let ctx = ctx?;
    let mut span = Span::enter_remote(name, ctx);
    span.field("brick", || Json::Num(brick as f64));
    span.field("object", || Json::Num(object as f64));
    span.field("pos", || Json::Num(pos as f64));
    Some(span)
}

/// Serves one [`Frame::Scrape`]: metrics snapshot, bounded trace delta,
/// and a bumped snapshot sequence. Deliberately span-free — scrapes are
/// telemetry about the telemetry and must not perturb the causal tree
/// they report on.
fn scrape_reply(cursor: u64, max_lines: u32, cfg: &BrickConfig, telemetry: &Telemetry) -> Frame {
    obs::SCRAPE_REQUESTS.inc();
    let snap_seq = telemetry.snap_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let (label, proc_id) = match nsr_obs::trace_process() {
        Some((label, id)) => (label, id),
        None => {
            let label = format!("brick-{}", cfg.id);
            let id = nsr_obs::process_id_for(&label);
            (label, id)
        }
    };
    let metrics = nsr_obs::metrics_jsonl(&label).into_bytes();
    let (next_cursor, lines) = nsr_obs::trace_delta(cursor, max_lines as usize);
    obs::SCRAPE_LINES.add(lines.len() as u64);
    let mut trace = String::new();
    for line in &lines {
        trace.push_str(line);
        trace.push('\n');
    }
    Frame::ScrapeReply {
        proc_id,
        snap_seq,
        next_cursor,
        label,
        metrics,
        trace: trace.into_bytes(),
        status: Vec::new(),
    }
}

fn fetch_shard(shards: &Mutex<ShardMap>, object: u64, pos: u32) -> Reply {
    // The lock covers the lookup and a reference-count bump, nothing else.
    let found = shards
        .lock()
        .expect("shard map lock")
        .get(&(object, pos))
        .cloned();
    match found {
        Some(data) => Reply::Shard(data),
        None => Reply::Frame(Frame::ErrorReply {
            code: reply_code::SHARD_NOT_FOUND,
            detail: format!("obj{object} pos{pos}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BrickClient;

    fn start() -> (SocketAddr, std::thread::JoinHandle<Result<(), Error>>) {
        BrickServer::bind("127.0.0.1:0", BrickConfig::new(7))
            .expect("bind")
            .spawn()
    }

    #[test]
    fn put_get_delete_round_trip() {
        let (addr, handle) = start();
        let mut c = BrickClient::connect(addr, Duration::from_secs(2)).expect("connect");
        c.put_shard(9, 2, &[1, 2, 3]).expect("put");
        assert_eq!(c.get_shard(9, 2).expect("get"), vec![1, 2, 3]);
        assert_eq!(c.list_shards().expect("list"), vec![(9, 2)]);
        c.delete_shard(9, 2).expect("delete");
        assert!(matches!(
            c.get_shard(9, 2),
            Err(Error::ShardNotFound { object: 9, pos: 2 })
        ));
        let ack = c.heartbeat(5).expect("heartbeat");
        assert_eq!(ack.brick_id, 7);
        assert_eq!(ack.shards, 0);
        c.shutdown().expect("shutdown");
        handle.join().expect("join").expect("run");
    }

    #[test]
    fn a_read_racing_overwrites_sees_one_whole_version() {
        // One connection overwrites a 256 KiB shard with alternating
        // all-0xAA / all-0x55 payloads while another reads it in a loop.
        // Reads send from the shared buffer with the map lock released, so
        // what keeps a reply from mixing two versions is that an overwrite
        // swaps the buffer rather than writing into it.
        const LEN: usize = 256 * 1024;
        const OVERWRITES: usize = 200;
        let (addr, handle) = start();
        let mut writer = BrickClient::connect(addr, Duration::from_secs(2)).expect("connect");
        let mut reader = BrickClient::connect(addr, Duration::from_secs(2)).expect("connect");
        writer.put_shard(1, 0, &vec![0xAA; LEN]).expect("first put");
        let go = std::sync::Barrier::new(2);
        let done = AtomicBool::new(false);
        let reads = std::thread::scope(|s| {
            s.spawn(|| {
                go.wait();
                for i in 0..OVERWRITES {
                    let byte = if i % 2 == 0 { 0x55 } else { 0xAA };
                    writer.put_shard(1, 0, &vec![byte; LEN]).expect("overwrite");
                }
                done.store(true, Ordering::SeqCst);
            });
            go.wait();
            let mut reads = 0usize;
            while !done.load(Ordering::SeqCst) || reads == 0 {
                let got = reader.get_shard(1, 0).expect("get");
                assert_eq!(got.len(), LEN);
                assert!(
                    got[0] == 0xAA || got[0] == 0x55,
                    "a byte nobody wrote: {:#x}",
                    got[0]
                );
                assert!(got.iter().all(|&b| b == got[0]), "torn read #{reads}");
                reads += 1;
            }
            reads
        });
        assert!(reads > 0);
        writer.shutdown().expect("shutdown");
        handle.join().expect("join").expect("run");
    }

    #[test]
    fn shorter_then_longer_overwrites_read_back_exact_bytes() {
        // Each overwrite hands the connection the buffer it displaced; a
        // put of another length must drop it rather than reuse it, and a
        // same-length put must overwrite every byte of it.
        let (addr, handle) = start();
        let mut c = BrickClient::connect(addr, Duration::from_secs(2)).expect("connect");
        for (len, byte) in [
            (1000, 0x11),
            (1000, 0x22), // the 0x11 buffer becomes the spare
            (1000, 0x33), // read into the dirty 0x11 buffer
            (600, 0x44),  // shorter: the spare (0x22) is dropped
            (1500, 0x55), // longer: the spare (0x33) is dropped
            (1500, 0x66), // the spare is the 600-byte 0x44 buffer: dropped
            (1500, 0x77), // read into the dirty 0x55 buffer
            (0, 0x88),
            (3, 0x99),
        ] {
            let payload = vec![byte; len];
            c.put_shard(4, 1, &payload).expect("put");
            assert_eq!(
                c.get_shard(4, 1).expect("get"),
                payload,
                "{len} x {byte:#x}"
            );
        }
        // A delete recycles as well; the next put must still be exact.
        c.delete_shard(4, 1).expect("delete");
        c.put_shard(4, 1, &[9, 8, 7]).expect("put after delete");
        assert_eq!(c.get_shard(4, 1).expect("get"), vec![9, 8, 7]);
        c.shutdown().expect("shutdown");
        handle.join().expect("join").expect("run");
    }

    #[test]
    fn garbage_bytes_get_typed_reply_and_drop() {
        let (addr, handle) = start();
        {
            use std::io::Write;
            let mut raw = TcpStream::connect(addr).expect("connect");
            raw.write_all(&[0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff])
                .expect("write garbage");
            // The brick replies with a typed error (or drops us) and the
            // connection closes; either way the server must survive.
        }
        let mut c = BrickClient::connect(addr, Duration::from_secs(2)).expect("reconnect");
        assert!(c.heartbeat(1).is_ok(), "brick still serving after garbage");
        c.shutdown().expect("shutdown");
        handle.join().expect("join").expect("run");
    }

    /// Read deadline of the raw-socket tests below.
    const DEADLINE: Duration = Duration::from_millis(300);

    /// A brick with a [`DEADLINE`] read deadline, and a raw connection to
    /// it that waits up to two deadlines for a reply.
    fn start_raw() -> (
        SocketAddr,
        std::thread::JoinHandle<Result<(), Error>>,
        TcpStream,
    ) {
        let mut cfg = BrickConfig::new(7);
        cfg.read_timeout = DEADLINE;
        let (addr, handle) = BrickServer::bind("127.0.0.1:0", cfg).expect("bind").spawn();
        let raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(2 * DEADLINE)).expect("timeout");
        (addr, handle, raw)
    }

    /// Reads until the brick closes the connection, or fails after the
    /// raw socket's own two-deadline wait.
    fn await_close(raw: &mut TcpStream) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        loop {
            match raw.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return,
                Err(e) => panic!("connection still open after two deadlines: {e}"),
            }
        }
    }

    #[test]
    fn an_idle_connection_outlives_the_read_deadline() {
        let (addr, handle, mut raw) = start_raw();
        std::thread::sleep(3 * DEADLINE);
        write_frame(&mut raw, &Frame::Heartbeat { seq: 3 }).expect("send after idle");
        let reply = crate::wire::read_frame(&mut io::BufReader::new(&raw)).expect("reply");
        assert!(
            matches!(
                reply,
                Some(Frame::HeartbeatAck {
                    seq: 3,
                    brick_id: 7,
                    ..
                })
            ),
            "{reply:?}"
        );
        BrickClient::connect(addr, DEADLINE)
            .and_then(|mut c| c.shutdown())
            .expect("shutdown");
        handle.join().expect("join").expect("run");
        // A stopped brick's parked handler still leaves within a deadline.
        await_close(&mut raw);
    }

    #[test]
    fn a_peer_stalled_mid_frame_is_dropped_within_two_deadlines() {
        use std::io::Write;
        let (addr, handle, mut raw) = start_raw();
        let start = std::time::Instant::now();
        raw.write_all(&[9, 0]).expect("half a length prefix");
        await_close(&mut raw);
        assert!(start.elapsed() < 2 * DEADLINE, "{:?}", start.elapsed());
        BrickClient::connect(addr, DEADLINE)
            .and_then(|mut c| c.shutdown())
            .expect("shutdown");
        handle.join().expect("join").expect("run");
    }
}
