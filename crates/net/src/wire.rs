//! Length-prefixed binary wire protocol between gateway and bricks.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +----------------+--------+-------------------+
//! | u32 LE length  | u8 tag | payload (length-1)|
//! +----------------+--------+-------------------+
//! ```
//!
//! The length counts the tag byte plus the payload, so an empty-payload
//! frame has length 1. All multi-byte integers in payloads are
//! little-endian. Variable-length byte fields are `u32 LE length`
//! followed by the bytes. Decoding is strict: unknown tags, truncated
//! payloads, trailing bytes, and frames above [`MAX_FRAME_LEN`] are all
//! typed [`Error::Decode`] values — never panics.
//!
//! Data requests (`GetShard`, `RebuildFetch`, `PutShard`, `DeleteShard`)
//! travel in batches. A [`Frame::Batch`] prefix announces that the next
//! `count` frames on the connection are data requests; the peer reads all
//! of them before it serves any, and answers with their ordinary reply
//! frames, in order, in one gathered write: one wake-up and one flush per
//! batch instead of one per request. A bare data request is a batch of
//! one. [`write_batch`] is the one writer of data requests: a single
//! request bare, any other number behind the prefix, as one gathered
//! write from borrowed payloads whose bytes are exactly the prefix's (if
//! any) and the requests' [`Frame::encode`]s, concatenated. The brick
//! answers either shape through one reply writer, `Gather`.

use std::io::{BufRead, BufReader, IoSlice, Read, Write};

use crate::error::Error;

/// Upper bound on a frame's `length` field (64 MiB). A peer announcing
/// more than this is malformed or hostile; the connection is dropped
/// with a typed decode error rather than attempting the allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// The largest shard the protocol carries: a [`Frame::PutShard`] spends 17
/// bytes of [`MAX_FRAME_LEN`] on its tag, object id, position and byte
/// count. [`write_batch`] and the brick's reply writer refuse anything
/// longer, and the gateway rejects an object whose shards would be
/// (`Error::ObjectTooLarge`) before it encodes or sends a byte.
pub const MAX_SHARD_LEN: usize = MAX_FRAME_LEN as usize - 17;

/// `BufWriter` capacity for connection sockets. Deliberately small:
/// control frames coalesce into one syscall, while shard payloads
/// *exceed* the capacity, which makes `BufWriter` hand the gathered
/// header + payload write straight to the socket as a single `writev`
/// — no intermediate copy of the bulk bytes.
pub const IO_WRITE_BUF_LEN: usize = 4 * 1024;

/// `BufReader` capacity for connection sockets. Sized to sit between
/// the two kinds of frame: every control frame and every small-object
/// shard (683 B at 4 KiB objects, 10.9 KiB at 64 KiB) arrives whole in
/// one blocking `read` — header and payload together, because there a
/// syscall costs more than the buffer memcpy it avoids — while a large
/// shard (171 KiB at 1 MiB objects) overflows it, so all but the head
/// of its payload is read from the socket straight into its final
/// destination (see [`read_shard_into`]) instead of bouncing through
/// the buffer: past a few tens of KiB the memcpy is the larger cost.
pub const IO_READ_BUF_LEN: usize = 16 * 1024;

/// Most requests one [`Frame::Batch`] may announce. A brick refuses a
/// larger count before it reads a single request, so a hostile prefix
/// cannot make it buffer an unbounded batch.
pub const MAX_BATCH_LEN: u32 = 1024;

/// Remote error codes carried by [`Frame::ErrorReply`].
pub mod reply_code {
    /// The requested shard is not stored on the brick.
    pub const SHARD_NOT_FOUND: u16 = 1;
    /// The request frame was not valid in the brick's current state.
    pub const BAD_REQUEST: u16 = 2;
    /// The brick is shutting down and not accepting work.
    pub const SHUTTING_DOWN: u16 = 3;
}

/// A protocol frame: every request a gateway or the rebuild coordinator
/// can send to a brick, and every response a brick can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Store one erasure-coded shard.
    PutShard {
        /// Object id the shard belongs to.
        object: u64,
        /// Shard position within the object's redundancy set.
        pos: u32,
        /// Shard bytes.
        data: Vec<u8>,
    },
    /// Fetch one shard.
    GetShard {
        /// Object id.
        object: u64,
        /// Shard position.
        pos: u32,
    },
    /// Remove one shard (used when a rebuild re-homes it).
    DeleteShard {
        /// Object id.
        object: u64,
        /// Shard position.
        pos: u32,
    },
    /// Liveness probe from the failure detector.
    Heartbeat {
        /// Monotonic probe sequence number.
        seq: u64,
    },
    /// Enumerate every `(object, pos)` shard the brick stores.
    ListShards,
    /// Fetch a shard on behalf of a rebuild (distinct tag so rebuild
    /// transfer traffic is separately visible in traces and metrics).
    RebuildFetch {
        /// Object id.
        object: u64,
        /// Shard position.
        pos: u32,
    },
    /// Ask the brick to exit cleanly (used by orderly test teardown;
    /// kill-9 campaigns never send it).
    Shutdown,
    /// Trace-context prefix: announces the caller's open span so the
    /// peer can parent its handler span across the process boundary.
    /// Fire-and-forget — the receiver applies it to the *next* request
    /// on the same connection and never replies to it.
    TraceCtx {
        /// Stable id of the sending process (see `nsr_obs::process_id_for`).
        proc: u64,
        /// Span id of the caller's currently open span.
        span: u64,
    },
    /// Ask the peer for its telemetry: a metrics snapshot plus a
    /// bounded trace delta starting at `cursor` (cursor-based, so
    /// repeated scrapes never replay lines).
    Scrape {
        /// Trace cursor from the previous [`Frame::ScrapeReply`]
        /// (0 on the first scrape).
        cursor: u64,
        /// Maximum trace lines to return in one reply.
        max_lines: u32,
    },
    /// Batch prefix: the next `count` frames on the connection are data
    /// requests, read whole before any is served and answered with their
    /// ordinary replies, in order, in one write. Never replied to itself.
    Batch {
        /// Requests that follow (at most [`MAX_BATCH_LEN`]).
        count: u32,
    },
    /// Generic success response.
    Ok,
    /// Response carrying one shard's bytes.
    ShardData {
        /// Shard bytes.
        data: Vec<u8>,
    },
    /// Heartbeat response.
    HeartbeatAck {
        /// Echo of the probe's sequence number.
        seq: u64,
        /// The responding brick's id.
        brick_id: u32,
        /// Number of shards currently stored (cheap load signal).
        shards: u64,
        /// Metrics-snapshot sequence number: bumped on every scrape the
        /// brick serves, so heartbeats double as a scrape-staleness
        /// signal with no extra round trip.
        snap_seq: u64,
        /// Coarse health summary: total requests served (monotonic).
        load: u64,
    },
    /// Response to [`Frame::ListShards`].
    ShardList {
        /// Every stored `(object, pos)` pair.
        entries: Vec<(u64, u32)>,
    },
    /// Typed failure response.
    ErrorReply {
        /// Machine-readable code (see [`reply_code`]).
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// Response to [`Frame::Scrape`]: one process's telemetry.
    ScrapeReply {
        /// Stable id of the replying process.
        proc_id: u64,
        /// Snapshot sequence number (echoed on heartbeat acks).
        snap_seq: u64,
        /// Cursor to pass on the next scrape to resume the trace
        /// stream without replaying.
        next_cursor: u64,
        /// Human-readable process label (e.g. `brick-3`).
        label: String,
        /// Metrics snapshot, JSONL-rendered.
        metrics: Vec<u8>,
        /// Trace delta: rendered trace lines, newline-separated.
        trace: Vec<u8>,
        /// Process-specific status blob, JSONL-rendered (per-brick
        /// health from a gateway; empty from a brick).
        status: Vec<u8>,
    },
}

const TAG_PUT_SHARD: u8 = 0x01;
const TAG_GET_SHARD: u8 = 0x02;
const TAG_DELETE_SHARD: u8 = 0x03;
const TAG_HEARTBEAT: u8 = 0x04;
const TAG_LIST_SHARDS: u8 = 0x05;
const TAG_REBUILD_FETCH: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;
const TAG_TRACE_CTX: u8 = 0x08;
const TAG_SCRAPE: u8 = 0x09;
const TAG_BATCH: u8 = 0x0a;
const TAG_OK: u8 = 0x40;
const TAG_SHARD_DATA: u8 = 0x41;
const TAG_HEARTBEAT_ACK: u8 = 0x42;
const TAG_SHARD_LIST: u8 = 0x43;
const TAG_ERROR_REPLY: u8 = 0x44;
const TAG_SCRAPE_REPLY: u8 = 0x45;

impl Frame {
    /// Whether this frame is a request (gateway → brick).
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Frame::PutShard { .. }
                | Frame::GetShard { .. }
                | Frame::DeleteShard { .. }
                | Frame::Heartbeat { .. }
                | Frame::ListShards
                | Frame::RebuildFetch { .. }
                | Frame::Shutdown
                | Frame::TraceCtx { .. }
                | Frame::Scrape { .. }
                | Frame::Batch { .. }
        )
    }

    /// Whether this frame is a data request: one of the four kinds a
    /// [`Frame::Batch`] may carry.
    pub fn is_data_request(&self) -> bool {
        matches!(
            self,
            Frame::PutShard { .. }
                | Frame::GetShard { .. }
                | Frame::DeleteShard { .. }
                | Frame::RebuildFetch { .. }
        )
    }

    /// Short name for tracing.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::PutShard { .. } => "put_shard",
            Frame::GetShard { .. } => "get_shard",
            Frame::DeleteShard { .. } => "delete_shard",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::ListShards => "list_shards",
            Frame::RebuildFetch { .. } => "rebuild_fetch",
            Frame::Shutdown => "shutdown",
            Frame::TraceCtx { .. } => "trace_ctx",
            Frame::Scrape { .. } => "scrape",
            Frame::Batch { .. } => "batch",
            Frame::Ok => "ok",
            Frame::ShardData { .. } => "shard_data",
            Frame::HeartbeatAck { .. } => "heartbeat_ack",
            Frame::ShardList { .. } => "shard_list",
            Frame::ErrorReply { .. } => "error_reply",
            Frame::ScrapeReply { .. } => "scrape_reply",
        }
    }

    /// Serializes the frame into `[len][tag][payload]` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let tag = match self {
            Frame::PutShard { object, pos, data } => {
                put_u64(&mut payload, *object);
                put_u32(&mut payload, *pos);
                put_bytes(&mut payload, data);
                TAG_PUT_SHARD
            }
            Frame::GetShard { object, pos } => {
                put_u64(&mut payload, *object);
                put_u32(&mut payload, *pos);
                TAG_GET_SHARD
            }
            Frame::DeleteShard { object, pos } => {
                put_u64(&mut payload, *object);
                put_u32(&mut payload, *pos);
                TAG_DELETE_SHARD
            }
            Frame::Heartbeat { seq } => {
                put_u64(&mut payload, *seq);
                TAG_HEARTBEAT
            }
            Frame::ListShards => TAG_LIST_SHARDS,
            Frame::RebuildFetch { object, pos } => {
                put_u64(&mut payload, *object);
                put_u32(&mut payload, *pos);
                TAG_REBUILD_FETCH
            }
            Frame::Shutdown => TAG_SHUTDOWN,
            Frame::TraceCtx { proc, span } => {
                put_u64(&mut payload, *proc);
                put_u64(&mut payload, *span);
                TAG_TRACE_CTX
            }
            Frame::Scrape { cursor, max_lines } => {
                put_u64(&mut payload, *cursor);
                put_u32(&mut payload, *max_lines);
                TAG_SCRAPE
            }
            Frame::Batch { count } => {
                put_u32(&mut payload, *count);
                TAG_BATCH
            }
            Frame::Ok => TAG_OK,
            Frame::ShardData { data } => {
                put_bytes(&mut payload, data);
                TAG_SHARD_DATA
            }
            Frame::HeartbeatAck {
                seq,
                brick_id,
                shards,
                snap_seq,
                load,
            } => {
                put_u64(&mut payload, *seq);
                put_u32(&mut payload, *brick_id);
                put_u64(&mut payload, *shards);
                put_u64(&mut payload, *snap_seq);
                put_u64(&mut payload, *load);
                TAG_HEARTBEAT_ACK
            }
            Frame::ShardList { entries } => {
                put_u32(&mut payload, entries.len() as u32);
                for (object, pos) in entries {
                    put_u64(&mut payload, *object);
                    put_u32(&mut payload, *pos);
                }
                TAG_SHARD_LIST
            }
            Frame::ErrorReply { code, detail } => {
                payload.extend_from_slice(&code.to_le_bytes());
                put_bytes(&mut payload, detail.as_bytes());
                TAG_ERROR_REPLY
            }
            Frame::ScrapeReply {
                proc_id,
                snap_seq,
                next_cursor,
                label,
                metrics,
                trace,
                status,
            } => {
                put_u64(&mut payload, *proc_id);
                put_u64(&mut payload, *snap_seq);
                put_u64(&mut payload, *next_cursor);
                put_bytes(&mut payload, label.as_bytes());
                put_bytes(&mut payload, metrics);
                put_bytes(&mut payload, trace);
                put_bytes(&mut payload, status);
                TAG_SCRAPE_REPLY
            }
        };
        let len = 1 + payload.len() as u32;
        let mut out = Vec::with_capacity(4 + len as usize);
        out.extend_from_slice(&len.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a frame body (`tag` + `payload`, without the length
    /// prefix). The entire body must be consumed; trailing bytes are a
    /// decode error.
    pub fn decode(body: &[u8]) -> Result<Frame, Error> {
        let (&tag, payload) = body.split_first().ok_or_else(|| Error::Decode {
            what: "empty frame body (length field was 0)".to_string(),
        })?;
        let mut cur = Cursor {
            buf: payload,
            off: 0,
        };
        let frame = match tag {
            TAG_PUT_SHARD => Frame::PutShard {
                object: cur.u64()?,
                pos: cur.u32()?,
                data: cur.bytes()?,
            },
            TAG_GET_SHARD => Frame::GetShard {
                object: cur.u64()?,
                pos: cur.u32()?,
            },
            TAG_DELETE_SHARD => Frame::DeleteShard {
                object: cur.u64()?,
                pos: cur.u32()?,
            },
            TAG_HEARTBEAT => Frame::Heartbeat { seq: cur.u64()? },
            TAG_LIST_SHARDS => Frame::ListShards,
            TAG_REBUILD_FETCH => Frame::RebuildFetch {
                object: cur.u64()?,
                pos: cur.u32()?,
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_TRACE_CTX => Frame::TraceCtx {
                proc: cur.u64()?,
                span: cur.u64()?,
            },
            TAG_SCRAPE => Frame::Scrape {
                cursor: cur.u64()?,
                max_lines: cur.u32()?,
            },
            TAG_BATCH => Frame::Batch { count: cur.u32()? },
            TAG_OK => Frame::Ok,
            TAG_SHARD_DATA => Frame::ShardData { data: cur.bytes()? },
            TAG_HEARTBEAT_ACK => Frame::HeartbeatAck {
                seq: cur.u64()?,
                brick_id: cur.u32()?,
                shards: cur.u64()?,
                snap_seq: cur.u64()?,
                load: cur.u64()?,
            },
            TAG_SHARD_LIST => {
                let n = cur.u32()? as usize;
                // Each entry is 12 bytes; reject counts the remaining
                // payload cannot possibly hold before allocating.
                if n > cur.remaining() / 12 {
                    return Err(Error::Decode {
                        what: format!(
                            "shard list claims {n} entries but only {} payload bytes remain",
                            cur.remaining()
                        ),
                    });
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((cur.u64()?, cur.u32()?));
                }
                Frame::ShardList { entries }
            }
            TAG_ERROR_REPLY => {
                let code = u16::from_le_bytes(cur.take(2)?.try_into().expect("len checked"));
                let detail_bytes = cur.bytes()?;
                let detail = String::from_utf8(detail_bytes).map_err(|_| Error::Decode {
                    what: "error reply detail is not valid UTF-8".to_string(),
                })?;
                Frame::ErrorReply { code, detail }
            }
            TAG_SCRAPE_REPLY => {
                let proc_id = cur.u64()?;
                let snap_seq = cur.u64()?;
                let next_cursor = cur.u64()?;
                let label_bytes = cur.bytes()?;
                let label = String::from_utf8(label_bytes).map_err(|_| Error::Decode {
                    what: "scrape reply label is not valid UTF-8".to_string(),
                })?;
                Frame::ScrapeReply {
                    proc_id,
                    snap_seq,
                    next_cursor,
                    label,
                    metrics: cur.bytes()?,
                    trace: cur.bytes()?,
                    status: cur.bytes()?,
                }
            }
            other => {
                return Err(Error::Decode {
                    what: format!("unknown frame tag 0x{other:02x}"),
                })
            }
        };
        if cur.remaining() != 0 {
            return Err(Error::Decode {
                what: format!(
                    "{} trailing byte(s) after {} frame",
                    cur.remaining(),
                    frame.name()
                ),
            });
        }
        Ok(frame)
    }
}

/// Writes one frame to `w`, flushing it onto the wire.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), Error> {
    let bytes = frame.encode();
    w.write_all(&bytes)
        .and_then(|_| w.flush())
        .map_err(|e| Error::from_io("write_frame", &e))
}

/// The fixed encoding of [`Frame::Ok`]: the brick acknowledges a put or
/// a delete without the heap allocation `Frame::encode` would make.
const OK_BYTES: [u8; 5] = [1, 0, 0, 0, TAG_OK];

/// A data request as [`write_batch`] sends it: a put borrows its payload
/// from the caller, so batching never copies a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataRequest<'a> {
    /// [`Frame::GetShard`].
    GetShard {
        /// Object id.
        object: u64,
        /// Shard position.
        pos: u32,
    },
    /// [`Frame::RebuildFetch`].
    RebuildFetch {
        /// Object id.
        object: u64,
        /// Shard position.
        pos: u32,
    },
    /// [`Frame::PutShard`].
    PutShard {
        /// Object id.
        object: u64,
        /// Shard position.
        pos: u32,
        /// Shard bytes.
        data: &'a [u8],
    },
    /// [`Frame::DeleteShard`].
    DeleteShard {
        /// Object id.
        object: u64,
        /// Shard position.
        pos: u32,
    },
}

impl DataRequest<'_> {
    /// The shard the request names: object id and position.
    pub fn shard(&self) -> (u64, u32) {
        match *self {
            DataRequest::GetShard { object, pos }
            | DataRequest::RebuildFetch { object, pos }
            | DataRequest::PutShard { object, pos, .. }
            | DataRequest::DeleteShard { object, pos } => (object, pos),
        }
    }

    /// Short name for tracing and errors: its frame's [`Frame::name`].
    pub fn name(&self) -> &'static str {
        match self {
            DataRequest::GetShard { .. } => "get_shard",
            DataRequest::RebuildFetch { .. } => "rebuild_fetch",
            DataRequest::PutShard { .. } => "put_shard",
            DataRequest::DeleteShard { .. } => "delete_shard",
        }
    }
}

/// Writes `requests` as one gathered write with one flush, payloads
/// straight from the caller's buffers. A single request goes bare; any
/// other number behind a [`Frame::Batch`] prefix. Byte-for-byte identical
/// on the wire to the prefix's (if any) and each request's
/// [`Frame::encode`], concatenated. More than [`MAX_BATCH_LEN`] requests,
/// or a shard over [`MAX_SHARD_LEN`], is refused before any byte is
/// written.
pub fn write_batch(w: &mut impl Write, requests: &[DataRequest<'_>]) -> Result<(), Error> {
    if let [request] = requests {
        let (head, len, data) = request_head(*request)?;
        return write_slices(w, &mut [IoSlice::new(&head[..len]), IoSlice::new(data)]);
    }
    if requests.len() > MAX_BATCH_LEN as usize {
        return Err(Error::Protocol {
            what: format!(
                "batch of {} requests exceeds the {MAX_BATCH_LEN}-request cap",
                requests.len()
            ),
        });
    }
    let mut out = Gather::default();
    out.head.extend_from_slice(&[5, 0, 0, 0, TAG_BATCH]);
    out.head
        .extend_from_slice(&(requests.len() as u32).to_le_bytes());
    for &request in requests {
        let (head, len, data) = request_head(request)?;
        out.payload(&head[..len], data);
    }
    out.write_to(w)
}

/// A request's frame up to its shard payload — the whole frame but for a
/// put — as the first `len` bytes of the array, and that payload.
fn request_head<'a>(request: DataRequest<'a>) -> Result<([u8; 21], usize, &'a [u8]), Error> {
    let (tag, data) = match request {
        DataRequest::GetShard { .. } => (TAG_GET_SHARD, &[][..]),
        DataRequest::RebuildFetch { .. } => (TAG_REBUILD_FETCH, &[][..]),
        DataRequest::DeleteShard { .. } => (TAG_DELETE_SHARD, &[][..]),
        DataRequest::PutShard { data, .. } => {
            check_shard_len("put_shard", data)?;
            (TAG_PUT_SHARD, data)
        }
    };
    let (object, pos) = request.shard();
    // A put's object and position are followed by its payload's length.
    let len = if tag == TAG_PUT_SHARD { 21 } else { 17 };
    let mut head = [0u8; 21];
    head[..4].copy_from_slice(&((len - 4 + data.len()) as u32).to_le_bytes());
    head[4] = tag;
    head[5..13].copy_from_slice(&object.to_le_bytes());
    head[13..17].copy_from_slice(&pos.to_le_bytes());
    head[17..21].copy_from_slice(&(data.len() as u32).to_le_bytes());
    Ok((head, len, data))
}

/// Frames assembled for one gathered write: encoded bytes accumulate in
/// `head`, and each shard payload is borrowed, recorded with the length
/// of `head` it follows. [`write_batch`] builds one for a batch of
/// requests; the brick writes every reply it sends through one, a bare
/// request's reply as a batch of one.
#[derive(Default)]
pub(crate) struct Gather<'a> {
    head: Vec<u8>,
    payloads: Vec<(usize, &'a [u8])>,
}

impl<'a> Gather<'a> {
    /// Appends a whole encoded frame.
    pub(crate) fn frame(&mut self, frame: &Frame) {
        match frame {
            Frame::Ok => self.head.extend_from_slice(&OK_BYTES),
            other => self.head.extend_from_slice(&other.encode()),
        }
    }

    /// Appends a [`Frame::ShardData`] reply carrying `data`, borrowed.
    pub(crate) fn shard_data(&mut self, data: &'a [u8]) -> Result<(), Error> {
        check_shard_len("shard_data", data)?;
        self.payload(&shard_data_header(data), data);
        Ok(())
    }

    fn payload(&mut self, header: &[u8], data: &'a [u8]) {
        self.head.extend_from_slice(header);
        if !data.is_empty() {
            self.payloads.push((self.head.len(), data));
        }
    }

    /// Writes everything appended, in order, as one gathered write, and
    /// flushes once.
    pub(crate) fn write_to(&self, w: &mut impl Write) -> Result<(), Error> {
        let mut slices = Vec::with_capacity(2 * self.payloads.len() + 1);
        let mut from = 0;
        for &(to, data) in &self.payloads {
            slices.push(IoSlice::new(&self.head[from..to]));
            slices.push(IoSlice::new(data));
            from = to;
        }
        slices.push(IoSlice::new(&self.head[from..]));
        write_slices(w, &mut slices)
    }
}

/// The 9 bytes of a [`Frame::ShardData`] ahead of its payload.
fn shard_data_header(data: &[u8]) -> [u8; 9] {
    let body_len = 1 + 4 + data.len();
    let mut header = [0u8; 9];
    header[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    header[4] = TAG_SHARD_DATA;
    header[5..9].copy_from_slice(&(data.len() as u32).to_le_bytes());
    header
}

/// Refuses a shard longer than [`MAX_SHARD_LEN`] before any byte of its
/// frame is written.
fn check_shard_len(what: &str, data: &[u8]) -> Result<(), Error> {
    if data.len() > MAX_SHARD_LEN {
        return Err(Error::Protocol {
            what: format!(
                "{what} payload of {} bytes exceeds the {MAX_SHARD_LEN}-byte shard cap",
                data.len()
            ),
        });
    }
    Ok(())
}

/// Writes `slices` in order as one gathered write where the stream
/// supports it, then flushes. For a `BufWriter` around a `TcpStream` with
/// the combined length at or above the buffer capacity, this reaches the
/// socket as a single `writev` — one syscall, no intermediate copy of
/// any payload. A short write resumes where it stopped, and writers
/// without real vectored support take one slice per call.
fn write_slices(w: &mut impl Write, mut slices: &mut [IoSlice<'_>]) -> Result<(), Error> {
    let io = |e: &std::io::Error| Error::from_io("write_frame", e);
    IoSlice::advance_slices(&mut slices, 0);
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(io(&std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            // As `write_all` does: a signal is not a transport fault.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io(&e)),
        }
    }
    w.flush().map_err(|e| io(&e))
}

/// Reads one frame from `r`. A clean EOF before any length byte returns
/// `Ok(None)` (peer closed between frames); EOF mid-frame is a decode
/// error. This is [`read_frame_reusing`] with no spare buffer.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Frame>, Error> {
    read_frame_reusing(r, &mut Vec::new())
}

/// Reads one frame from `r` exactly as [`read_frame`] reports it, reusing
/// `spare` for a shard payload: when the frame carries a shard
/// ([`Frame::PutShard`] or [`Frame::ShardData`]) of exactly
/// `spare.len()` bytes, the payload is read into `spare`'s buffer, which
/// moves into the frame; a shard of any other length drops `spare` and is
/// read into a fresh buffer. Either way `spare` is left empty. Frames
/// without a shard leave it as it is.
///
/// Every byte of a reused buffer is overwritten before the frame is
/// returned, so what the spare held never shows. The brick feeds it the
/// buffer its last overwrite displaced: a steady stream of same-size
/// overwrites then allocates nothing.
pub fn read_frame_reusing(
    r: &mut impl BufRead,
    spare: &mut Vec<u8>,
) -> Result<Option<Frame>, Error> {
    match read_header(r)? {
        Some((len, tag)) => read_rest(r, len, tag, spare).map(Some),
        None => Ok(None),
    }
}

/// What [`read_shard_into`] found on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardReply {
    /// The peer closed the connection between frames.
    Eof,
    /// A [`Frame::ShardData`] of exactly the destination's length; its
    /// payload is in the destination.
    Filled,
    /// Any other well-formed frame, decoded as [`read_frame`] would.
    Other(Frame),
}

/// Reads the reply to a shard fetch, landing a [`Frame::ShardData`]
/// payload directly in `dst` instead of a fresh `Vec`: whatever part of
/// it the reader already buffered is copied out, the rest is read from
/// the stream straight into `dst` (a `BufReader` hands reads at least as
/// large as its buffer to the socket). Every other frame, and every
/// malformed one, comes out exactly as [`read_frame`] reports it.
///
/// A well-formed shard of any other length is skipped whole and reported
/// as [`Error::ShardLength`]: `dst` is untouched and the stream is still
/// in sync, so the connection stays usable.
pub fn read_shard_into(r: &mut impl BufRead, dst: &mut [u8]) -> Result<ShardReply, Error> {
    read_shard_with(r, dst.len(), |r, len| read_body(r, dst, len))
}

/// Reads the reply to a fetch of an `n`-byte shard as
/// [`read_shard_into`] does, but appends the payload to `out` instead of
/// overwriting a slice, so `out`'s spare capacity is never zero-filled
/// first: the bytes the reader already buffered are copied, the rest is
/// read from the stream under the reader straight into the capacity
/// (`Read::take` and `read_to_end`, std's safe path into uninitialised
/// memory). Reserve the capacity beforehand or `out` grows.
///
/// Outcomes, typed errors and the stream position after each are exactly
/// [`read_shard_into`]'s with an `n`-byte destination, and every outcome
/// but [`ShardReply::Filled`] leaves `out` at its prior length.
pub fn read_shard_append<R: Read>(
    r: &mut BufReader<R>,
    out: &mut Vec<u8>,
    n: usize,
) -> Result<ShardReply, Error> {
    read_shard_with(r, n, |r, len| {
        let start = out.len();
        let head = r.buffer().len().min(n);
        out.extend_from_slice(&r.buffer()[..head]);
        r.consume(head);
        let rest = (n - head) as u64;
        let landed = match r.get_mut().take(rest).read_to_end(out) {
            Ok(got) if got as u64 == rest => return Ok(()),
            Ok(_) => Err(truncated(len)),
            Err(e) => Err(Error::from_io("read_frame", &e)),
        };
        out.truncate(start);
        landed
    })
}

/// The one reader of a shard-fetch reply under [`read_shard_into`] and
/// [`read_shard_append`]: checks the header, the tag and the payload
/// count, hands a `ShardData` frame whose payload is `want` bytes to
/// `land` (with the frame length, for its truncation error), and skips a
/// well-formed shard of any other length whole.
fn read_shard_with<R: BufRead>(
    r: &mut R,
    want: usize,
    land: impl FnOnce(&mut R, usize) -> Result<(), Error>,
) -> Result<ShardReply, Error> {
    let Some((len, tag)) = read_header(r)? else {
        return Ok(ShardReply::Eof);
    };
    if tag != TAG_SHARD_DATA || len < 5 {
        return read_rest(r, len, tag, &mut Vec::new()).map(ShardReply::Other);
    }
    if let Err(verdict) = read_bulk_head::<4>(r, len, tag) {
        return verdict.map(ShardReply::Other);
    }
    let found = len - 5;
    if found == want {
        land(r, len)?;
        return Ok(ShardReply::Filled);
    }
    let skipped = std::io::copy(&mut r.take(found as u64), &mut std::io::sink())
        .map_err(|e| Error::from_io("read_frame", &e))?;
    if skipped < found as u64 {
        return Err(truncated(len));
    }
    Err(Error::ShardLength {
        expected: want,
        found,
    })
}

/// Reads and checks a frame's length prefix and tag — the one place the
/// zero-length and [`MAX_FRAME_LEN`] guards live. `Ok(None)` is a clean
/// EOF before any length byte.
fn read_header(r: &mut impl Read) -> Result<Option<(usize, u8)>, Error> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Full => {}
        ReadOutcome::Partial(got) => {
            return Err(Error::Decode {
                what: format!("connection closed after {got} of 4 length-prefix bytes"),
            })
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(Error::Decode {
            what: "frame length 0 (a frame always carries a tag byte)".to_string(),
        });
    }
    if len > MAX_FRAME_LEN {
        return Err(Error::Decode {
            what: format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}"),
        });
    }
    let mut tag = [0u8; 1];
    read_body(r, &mut tag, len as usize)?;
    Ok(Some((len as usize, tag[0])))
}

/// Reads the rest of a `len`-byte frame body whose tag is already
/// consumed, and decodes it (a shard payload into `spare`, see
/// [`read_frame_reusing`]).
fn read_rest(r: &mut impl Read, len: usize, tag: u8, spare: &mut Vec<u8>) -> Result<Frame, Error> {
    if len == 1 {
        // Tag-only frames (`Ok`, the hot put acknowledgement) decode
        // straight from the stack — no per-reply heap allocation.
        return Frame::decode(&[tag]);
    }
    match tag {
        // The two shard-carrying frames: read the fixed fields, then the
        // payload straight into the exactly-sized buffer the frame (and,
        // for a put, the brick's store) keeps — no oversized allocation,
        // no memmove to strip the header off, and for a payload larger
        // than the reader's buffer no bounce through it either.
        TAG_PUT_SHARD if len >= 17 => {
            let head: [u8; 16] = match read_bulk_head(r, len, tag) {
                Ok(head) => head,
                Err(verdict) => return verdict,
            };
            let data = read_payload(r, len - 17, len, spare)?;
            Ok(Frame::PutShard {
                object: u64::from_le_bytes(head[..8].try_into().expect("len checked")),
                pos: u32::from_le_bytes(head[8..12].try_into().expect("len checked")),
                data,
            })
        }
        TAG_SHARD_DATA if len >= 5 => {
            if let Err(verdict) = read_bulk_head::<4>(r, len, tag) {
                return verdict;
            }
            let data = read_payload(r, len - 5, len, spare)?;
            Ok(Frame::ShardData { data })
        }
        _ => read_strict(r, len, tag, &[]),
    }
}

/// Reads the `n`-byte shard payload of a `len`-byte frame into `spare`'s
/// buffer when it is exactly that long, else into a fresh one (the spare
/// is released first).
fn read_payload(
    r: &mut impl Read,
    n: usize,
    len: usize,
    spare: &mut Vec<u8>,
) -> Result<Vec<u8>, Error> {
    let mut data = std::mem::take(spare);
    if data.len() != n {
        drop(data);
        data = vec![0u8; n];
    }
    read_body(r, &mut data, len)?;
    Ok(data)
}

/// Reads the `N` fixed bytes between a shard-carrying frame's tag and
/// its payload, the last four of which count the payload. When that
/// count disagrees with the frame length the rest of the body is drained
/// and `Err` carries the strict decoder's verdict on the whole of it —
/// reported exactly as it always has been, never reshaped to fit.
fn read_bulk_head<const N: usize>(
    r: &mut impl Read,
    len: usize,
    tag: u8,
) -> Result<[u8; N], Result<Frame, Error>> {
    let mut head = [0u8; N];
    read_body(r, &mut head, len).map_err(Err)?;
    let dlen = u32::from_le_bytes(head[N - 4..].try_into().expect("len checked")) as usize;
    if dlen == len - 1 - N {
        Ok(head)
    } else {
        Err(read_strict(r, len, tag, &head))
    }
}

/// Reads what is left of a `len`-byte body after its tag and `head`, and
/// hands the whole body to the strict decoder.
fn read_strict(r: &mut impl Read, len: usize, tag: u8, head: &[u8]) -> Result<Frame, Error> {
    let mut body = vec![0u8; len];
    body[0] = tag;
    body[1..1 + head.len()].copy_from_slice(head);
    read_body(r, &mut body[1 + head.len()..], len)?;
    Frame::decode(&body)
}

fn truncated(len: usize) -> Error {
    Error::Decode {
        what: format!("connection closed mid-frame (expected {len} body bytes)"),
    }
}

/// Reads `buf` fully or reports the mid-frame truncation error for a
/// frame whose body claimed `len` bytes.
fn read_body(r: &mut impl Read, buf: &mut [u8], len: usize) -> Result<(), Error> {
    match read_exact_or_eof(r, buf)? {
        ReadOutcome::Full => Ok(()),
        ReadOutcome::Eof | ReadOutcome::Partial(_) => Err(truncated(len)),
    }
}

enum ReadOutcome {
    Full,
    Eof,
    Partial(usize),
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial(filled)
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::from_io("read_frame", &e)),
        }
    }
    Ok(ReadOutcome::Full)
}

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::Decode {
                what: format!(
                    "payload truncated: needed {n} bytes, {} remain",
                    self.remaining()
                ),
            });
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("len checked"),
        ))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, Error> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::PutShard {
                object: 7,
                pos: 3,
                data: vec![1, 2, 3, 4, 5],
            },
            Frame::PutShard {
                object: u64::MAX,
                pos: u32::MAX,
                data: vec![],
            },
            Frame::GetShard { object: 9, pos: 0 },
            Frame::DeleteShard { object: 1, pos: 2 },
            Frame::Heartbeat { seq: 42 },
            Frame::ListShards,
            Frame::RebuildFetch { object: 5, pos: 1 },
            Frame::Shutdown,
            Frame::TraceCtx {
                proc: 0x1234_5678_9abc,
                span: 77,
            },
            Frame::Scrape {
                cursor: 4096,
                max_lines: 256,
            },
            Frame::Batch { count: 0 },
            Frame::Batch { count: 24 },
            Frame::Batch { count: u32::MAX },
            Frame::Ok,
            Frame::ShardData {
                data: vec![0xff; 1024],
            },
            Frame::HeartbeatAck {
                seq: 42,
                brick_id: 3,
                shards: 120,
                snap_seq: 9,
                load: 5500,
            },
            Frame::ShardList {
                entries: vec![(1, 0), (1, 1), (2, 4)],
            },
            Frame::ShardList { entries: vec![] },
            Frame::ErrorReply {
                code: reply_code::SHARD_NOT_FOUND,
                detail: "obj9 pos0".to_string(),
            },
            Frame::ScrapeReply {
                proc_id: 0xdead_beef,
                snap_seq: 3,
                next_cursor: 1201,
                label: "brick-2".to_string(),
                metrics: b"{\"kind\":\"counter\"}\n".to_vec(),
                trace: b"{\"kind\":\"span\"}\n".to_vec(),
                status: vec![],
            },
            Frame::ScrapeReply {
                proc_id: 0,
                snap_seq: 0,
                next_cursor: 0,
                label: String::new(),
                metrics: vec![],
                trace: vec![],
                status: vec![],
            },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        for frame in sample_frames() {
            let enc = frame.encode();
            let mut cursor = std::io::Cursor::new(enc);
            let back = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn bulk_read_path_rejects_lying_byte_counts() {
        // A shard frame whose inner byte-count field disagrees with the
        // frame length must fail through the strict decoder, not be
        // silently reshaped by the bulk fast path.
        let mut lying = Frame::ShardData { data: vec![9; 8] }.encode();
        lying[5] = 200; // claims 200 payload bytes, 8 present
        let mut cursor = std::io::Cursor::new(lying);
        assert!(matches!(read_frame(&mut cursor), Err(Error::Decode { .. })));

        let mut lying = Frame::PutShard {
            object: 3,
            pos: 1,
            data: vec![7; 8],
        }
        .encode();
        lying[17] = 200;
        let mut cursor = std::io::Cursor::new(lying);
        assert!(matches!(read_frame(&mut cursor), Err(Error::Decode { .. })));

        // Truncation inside a bulk payload is the usual mid-frame error.
        let mut enc = Frame::ShardData { data: vec![9; 64] }.encode();
        enc.truncate(enc.len() - 10);
        let mut cursor = std::io::Cursor::new(enc);
        assert!(matches!(read_frame(&mut cursor), Err(Error::Decode { .. })));
    }

    #[test]
    fn specialized_writers_match_frame_encode() {
        for data in [vec![], vec![7u8], vec![0xabu8; 4096]] {
            let frame = Frame::PutShard {
                object: 123,
                pos: 4,
                data: data.clone(),
            };
            let mut fast = Vec::new();
            let put = DataRequest::PutShard {
                object: 123,
                pos: 4,
                data: &data,
            };
            write_batch(&mut fast, &[put]).unwrap();
            assert_eq!(fast, frame.encode());

            let frame = Frame::ShardData { data: data.clone() };
            let mut reply = Gather::default();
            reply.shard_data(&data).unwrap();
            let mut fast = Vec::new();
            reply.write_to(&mut fast).unwrap();
            assert_eq!(fast, frame.encode());
        }

        let mut reply = Gather::default();
        reply.frame(&Frame::Ok);
        assert_eq!(reply.head, OK_BYTES);
        let mut fast = Vec::new();
        reply.write_to(&mut fast).unwrap();
        assert_eq!(fast, Frame::Ok.encode());
    }

    #[test]
    fn a_batch_of_one_is_the_bare_request() {
        let data: Vec<u8> = (0..40u8).collect();
        let kinds = [
            (
                DataRequest::GetShard { object: 9, pos: 0 },
                Frame::GetShard { object: 9, pos: 0 },
            ),
            (
                DataRequest::RebuildFetch {
                    object: u64::MAX,
                    pos: 5,
                },
                Frame::RebuildFetch {
                    object: u64::MAX,
                    pos: 5,
                },
            ),
            (
                DataRequest::PutShard {
                    object: 7,
                    pos: u32::MAX,
                    data: &data,
                },
                Frame::PutShard {
                    object: 7,
                    pos: u32::MAX,
                    data: data.clone(),
                },
            ),
            (
                DataRequest::DeleteShard { object: 1, pos: 2 },
                Frame::DeleteShard { object: 1, pos: 2 },
            ),
        ];
        for (request, frame) in kinds {
            let mut fast = Vec::new();
            write_batch(&mut fast, &[request]).unwrap();
            assert_eq!(fast, frame.encode(), "{}", request.name());
            assert_eq!(frame.name(), request.name());
        }
    }

    /// A batch of every data-request kind, puts of several sizes (empty
    /// included) between them, and the frames it must encode to.
    fn sample_batch(data: &[u8]) -> (Vec<DataRequest<'_>>, Vec<u8>) {
        let requests = vec![
            DataRequest::RebuildFetch { object: 9, pos: 4 },
            DataRequest::PutShard {
                object: 123,
                pos: 4,
                data,
            },
            DataRequest::GetShard {
                object: u64::MAX,
                pos: 0,
            },
            DataRequest::PutShard {
                object: 5,
                pos: u32::MAX,
                data: &[],
            },
            DataRequest::PutShard {
                object: 6,
                pos: 1,
                data: &data[..7],
            },
            DataRequest::DeleteShard { object: 1, pos: 2 },
        ];
        let mut frames = Frame::Batch { count: 6 }.encode();
        for request in &requests {
            let frame = match *request {
                DataRequest::GetShard { object, pos } => Frame::GetShard { object, pos },
                DataRequest::RebuildFetch { object, pos } => Frame::RebuildFetch { object, pos },
                DataRequest::PutShard { object, pos, data } => Frame::PutShard {
                    object,
                    pos,
                    data: data.to_vec(),
                },
                DataRequest::DeleteShard { object, pos } => Frame::DeleteShard { object, pos },
            };
            frames.extend_from_slice(&frame.encode());
        }
        (requests, frames)
    }

    #[test]
    fn batch_writer_matches_frame_encode() {
        for len in [7, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let (requests, frames) = sample_batch(&data);
            let mut fast = Vec::new();
            write_batch(&mut fast, &requests).unwrap();
            assert_eq!(fast, frames);
            // A frame reader takes the same bytes back apart.
            let mut cursor = std::io::Cursor::new(fast);
            assert_eq!(
                read_frame(&mut cursor).unwrap(),
                Some(Frame::Batch { count: 6 })
            );
            for _ in 0..6 {
                assert!(read_frame(&mut cursor).unwrap().unwrap().is_data_request());
            }
            assert_eq!(read_frame(&mut cursor).unwrap(), None);
        }
        let mut empty = Vec::new();
        write_batch(&mut empty, &[]).unwrap();
        assert_eq!(empty, Frame::Batch { count: 0 }.encode());
    }

    #[test]
    fn batch_writer_refuses_before_writing() {
        let get = DataRequest::GetShard { object: 1, pos: 0 };
        let mut sink = Vec::new();
        let over_count = write_batch(&mut sink, &vec![get; MAX_BATCH_LEN as usize + 1]);
        assert!(matches!(over_count, Err(Error::Protocol { .. })));
        let over = vec![0u8; MAX_SHARD_LEN + 1];
        let put = DataRequest::PutShard {
            object: 1,
            pos: 0,
            data: &over,
        };
        let over_shard = write_batch(&mut sink, &[get, put]);
        assert!(matches!(over_shard, Err(Error::Protocol { .. })));
        assert!(sink.is_empty(), "nothing reaches the wire");
        write_batch(&mut sink, &vec![get; MAX_BATCH_LEN as usize]).expect("at the cap");
    }

    /// Accepts at most three bytes per call and reports `Interrupted` on
    /// the calls listed, the way a signal landing mid-`write` does.
    struct ChoppyWriter {
        out: Vec<u8>,
        calls: usize,
        interrupt_on: [usize; 2],
    }

    impl Write for ChoppyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.interrupt_on.contains(&self.calls) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn specialized_writers_survive_short_writes_and_eintr() {
        // Call 3 is inside either header, call 12 inside the payload: both
        // must retry, as `write_all` does, not fail the frame and cost the
        // lane.
        let data: Vec<u8> = (0..40u8).collect();
        let choppy = || ChoppyWriter {
            out: Vec::new(),
            calls: 0,
            interrupt_on: [3, 12],
        };
        let mut w = choppy();
        let put = DataRequest::PutShard {
            object: 123,
            pos: 4,
            data: &data,
        };
        write_batch(&mut w, &[put]).unwrap();
        let frame = Frame::PutShard {
            object: 123,
            pos: 4,
            data: data.clone(),
        };
        assert_eq!(w.out, frame.encode());
        assert!(w.calls > 12, "both interruptions were met");

        let mut w = choppy();
        let mut reply = Gather::default();
        reply.shard_data(&data).unwrap();
        reply.write_to(&mut w).unwrap();
        assert_eq!(w.out, Frame::ShardData { data: data.clone() }.encode());
        assert!(w.calls > 12);

        // A batch's gathered write crosses five slices, here taken three
        // bytes per call, with the same two interruptions.
        let (requests, frames) = sample_batch(&data);
        let mut w = choppy();
        write_batch(&mut w, &requests).unwrap();
        assert_eq!(w.out, frames);
        assert!(w.calls > 12);
    }

    #[test]
    fn shard_writers_share_one_cap() {
        // Lazily zeroed and never written: only the length is looked at.
        let over = vec![0u8; MAX_SHARD_LEN + 1];
        let mut sink = Vec::new();
        let put = DataRequest::PutShard {
            object: 1,
            pos: 0,
            data: &over,
        };
        let mut reply = Gather::default();
        for refused in [write_batch(&mut sink, &[put]), reply.shard_data(&over)] {
            assert!(
                matches!(refused, Err(Error::Protocol { .. })),
                "{refused:?}"
            );
        }
        reply.write_to(&mut sink).unwrap();
        assert!(sink.is_empty(), "nothing reaches the wire");
        // At the cap a put fills the frame exactly.
        assert_eq!(17 + MAX_SHARD_LEN, MAX_FRAME_LEN as usize);
    }

    #[test]
    fn clean_eof_is_none() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.push(TAG_OK);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor), Err(Error::Decode { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = vec![TAG_HEARTBEAT];
        body.extend_from_slice(&42u64.to_le_bytes());
        body.push(0xaa);
        assert!(matches!(Frame::decode(&body), Err(Error::Decode { .. })));
    }

    #[test]
    fn shard_list_length_lie_rejected() {
        let mut body = vec![TAG_SHARD_LIST];
        body.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(Frame::decode(&body), Err(Error::Decode { .. })));
    }

    #[test]
    fn truncated_trace_ctx_rejected() {
        // 8 of the 16 payload bytes: the span id is missing.
        let mut body = vec![TAG_TRACE_CTX];
        body.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(Frame::decode(&body), Err(Error::Decode { .. })));
        // Trailing garbage after a complete context is equally fatal.
        let mut body = vec![TAG_TRACE_CTX];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        body.push(0x55);
        assert!(matches!(Frame::decode(&body), Err(Error::Decode { .. })));
    }

    #[test]
    fn truncated_scrape_reply_rejected() {
        // Cut a valid scrape reply body at every length short of whole:
        // each prefix must be a typed decode error, never a panic.
        let full = Frame::ScrapeReply {
            proc_id: 11,
            snap_seq: 2,
            next_cursor: 88,
            label: "gw".to_string(),
            metrics: vec![1, 2, 3],
            trace: vec![4, 5],
            status: vec![6],
        }
        .encode();
        let body = &full[4..]; // strip length prefix
        for cut in 1..body.len() {
            assert!(
                matches!(Frame::decode(&body[..cut]), Err(Error::Decode { .. })),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(Frame::decode(body).is_ok());
    }

    #[test]
    fn scrape_reply_length_lie_rejected() {
        // The label length field claims more bytes than the payload holds.
        let mut body = vec![TAG_SCRAPE_REPLY];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(Frame::decode(&body), Err(Error::Decode { .. })));
    }
}
