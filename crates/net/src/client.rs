//! Client half of the wire protocol: a thin request/response wrapper
//! over one `TcpStream` with bounded connect/read/write deadlines.
//!
//! The client is deliberately dumb — typed errors for everything
//! unexpected, no policy. Every data request leaves through one send
//! method, `send_batch`: one request goes bare, several as one
//! [`Frame::Batch`], either way as one gathered write with payloads
//! straight from the caller's buffers. The replies are read with the
//! matching `recv_*`, one per request, in request order; that split is
//! what lets the gateway put one round of requests on every brick
//! connection before it reads any reply. The blocking helpers
//! (`put_shard`, `get_shard`, …) are a send and a receive, and control
//! frames go through `request`. A fetched shard lands where the caller
//! says: `recv_shard_into` reads the payload from the socket straight
//! into a caller-supplied slice (one copy, no allocation),
//! `recv_shard_append` onto the end of a caller's `Vec`, into capacity
//! nothing zero-filled (a healthy get lands its data shards so), and
//! `recv_shard` / `get_shard` into a fresh `Vec` for callers with nowhere
//! to put it yet. Retry, backoff and routing policy live in
//! the gateway's connection pool, which redials a fresh `BrickClient`
//! when an operation fails.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::error::Error;
use crate::wire::{
    read_frame, read_shard_append, read_shard_into, reply_code, write_batch, write_frame,
    DataRequest, Frame, ShardReply,
};

/// Fields of a heartbeat acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatAck {
    /// Echo of the probe sequence number.
    pub seq: u64,
    /// The responding brick's id.
    pub brick_id: u32,
    /// Shards the brick currently stores.
    pub shards: u64,
    /// The brick's metrics-snapshot sequence number (bumps when it
    /// serves a scrape) — the piggybacked scrape-staleness signal.
    pub snap_seq: u64,
    /// Total requests the brick has served (coarse health summary).
    pub load: u64,
}

/// One process's telemetry as returned by [`BrickClient::scrape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeSnapshot {
    /// Stable id of the replying process.
    pub proc_id: u64,
    /// Snapshot sequence number after this scrape.
    pub snap_seq: u64,
    /// Cursor to pass to the next scrape (no replay).
    pub next_cursor: u64,
    /// The replying process's label (e.g. `brick-3`).
    pub label: String,
    /// Metrics snapshot, JSONL.
    pub metrics: String,
    /// Trace delta: newline-separated rendered trace lines.
    pub trace: String,
    /// Peer-specific status JSONL (per-brick health from a gateway).
    pub status: String,
}

/// A connected brick client.
pub struct BrickClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl BrickClient {
    /// Connects to a brick with `timeout` bounding the connect and every
    /// subsequent read/write.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<BrickClient, Error> {
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| Error::from_io("connect", &e))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| Error::from_io("set_read_timeout", &e))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| Error::from_io("set_write_timeout", &e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| Error::from_io("set_nodelay", &e))?;
        let reader = BufReader::with_capacity(
            crate::wire::IO_READ_BUF_LEN,
            stream
                .try_clone()
                .map_err(|e| Error::from_io("clone_stream", &e))?,
        );
        Ok(BrickClient {
            reader,
            writer: BufWriter::with_capacity(crate::wire::IO_WRITE_BUF_LEN, stream),
        })
    }

    /// Writes one request frame, encoded whole, onto the wire without
    /// waiting for the reply. Every send must be paired with exactly one
    /// receive on the same connection. Data requests have the copy-free
    /// writer, [`send_batch`](Self::send_batch).
    pub fn send_request(&mut self, frame: &Frame) -> Result<(), Error> {
        write_frame(&mut self.writer, frame)
    }

    /// Writes `requests` as one gathered write — a single one bare, more
    /// as a [`Frame::Batch`] — payloads straight from the caller's
    /// buffers, without waiting for the replies. Each request must be
    /// paired with one receive, in request order.
    pub fn send_batch(&mut self, requests: &[DataRequest<'_>]) -> Result<(), Error> {
        write_batch(&mut self.writer, requests)
    }

    /// Reads one reply frame for an outstanding request (a connection
    /// closing before the reply is a typed transport error).
    pub fn recv_reply(&mut self) -> Result<Frame, Error> {
        read_frame(&mut self.reader)?.ok_or_else(closed_before_reply)
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, Error> {
        self.send_request(frame)?;
        self.recv_reply()
    }

    /// Writes one put-shard request straight from borrowed shard bytes
    /// (a batch of one) without waiting for the reply. Pair with
    /// [`recv_put_reply`](Self::recv_put_reply).
    pub fn send_put_shard(&mut self, object: u64, pos: u32, data: &[u8]) -> Result<(), Error> {
        self.send_batch(&[DataRequest::PutShard { object, pos, data }])
    }

    /// Reads the reply to an outstanding put-shard request.
    pub fn recv_put_reply(&mut self) -> Result<(), Error> {
        self.recv_ok("put_shard")
    }

    /// Reads the reply to an outstanding delete-shard request.
    pub fn recv_delete_reply(&mut self) -> Result<(), Error> {
        self.recv_ok("delete_shard")
    }

    /// Reads an `Ok` reply (`op` names the request in errors).
    fn recv_ok(&mut self, op: &'static str) -> Result<(), Error> {
        match self.recv_reply()? {
            Frame::Ok => Ok(()),
            other => Err(unexpected(op, other)),
        }
    }

    /// Reads the reply to an outstanding shard fetch (`op` names the
    /// request kind in errors).
    pub fn recv_shard(
        &mut self,
        op: &'static str,
        object: u64,
        pos: u32,
    ) -> Result<Vec<u8>, Error> {
        match self.recv_reply()? {
            Frame::ShardData { data } => Ok(data),
            other => Err(fetch_refused(op, object, pos, other)),
        }
    }

    /// Reads the reply to an outstanding shard fetch straight into
    /// `dst`, which must be exactly the shard's length — the payload
    /// crosses user space once, from the socket to where the caller
    /// wants it (see [`read_shard_into`]). A whole shard of any other
    /// length is [`Error::ShardLength`] and leaves the connection usable.
    pub fn recv_shard_into(
        &mut self,
        op: &'static str,
        object: u64,
        pos: u32,
        dst: &mut [u8],
    ) -> Result<(), Error> {
        landed(op, object, pos, read_shard_into(&mut self.reader, dst)?)
    }

    /// Reads the reply to an outstanding fetch of an `n`-byte shard onto
    /// the end of `out`, into its spare capacity, which is never
    /// zero-filled first (see [`read_shard_append`]). Errors are
    /// [`recv_shard_into`](Self::recv_shard_into)'s, and leave `out` at
    /// its prior length.
    pub fn recv_shard_append(
        &mut self,
        op: &'static str,
        object: u64,
        pos: u32,
        out: &mut Vec<u8>,
        n: usize,
    ) -> Result<(), Error> {
        landed(
            op,
            object,
            pos,
            read_shard_append(&mut self.reader, out, n)?,
        )
    }

    /// Stores one shard.
    pub fn put_shard(&mut self, object: u64, pos: u32, data: &[u8]) -> Result<(), Error> {
        self.send_put_shard(object, pos, data)?;
        self.recv_put_reply()
    }

    /// Fetches one shard into a fresh buffer.
    pub fn get_shard(&mut self, object: u64, pos: u32) -> Result<Vec<u8>, Error> {
        self.send_batch(&[DataRequest::GetShard { object, pos }])?;
        self.recv_shard("get_shard", object, pos)
    }

    /// Removes one shard (idempotent).
    pub fn delete_shard(&mut self, object: u64, pos: u32) -> Result<(), Error> {
        self.send_batch(&[DataRequest::DeleteShard { object, pos }])?;
        self.recv_delete_reply()
    }

    /// Sends a liveness probe.
    pub fn heartbeat(&mut self, seq: u64) -> Result<HeartbeatAck, Error> {
        match self.request(&Frame::Heartbeat { seq })? {
            Frame::HeartbeatAck {
                seq: ack_seq,
                brick_id,
                shards,
                snap_seq,
                load,
            } => {
                if ack_seq != seq {
                    return Err(Error::Protocol {
                        what: format!("heartbeat ack seq {ack_seq} for probe {seq}"),
                    });
                }
                Ok(HeartbeatAck {
                    seq: ack_seq,
                    brick_id,
                    shards,
                    snap_seq,
                    load,
                })
            }
            other => Err(unexpected("heartbeat", other)),
        }
    }

    /// Announces the caller's open span so the peer parents its handler
    /// span across the process boundary. Fire-and-forget: the peer
    /// applies the context to the next request on this connection and
    /// never replies, so no receive is paired with this send.
    pub fn send_trace_ctx(&mut self, ctx: nsr_obs::SpanContext) -> Result<(), Error> {
        self.send_request(&Frame::TraceCtx {
            proc: ctx.proc_id,
            span: ctx.span_id,
        })
    }

    /// Fetches the peer's telemetry: metrics snapshot plus the trace
    /// delta past `cursor` (bounded by `max_lines`).
    pub fn scrape(&mut self, cursor: u64, max_lines: u32) -> Result<ScrapeSnapshot, Error> {
        match self.request(&Frame::Scrape { cursor, max_lines })? {
            Frame::ScrapeReply {
                proc_id,
                snap_seq,
                next_cursor,
                label,
                metrics,
                trace,
                status,
            } => Ok(ScrapeSnapshot {
                proc_id,
                snap_seq,
                next_cursor,
                label,
                metrics: String::from_utf8(metrics).map_err(|_| Error::Decode {
                    what: "scrape metrics are not valid UTF-8".to_string(),
                })?,
                trace: String::from_utf8(trace).map_err(|_| Error::Decode {
                    what: "scrape trace delta is not valid UTF-8".to_string(),
                })?,
                status: String::from_utf8(status).map_err(|_| Error::Decode {
                    what: "scrape status is not valid UTF-8".to_string(),
                })?,
            }),
            other => Err(unexpected("scrape", other)),
        }
    }

    /// Enumerates every shard the brick stores.
    pub fn list_shards(&mut self) -> Result<Vec<(u64, u32)>, Error> {
        match self.request(&Frame::ListShards)? {
            Frame::ShardList { entries } => Ok(entries),
            other => Err(unexpected("list_shards", other)),
        }
    }

    /// Asks the brick to exit cleanly.
    pub fn shutdown(&mut self) -> Result<(), Error> {
        self.send_request(&Frame::Shutdown)?;
        self.recv_ok("shutdown")
    }
}

fn closed_before_reply() -> Error {
    Error::Io {
        op: "read_reply",
        detail: "connection closed before reply".to_string(),
    }
}

/// Types what a shard fetch found on the wire: the shard, in place, is
/// `Ok`.
fn landed(op: &'static str, object: u64, pos: u32, reply: ShardReply) -> Result<(), Error> {
    match reply {
        ShardReply::Filled => Ok(()),
        ShardReply::Other(reply) => Err(fetch_refused(op, object, pos, reply)),
        ShardReply::Eof => Err(closed_before_reply()),
    }
}

/// Types a reply to a shard fetch that is not the shard.
fn fetch_refused(op: &'static str, object: u64, pos: u32, got: Frame) -> Error {
    match got {
        Frame::ErrorReply { code, .. } if code == reply_code::SHARD_NOT_FOUND => {
            Error::ShardNotFound { object, pos }
        }
        other => unexpected(op, other),
    }
}

fn unexpected(op: &'static str, got: Frame) -> Error {
    match got {
        Frame::ErrorReply { code, detail } => Error::Remote { code, detail },
        other => Error::Protocol {
            what: format!("unexpected `{}` reply to {op}", other.name()),
        },
    }
}
