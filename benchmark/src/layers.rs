//! The traced loop: every op is a root span, and under it the harness
//! replays the op's layer calls with the same inputs as child spans.
//!
//! The layers are the repository's modules. A put is `erasure` encode,
//! then `net.pool` fan-out of `PutShard` to `k + t` bricks, each of which
//! is a `net.wire` frame through `net.client` to a `net.brick` handler;
//! what is left of the put's time is the gateway's own (layout pick,
//! `meta`/`detector` locks, allocation). A healthy get is a fan-out of
//! `GetShard` to `k` bricks and the copy-out; a degraded get adds
//! `erasure` reconstruct. No span is added inside any crate: each layer
//! is timed from here, around one public call at the workload's sizes.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nsr_erasure::rs::ReedSolomon;
use nsr_net::client::BrickClient;
use nsr_net::gateway::Gateway;
use nsr_net::pool::ConnectionPool;
use nsr_net::wire::Frame;

use crate::cluster::{K, SOCKET_TIMEOUT, T};
use crate::load::{issue, settle, Dataset, OpStream, Phase};
use crate::spans::{OpSpan, Recorder};

/// Object id the replays store their shards under. The gateway never
/// learns of it, so replays cannot disturb an object the workload reads.
const SCRATCH_OBJECT: u64 = u64::MAX - 7;

/// Everything a replay needs, built once per cluster.
pub struct ReplayKit {
    codec: ReedSolomon,
    shard_len: usize,
    /// A zero-padded copy of an object's last data shard when the object
    /// size is not a multiple of `k`, as the gateway makes one.
    tail: Vec<u8>,
    parity: Vec<Vec<u8>>,
    /// One shard's worth of bytes, the payload of every replayed frame.
    shard: Vec<u8>,
    frame: Frame,
    encoded: Vec<u8>,
    client: BrickClient,
    pool: ConnectionPool,
    /// `k + t` live bricks; the first `k` serve the replayed get.
    bricks: Vec<u32>,
    seq: u64,
}

fn net<T>(what: &'static str, r: Result<T, nsr_net::Error>) -> Result<T, String> {
    r.map_err(|e| format!("replay {what}: {e}"))
}

impl ReplayKit {
    /// `live` names at least `k + t` bricks that are up. Stores the
    /// scratch shards the replayed gets will fetch.
    pub fn new(
        addrs: &[SocketAddr],
        live: &[u32],
        object_bytes: usize,
    ) -> Result<ReplayKit, String> {
        let codec = ReedSolomon::new(K, T).map_err(|e| format!("codec: {e}"))?;
        let shard_len = object_bytes.div_ceil(K).max(1);
        let shard: Vec<u8> = (0..shard_len).map(|i| (i * 31 + 7) as u8).collect();
        let frame = Frame::PutShard {
            object: SCRATCH_OBJECT,
            pos: 0,
            data: shard.clone(),
        };
        let bricks: Vec<u32> = live.iter().copied().take(K + T).collect();
        if bricks.len() < K + T {
            return Err(format!(
                "replay needs {} live bricks, got {}",
                K + T,
                bricks.len()
            ));
        }
        if object_bytes <= (K - 1) * shard_len {
            return Err(format!(
                "{object_bytes}-byte objects leave a data shard empty"
            ));
        }
        let mut kit = ReplayKit {
            codec,
            shard_len,
            tail: vec![0; shard_len],
            parity: vec![vec![0; shard_len]; T],
            encoded: frame.encode(),
            frame,
            client: net(
                "connect",
                BrickClient::connect(addrs[bricks[0] as usize], SOCKET_TIMEOUT),
            )?,
            pool: ConnectionPool::new(addrs.to_vec(), SOCKET_TIMEOUT, 1),
            shard,
            bricks,
            seq: 0,
        };
        kit.fanout_put()?;
        kit.put_shard()?;
        Ok(kit)
    }

    /// The `k` data-shard views of `data`; a short last shard is copied
    /// into `tail` and zero-padded, as the gateway does.
    fn split<'a>(shard_len: usize, tail: &'a mut [u8], data: &'a [u8]) -> Vec<&'a [u8]> {
        let chunks = data.chunks_exact(shard_len);
        let rest = chunks.remainder();
        let mut shards: Vec<&[u8]> = chunks.collect();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            tail[rest.len()..].fill(0);
            shards.push(tail);
        }
        shards
    }

    fn put_shard(&mut self) -> Result<(), String> {
        net(
            "put_shard",
            self.client.put_shard(SCRATCH_OBJECT, 0, &self.shard),
        )
    }

    fn get_shard(&mut self) -> Result<(), String> {
        let got = net("get_shard", self.client.get_shard(SCRATCH_OBJECT, 0))?;
        (got == self.shard)
            .then_some(())
            .ok_or_else(|| "replay get_shard: bytes differ".to_string())
    }

    fn heartbeat(&mut self) -> Result<(), String> {
        self.seq += 1;
        net("heartbeat", self.client.heartbeat(self.seq)).map(drop)
    }

    fn fanout_put(&mut self) -> Result<(), String> {
        let shard = &self.shard;
        self.pool
            .fanout(
                &self.bricks,
                "put_shard",
                |pos, c| c.send_put_shard(SCRATCH_OBJECT, pos as u32, shard),
                |_pos, c| c.recv_put_reply(),
            )
            .into_iter()
            .try_for_each(|r| net("fanout put", r))
    }

    fn fanout_get(&mut self) -> Result<(), String> {
        self.pool
            .fanout(
                &self.bricks[..K],
                "get_shard",
                |pos, c| {
                    c.send_request(&Frame::GetShard {
                        object: SCRATCH_OBJECT,
                        pos: pos as u32,
                    })
                },
                |pos, c| c.recv_shard("get_shard", SCRATCH_OBJECT, pos as u32),
            )
            .into_iter()
            .try_for_each(|r| net("fanout get", r).map(drop))
    }

    /// Replays a put of `data` under `root`.
    fn replay_put(&mut self, rec: &mut Recorder, root: &OpSpan, data: &[u8]) -> Result<(), String> {
        let shards = Self::split(self.shard_len, &mut self.tail, data);
        let (codec, parity) = (&self.codec, &mut self.parity);
        rec.child(root, "erasure.encode", || {
            codec.encode_parity_into(&shards, parity)
        })
        .map_err(|e| format!("replay encode: {e}"))?;
        let frame = &self.frame;
        self.encoded = rec.child(root, "wire.encode_put", || frame.encode());
        let body = &self.encoded[4..];
        rec.child(root, "wire.decode_put", || Frame::decode(body).map(drop))
            .map_err(|e| format!("replay decode: {e}"))?;
        rec.child(root, "brick.put_shard_rtt", || self.put_shard())?;
        rec.child(root, "pool.fanout_put_rtt", || self.fanout_put())
    }

    /// Replays a get under `root`; `degraded` carries the object's bytes
    /// when the real read had to reconstruct.
    fn replay_get(
        &mut self,
        rec: &mut Recorder,
        root: &OpSpan,
        degraded: Option<&[u8]>,
    ) -> Result<(), String> {
        rec.child(root, "brick.heartbeat_rtt", || self.heartbeat())?;
        rec.child(root, "brick.get_shard_rtt", || self.get_shard())?;
        rec.child(root, "pool.fanout_get_rtt", || self.fanout_get())?;
        if let Some(data) = degraded {
            // Two data shards missing: the worst read a 6+2 stripe serves.
            let mut shards: Vec<Option<Vec<u8>>> = self
                .codec
                .encode(&Self::split(self.shard_len, &mut self.tail, data))
                .map_err(|e| format!("replay encode for reconstruct: {e}"))?
                .into_iter()
                .map(Some)
                .collect();
            shards[1] = None;
            shards[4] = None;
            let codec = &self.codec;
            rec.child(root, "erasure.reconstruct", || {
                codec.reconstruct(&mut shards)
            })
            .map_err(|e| format!("replay reconstruct: {e}"))?;
        }
        Ok(())
    }
}

/// Span names of an op's root and of the gateway call under it, for gets
/// and for puts. Reads served by a cluster with dead bricks get their own
/// names, so their spans are not pooled with healthy reads.
pub struct OpNames {
    pub get: (&'static str, &'static str),
    pub put: (&'static str, &'static str),
}

pub const HEALTHY: OpNames = OpNames {
    get: ("op.get", "gateway.get"),
    put: ("op.put", "gateway.put"),
};

pub const DEGRADED: OpNames = OpNames {
    get: ("op.degraded_get", "gateway.degraded_get"),
    put: ("op.degraded_put", "gateway.degraded_put"),
};

/// Closed loop like `load::closed_loop`, with the span recorder on: each
/// op is a root span holding the real gateway call and the replays of
/// its layers. A replay that fails is a harness error, not a failed op.
pub fn traced_loop(
    gw: &Gateway,
    data: &mut Dataset,
    ops: &mut OpStream,
    duration: Duration,
    rec: &mut Recorder,
    kit: &mut ReplayKit,
    names: &OpNames,
) -> Result<Phase, String> {
    let t0 = Instant::now();
    let mut phase = Phase::starting(t0);
    loop {
        let now = t0.elapsed();
        if now >= duration {
            break;
        }
        phase.speed.tick(now.as_secs_f64());
        let (key, is_get) = ops.next_op();
        let (op, call) = if is_get { names.get } else { names.put };
        let root = rec.begin_op(op);
        let call_t0 = Instant::now();
        let reply = rec.child(&root, call, || issue(gw, data, key, is_get));
        let us = call_t0.elapsed().as_secs_f64() * 1e6;
        if is_get {
            let out = settle(data, key, reply, us);
            let degraded = out.degraded.then(|| data.expected(key));
            kit.replay_get(rec, &root, degraded)?;
            phase.record(&out, t0.elapsed().as_secs_f64());
        } else {
            kit.replay_put(rec, &root, data.next_version(key))?;
            let out = settle(data, key, reply, us);
            phase.record(&out, t0.elapsed().as_secs_f64());
        }
        rec.end_op(root);
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    Ok(phase)
}
