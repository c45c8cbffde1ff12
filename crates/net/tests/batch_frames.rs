//! The brick's side of `Frame::Batch`: a batch is read whole before any
//! of it is served, its replies come back in request order, and a batch
//! that cannot be read whole gets one typed `BAD_REQUEST` and a dropped
//! connection — no panic, nothing in it served, no reply bytes for the
//! part that was read. A shard missing in the middle of a batch is that
//! entry's own `ShardNotFound`: the other entries are filled, the stream
//! stays in sync and the pooled lane stays warm. A trace context sent
//! before a batch parents the handler span of every entry. A bare data
//! request is a batch of one: its reply bytes are the ones the same
//! request gets inside a `Batch { count: 1 }`.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use nsr_net::brick::{BrickConfig, BrickServer};
use nsr_net::client::BrickClient;
use nsr_net::obs::POOL_RECONNECTS;
use nsr_net::pool::ConnectionPool;
use nsr_net::wire::{read_frame, reply_code, DataRequest, Frame, MAX_BATCH_LEN};
use nsr_net::Error;
use nsr_obs::{Json, SpanContext};

const TIMEOUT: Duration = Duration::from_millis(500);

struct Brick {
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<Result<(), Error>>>,
}

impl Brick {
    fn start() -> Brick {
        let (addr, handle) = BrickServer::bind("127.0.0.1:0", BrickConfig::new(3))
            .expect("bind")
            .spawn();
        Brick {
            addr,
            handle: Some(handle),
        }
    }

    fn client(&self) -> BrickClient {
        BrickClient::connect(self.addr, TIMEOUT).expect("connect")
    }
}

impl Drop for Brick {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.client().shutdown();
            let _ = handle.join();
        }
    }
}

fn put(object: u64, pos: u32) -> Frame {
    Frame::PutShard {
        object,
        pos,
        data: vec![object as u8; 40],
    }
}

#[test]
fn a_batch_that_cannot_be_read_whole_is_refused_and_nothing_in_it_is_served() {
    let brick = Brick::start();
    let scrape = Frame::Scrape {
        cursor: 0,
        max_lines: 8,
    };
    let cases: Vec<(&str, Vec<Frame>)> = vec![
        (
            "count over the cap",
            vec![Frame::Batch {
                count: MAX_BATCH_LEN + 1,
            }],
        ),
        (
            "nested batch",
            vec![
                Frame::Batch { count: 3 },
                put(1, 0),
                Frame::Batch { count: 1 },
            ],
        ),
        (
            "heartbeat inside",
            vec![
                Frame::Batch { count: 2 },
                put(2, 0),
                Frame::Heartbeat { seq: 1 },
            ],
        ),
        (
            "scrape inside",
            vec![Frame::Batch { count: 2 }, put(3, 0), scrape],
        ),
        (
            "shutdown inside",
            vec![Frame::Batch { count: 2 }, put(4, 0), Frame::Shutdown],
        ),
        (
            "trace context inside",
            vec![
                Frame::Batch { count: 2 },
                put(5, 0),
                Frame::TraceCtx { proc: 1, span: 2 },
            ],
        ),
        (
            "EOF mid-batch",
            vec![Frame::Batch { count: 3 }, put(6, 0), put(6, 1)],
        ),
    ];
    for (case, frames) in cases {
        let mut raw = TcpStream::connect(brick.addr).expect("connect");
        raw.set_read_timeout(Some(TIMEOUT)).expect("timeout");
        for frame in &frames {
            raw.write_all(&frame.encode()).expect("write");
        }
        raw.shutdown(Shutdown::Write).expect("half-close");
        let mut replies = BufReader::new(raw);
        match read_frame(&mut replies) {
            Ok(Some(Frame::ErrorReply { code, .. })) => {
                assert_eq!(code, reply_code::BAD_REQUEST, "{case}")
            }
            other => panic!("{case}: expected BAD_REQUEST, got {other:?}"),
        }
        assert_eq!(read_frame(&mut replies), Ok(None), "{case}: then dropped");
    }
    // Nothing in a refused batch was served, and the brick serves on.
    let mut c = brick.client();
    assert_eq!(c.list_shards().expect("list"), Vec::new());
    assert!(c.heartbeat(9).is_ok(), "brick still serving");
}

#[test]
fn a_batch_is_served_in_order_and_a_missing_shard_is_its_own_entry() {
    nsr_obs::set_metrics_enabled(true);
    let brick = Brick::start();
    let pool = ConnectionPool::new(vec![brick.addr], TIMEOUT, 1);
    pool.with(0, "heartbeat", |c| c.heartbeat(0)).expect("warm");
    let dialed = POOL_RECONNECTS.get();
    let shard = |object: u64| vec![object as u8 ^ 0x5a; 300];
    let (one, three) = (shard(1), shard(3));
    // Puts, a delete and fetches in one batch: each entry sees the ones
    // before it.
    let puts = [
        DataRequest::PutShard {
            object: 1,
            pos: 0,
            data: &one,
        },
        DataRequest::PutShard {
            object: 3,
            pos: 0,
            data: &three,
        },
        DataRequest::PutShard {
            object: 2,
            pos: 0,
            data: &one,
        },
        DataRequest::DeleteShard { object: 2, pos: 0 },
    ];
    let results = pool.fanout(
        &[0],
        "put_shard",
        |_, c| c.send_batch(&puts),
        |_, c| {
            Ok((0..puts.len())
                .map(|_| c.recv_put_reply())
                .collect::<Vec<_>>())
        },
    );
    assert_eq!(results, vec![Ok(vec![Ok(()); 4])]);
    for _ in 0..16 {
        let mut got = vec![vec![0u8; 300]; 3];
        let fetches: Vec<DataRequest<'_>> = (1..=3)
            .map(|object| DataRequest::RebuildFetch { object, pos: 0 })
            .collect();
        let results = pool.fanout(
            &[0],
            "rebuild_fetch",
            |_, c| c.send_batch(&fetches),
            |_, c| {
                Ok(got
                    .iter_mut()
                    .zip(1..)
                    .map(|(dst, object)| c.recv_shard_into("rebuild_fetch", object, 0, dst))
                    .collect::<Vec<_>>())
            },
        );
        let entries = results
            .into_iter()
            .next()
            .expect("one brick")
            .expect("in sync");
        assert_eq!(
            entries,
            vec![
                Ok(()),
                Err(Error::ShardNotFound { object: 2, pos: 0 }),
                Ok(())
            ]
        );
        assert_eq!(
            (&got[0], &got[2]),
            (&one, &three),
            "the other entries filled"
        );
    }
    // The stream is in sync and the lane warm: the same connection serves
    // a plain request next.
    let back = pool.with(0, "get_shard", |c| c.get_shard(3, 0));
    assert_eq!(back, Ok(three.clone()));
    assert_eq!(
        POOL_RECONNECTS.get(),
        dialed,
        "a missing entry must not cost a redial"
    );
}

#[test]
fn a_trace_context_before_a_batch_parents_every_entry() {
    nsr_obs::set_trace_enabled(true);
    let brick = Brick::start();
    let mut c = brick.client();
    let ctx = SpanContext {
        proc_id: 0xba7c,
        span_id: 0x5eed_ba7c,
    };
    let data = [7u8; 64];
    c.send_trace_ctx(ctx).expect("context");
    c.send_batch(&[
        DataRequest::PutShard {
            object: 77,
            pos: 1,
            data: &data,
        },
        DataRequest::GetShard { object: 77, pos: 1 },
        DataRequest::RebuildFetch { object: 77, pos: 1 },
        DataRequest::DeleteShard { object: 77, pos: 1 },
    ])
    .expect("batch");
    c.recv_put_reply().expect("put");
    assert_eq!(c.recv_shard("get_shard", 77, 1), Ok(data.to_vec()));
    assert_eq!(c.recv_shard("rebuild_fetch", 77, 1), Ok(data.to_vec()));
    c.recv_put_reply().expect("delete");
    // The context was for that batch only.
    c.put_shard(77, 2, &data).expect("unparented put");
    let (records, _) = nsr_obs::trace::drain();
    let handlers: Vec<String> = records
        .iter()
        .filter(|rec| rec.get("kind").and_then(Json::as_str) == Some("span"))
        .filter(|rec| {
            rec.get("name")
                .and_then(Json::as_str)
                .is_some_and(|name| name.starts_with("net.brick."))
        })
        .filter(|rec| {
            rec.get("fields")
                .and_then(|f| f.get("object"))
                .and_then(Json::as_f64)
                == Some(77.0)
        })
        .map(|rec| {
            assert_eq!(
                rec.get("remote_parent_id").and_then(Json::as_f64),
                Some(ctx.span_id as f64)
            );
            assert_eq!(
                rec.get("remote_proc_id").and_then(Json::as_f64),
                Some(ctx.proc_id as f64)
            );
            rec.get("name").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(
        handlers,
        [
            "net.brick.put",
            "net.brick.get",
            "net.brick.rebuild_fetch",
            "net.brick.delete"
        ]
    );
}

/// Reads one whole reply frame off `raw`, byte for byte.
fn reply_bytes(raw: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    raw.read_exact(&mut frame).expect("length prefix");
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    frame.resize(4 + len, 0);
    raw.read_exact(&mut frame[4..]).expect("frame body");
    frame
}

#[test]
fn a_bare_request_gets_the_reply_bytes_of_a_batch_of_one() {
    let brick = Brick::start();
    let mut raw = TcpStream::connect(brick.addr).expect("connect");
    raw.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    let data = vec![0x3c; 300];
    let stored = Frame::ShardData { data: data.clone() };
    let missing = |object| Frame::ErrorReply {
        code: reply_code::SHARD_NOT_FOUND,
        detail: format!("obj{object} pos0"),
    };
    // Each kind in turn — a missing shard's fetch included — bare, then
    // the same request as a batch of one, on one connection.
    let cases = [
        (
            Frame::PutShard {
                object: 8,
                pos: 0,
                data: data.clone(),
            },
            Frame::Ok,
        ),
        (Frame::GetShard { object: 8, pos: 0 }, stored.clone()),
        (Frame::RebuildFetch { object: 8, pos: 0 }, stored),
        (Frame::GetShard { object: 9, pos: 0 }, missing(9)),
        (Frame::DeleteShard { object: 8, pos: 0 }, Frame::Ok),
        (Frame::RebuildFetch { object: 8, pos: 0 }, missing(8)),
    ];
    for (request, reply) in cases {
        raw.write_all(&request.encode()).expect("bare");
        let bare = reply_bytes(&mut raw);
        let mut batch = Frame::Batch { count: 1 }.encode();
        batch.extend_from_slice(&request.encode());
        raw.write_all(&batch).expect("batch of one");
        assert_eq!(reply_bytes(&mut raw), bare, "{}", request.name());
        assert_eq!(bare, reply.encode(), "{}", request.name());
    }
    // Nothing else was sent back, and the connection is still served.
    raw.write_all(&Frame::Heartbeat { seq: 5 }.encode())
        .expect("heartbeat");
    let mut replies = BufReader::new(raw);
    assert!(matches!(
        read_frame(&mut replies),
        Ok(Some(Frame::HeartbeatAck { seq: 5, .. }))
    ));
}
