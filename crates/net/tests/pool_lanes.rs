//! Regression test for lane churn on typed error replies: a brick that
//! answers "shard not found" (or any other well-framed error reply) has
//! left the stream in sync, so the pool must keep the connection. It
//! used to drop the lane on *any* `Err`, which made scrubbing a
//! rejoined-empty brick redial it once per probed object and inflated
//! `net.pool.reconnects`.
//!
//! One test function: the pool counters are process-wide, and
//! sequential deltas keep them race-free.

use std::time::Duration;

use nsr_net::brick::{BrickConfig, BrickServer};
use nsr_net::client::BrickClient;
use nsr_net::obs::POOL_RECONNECTS;
use nsr_net::pool::ConnectionPool;
use nsr_net::wire::Frame;
use nsr_net::Error;

const TIMEOUT: Duration = Duration::from_millis(300);
const PROBES: u64 = 16;

#[test]
fn typed_error_replies_keep_the_lane_warm() {
    nsr_obs::set_metrics_enabled(true);
    let (addrs, handles): (Vec<_>, Vec<_>) = (0..2u32)
        .map(|id| {
            BrickServer::bind("127.0.0.1:0", BrickConfig::new(id))
                .expect("bind")
                .spawn()
        })
        .unzip();
    let pool = ConnectionPool::new(addrs.clone(), TIMEOUT, 1);
    for id in 0..2 {
        pool.with(id, "heartbeat", |c| c.heartbeat(0))
            .expect("warm");
    }
    let dialed = POOL_RECONNECTS.get();

    // Not-found fetches through `with` …
    for object in 0..PROBES {
        let res = pool.with(0, "get_shard", |c| c.get_shard(object, 0));
        assert_eq!(res, Err(Error::ShardNotFound { object, pos: 0 }));
    }
    // … and through the pipelined fan-out, on both bricks at once.
    for object in 0..PROBES {
        let results = pool.fanout(
            &[0, 1],
            "rebuild_fetch",
            |i, c| {
                c.send_request(&Frame::RebuildFetch {
                    object,
                    pos: i as u32,
                })
            },
            |i, c| c.recv_shard("rebuild_fetch", object, i as u32),
        );
        for (pos, res) in results.into_iter().enumerate() {
            let pos = pos as u32;
            assert_eq!(res, Err(Error::ShardNotFound { object, pos }));
        }
    }
    assert_eq!(
        POOL_RECONNECTS.get(),
        dialed,
        "typed not-found replies must not cost a redial"
    );

    // The lanes are still usable, and still the same connections.
    pool.with(0, "put_shard", |c| c.put_shard(7, 0, b"shard"))
        .expect("put on the kept lane");
    let back = pool.with(0, "get_shard", |c| c.get_shard(7, 0));
    assert_eq!(back, Ok(b"shard".to_vec()));
    assert_eq!(POOL_RECONNECTS.get(), dialed);

    // Control: an error that leaves the stream in an unknown state still
    // drops the connection, and the next checkout redials.
    let res: Result<(), Error> = pool.with(1, "probe", |_c| {
        Err(Error::Protocol {
            what: "injected framing fault".to_string(),
        })
    });
    assert!(res.is_err());
    pool.with(1, "heartbeat", |c| c.heartbeat(1))
        .expect("redial");
    assert_eq!(POOL_RECONNECTS.get(), dialed + 1);

    drop(pool);
    for (addr, handle) in addrs.into_iter().zip(handles) {
        BrickClient::connect(addr, TIMEOUT)
            .and_then(|mut c| c.shutdown())
            .expect("shutdown");
        handle.join().expect("join").expect("brick run");
    }
}
