//! One shard-size cap, checked before a put touches a connection: an
//! object whose shards would exceed `wire::MAX_SHARD_LEN` is refused with
//! a typed `ObjectTooLarge` before anything is encoded or sent, so no
//! pooled lane is dropped or redialled on its account. One test function:
//! the pool counters are process-wide.

use std::time::Duration;

use nsr_net::brick::{BrickConfig, BrickServer};
use nsr_net::client::BrickClient;
use nsr_net::gateway::{Gateway, GatewayConfig};
use nsr_net::wire::MAX_SHARD_LEN;
use nsr_net::Error;

#[test]
fn an_object_past_the_shard_cap_is_refused_before_any_lane_is_used() {
    nsr_obs::set_metrics_enabled(true);
    const K: usize = 2;
    let (addrs, handles): (Vec<_>, Vec<_>) = (0..3u32)
        .map(|id| {
            BrickServer::bind("127.0.0.1:0", BrickConfig::new(id))
                .expect("bind brick")
                .spawn()
        })
        .unzip();
    let gw = Gateway::connect(addrs.clone(), GatewayConfig::new(K, 1)).expect("gateway");
    gw.put(1, b"warm every lane").expect("warm-up put");
    let reconnects = nsr_net::obs::POOL_RECONNECTS.get();

    // Lazily zeroed and never touched: only its length is looked at.
    let too_large = vec![0u8; K * MAX_SHARD_LEN + 1];
    assert_eq!(
        gw.put(2, &too_large),
        Err(Error::ObjectTooLarge {
            len: K * MAX_SHARD_LEN + 1,
            max: K * MAX_SHARD_LEN,
        })
    );
    drop(too_large);
    gw.put(1, b"small").expect("a small put after the refusal");

    assert_eq!(
        nsr_net::obs::POOL_RECONNECTS.get(),
        reconnects,
        "no lane was dropped or redialled"
    );
    assert_eq!(gw.get(1).expect("get").0, b"small");
    assert_eq!(gw.get(2), Err(Error::ObjectNotFound { object: 2 }));

    drop(gw);
    for addr in addrs {
        let mut c = BrickClient::connect(addr, Duration::from_millis(500)).expect("connect");
        c.shutdown().expect("shutdown");
    }
    for h in handles {
        h.join().expect("join").expect("brick run");
    }
}
