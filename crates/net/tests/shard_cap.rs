//! One shard-size cap, checked before a put touches a connection: an
//! object whose shards would exceed `wire::MAX_SHARD_LEN` is refused with
//! a typed `ObjectTooLarge` before anything is encoded or sent, so no
//! pooled lane is dropped or redialled on its account. One test function:
//! the pool counters are process-wide.

use nsr_net::gateway::GatewayConfig;
use nsr_net::local::{LocalCluster, Pace};
use nsr_net::wire::MAX_SHARD_LEN;
use nsr_net::Error;

#[test]
fn an_object_past_the_shard_cap_is_refused_before_any_lane_is_used() {
    nsr_obs::set_metrics_enabled(true);
    const K: usize = 2;
    let cluster = LocalCluster::start(3, GatewayConfig::new(K, 1), Pace::Wall).expect("cluster");
    let gw = &cluster.gw;
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

    cluster.shutdown().expect("shutdown");
}
