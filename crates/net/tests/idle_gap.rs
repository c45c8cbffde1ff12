//! Regression test for gateway reconnect churn: a brick bounds a frame,
//! not the wait for the next one, so a gateway that sits idle past the
//! brick's read deadline serves its next request on the same warm lanes
//! — zero retries, zero reconnects — with nothing refreshing them.

use std::time::Duration;

use nsr_net::brick::BrickConfig;
use nsr_net::gateway::ReadMode;
use nsr_net::local::{loopback_config, BrickHost, LocalCluster, Pace};

/// Brick-side read deadline. Short so the test's idle stretch stays
/// well under a second (the production default is 2 s).
const BRICK_DEADLINE: Duration = Duration::from_millis(300);

/// Idle stretch between the put and the get: three brick deadlines.
const IDLE: Duration = Duration::from_millis(900);

#[test]
fn an_idle_gap_past_the_brick_deadline_costs_no_retry_or_reconnect() {
    nsr_obs::set_metrics_enabled(true);
    let payload: Vec<u8> = (0..96 * 1024).map(|i| (i % 251) as u8).collect();
    let mut brick = BrickConfig::new(0);
    brick.read_timeout = BRICK_DEADLINE;
    brick.write_timeout = BRICK_DEADLINE;
    let c = LocalCluster::start_on(
        BrickHost::Threads(brick),
        4,
        loopback_config(2, 1),
        Pace::Wall,
    )
    .expect("cluster");
    for _ in 0..8 {
        c.pump();
    }
    c.gw.put(7, &payload).expect("put");
    std::thread::sleep(IDLE);
    let retries_before = nsr_net::obs::RETRIES.get();
    let reconnects_before = nsr_net::obs::POOL_RECONNECTS.get();
    let (data, mode) = c.gw.get(7).expect("get after idle");
    assert_eq!(data, payload);
    assert_eq!(mode, ReadMode::Healthy);
    assert_eq!(
        nsr_net::obs::RETRIES.get() - retries_before,
        0,
        "an idle gap must not trigger gateway retries"
    );
    assert_eq!(
        nsr_net::obs::POOL_RECONNECTS.get() - reconnects_before,
        0,
        "an idle gap must not drop pooled lanes"
    );
    c.shutdown().expect("shutdown");
}
