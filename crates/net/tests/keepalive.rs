//! Regression test for gateway reconnect churn: pooled brick
//! connections must be refreshed by the keepalive thread *before* the
//! brick's idle read deadline, so a gateway that sits idle between
//! requests serves the next one on warm lanes — zero retries, zero
//! reconnects. The control run (keepalive disabled) shows the churn the
//! fix removes: every lane is dropped by the brick during the idle
//! stretch and must be transparently re-dialed.
//!
//! Both scenarios share one test function because the pool counters are
//! process-wide; sequential deltas keep them race-free.

use std::time::Duration;

use nsr_net::brick::BrickConfig;
use nsr_net::gateway::ReadMode;
use nsr_net::local::{loopback_config, BrickHost, LocalCluster, Pace};

/// Brick-side idle read deadline. Short so the test's idle stretch
/// stays well under a second (the production default is 2 s).
const BRICK_DEADLINE: Duration = Duration::from_millis(300);

/// Idle stretch between the put and the get — comfortably past the
/// brick deadline, so any unrefreshed lane is dropped server-side.
const IDLE: Duration = Duration::from_millis(900);

fn cluster(keepalive_refresh: Duration) -> LocalCluster {
    let mut brick = BrickConfig::new(0);
    brick.read_timeout = BRICK_DEADLINE;
    brick.write_timeout = BRICK_DEADLINE;
    let mut cfg = loopback_config(2, 1);
    cfg.keepalive_refresh = keepalive_refresh;
    let c = LocalCluster::start_on(BrickHost::Threads(brick), 4, cfg, Pace::Wall).expect("cluster");
    for _ in 0..8 {
        c.pump();
    }
    c
}

#[test]
fn keepalive_prevents_reconnects_and_retries_across_idle_gaps() {
    nsr_obs::set_metrics_enabled(true);
    let payload: Vec<u8> = (0..96 * 1024).map(|i| (i % 251) as u8).collect();

    // With keepalive refreshing lanes every 80 ms, an idle stretch past
    // the 300 ms brick deadline must cost nothing: no brick drops the
    // connection, so the get runs with zero retries and zero reconnects.
    let c = cluster(Duration::from_millis(80));
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
        "idle gap must not trigger gateway retries when keepalive is on"
    );
    assert_eq!(
        nsr_net::obs::POOL_RECONNECTS.get() - reconnects_before,
        0,
        "idle gap must not drop pooled lanes when keepalive is on"
    );
    assert!(
        nsr_net::obs::POOL_KEEPALIVES.get() > 0,
        "the keepalive thread should have refreshed idle lanes"
    );
    c.shutdown().expect("shutdown");

    // Control: keepalive disabled. The bricks drop every lane during
    // the idle stretch; the get still succeeds (transparent reconnect)
    // but the churn is visible in the reconnect counter.
    let c = cluster(Duration::ZERO);
    c.gw.put(7, &payload).expect("put");
    std::thread::sleep(IDLE);
    let reconnects_before = nsr_net::obs::POOL_RECONNECTS.get();
    let (data, _) = c.gw.get(7).expect("get after idle without keepalive");
    assert_eq!(data, payload);
    assert!(
        nsr_net::obs::POOL_RECONNECTS.get() > reconnects_before,
        "without keepalive the idle gap must show up as reconnect churn"
    );
    c.shutdown().expect("shutdown");
}
