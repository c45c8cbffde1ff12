//! A put whose stores fail on several bricks rules all of them out of its
//! next layout at once. With bricks 1 and 3 of a 3+2 store stopped before
//! the detector notices, a fresh key's first layout names both, and both
//! stores miss in one round. Under `loopback_config`'s four attempts each
//! failed store costs three retries, so the put pays for one layout's
//! misses (6 retries) and then either lands on the second layout (eight
//! bricks) or returns the first layout's error (six bricks). Ruling out
//! only the first failed brick cost a second failing layout: 9 retries.
//! One test function: the retry counter is process-wide.

use nsr_net::gateway::PAGE_BYTES;
use nsr_net::local::{loopback_config, LocalCluster, Pace};
use nsr_net::Error;

const K: usize = 3;
const T: usize = 2;

#[test]
fn a_failed_put_rules_out_every_brick_whose_store_failed() {
    nsr_obs::set_metrics_enabled(true);
    for bricks in [8, 6] {
        let mut c =
            LocalCluster::start(bricks, loopback_config(K, T), Pace::Mock).expect("cluster");
        for _ in 0..10 {
            c.pump();
        }
        c.stop(1).expect("stop");
        c.stop(3).expect("stop");
        // Object 0's first layout starts at brick 0: it names bricks 1 and 3.
        let data = vec![0x5a; K * PAGE_BYTES + 1];
        let before = nsr_net::obs::RETRIES.get();
        let put = c.gw.put(0, &data);
        let retries = nsr_net::obs::RETRIES.get() - before;
        assert_eq!(retries, 6, "{bricks} bricks: {put:?}");
        if bricks == 8 {
            put.expect("the second layout lands");
            let layout = c.gw.object_layout(0).expect("layout");
            assert!(!layout.contains(&1) && !layout.contains(&3), "{layout:?}");
            assert_eq!(c.gw.get(0).expect("get").0, data);
        } else {
            assert!(
                matches!(
                    put,
                    Err(Error::RetriesExhausted {
                        op: "put_shard",
                        ..
                    })
                ),
                "{put:?}"
            );
        }
        c.shutdown().expect("shutdown");
    }
}
