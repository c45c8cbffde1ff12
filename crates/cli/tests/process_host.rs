//! The cluster harness's process host with the real `nsr` binary: four
//! `nsr brick` child processes behind a gateway serve a put and a get,
//! one is SIGKILLed and declared dead, comes back empty on a fresh port
//! and is refilled by a scrub, and a cluster dropped without
//! `shutdown()` leaves no brick process listening on any address it
//! ever used.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use nsr_net::detector::Health;
use nsr_net::gateway::ReadMode;
use nsr_net::local::{loopback_config, BrickHost, LocalCluster, Pace};

#[test]
fn process_bricks_stop_rejoin_and_die_with_the_cluster() {
    let host = BrickHost::Processes {
        exe: env!("CARGO_BIN_EXE_nsr").into(),
        obs: false,
    };
    let mut cluster =
        LocalCluster::start_on(host, 4, loopback_config(2, 1), Pace::Wall).expect("cluster");
    for _ in 0..8 {
        cluster.pump();
    }
    let mut used: Vec<SocketAddr> = cluster.addrs().to_vec();
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 3) as u8).collect();
    cluster.gw.put(1, &payload).expect("put");
    let (bytes, mode) = cluster.gw.get(1).expect("get");
    assert_eq!((bytes == payload, mode), (true, ReadMode::Healthy));

    let victim = cluster.gw.object_layout(1).expect("layout")[0] as usize;
    cluster.kill(victim).expect("kill");
    assert_eq!(cluster.gw.health_summary()[victim].1, Health::Dead);
    let (_, inventories) = cluster.state().expect("state");
    assert_eq!(inventories[victim], None, "a stopped brick lists nothing");
    let (bytes, mode) = cluster.gw.get(1).expect("degraded get");
    assert_eq!((bytes == payload, mode), (true, ReadMode::Degraded));

    cluster.rejoin(victim).expect("rejoin");
    assert_eq!(cluster.gw.health_summary()[victim].1, Health::Healthy);
    let fresh = cluster.addrs()[victim];
    assert_ne!(
        fresh, used[victim],
        "a rejoined brick listens on a fresh port"
    );
    used.push(fresh);
    let report = cluster.gw.scrub_repair().expect("scrub");
    assert!(report.deferred_objects.is_empty(), "{report:?}");
    let layout = cluster.gw.object_layout(1).expect("layout");
    assert!(layout.contains(&(victim as u32)), "{layout:?}");
    let (_, inventories) = cluster.state().expect("state");
    for (brick, inventory) in inventories.iter().enumerate() {
        let want: Vec<(u64, u32)> = (0..layout.len() as u32)
            .filter(|&pos| layout[pos as usize] == brick as u32)
            .map(|pos| (1, pos))
            .collect();
        assert_eq!(inventory.as_ref(), Some(&want), "brick {brick}");
    }

    // No shutdown(): the drop alone must kill and reap every child.
    drop(cluster);
    for addr in &used {
        let refused = TcpStream::connect_timeout(addr, Duration::from_millis(300)).is_err();
        assert!(refused, "{addr} still accepts connections");
    }
}
