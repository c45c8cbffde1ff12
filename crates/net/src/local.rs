//! The in-process cluster: `N` brick threads on `127.0.0.1:0` behind one
//! [`Gateway`], on a [`MockClock`] ([`Pace::Mock`], so every health
//! transition replays exactly) or the wall clock ([`Pace::Wall`]). The
//! store's tests, `nsr workload` and the `net` and `serving` bench suites
//! run on it; the kill -9 campaign ([`crate::cluster`]) runs child
//! processes instead but shares [`loopback_config`].
//!
//! A brick is stopped with an orderly `Shutdown` frame: to the gateway it
//! simply stops answering, like a kill -9. Dropping the cluster drops the
//! gateway, then stops and joins every running brick, so no exit path (an
//! early `?`, a brick never declared dead, a panicking test) leaks a brick
//! thread; [`LocalCluster::shutdown`] does the same and reports errors.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::brick::{BrickConfig, BrickServer};
use crate::client::BrickClient;
use crate::clock::{Clock, MockClock, WallClock};
use crate::detector::{DetectorConfig, Health};
use crate::error::Error;
use crate::gateway::{Gateway, GatewayConfig, RetryPolicy};

/// The heartbeat cadence of a wall-clock cluster and of the kill -9
/// campaign, and the interval [`loopback_config`]'s detector expects.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(20);

/// Mock seconds one [`Pace::Mock`] pump advances the clock by.
const MOCK_STEP_S: f64 = 0.5;

/// Pumps `kill` and `rejoin` make on a [`Pace::Mock`] cluster before they
/// give up: 16 mock seconds, where a detection takes about 7 pumps, so a
/// regression that slows detection or adoption fails the wait.
const MOCK_ROUNDS: usize = 32;

/// Pumps `kill` and `rejoin` make on a [`Pace::Wall`] cluster before they
/// give up: 10 s of 20 ms probes, slack for a loaded host.
const WALL_ROUNDS: usize = 500;

/// Deadline of the harness's own control connections.
const CONTROL_TIMEOUT: Duration = Duration::from_millis(300);

/// The loopback gateway config: a 250 ms socket deadline, four attempts
/// backing off 2–20 ms, and a detector expecting a probe every
/// [`PROBE_INTERVAL`], so a silent brick is dead after about 140 ms.
pub fn loopback_config(data_shards: usize, parity_shards: usize) -> GatewayConfig {
    let mut cfg = GatewayConfig::new(data_shards, parity_shards);
    cfg.timeout = Duration::from_millis(250);
    cfg.retry = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
    };
    cfg.detector = DetectorConfig {
        suspect_phi: 1.0,
        dead_phi: 3.0,
        initial_interval_s: PROBE_INTERVAL.as_secs_f64(),
        interval_alpha: 0.2,
    };
    cfg
}

/// The clock the cluster's detector reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// A [`MockClock`]; each pump advances it half a second.
    Mock,
    /// The wall clock; each pump sleeps [`PROBE_INTERVAL`] first.
    Wall,
}

/// The gateway's metadata export and every brick's sorted
/// `list_shards()` (`None` for a stopped brick).
pub type ClusterState = (String, Vec<Option<Vec<(u64, u32)>>>);

/// Brick threads behind one gateway; brick id = index.
pub struct LocalCluster {
    /// The gateway. Declared first, so it is dropped before the bricks.
    pub gw: Gateway,
    bricks: Bricks,
    clock: Arc<dyn Clock>,
    mock: Option<MockClock>,
}

impl LocalCluster {
    /// Starts `bricks` default bricks behind a gateway built from `cfg`.
    /// No heartbeat is pumped yet.
    pub fn start(bricks: usize, cfg: GatewayConfig, pace: Pace) -> Result<LocalCluster, Error> {
        Self::start_with(&BrickConfig::new(0), bricks, cfg, pace)
    }

    /// [`start`](Self::start) with every brick configured like `brick`
    /// (its `id` replaced by the brick's index).
    pub fn start_with(
        brick: &BrickConfig,
        bricks: usize,
        cfg: GatewayConfig,
        pace: Pace,
    ) -> Result<LocalCluster, Error> {
        let mut set = Bricks {
            template: brick.clone(),
            addrs: Vec::with_capacity(bricks),
            running: Vec::with_capacity(bricks),
        };
        for id in 0..bricks {
            let (addr, handle) = set.bind(id)?;
            set.addrs.push(addr);
            set.running.push(Some(handle));
        }
        let mock = (pace == Pace::Mock).then(MockClock::new);
        let clock: Arc<dyn Clock> = match &mock {
            Some(mock) => Arc::new(mock.clone()),
            None => Arc::new(WallClock::new()),
        };
        let gw = Gateway::with_clock(set.addrs.clone(), cfg, Arc::clone(&clock))?;
        Ok(LocalCluster {
            gw,
            bricks: set,
            clock,
            mock,
        })
    }

    /// Every brick's current address (a restarted brick has a new one).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.bricks.addrs
    }

    /// One detector round: advance the mock clock half a second, or sleep
    /// [`PROBE_INTERVAL`], then probe every brick.
    pub fn pump(&self) {
        match &self.mock {
            Some(mock) => mock.advance(MOCK_STEP_S),
            None => std::thread::sleep(PROBE_INTERVAL),
        }
        self.gw.pump_heartbeats();
    }

    /// Stops brick `id` (if it runs) without a detector round, so the
    /// gateway still plans around it. Fails if its accept loop failed or
    /// the shutdown was not delivered.
    pub fn stop(&mut self, id: usize) -> Result<(), Error> {
        self.bricks.stop(id)
    }

    /// Stops brick `id` (if it runs) and pumps until the detector declares
    /// it dead; returns the clock time from the stop to `Dead`, or an
    /// error naming the brick and every brick's health after 32 mock or
    /// 500 wall-clock pumps.
    pub fn kill(&mut self, id: usize) -> Result<Duration, Error> {
        self.bricks.stop(id)?;
        let stopped = self.clock.now_s();
        self.pump_until(id, Health::Dead, "kill: wait for Dead")?;
        Ok(Duration::from_secs_f64(self.clock.now_s() - stopped))
    }

    /// Restarts brick `id` empty on a fresh port (stopping it first if it
    /// runs) and points the gateway at it, without a detector round.
    pub fn restart(&mut self, id: usize) -> Result<(), Error> {
        self.bricks.stop(id)?;
        let (addr, handle) = self.bricks.bind(id)?;
        self.bricks.addrs[id] = addr;
        self.bricks.running[id] = Some(handle);
        self.gw.set_brick_addr(id as u32, addr);
        Ok(())
    }

    /// [`restart`](Self::restart)s brick `id`, then pumps and adopts
    /// rejoined bricks until it is healthy, or fails like
    /// [`kill`](Self::kill).
    pub fn rejoin(&mut self, id: usize) -> Result<(), Error> {
        self.restart(id)?;
        self.pump_until(id, Health::Healthy, "rejoin: wait for Healthy")
    }

    /// Pumps until brick `id` is `want`, adopting rejoined bricks on the
    /// way when `want` is `Healthy`.
    fn pump_until(&self, id: usize, want: Health, op: &'static str) -> Result<(), Error> {
        let rounds = match self.mock {
            Some(_) => MOCK_ROUNDS,
            None => WALL_ROUNDS,
        };
        for _ in 0..rounds {
            self.pump();
            if want == Health::Healthy {
                self.gw.adopt_rejoined();
            }
            if self.gw.health_summary()[id].1 == want {
                return Ok(());
            }
        }
        Err(Error::Io {
            op,
            detail: format!(
                "brick {id} not {want:?} after {rounds} pumps; health {:?}",
                self.gw.health_summary()
            ),
        })
    }

    /// What the cluster holds right now: the gateway's metadata export
    /// and every running brick's sorted shard inventory.
    pub fn state(&self) -> Result<ClusterState, Error> {
        let inventories = (0..self.bricks.addrs.len())
            .map(|id| {
                if self.bricks.running[id].is_none() {
                    return Ok(None);
                }
                let mut brick = BrickClient::connect(self.bricks.addrs[id], CONTROL_TIMEOUT)?;
                let mut entries = brick.list_shards()?;
                entries.sort_unstable();
                Ok(Some(entries))
            })
            .collect::<Result<_, Error>>()?;
        Ok((self.gw.export_meta(), inventories))
    }

    /// Drops the gateway, then stops and joins every running brick,
    /// returning the first brick's error (the rest are still joined).
    pub fn shutdown(self) -> Result<(), Error> {
        let LocalCluster { gw, mut bricks, .. } = self;
        drop(gw);
        bricks.stop_all()
    }
}

/// The brick threads: their own type, so that a dropped [`LocalCluster`]
/// drops its gateway first and then runs this `Drop`.
struct Bricks {
    template: BrickConfig,
    addrs: Vec<SocketAddr>,
    running: Vec<Option<JoinHandle<Result<(), Error>>>>,
}

impl Bricks {
    /// Binds and spawns an empty brick `id` on a fresh loopback port.
    fn bind(&self, id: usize) -> Result<(SocketAddr, JoinHandle<Result<(), Error>>), Error> {
        let mut cfg = self.template.clone();
        cfg.id = id as u32;
        Ok(BrickServer::bind("127.0.0.1:0", cfg)?.spawn())
    }

    /// Stops and joins brick `id`. The thread is joined only once it is
    /// known to end: the shutdown was delivered, or the connection was
    /// refused (the accept loop has returned, and its own error explains
    /// why). Any other failure (a timeout, a failed write) leaves the
    /// brick listed as running and is returned, rather than blocking in
    /// a join that may never return.
    fn stop(&mut self, id: usize) -> Result<(), Error> {
        let Some(handle) = self.running[id].take() else {
            return Ok(());
        };
        let sent =
            BrickClient::connect(self.addrs[id], CONTROL_TIMEOUT).and_then(|mut c| c.shutdown());
        let refused = ErrorKind::ConnectionRefused.to_string();
        match sent {
            Ok(()) => {}
            Err(Error::Io {
                op: "connect",
                detail,
            }) if detail == refused => {}
            Err(e) => {
                self.running[id] = Some(handle);
                return Err(e);
            }
        }
        handle.join().map_err(|_| Error::Io {
            op: "join brick",
            detail: format!("brick {id} thread panicked"),
        })?
    }

    fn stop_all(&mut self) -> Result<(), Error> {
        // Every brick is stopped before the first error is returned.
        let stopped: Vec<_> = (0..self.running.len()).map(|id| self.stop(id)).collect();
        stopped.into_iter().collect()
    }
}

impl Drop for Bricks {
    /// Best effort: a brick whose shutdown could not be delivered is left
    /// running (its handle detaches) rather than blocking the drop.
    fn drop(&mut self) {
        let _ = self.stop_all();
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpStream;

    use super::*;

    fn mock_cluster() -> LocalCluster {
        let cluster =
            LocalCluster::start(4, GatewayConfig::new(2, 1), Pace::Mock).expect("cluster");
        for _ in 0..10 {
            cluster.pump();
        }
        cluster
    }

    fn health(cluster: &LocalCluster, id: usize) -> Health {
        cluster.gw.health_summary()[id].1
    }

    #[test]
    fn kill_returns_once_dead_and_rejoin_once_healthy() {
        let mut cluster = mock_cluster();
        let took = cluster.kill(1).expect("kill");
        assert_eq!(health(&cluster, 1), Health::Dead);
        // Mock time only moves in whole pumps.
        let pumps = took.as_secs_f64() / MOCK_STEP_S;
        assert!(pumps >= 1.0 && pumps.fract() == 0.0, "{took:?}");
        cluster.rejoin(1).expect("rejoin");
        assert_eq!(health(&cluster, 1), Health::Healthy);
        for id in [0, 2, 3] {
            assert_eq!(health(&cluster, id), Health::Healthy, "brick {id}");
        }
        cluster.shutdown().expect("shutdown");
    }

    #[test]
    fn the_inventory_lists_exactly_the_shards_a_put_wrote() {
        let mut cluster = mock_cluster();
        let (meta, inventories) = cluster.state().expect("state");
        assert!(inventories.iter().all(|i| i == &Some(Vec::new())), "{meta}");
        cluster.gw.put(7, &[9u8; 1000]).expect("put");
        let layout = cluster.gw.object_layout(7).expect("layout");
        let (meta, inventories) = cluster.state().expect("state");
        assert_eq!(meta, cluster.gw.export_meta());
        for (brick, inventory) in inventories.iter().enumerate() {
            let want: Vec<(u64, u32)> = (0..layout.len() as u32)
                .filter(|&pos| layout[pos as usize] == brick as u32)
                .map(|pos| (7, pos))
                .collect();
            assert_eq!(inventory.as_ref(), Some(&want), "brick {brick}");
        }
        cluster.stop(layout[0] as usize).expect("stop");
        let (_, inventories) = cluster.state().expect("state");
        assert_eq!(inventories[layout[0] as usize], None);
    }

    #[test]
    fn a_detection_slower_than_the_bound_fails_the_wait_naming_the_brick() {
        let mut cfg = GatewayConfig::new(2, 1);
        cfg.detector.dead_phi = 1e9;
        let mut cluster = LocalCluster::start(4, cfg, Pace::Mock).expect("cluster");
        cluster.pump();
        let Err(Error::Io { op, detail }) = cluster.kill(1) else {
            panic!("a brick that is never declared dead must fail the wait");
        };
        assert_eq!(op, "kill: wait for Dead");
        assert!(
            detail.starts_with("brick 1 not Dead after 32 pumps"),
            "{detail}"
        );
        cluster.shutdown().expect("shutdown");
    }

    #[test]
    fn an_undelivered_shutdown_is_returned_without_joining() {
        let mut cluster = mock_cluster();
        // A listener that never accepts: the connect succeeds, the
        // shutdown's reply never comes.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let real = cluster.bricks.addrs[1];
        cluster.bricks.addrs[1] = silent.local_addr().expect("addr");
        let err = cluster.stop(1).expect_err("no reply to the shutdown");
        assert!(matches!(err, Error::Timeout { .. }), "{err:?}");
        assert!(
            cluster.bricks.running[1].is_some(),
            "brick 1 is still running"
        );
        cluster.bricks.addrs[1] = real;
        let addrs = cluster.addrs().to_vec();
        cluster.shutdown().expect("shutdown");
        assert_refused(&addrs);
    }

    fn assert_refused(addrs: &[SocketAddr]) {
        for addr in addrs {
            let refused = TcpStream::connect_timeout(addr, CONTROL_TIMEOUT).is_err();
            assert!(refused, "{addr} still accepts connections");
        }
    }

    #[test]
    fn shutdown_and_drop_stop_every_brick() {
        let mut cluster = mock_cluster();
        cluster.stop(2).expect("stop");
        cluster.restart(3).expect("restart");
        let addrs = cluster.addrs().to_vec();
        cluster.shutdown().expect("shutdown");
        assert_refused(&addrs);

        let cluster = mock_cluster();
        let addrs = cluster.addrs().to_vec();
        drop(cluster);
        assert_refused(&addrs);
    }
}
