//! The cluster harness: `N` bricks on `127.0.0.1:0` behind one
//! [`Gateway`], on a [`MockClock`] ([`Pace::Mock`], so every health
//! transition replays exactly) or the wall clock ([`Pace::Wall`]). Every
//! brick the repo starts behind a gateway starts here (the repo
//! benchmark's own bricks aside), as a thread of this process (the
//! store's tests, `nsr workload`, the `net` and `serving` bench suites)
//! or as an `nsr brick` child process (the kill -9 campaign,
//! [`crate::cluster`]); see [`BrickHost`].
//!
//! A stopped brick simply stops answering: a thread gets an orderly
//! `Shutdown` frame, which the gateway cannot tell from a kill -9, and
//! a process gets SIGKILL. Dropping the cluster drops the gateway, then
//! stops every running brick, so no exit path (an early `?`, a brick
//! never declared dead, a panicking test) leaks a brick thread or
//! process; [`LocalCluster::shutdown`] does the same and reports errors.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::brick::{BrickConfig, BrickServer};
use crate::client::BrickClient;
use crate::clock::{Clock, MockClock, WallClock};
use crate::detector::{DetectorConfig, Health, Transition};
use crate::error::Error;
use crate::gateway::{Gateway, GatewayConfig, RetryPolicy};

/// The heartbeat cadence of a wall-clock cluster, and the interval
/// [`loopback_config`]'s detector expects.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(20);

/// Mock seconds one [`Pace::Mock`] pump advances the clock by.
const MOCK_STEP_S: f64 = 0.5;

/// Pumps [`LocalCluster::pump_until`] makes on a [`Pace::Mock`] cluster
/// before it gives up: 16 mock seconds, where a detection takes about 7
/// pumps, so a regression that slows detection or adoption fails the
/// wait.
const MOCK_ROUNDS: usize = 32;

/// Pumps [`LocalCluster::pump_until`] makes on a [`Pace::Wall`] cluster
/// before it gives up: 10 s of 20 ms probes, slack for a loaded host.
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

/// Where a cluster's bricks run.
#[derive(Debug, Clone)]
pub enum BrickHost {
    /// Threads of this process, each configured like this template (its
    /// `id` replaced by the brick's index).
    Threads(BrickConfig),
    /// Child processes of the `nsr` binary at `exe`, each started as
    /// `nsr brick --listen 127.0.0.1:0 --id N`.
    Processes {
        /// The `nsr` binary.
        exe: PathBuf,
        /// Start every brick with `--obs --label L`, so its telemetry
        /// can be scraped and stitched. `L` is `brick-N`, then
        /// `brick-N-rG` after the brick's `G`th restart, so a killed
        /// process and its replacement never collapse into one node of
        /// the stitched causal tree.
        obs: bool,
    },
}

/// The gateway's metadata export and every brick's sorted
/// `list_shards()` (`None` for a stopped brick).
pub type ClusterState = (String, Vec<Option<Vec<(u64, u32)>>>);

/// Bricks behind one gateway; brick id = index.
pub struct LocalCluster {
    /// The gateway. Declared first, so it is dropped before the bricks.
    pub gw: Gateway,
    bricks: Bricks,
    clock: Arc<dyn Clock>,
    mock: Option<MockClock>,
}

impl LocalCluster {
    /// Starts `bricks` default brick threads behind a gateway built from
    /// `cfg`. No heartbeat is pumped yet.
    pub fn start(bricks: usize, cfg: GatewayConfig, pace: Pace) -> Result<LocalCluster, Error> {
        Self::start_on(BrickHost::Threads(BrickConfig::new(0)), bricks, cfg, pace)
    }

    /// [`start`](Self::start) with the bricks on `host`.
    pub fn start_on(
        host: BrickHost,
        bricks: usize,
        cfg: GatewayConfig,
        pace: Pace,
    ) -> Result<LocalCluster, Error> {
        let mut set = Bricks {
            host,
            addrs: Vec::with_capacity(bricks),
            running: Vec::with_capacity(bricks),
            restarts: vec![0; bricks],
        };
        for id in 0..bricks {
            let (addr, brick) = set.bind(id)?;
            set.addrs.push(addr);
            set.running.push(Some(brick));
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
    /// [`PROBE_INTERVAL`], then probe every brick. Returns the health
    /// transitions the round made.
    pub fn pump(&self) -> Vec<Transition> {
        match &self.mock {
            Some(mock) => mock.advance(MOCK_STEP_S),
            None => std::thread::sleep(PROBE_INTERVAL),
        }
        self.gw.pump_heartbeats()
    }

    /// Stops brick `id` (if it runs) without a detector round, so the
    /// gateway still plans around it. A thread fails the stop if its
    /// accept loop failed or the shutdown was not delivered; a process
    /// is killed and reaped.
    pub fn stop(&mut self, id: usize) -> Result<(), Error> {
        self.bricks.stop(id)
    }

    /// Stops brick `id` (if it runs) and pumps until the detector declares
    /// it dead; returns the clock time from the stop to `Dead`, or fails
    /// like [`pump_until`](Self::pump_until).
    pub fn kill(&mut self, id: usize) -> Result<Duration, Error> {
        self.bricks.stop(id)?;
        let stopped = self.clock.now_s();
        self.pump_until(&[id], Health::Dead, "kill: wait for Dead")?;
        Ok(Duration::from_secs_f64(self.clock.now_s() - stopped))
    }

    /// Restarts brick `id` empty on a fresh port (stopping it first if it
    /// runs) and points the gateway at it, without a detector round. A
    /// process comes back under its next generation's label.
    pub fn restart(&mut self, id: usize) -> Result<(), Error> {
        self.bricks.stop(id)?;
        self.bricks.restarts[id] += 1;
        let (addr, brick) = self.bricks.bind(id)?;
        self.bricks.addrs[id] = addr;
        self.bricks.running[id] = Some(brick);
        self.gw.set_brick_addr(id as u32, addr);
        Ok(())
    }

    /// [`restart`](Self::restart)s brick `id`, then pumps and adopts
    /// rejoined bricks until it is healthy, or fails like
    /// [`pump_until`](Self::pump_until).
    pub fn rejoin(&mut self, id: usize) -> Result<(), Error> {
        self.restart(id)?;
        self.pump_until(&[id], Health::Healthy, "rejoin: wait for Healthy")?;
        Ok(())
    }

    /// Pumps until every brick in `ids` is `want`, adopting rejoined
    /// bricks on the way when `want` is `Healthy`, and returns the
    /// transitions the pumps made. After 32 mock or 500 wall-clock pumps
    /// it fails with an [`Error::Io`] whose `op` is `op` and whose detail
    /// names the first brick still short of `want` and every brick's
    /// health.
    pub fn pump_until(
        &self,
        ids: &[usize],
        want: Health,
        op: &'static str,
    ) -> Result<Vec<Transition>, Error> {
        let rounds = match self.mock {
            Some(_) => MOCK_ROUNDS,
            None => WALL_ROUNDS,
        };
        let mut transitions = Vec::new();
        let mut health = Vec::new();
        for _ in 0..rounds {
            transitions.extend(self.pump());
            if want == Health::Healthy {
                self.gw.adopt_rejoined();
            }
            health = self.gw.health_summary();
            if ids.iter().all(|&id| health[id].1 == want) {
                return Ok(transitions);
            }
        }
        let id = ids.iter().find(|&&id| health[id].1 != want).unwrap_or(&0);
        Err(Error::Io {
            op,
            detail: format!("brick {id} not {want:?} after {rounds} pumps; health {health:?}"),
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

    /// Drops the gateway, then stops every running brick, returning the
    /// first brick's error (the rest are still stopped).
    pub fn shutdown(self) -> Result<(), Error> {
        let LocalCluster { gw, mut bricks, .. } = self;
        drop(gw);
        bricks.stop_all()
    }
}

/// One running brick.
enum Brick {
    Thread(JoinHandle<Result<(), Error>>),
    /// Held for its `Drop`, which kills and reaps the child.
    Process(#[allow(dead_code)] BrickProcess),
}

/// The bricks: their own type, so that a dropped [`LocalCluster`] drops
/// its gateway first and then runs this `Drop`.
struct Bricks {
    host: BrickHost,
    addrs: Vec<SocketAddr>,
    running: Vec<Option<Brick>>,
    /// Restarts per brick id: a process's label generation.
    restarts: Vec<u32>,
}

impl Bricks {
    /// Starts an empty brick `id` on a fresh loopback port.
    fn bind(&self, id: usize) -> Result<(SocketAddr, Brick), Error> {
        match &self.host {
            BrickHost::Threads(template) => {
                let mut cfg = template.clone();
                cfg.id = id as u32;
                let (addr, handle) = BrickServer::bind("127.0.0.1:0", cfg)?.spawn();
                Ok((addr, Brick::Thread(handle)))
            }
            BrickHost::Processes { exe, obs } => {
                let mut cmd = Command::new(exe);
                cmd.args(["brick", "--listen", "127.0.0.1:0", "--id", &id.to_string()]);
                if *obs {
                    let label = match self.restarts[id] {
                        0 => format!("brick-{id}"),
                        generation => format!("brick-{id}-r{generation}"),
                    };
                    cmd.args(["--obs", "--label", &label]);
                }
                let (addr, process) = BrickProcess::spawn(cmd, id)?;
                Ok((addr, Brick::Process(process)))
            }
        }
    }

    /// Stops brick `id`. A process is killed and reaped. A thread is
    /// joined only once it is known to end: the shutdown was delivered,
    /// or the connection was refused (the accept loop has returned, and
    /// its own error explains why). Any other failure (a timeout, a
    /// failed write) leaves the thread listed as running and is
    /// returned, rather than blocking in a join that may never return.
    fn stop(&mut self, id: usize) -> Result<(), Error> {
        let handle = match self.running[id].take() {
            // Dropping a process kills and reaps it.
            None | Some(Brick::Process(_)) => return Ok(()),
            Some(Brick::Thread(handle)) => handle,
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
                self.running[id] = Some(Brick::Thread(handle));
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

/// A brick child process, killed and reaped when dropped.
struct BrickProcess {
    child: Child,
    // Held open so the child never blocks on a closed stdout pipe.
    stdout: BufReader<ChildStdout>,
}

impl BrickProcess {
    /// Starts `cmd`, an `nsr brick` command line, and reads the
    /// `LISTENING <addr>` line the brick announces before it serves.
    fn spawn(mut cmd: Command, id: usize) -> Result<(SocketAddr, BrickProcess), Error> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| Error::Io {
                op: "spawn_brick",
                detail: format!("{}: {}", cmd.get_program().to_string_lossy(), e.kind()),
            })?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut process = BrickProcess { child, stdout };
        let mut line = String::new();
        process.stdout.read_line(&mut line).map_err(|e| Error::Io {
            op: "spawn_brick",
            detail: format!("reading announce line: {}", e.kind()),
        })?;
        let addr = line
            .strip_prefix("LISTENING ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| Error::Protocol {
                what: format!(
                    "brick {id} announced `{}`, expected `LISTENING <addr>`",
                    line.trim()
                ),
            })?;
        Ok((addr, process))
    }
}

impl Drop for BrickProcess {
    fn drop(&mut self) {
        // On Unix, `Child::kill` delivers SIGKILL: the brick gets no
        // chance to answer, flush or say goodbye.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Bricks {
    /// Best effort: a brick thread whose shutdown could not be delivered
    /// is left running (its handle detaches) rather than blocking the
    /// drop; every process is killed and reaped.
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
    fn one_wait_covers_a_burst_and_returns_its_transitions() {
        let mut cluster = mock_cluster();
        cluster.stop(1).expect("stop");
        cluster.stop(3).expect("stop");
        let transitions = cluster
            .pump_until(&[1, 3], Health::Dead, "burst")
            .expect("both dead");
        for id in [1, 3] {
            assert_eq!(health(&cluster, id), Health::Dead, "brick {id}");
            let dead = transitions
                .iter()
                .filter(|t| t.brick == id as u32 && t.to == Health::Dead)
                .count();
            assert_eq!(dead, 1, "brick {id}: {transitions:?}");
        }
        cluster.restart(1).expect("restart");
        cluster.restart(3).expect("restart");
        cluster
            .pump_until(&[1, 3], Health::Healthy, "burst")
            .expect("both healthy");
        assert!((0..4).all(|id| health(&cluster, id) == Health::Healthy));
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
