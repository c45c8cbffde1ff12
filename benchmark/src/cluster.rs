//! An in-process brick cluster: `BrickServer::spawn` threads on
//! `127.0.0.1:0` behind one `Gateway`. No child process, no fixed port.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nsr_net::brick::{BrickConfig, BrickServer};
use nsr_net::client::BrickClient;
use nsr_net::detector::Health;
use nsr_net::gateway::{Gateway, GatewayConfig};

/// Data shards per object: the paper's FT 2 over an 8-wide redundancy set.
pub const K: usize = 6;
/// Parity shards per object, and so the brick failures a stripe survives.
pub const T: usize = 2;

/// Cadence of the heartbeat pump around a kill.
const HEARTBEAT: Duration = Duration::from_millis(20);
/// A detector that has not declared a silent brick dead after this long
/// is reported as failed ops; the run goes on instead of hanging.
const DETECT_DEADLINE: Duration = Duration::from_secs(10);
/// Deadline of the benchmark's own control connections.
pub const SOCKET_TIMEOUT: Duration = Duration::from_millis(500);

pub struct Cluster {
    pub gw: Gateway,
    pub addrs: Vec<SocketAddr>,
    handles: Vec<Option<JoinHandle<Result<(), nsr_net::Error>>>>,
}

impl Cluster {
    /// Starts `bricks` brick threads and connects a 6+2 gateway with the
    /// library's default pool, retry and fan-out settings. The detector's
    /// assumed heartbeat interval is set to the pump cadence, as every
    /// harness in the repository does.
    pub fn start(bricks: usize) -> Result<Cluster, String> {
        let mut addrs = Vec::with_capacity(bricks);
        let mut handles = Vec::with_capacity(bricks);
        for id in 0..bricks as u32 {
            let (addr, handle) = BrickServer::bind("127.0.0.1:0", BrickConfig::new(id))
                .map_err(|e| format!("bind brick {id}: {e}"))?
                .spawn();
            addrs.push(addr);
            handles.push(Some(handle));
        }
        let mut cfg = GatewayConfig::new(K, T);
        cfg.detector.initial_interval_s = HEARTBEAT.as_secs_f64();
        let gw = Gateway::connect(addrs.clone(), cfg).map_err(|e| format!("gateway: {e}"))?;
        Ok(Cluster { gw, addrs, handles })
    }

    /// Gives the detector a steady arrival history before a kill.
    pub fn warm_detector(&self) {
        for _ in 0..8 {
            self.gw.pump_heartbeats();
            std::thread::sleep(HEARTBEAT);
        }
    }

    /// Stops brick `id` and joins its accept thread. From the gateway's
    /// side an orderly shutdown and a kill -9 look the same: the brick
    /// stops answering and its shards are gone.
    pub fn kill(&mut self, id: u32) -> Result<(), String> {
        match self.handles[id as usize].take() {
            Some(handle) => stop_brick(id, self.addrs[id as usize], handle),
            None => Ok(()),
        }
    }

    /// Pumps heartbeats until every brick in `victims` is `Dead`. Returns
    /// the milliseconds from `killed_at` to each declaration, or `None`
    /// for a victim still not dead at the deadline.
    pub fn wait_dead(&self, victims: &[u32], killed_at: Instant) -> Vec<Option<f64>> {
        let mut dead_ms: Vec<Option<f64>> = vec![None; victims.len()];
        while dead_ms.iter().any(Option::is_none) && killed_at.elapsed() < DETECT_DEADLINE {
            for tr in self.gw.pump_heartbeats() {
                if tr.to != Health::Dead {
                    continue;
                }
                if let Some(i) = victims.iter().position(|&v| v == tr.brick) {
                    dead_ms[i].get_or_insert(killed_at.elapsed().as_secs_f64() * 1e3);
                }
            }
            std::thread::sleep(HEARTBEAT);
        }
        dead_ms
    }

    /// Drops the gateway (closing its pooled connections, so every brick
    /// handler thread sees end-of-stream and exits), then stops and joins
    /// the remaining bricks.
    pub fn shutdown(self) {
        let Cluster { gw, addrs, handles } = self;
        drop(gw);
        for (id, handle) in handles.into_iter().enumerate() {
            if let Some(handle) = handle {
                if let Err(e) = stop_brick(id as u32, addrs[id], handle) {
                    eprintln!("teardown: {e}");
                }
            }
        }
    }
}

fn stop_brick(
    id: u32,
    addr: SocketAddr,
    handle: JoinHandle<Result<(), nsr_net::Error>>,
) -> Result<(), String> {
    BrickClient::connect(addr, SOCKET_TIMEOUT)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shut down brick {id}: {e}"))?;
    handle
        .join()
        .map_err(|_| format!("brick {id} accept thread panicked"))?
        .map_err(|e| format!("brick {id} accept loop: {e}"))
}
