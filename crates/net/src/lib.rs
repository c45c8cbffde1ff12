//! `nsr-net`: the networked brick store — the paper's subject, live.
//!
//! `nsr-erasure` supplies the codec; this crate runs the network of
//! storage bricks that the reliability models describe:
//!
//! - [`brick`] — a TCP daemon storing erasure-coded shards, one handler
//!   thread per connection, bounded timeouts on every socket op.
//! - [`wire`] — the length-prefixed binary protocol between gateway and
//!   bricks (put/get/delete shard, heartbeat, rebuild transfer), strict
//!   decoding with typed errors and no panics on hostile bytes.
//! - [`gateway`] — stripes objects across bricks with the
//!   `nsr-erasure` Reed–Solomon codec, serves puts and gets through a
//!   pipelined shard fan-out (one outstanding request per brick,
//!   replies assembled by shard index), serves degraded reads from any
//!   `k` surviving shards, retries transient faults with capped
//!   exponential backoff + seeded jitter, and coordinates rebuild.
//! - [`pool`] — the per-brick connection pool under the gateway:
//!   persistent client lanes with transparent reconnect and a keepalive
//!   thread that refreshes idle connections before the brick's read
//!   deadline can drop them.
//! - [`workload`] — a seeded YCSB-style serving workload (zipfian or
//!   uniform keys, put/get mix) with per-phase throughput and latency
//!   percentiles, and [`workload::serving_run`], the one healthy →
//!   degraded → rebuilding run that the CLI and the `serving` bench
//!   suite format.
//! - [`detector`] — φ-style heartbeat failure detection with the
//!   explicit health state machine healthy → suspect → dead →
//!   rebuilding → rejoined, on a pluggable [`clock`] so tests are
//!   clock-free and deterministic.
//! - [`local`] — the cluster harness: bricks on loopback behind one
//!   gateway, as threads of this process or as `nsr brick` child
//!   processes, on a mock or the wall clock, with stop, kill, restart,
//!   rejoin, a wait for a set of bricks, inventory and a teardown that
//!   stops every brick; every brick the repo starts behind a gateway
//!   starts here (the repo benchmark's own bricks aside), and the one
//!   loopback gateway config lives here.
//! - [`cluster`] — the `nsr cluster-inject` campaign: kill-9s the
//!   harness's brick processes on a seeded `nsr-sim` `FaultPlan`
//!   schedule, and asserts the erasure contract (zero loss at or below
//!   `t` concurrent failures, correct typed loss above `t`).
//!
//! Everything emits `nsr-obs` v2 causal spans and events (request
//! lifecycle, detection latency, rebuild progress), so the flight
//! recorder's `nsr report` / `nsr explain` post-mortems work on live
//! cluster traces unchanged.
//!
//! The transport is deliberately `std::net` + threads (workspace
//! zero-dependency policy); the interesting reliability machinery is in
//! the failure handling, not the I/O substrate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod brick;
pub mod client;
pub mod clock;
pub mod cluster;
pub mod detector;
mod error;
pub mod gateway;
pub mod local;
pub mod obs;
pub mod pool;
pub mod wire;
pub mod workload;

pub use error::Error;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
