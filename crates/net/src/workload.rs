//! A seeded YCSB-style serving workload for the gateway, and the
//! three-phase serving run built on it.
//!
//! The serving-path benchmarks need sustained load with a realistic key
//! popularity skew, not a single hot object — a zipfian request stream
//! keeps some pooled connections hot and lets others idle toward the
//! brick's read deadline, which is exactly the regime where the pool's
//! keepalive and the fan-out fast path earn their keep. This module
//! provides that stream: a [`WorkloadSpec`] (key count, object size, op
//! count, read/write mix, [`KeyDist`], seed) plus [`populate`] and
//! [`run_phase`] drivers that report per-phase throughput and latency
//! percentiles in a [`PhaseStats`].
//!
//! [`serving_run`] is the one healthy → degraded → rebuilding run on a
//! [`LocalCluster`] of brick threads: populate, a healthy phase, kill a
//! brick, a degraded phase, then `repair_all` on a scoped thread beside
//! the rebuilding phase. `nsr workload` and the `serving` bench suite
//! both call it and only format its [`ServingRun`].
//!
//! Everything is seeded and replayable: the op sequence is a pure
//! function of the spec, and payloads are a pure function of
//! `(seed, key)` (the same convention as `cluster`'s verifier), so a
//! phase can verify every byte it reads without keeping a shadow copy.
//! The zipfian generator is the standard YCSB construction (Gray et
//! al.'s rejection-free inverse-CDF approximation with precomputed
//! `zeta(n, theta)`).

use std::time::Instant;

use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

use crate::error::Error;
use crate::gateway::{Gateway, GatewayConfig, ReadMode, RepairReport};
use crate::local::{LocalCluster, Pace};
use crate::obs;

/// Key popularity distribution for the request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// YCSB zipfian: rank-`i` key has probability ∝ `1 / i^theta`.
    /// `theta` must be in `(0, 1)`; YCSB's default is `0.99`.
    Zipfian {
        /// Skew exponent; larger is more skewed.
        theta: f64,
    },
}

/// One serving-workload configuration. The op stream and every payload
/// are pure functions of this struct, so two runs of the same spec are
/// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of distinct objects (keys `0..objects`).
    pub objects: u64,
    /// Size of every object's payload in bytes.
    pub object_bytes: usize,
    /// Operations per [`run_phase`] call.
    pub ops: usize,
    /// Percentage of ops that are gets (`0..=100`); the rest are puts.
    pub read_pct: u32,
    /// Key popularity distribution.
    pub dist: KeyDist,
    /// Seed for the op stream and the payload contents.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    /// YCSB-B-flavoured default: 64 objects of 64 KiB, 95% reads,
    /// zipfian `theta = 0.99`, 200 ops per phase.
    fn default() -> Self {
        WorkloadSpec {
            objects: 64,
            object_bytes: 64 * 1024,
            ops: 200,
            read_pct: 95,
            dist: KeyDist::Zipfian { theta: 0.99 },
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// Checks the spec before any brick starts: at least one object, a
    /// read percentage of at most 100, and a zipfian `theta` in `(0, 1)`.
    /// The error names the field.
    pub fn validate(&self) -> Result<(), Error> {
        let invalid = |what: String| Err(Error::InvalidConfig { what });
        if self.objects == 0 {
            return invalid("objects must be at least 1".to_string());
        }
        if self.read_pct > 100 {
            return invalid(format!(
                "read_pct must be at most 100, got {}",
                self.read_pct
            ));
        }
        match self.dist {
            KeyDist::Zipfian { theta } if !(theta > 0.0 && theta < 1.0) => {
                invalid(format!("zipfian theta must be in (0, 1), got {theta}"))
            }
            _ => Ok(()),
        }
    }
}

/// The deterministic payload for `object` under `seed`. Workload runs
/// and the cluster campaign both write and verify with it, so reads can
/// be checked without a shadow store.
pub fn object_payload(seed: u64, object: u64, bytes: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ object.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..bytes).map(|_| rng.random::<u8>()).collect()
}

/// YCSB's rejection-free zipfian sampler over `0..n`.
///
/// Precomputes `zeta(n, theta)` once (an `O(n)` sum — fine for the key
/// counts a serving benchmark uses), then draws in `O(1)` via the
/// standard two-special-cases-plus-power inverse-CDF approximation.
struct ZipfianGen {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl ZipfianGen {
    /// Needs `n ≥ 1` and `theta` in `(0, 1)`, which
    /// [`WorkloadSpec::validate`] checks.
    fn new(n: u64, theta: f64) -> ZipfianGen {
        let zeta = |items: u64| {
            (1..=items)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum::<f64>()
        };
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        ZipfianGen {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5_f64.powf(theta),
        }
    }

    fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

enum KeyPicker {
    Uniform,
    Zipfian(ZipfianGen),
}

impl KeyPicker {
    fn new(spec: &WorkloadSpec) -> Result<KeyPicker, Error> {
        spec.validate()?;
        Ok(match spec.dist {
            KeyDist::Uniform => KeyPicker::Uniform,
            KeyDist::Zipfian { theta } => KeyPicker::Zipfian(ZipfianGen::new(spec.objects, theta)),
        })
    }

    fn next<R: Rng + ?Sized>(&self, rng: &mut R, n: u64) -> u64 {
        match self {
            KeyPicker::Uniform => rng.random_range_usize(0, n as usize) as u64,
            KeyPicker::Zipfian(z) => z.next(rng),
        }
    }
}

/// What one [`run_phase`] call measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Total operations issued.
    pub ops: usize,
    /// Puts among them.
    pub puts: usize,
    /// Gets among them.
    pub gets: usize,
    /// Gets served in [`ReadMode::Degraded`].
    pub degraded_gets: usize,
    /// Object bytes moved (payload bytes, both directions).
    pub bytes: u64,
    /// Wall-clock seconds for the whole phase.
    pub seconds: f64,
    /// Per-put latencies in seconds, in issue order.
    pub put_latencies_s: Vec<f64>,
    /// Per-get latencies in seconds, in issue order.
    pub get_latencies_s: Vec<f64>,
}

impl PhaseStats {
    /// Sustained throughput in MiB/s over the phase wall clock.
    pub fn mib_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / (1024.0 * 1024.0) / self.seconds
    }

    /// Operations per second over the phase wall clock.
    pub fn ops_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / self.seconds
    }

    /// The `q`-quantile of get latencies only, in seconds.
    pub fn get_percentile_s(&self, q: f64) -> f64 {
        let mut v = self.get_latencies_s.clone();
        percentile(&mut v, q)
    }

    /// The `q`-quantile of put latencies only, in seconds.
    pub fn put_percentile_s(&self, q: f64) -> f64 {
        let mut v = self.put_latencies_s.clone();
        percentile(&mut v, q)
    }
}

/// Nearest-rank percentile with the workspace's convention: sort, then
/// index `round((len - 1) · q)`.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((values.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    values[idx]
}

/// Loads every object in the spec's key space with its deterministic
/// payload. Run once before the first [`run_phase`] so gets never miss.
pub fn populate(gw: &Gateway, spec: &WorkloadSpec) -> Result<(), Error> {
    for object in 0..spec.objects {
        gw.put(
            object,
            &object_payload(spec.seed, object, spec.object_bytes),
        )?;
    }
    Ok(())
}

/// Runs one phase of `spec.ops` operations against `gw` and returns its
/// [`PhaseStats`].
///
/// `phase` seasons the op-stream seed so successive phases of one spec
/// draw different (but still replayable) streams. Each get's payload is
/// verified against [`object_payload`]; a mismatch, an invalid spec or
/// any transport error fails the phase. Latencies also feed the
/// `net.serving.{put,get}_s` histograms when metrics are enabled.
pub fn run_phase(gw: &Gateway, spec: &WorkloadSpec, phase: u64) -> Result<PhaseStats, Error> {
    let picker = KeyPicker::new(spec)?;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut stats = PhaseStats::default();
    let started = Instant::now();
    for _ in 0..spec.ops {
        let object = picker.next(&mut rng, spec.objects);
        let is_get = rng.random_range_usize(0, 100) < spec.read_pct as usize;
        if is_get {
            let op_start = Instant::now();
            let (data, mode) = gw.get(object)?;
            let dt = op_start.elapsed().as_secs_f64();
            if data != object_payload(spec.seed, object, spec.object_bytes) {
                return Err(Error::Protocol {
                    what: format!("workload read of obj{object} returned corrupt bytes"),
                });
            }
            obs::SERVING_GET_S.observe(dt);
            stats.gets += 1;
            if mode == ReadMode::Degraded {
                stats.degraded_gets += 1;
            }
            stats.get_latencies_s.push(dt);
            stats.bytes += data.len() as u64;
        } else {
            // Built before the clock starts (as a get is verified after
            // it stops): generating 64 KiB byte by byte costs more than
            // storing it.
            let data = object_payload(spec.seed, object, spec.object_bytes);
            let op_start = Instant::now();
            gw.put(object, &data)?;
            let dt = op_start.elapsed().as_secs_f64();
            obs::SERVING_PUT_S.observe(dt);
            stats.puts += 1;
            stats.put_latencies_s.push(dt);
            stats.bytes += data.len() as u64;
        }
        stats.ops += 1;
    }
    stats.seconds = started.elapsed().as_secs_f64();
    Ok(stats)
}

/// What one [`serving_run`] measured: the three phases and the repair
/// that ran beside the last one.
#[derive(Debug)]
pub struct ServingRun {
    /// Every brick up.
    pub healthy: PhaseStats,
    /// Brick 1 declared dead; gets over its shards reconstruct.
    pub degraded: PhaseStats,
    /// Served while `repair_all` ran on another thread.
    pub rebuilding: PhaseStats,
    /// That repair's report, or the error it stopped on. Whether the
    /// error fails the run is the caller's call: `nsr workload` prints
    /// it, the `serving` bench suite fails on it.
    pub repair: Result<RepairReport, Error>,
}

impl ServingRun {
    /// The three phases by name, in the order they ran.
    pub fn phases(&self) -> [(&'static str, &PhaseStats); 3] {
        [
            ("healthy", &self.healthy),
            ("degraded", &self.degraded),
            ("rebuilding", &self.rebuilding),
        ]
    }
}

/// The three-phase serving run: checks `spec` and the brick count,
/// starts `bricks` brick threads behind a gateway built from `cfg` on
/// the wall clock, populates the key space, then replays `spec`'s op
/// stream (phase seeds 0, 1, 2) healthy, degraded (brick 1 killed and
/// declared dead) and rebuilding (`repair_all` beside the phase). A
/// phase's error fails the run; the repair's is returned in
/// [`ServingRun::repair`].
pub fn serving_run(
    spec: &WorkloadSpec,
    bricks: usize,
    cfg: GatewayConfig,
) -> Result<ServingRun, Error> {
    spec.validate()?;
    let stripe = cfg.data_shards + cfg.parity_shards;
    if bricks <= stripe {
        return Err(Error::InvalidConfig {
            what: format!(
                "need more than {stripe} bricks for a {}+{} stripe to survive the degraded phase",
                cfg.data_shards, cfg.parity_shards
            ),
        });
    }
    let mut cluster = LocalCluster::start(bricks, cfg, Pace::Wall)?;
    for _ in 0..8 {
        cluster.pump();
    }
    populate(&cluster.gw, spec)?;
    let healthy = run_phase(&cluster.gw, spec, 0)?;
    // Brick 1 holds a data shard of most layouts.
    cluster.kill(1)?;
    let degraded = run_phase(&cluster.gw, spec, 1)?;
    // The rebuilding phase serves beside the repair pass, so its numbers
    // show what rebuild traffic costs the clients.
    let (rebuilding, repair) = std::thread::scope(|s| {
        let repair = s.spawn(|| cluster.gw.repair_all());
        let stats = run_phase(&cluster.gw, spec, 2);
        let repair = repair
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (stats, repair)
    });
    let rebuilding = rebuilding?;
    cluster.shutdown()?;
    Ok(ServingRun {
        healthy,
        degraded,
        rebuilding,
        repair,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_stream(spec: &WorkloadSpec, phase: u64) -> Vec<(u64, bool)> {
        let picker = KeyPicker::new(spec).expect("valid spec");
        let mut rng = StdRng::seed_from_u64(spec.seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F));
        (0..spec.ops)
            .map(|_| {
                let object = picker.next(&mut rng, spec.objects);
                let is_get = rng.random_range_usize(0, 100) < spec.read_pct as usize;
                (object, is_get)
            })
            .collect()
    }

    #[test]
    fn op_stream_is_replayable_and_phase_seasoned() {
        let spec = WorkloadSpec::default();
        assert_eq!(op_stream(&spec, 1), op_stream(&spec, 1));
        assert_ne!(op_stream(&spec, 1), op_stream(&spec, 2));
        let gets = op_stream(&spec, 1).iter().filter(|(_, g)| *g).count();
        // 95% read mix over 200 ops: the draw is seeded, so this bound
        // is deterministic, not flaky.
        assert!((170..=200).contains(&gets), "gets {gets}");
    }

    #[test]
    fn zipfian_skews_toward_low_ranks_uniform_does_not() {
        let n = 100;
        let draws = 20_000;
        let mut rng = StdRng::seed_from_u64(7);
        let z = ZipfianGen::new(n, 0.99);
        let zipf_head = (0..draws).filter(|_| z.next(&mut rng) < n / 10).count();
        let mut rng = StdRng::seed_from_u64(7);
        let uni_head = (0..draws)
            .filter(|_| rng.random_range_usize(0, n as usize) < n as usize / 10)
            .count();
        // Top-10% of keys should absorb well over half the zipfian
        // stream but only ~10% of the uniform one.
        assert!(zipf_head * 2 > draws, "zipfian head {zipf_head}/{draws}");
        assert!(uni_head * 5 < draws, "uniform head {uni_head}/{draws}");
        // And every draw must stay in range.
        let mut rng = StdRng::seed_from_u64(8);
        assert!((0..draws).all(|_| z.next(&mut rng) < n));
    }

    #[test]
    fn payloads_are_deterministic_and_distinct_per_key() {
        assert_eq!(object_payload(1, 3, 256), object_payload(1, 3, 256));
        assert_ne!(object_payload(1, 3, 256), object_payload(1, 4, 256));
        assert_ne!(object_payload(1, 3, 256), object_payload(2, 3, 256));
    }

    #[test]
    fn percentile_uses_nearest_rank_convention() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        assert_eq!(percentile(&mut [], 0.99), 0.0);
    }
}
