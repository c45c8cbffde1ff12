//! Input generation and the two load generators (closed loop, paced).
//!
//! Everything the program sees is generated here from `--seed`: object
//! payloads, the key sequence and the get/put choice. The generator is
//! the benchmark's own (SplitMix64), not `nsr-rng`, so a change to the
//! program can never change the benchmark's inputs.
//!
//! Timing rules, which are why `nsr_net::workload::run_phase` is not
//! reused: payloads exist before any timer starts, an op's timer covers
//! the gateway call and nothing else, and every get is compared byte for
//! byte with the expected payload after its timer has stopped. A failed
//! op is counted and logged, never unwrapped.

use std::time::{Duration, Instant};

use nsr_net::gateway::{Gateway, ReadMode};

use crate::speed::HostSpeed;
use crate::stats::{median, percentile, sorted};

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Key popularity.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    Uniform,
    /// YCSB zipfian, rank `i` drawn with probability ∝ `1 / i^theta`.
    Zipfian {
        theta: f64,
    },
}

/// What a serving workload looks like to the cluster.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Bricks in the healthy serving cluster (`k + t = 8` hold a stripe).
    pub bricks: usize,
    pub objects: u64,
    pub object_bytes: usize,
    /// Percentage of ops that are gets; the rest are puts.
    pub read_pct: u32,
    pub dist: KeyDist,
    /// Ops issued, unrecorded, before a measured phase starts.
    pub warmup_ops: u64,
    /// Fixed arrival rate of the paced (open-loop) phase.
    pub paced_ops_per_s: f64,
}

/// The object payloads: two versions per key, so a put really changes the
/// stored bytes and a stale read after an overwrite fails verification.
pub struct Dataset {
    versions: Vec<Vec<u8>>,
    current: Vec<u8>,
}

impl Dataset {
    pub fn generate(seed: u64, objects: u64, object_bytes: usize) -> Dataset {
        let mut rng = SplitMix64::new(seed ^ 0x0DA7_A5E7);
        let versions = (0..objects * 2)
            .map(|_| {
                let mut buf = vec![0u8; object_bytes];
                rng.fill(&mut buf);
                buf
            })
            .collect();
        Dataset {
            versions,
            current: vec![0; objects as usize],
        }
    }

    pub fn objects(&self) -> u64 {
        self.current.len() as u64
    }

    /// The bytes a get of `key` must return.
    pub fn expected(&self, key: u64) -> &[u8] {
        &self.versions[key as usize * 2 + self.current[key as usize] as usize]
    }

    /// The bytes the next put of `key` writes.
    pub fn next_version(&self, key: u64) -> &[u8] {
        &self.versions[key as usize * 2 + (self.current[key as usize] ^ 1) as usize]
    }

    fn commit_put(&mut self, key: u64) {
        self.current[key as usize] ^= 1;
    }

    /// Forgets every put: the state a freshly populated cluster holds.
    pub fn reset(&mut self) {
        self.current.fill(0);
    }
}

/// YCSB's rejection-free zipfian sampler (Gray et al.), as in
/// `nsr_net::workload`, which keeps its own private.
struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipfian {
    fn new(n: u64, theta: f64) -> Zipfian {
        let zeta = |items: u64| (1..=items).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipfian {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2.min(n)) / zetan),
            half_pow_theta: 0.5_f64.powf(theta),
        }
    }

    fn next(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
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

/// The seeded op sequence: which key, and get or put.
pub struct OpStream {
    rng: SplitMix64,
    zipf: Option<Zipfian>,
    objects: u64,
    read_pct: u64,
}

impl OpStream {
    /// `phase` seasons the seed so each phase of a run draws its own
    /// (still replayable) sequence.
    pub fn new(seed: u64, phase: u64, geom: &Geometry, read_pct: u32) -> OpStream {
        OpStream {
            rng: SplitMix64::new(seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F)),
            zipf: match geom.dist {
                KeyDist::Uniform => None,
                KeyDist::Zipfian { theta } => Some(Zipfian::new(geom.objects, theta)),
            },
            objects: geom.objects,
            read_pct: u64::from(read_pct),
        }
    }

    pub fn next_op(&mut self) -> (u64, bool) {
        let key = match &self.zipf {
            None => self.rng.below(self.objects),
            Some(z) => z.next(&mut self.rng),
        };
        (key, self.rng.below(100) < self.read_pct)
    }
}

/// Stores every object's current version. Part of set-up, not of any
/// measured phase.
pub fn populate(gw: &Gateway, data: &Dataset) -> Result<(), String> {
    for key in 0..data.objects() {
        gw.put(key, data.expected(key))
            .map_err(|e| format!("populate put of obj{key}: {e}"))?;
    }
    Ok(())
}

/// What a gateway call returned, before verification.
pub enum Reply {
    Get(Result<(Vec<u8>, ReadMode), nsr_net::Error>),
    Put(Result<(), nsr_net::Error>),
}

/// The gateway call of one op and nothing else: what an op timer covers.
pub fn issue(gw: &Gateway, data: &Dataset, key: u64, is_get: bool) -> Reply {
    if is_get {
        Reply::Get(gw.get(key))
    } else {
        Reply::Put(gw.put(key, data.next_version(key)))
    }
}

/// One op after its timer stopped.
pub struct Outcome {
    pub is_get: bool,
    pub us: f64,
    pub ok: bool,
    pub degraded: bool,
}

/// Verifies a reply outside the op timer: a get must return exactly the
/// bytes of the key's last successful put. A failure is logged and
/// counted by the caller; it never panics the run.
pub fn settle(data: &mut Dataset, key: u64, reply: Reply, us: f64) -> Outcome {
    let (is_get, ok, degraded) = match reply {
        Reply::Get(Ok((bytes, mode))) => {
            let ok = bytes == data.expected(key);
            if !ok {
                eprintln!("FAILED get obj{key}: returned bytes differ from the last put");
            }
            (true, ok, mode == ReadMode::Degraded)
        }
        Reply::Get(Err(e)) => {
            eprintln!("FAILED get obj{key}: {e}");
            (true, false, false)
        }
        Reply::Put(Ok(())) => {
            data.commit_put(key);
            (false, true, false)
        }
        Reply::Put(Err(e)) => {
            eprintln!("FAILED put obj{key}: {e}");
            (false, false, false)
        }
    };
    Outcome {
        is_get,
        us,
        ok,
        degraded,
    }
}

/// Issues, times and verifies one op.
pub fn do_op(gw: &Gateway, data: &mut Dataset, key: u64, is_get: bool) -> Outcome {
    let t0 = Instant::now();
    let reply = issue(gw, data, key, is_get);
    let us = t0.elapsed().as_secs_f64() * 1e6;
    settle(data, key, reply, us)
}

/// One successful op of a measured phase.
#[derive(Clone, Copy)]
pub struct Sample {
    pub is_get: bool,
    /// Completion time, seconds from the start of the phase.
    pub at_s: f64,
    pub us: f64,
}

/// What a measured phase recorded. Failed ops are counted in `failed`
/// and kept out of `samples`, so they can never improve a percentile.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub failed: u64,
    pub degraded_gets: u64,
    /// The host-speed reference, timed alongside the ops.
    pub speed: HostSpeed,
}

impl Phase {
    pub fn starting(t0: Instant) -> Phase {
        Phase {
            samples: Vec::new(),
            wall_s: 0.0,
            failed: 0,
            degraded_gets: 0,
            speed: HostSpeed::starting(t0),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    pub fn record(&mut self, out: &Outcome, at_s: f64) {
        if out.ok {
            self.samples.push(Sample {
                is_get: out.is_get,
                at_s,
                us: out.us,
            });
            self.degraded_gets += u64::from(out.degraded);
        } else {
            self.failed += 1;
        }
    }

    /// Ascending latencies of one op kind, µs, scaled by the phase's
    /// overall host factor.
    pub fn latencies(&self, is_get: bool) -> Vec<f64> {
        let factor = self.speed.factor_overall();
        sorted(
            self.samples
                .iter()
                .filter(|s| s.is_get == is_get)
                .map(|s| s.us * factor)
                .collect(),
        )
    }

    /// Share of the phase's wall time spent outside gateway calls: key
    /// draws, verification, sample bookkeeping.
    pub fn loadgen_overhead_frac(&self) -> f64 {
        let busy_s: f64 = self.samples.iter().map(|s| s.us).sum::<f64>() / 1e6;
        1.0 - busy_s / self.wall_s
    }

    /// Cuts the phase into `segments` equal time slices, evaluates `f` on
    /// each (the slice, its length in seconds, and its host factor, which
    /// is 1 unless `scaled`), and returns the median of the finite values.
    /// On a shared host a whole-run figure moves with every scheduling
    /// hiccup; the median slice does not.
    fn segment_median(
        &self,
        segments: usize,
        scaled: bool,
        f: impl Fn(&[Sample], f64, f64) -> f64,
    ) -> f64 {
        let len_s = self.wall_s / segments as f64;
        let mut values = Vec::with_capacity(segments);
        let mut rest = &self.samples[..];
        for i in 0..segments {
            let end_s = len_s * (i + 1) as f64;
            let cut = if i + 1 == segments {
                rest.len()
            } else {
                rest.partition_point(|s| s.at_s < end_s)
            };
            let (seg, tail) = rest.split_at(cut);
            rest = tail;
            let factor = if scaled {
                self.speed.factor(len_s * i as f64, end_s)
            } else {
                1.0
            };
            let v = f(seg, len_s, factor);
            if v.is_finite() {
                values.push(v);
            }
        }
        if values.is_empty() {
            f64::NAN
        } else {
            median(&values)
        }
    }

    /// Median over segments of ops completed per second, host-speed
    /// scaled or not.
    pub fn ops_per_s(&self, segments: usize, scaled: bool) -> f64 {
        self.segment_median(segments, scaled, |seg, len_s, factor| {
            seg.len() as f64 / (len_s * factor)
        })
    }

    /// Median over segments of the segment's `q`-quantile latency.
    pub fn latency_us(&self, segments: usize, scaled: bool, is_get: bool, q: f64) -> f64 {
        self.segment_median(segments, scaled, |seg, _, factor| {
            let lat = sorted(
                seg.iter()
                    .filter(|s| s.is_get == is_get)
                    .map(|s| s.us)
                    .collect(),
            );
            percentile(&lat, q) * factor
        })
    }
}

/// When a closed loop stops.
pub enum Until {
    Elapsed(Duration),
    Ops(u64),
}

/// Closed loop, one client: the next op is issued when the previous one
/// has completed and been verified.
pub fn closed_loop(gw: &Gateway, data: &mut Dataset, ops: &mut OpStream, until: Until) -> Phase {
    let t0 = Instant::now();
    let mut phase = Phase::starting(t0);
    let mut issued = 0u64;
    loop {
        let now = t0.elapsed();
        match until {
            Until::Elapsed(d) if now >= d => break,
            Until::Ops(n) if issued >= n => break,
            _ => {}
        }
        phase.speed.tick(now.as_secs_f64());
        let (key, is_get) = ops.next_op();
        let out = do_op(gw, data, key, is_get);
        issued += 1;
        phase.record(&out, t0.elapsed().as_secs_f64());
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase
}

/// What the paced phase recorded. Latencies run from the *intended* send
/// time, so the wait a stall imposes on the ops queued behind it counts.
pub struct Paced {
    pub get_us: Vec<f64>,
    pub put_us: Vec<f64>,
    /// Furthest the generator fell behind its schedule.
    pub max_lag_us: f64,
    /// Ops whose own service time exceeded 10 ms (the stalls themselves,
    /// not the ops delayed behind them).
    pub stalls_over_10ms: u64,
    pub attempted: u64,
    pub failed: u64,
    pub speed: HostSpeed,
}

/// Open loop at a fixed arrival rate from one client: op `i` is due at
/// `i / rate`; if the previous op is still running the new one starts
/// late and the lateness is part of its latency.
pub fn paced_loop(
    gw: &Gateway,
    data: &mut Dataset,
    ops: &mut OpStream,
    rate_per_s: f64,
    duration: Duration,
) -> Paced {
    let mut paced = Paced {
        get_us: Vec::new(),
        put_us: Vec::new(),
        max_lag_us: 0.0,
        stalls_over_10ms: 0,
        attempted: 0,
        failed: 0,
        speed: HostSpeed::starting(Instant::now()),
    };
    let total = (rate_per_s * duration.as_secs_f64()) as u64;
    let t0 = Instant::now();
    for i in 0..total {
        paced.speed.tick(t0.elapsed().as_secs_f64());
        let due = Duration::from_secs_f64(i as f64 / rate_per_s);
        // Sleep through long gaps, spin the last stretch: sleep alone
        // overshoots by a scheduler tick, which would read as lag.
        loop {
            let now = t0.elapsed();
            if now >= due {
                break;
            }
            if due - now > Duration::from_millis(1) {
                std::thread::sleep(due - now - Duration::from_millis(1));
            } else {
                std::hint::spin_loop();
            }
        }
        let lag_us = (t0.elapsed() - due).as_secs_f64() * 1e6;
        paced.max_lag_us = paced.max_lag_us.max(lag_us);
        let (key, is_get) = ops.next_op();
        let out = do_op(gw, data, key, is_get);
        paced.attempted += 1;
        if !out.ok {
            paced.failed += 1;
            continue;
        }
        paced.stalls_over_10ms += u64::from(out.us > 10_000.0);
        if is_get {
            paced.get_us.push(lag_us + out.us);
        } else {
            paced.put_us.push(lag_us + out.us);
        }
    }
    let factor = paced.speed.factor_overall();
    let scaled = |v: &mut Vec<f64>| {
        sorted(
            std::mem::take(v)
                .into_iter()
                .map(|us| us * factor)
                .collect(),
        )
    };
    paced.get_us = scaled(&mut paced.get_us);
    paced.put_us = scaled(&mut paced.put_us);
    paced.max_lag_us *= factor;
    paced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::REFERENCE_NOMINAL_US;

    fn geom(dist: KeyDist) -> Geometry {
        Geometry {
            bricks: 9,
            objects: 100,
            object_bytes: 64,
            read_pct: 95,
            dist,
            warmup_ops: 0,
            paced_ops_per_s: 1.0,
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let g = geom(KeyDist::Zipfian { theta: 0.99 });
        let draw = |seed, phase| {
            let mut s = OpStream::new(seed, phase, &g, g.read_pct);
            (0..500).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        let a = Dataset::generate(7, 4, 100);
        let b = Dataset::generate(7, 4, 100);
        assert_eq!(a.expected(3), b.expected(3));
        assert_ne!(a.expected(3), a.next_version(3));
        assert_ne!(a.expected(3), Dataset::generate(8, 4, 100).expected(3));
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let g = geom(KeyDist::Zipfian { theta: 0.99 });
        let mut s = OpStream::new(1, 0, &g, 100);
        let keys: Vec<u64> = (0..20_000).map(|_| s.next_op().0).collect();
        assert!(keys.iter().all(|&k| k < 100));
        let head = keys.iter().filter(|&&k| k < 10).count();
        assert!(head * 2 > keys.len(), "top 10% of keys drew {head}/20000");
        let mut u = OpStream::new(1, 0, &geom(KeyDist::Uniform), 100);
        let head = (0..20_000).filter(|_| u.next_op().0 < 10).count();
        assert!(head * 5 < 20_000, "uniform head {head}/20000");
    }

    #[test]
    fn segments_partition_the_phase() {
        let mut phase = Phase::starting(Instant::now());
        phase.wall_s = 4.0;
        // 1 op in second 0, 2 in second 1, 3 in second 2, 4 in second 3.
        for (sec, n) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            for j in 0..n {
                phase.samples.push(Sample {
                    is_get: true,
                    at_s: sec as f64 + 0.1 * (j + 1) as f64,
                    us: 10.0 * (sec + 1) as f64,
                });
            }
        }
        // Per-second rates 1,2,3,4 → nearest-rank median 3 (index 2 of 4).
        assert_eq!(phase.ops_per_s(4, false), 3.0);
        assert_eq!(phase.latency_us(4, false, true, 0.5), 30.0);
        // No puts anywhere: no finite segment value.
        assert!(phase.latency_us(4, false, false, 0.5).is_nan());
        // A host twice as slow as nominal in the second half: times
        // measured there are halved, rates doubled.
        phase.speed = HostSpeed::with_samples(vec![
            (0.5, REFERENCE_NOMINAL_US),
            (2.5, 2.0 * REFERENCE_NOMINAL_US),
        ]);
        assert_eq!(phase.latency_us(2, true, true, 1.0), 20.0);
        assert_eq!(phase.speed.factor(2.0, 4.0), 0.5);
        assert_eq!(phase.speed.factor(1.0, 2.0), phase.speed.factor_overall());
    }
}
