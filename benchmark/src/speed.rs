//! The host-speed reference and the scaling it gives.

use std::hint::black_box;
use std::time::Instant;

use crate::load::SplitMix64;
use crate::stats::median;

/// The host-speed reference: a fixed piece of ALU work (30,000 SplitMix64
/// steps, about 40 µs here) timed every 20 ms next to the measured work.
///
/// This VM's CPU runs 10-40 % slower for minutes at a time (a busy
/// neighbour, not visible as steal time), and everything measured in the
/// same spell is slower by about the same factor. Every reported time is
/// therefore scaled by `REFERENCE_NOMINAL_US / reference time measured
/// next to it`, and every rate by the inverse: the numbers read as on a
/// host where the reference takes its nominal time. The reference is the
/// benchmark's own code, so no change to the program can move it.
pub struct HostSpeed {
    t0: Instant,
    /// (seconds since `t0`, reference time in µs).
    samples: Vec<(f64, f64)>,
    next_s: f64,
}

/// What the reference takes on the defining host in a quiet spell.
pub const REFERENCE_NOMINAL_US: f64 = 40.0;
const REFERENCE_EVERY_S: f64 = 0.02;

impl HostSpeed {
    pub fn starting(t0: Instant) -> HostSpeed {
        HostSpeed {
            t0,
            samples: Vec::new(),
            next_s: 0.0,
        }
    }

    /// Times the reference once, now.
    pub fn sample(&mut self) {
        let at_s = self.t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut rng = SplitMix64::new(black_box(1));
        let mut acc = 0u64;
        for _ in 0..30_000 {
            acc ^= rng.next_u64();
        }
        black_box(acc);
        self.samples.push((at_s, t.elapsed().as_secs_f64() * 1e6));
        self.next_s = at_s + REFERENCE_EVERY_S;
    }

    /// Times the reference if one is due at `now_s` seconds since `t0`.
    pub fn tick(&mut self, now_s: f64) {
        if now_s >= self.next_s {
            self.sample();
        }
    }

    /// Median reference time of the samples taken in `[from_s, to_s)`, or
    /// of all samples if none fell in the window.
    fn reference_us(&self, from_s: f64, to_s: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < from_s);
        let hi = self.samples.partition_point(|s| s.0 < to_s);
        let window = if lo < hi {
            &self.samples[lo..hi]
        } else {
            &self.samples[..]
        };
        median(&window.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The factor a time measured in `[from_s, to_s)` is multiplied by.
    pub fn factor(&self, from_s: f64, to_s: f64) -> f64 {
        REFERENCE_NOMINAL_US / self.reference_us(from_s, to_s)
    }

    /// The factor for everything since `t0`.
    pub fn factor_overall(&self) -> f64 {
        self.factor(0.0, f64::INFINITY)
    }

    #[cfg(test)]
    pub fn with_samples(samples: Vec<(f64, f64)>) -> HostSpeed {
        HostSpeed {
            t0: Instant::now(),
            samples,
            next_s: 0.0,
        }
    }
}

/// Runs `work` with the reference timed just before and just after it.
/// Returns the result, the wall time in seconds and the host factor.
pub fn timed_with_host_factor<R>(work: impl FnOnce() -> R) -> (R, f64, f64) {
    let mut speed = HostSpeed::starting(Instant::now());
    for _ in 0..3 {
        speed.sample();
    }
    let t0 = Instant::now();
    let out = work();
    let wall_s = t0.elapsed().as_secs_f64();
    for _ in 0..3 {
        speed.sample();
    }
    (out, wall_s, speed.factor_overall())
}
