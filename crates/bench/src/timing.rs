//! Minimal self-contained micro-benchmark harness.
//!
//! Replaces the external benchmarking dependency so the workspace builds
//! fully offline. Each measurement auto-calibrates an iteration count to a
//! target wall-clock budget, takes several samples, and reports the median
//! nanoseconds per iteration (plus throughput when a byte count is given).
//! The numbers are indicative, not statistically rigorous — good enough to
//! catch order-of-magnitude regressions in the numerical kernels.
//!
//! Two entry styles:
//!
//! * [`bench()`] / [`bench_throughput`] — print-and-forget, kept for ad-hoc
//!   use in the figure binaries.
//! * [`Timing::measure`] — returns a [`Measurement`] that the suite layer
//!   ([`crate::suites`]) collects into the machine-readable
//!   `BENCH_*.json` reports (rendered as [`nsr_obs::Json`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark result: median time per iteration plus the number of
/// bytes each iteration processes (0 when throughput is meaningless) and,
/// optionally, a logical item count per iteration (0 = not an item-rate
/// benchmark; e.g. sweep evaluations per run).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name, `group/case` style.
    pub name: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Bytes processed per iteration (0 = not a throughput benchmark).
    pub bytes_per_iter: u64,
    /// Logical items processed per iteration (0 = no item rate).
    pub items_per_iter: u64,
}

impl Measurement {
    /// Throughput in MiB/s, when a byte count was recorded.
    pub fn mib_per_s(&self) -> Option<f64> {
        (self.bytes_per_iter > 0)
            .then(|| self.bytes_per_iter as f64 / (self.ns_per_iter * 1e-9) / (1024.0 * 1024.0))
    }

    /// Item rate per second, when an item count was recorded.
    pub fn items_per_s(&self) -> Option<f64> {
        (self.items_per_iter > 0).then(|| self.items_per_iter as f64 / (self.ns_per_iter * 1e-9))
    }

    /// Attaches a logical item count (builder style, used after
    /// [`Timing::measure`]).
    #[must_use]
    pub fn with_items(mut self, items_per_iter: u64) -> Measurement {
        self.items_per_iter = items_per_iter;
        self
    }

    /// One-line human rendering (the format the print helpers use).
    pub fn render(&self) -> String {
        let mut line = match self.mib_per_s() {
            Some(mib_s) => format!(
                "{:<44} {:>14}/iter {mib_s:>10.1} MiB/s",
                self.name,
                fmt_ns(self.ns_per_iter)
            ),
            None => format!("{:<44} {:>14}/iter", self.name, fmt_ns(self.ns_per_iter)),
        };
        if let Some(rate) = self.items_per_s() {
            line.push_str(&format!(" {rate:>10.1} items/s"));
        }
        line
    }
}

/// Measurement configuration: per-sample budget and sample count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Per-sample time budget; total time per benchmark ≈ `samples`× this.
    pub sample_budget: Duration,
    /// Number of timed samples; the median is reported.
    pub samples: usize,
}

impl Timing {
    /// The full-fidelity configuration used for recorded numbers.
    pub fn full() -> Timing {
        Timing {
            sample_budget: Duration::from_millis(120),
            samples: 7,
        }
    }

    /// A fast configuration for CI smoke runs: tiny budgets, enough to
    /// prove the harness runs end to end and emits well-formed output —
    /// not to produce stable numbers.
    pub fn smoke() -> Timing {
        Timing {
            sample_budget: Duration::from_millis(4),
            samples: 3,
        }
    }

    /// [`Timing::smoke`] when the flag is set, [`Timing::full`] otherwise.
    pub fn from_smoke_flag(smoke: bool) -> Timing {
        if smoke {
            Timing::smoke()
        } else {
            Timing::full()
        }
    }

    /// Times `f` and returns the measurement. The closure's return value
    /// goes through [`black_box`] so the optimizer cannot elide the work.
    pub fn measure<T>(&self, name: &str, bytes: u64, mut f: impl FnMut() -> T) -> Measurement {
        // Calibrate: find an iteration count that fills the sample budget.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.sample_budget / 4 || iters >= 1 << 30 {
                let scale = self.sample_budget.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
                iters = ((iters as f64 * scale).ceil() as u64).max(1);
                break;
            }
            iters *= 8;
        }

        let mut samples_ns: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        samples_ns.sort_by(f64::total_cmp);
        let median = samples_ns[samples_ns.len() / 2];
        Measurement {
            name: name.to_string(),
            ns_per_iter: median,
            bytes_per_iter: bytes,
            items_per_iter: 0,
        }
    }
}

/// Runs `f` repeatedly and prints the median time per iteration.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot elide the work.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    bench_throughput(name, 0, &mut f);
}

/// Like [`bench()`], but also reports MiB/s for `bytes` processed per call
/// when `bytes > 0`.
pub fn bench_throughput<T>(name: &str, bytes: u64, f: &mut impl FnMut() -> T) {
    println!("{}", Timing::full().measure(name, bytes, f).render());
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(super::fmt_ns(12.34), "12.3 ns");
        assert_eq!(super::fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(super::fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(super::fmt_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn measure_returns_plausible_numbers() {
        let t = Timing::smoke();
        let m = t.measure("noop/sum", 1024, || black_box((0..100u64).sum::<u64>()));
        assert_eq!(m.name, "noop/sum");
        assert!(m.ns_per_iter > 0.0 && m.ns_per_iter.is_finite());
        let mib = m.mib_per_s().expect("bytes recorded");
        assert!(mib > 0.0 && mib.is_finite());
        assert!(m.render().contains("MiB/s"));

        let plain = t.measure("noop/plain", 0, || 1u32);
        assert!(plain.mib_per_s().is_none());
        assert!(!plain.render().contains("MiB/s"));
        assert!(plain.items_per_s().is_none());

        let itemized = t.measure("noop/items", 0, || 1u32).with_items(18);
        let rate = itemized.items_per_s().expect("items recorded");
        assert!(rate > 0.0 && rate.is_finite());
        assert!(itemized.render().contains("items/s"));
    }

    #[test]
    fn smoke_is_cheaper_than_full() {
        let s = Timing::smoke();
        let f = Timing::full();
        assert!(s.sample_budget < f.sample_budget);
        assert!(s.samples <= f.samples);
        assert_eq!(Timing::from_smoke_flag(true), s);
        assert_eq!(Timing::from_smoke_flag(false), f);
    }
}
