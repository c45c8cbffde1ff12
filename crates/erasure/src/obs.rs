//! Metric handles for the erasure crate.
//!
//! All of these are no-ops until `nsr_obs::set_metrics_enabled(true)`;
//! see `nsr-obs` for the cost contract. The codec records one
//! process-constant fact — which GF(2⁸) kernel tier this CPU runs —
//! and nothing inside the inner kernels, whose per-call cost is a few
//! nanoseconds. Serving and rebuild metrics (`net.serving.*`,
//! `net.rebuild.*`) live where the codec is driven: `nsr-net`'s gateway.

use nsr_obs::Gauge;

/// 1.0 when the vectorized GF(2⁸) kernel is available on this CPU, else
/// 0.0 (see `gf256::kernel_tier`).
pub static KERNEL_ACCEL: Gauge = Gauge::new("erasure.kernel.accel");

/// Registers every metric in this module with the global registry and
/// records the (process-constant) kernel tier.
pub fn register() {
    KERNEL_ACCEL.register();
    let tier = crate::gf256::kernel_tier();
    KERNEL_ACCEL.set(if tier == "gfni-avx512" { 1.0 } else { 0.0 });
    nsr_obs::trace::event("erasure.kernel_tier", || {
        vec![("tier", nsr_obs::Json::Str(tier.into()))]
    });
}
