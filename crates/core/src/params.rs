//! The parameter model: every constant from the paper's §6 baseline, with
//! validation and builder-style modification for the §7 sensitivity sweeps.

use crate::units::{Bytes, BytesPerSec, Gbps, Hours, PerHour};
use crate::{Error, Result};

/// Disk-drive characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveParams {
    /// Mean time to failure of one drive. Baseline: 300 000 h (desktop/ATA).
    pub mttf: Hours,
    /// Formatted capacity. Baseline: 300 GB.
    pub capacity: Bytes,
    /// Hard (uncorrectable) error rate in errors per *bit* read.
    /// Baseline: 1 sector in 10¹⁴ bits ⇒ `1e-14`.
    pub hard_error_rate_per_bit: f64,
    /// Maximum small-transfer throughput. Baseline: 150 IO/s.
    pub max_iops: f64,
    /// Average sustained (streaming) transfer rate. Baseline: 40 MB/s.
    pub sustained: BytesPerSec,
}

impl DriveParams {
    /// The §6 baseline desktop/ATA drive.
    pub fn baseline() -> Self {
        DriveParams {
            mttf: Hours(300_000.0),
            capacity: Bytes::from_gb(300.0),
            hard_error_rate_per_bit: 1e-14,
            max_iops: 150.0,
            sustained: BytesPerSec::from_mb_s(40.0),
        }
    }

    /// An enterprise-class drive: 10× lower hard-error rate, higher MTTF
    /// and throughput than the §6 desktop baseline — the obvious
    /// "what if we paid more" counterfactual to the paper's ATA choice.
    pub fn enterprise() -> Self {
        DriveParams {
            mttf: Hours(1_000_000.0),
            capacity: Bytes::from_gb(300.0),
            hard_error_rate_per_bit: 1e-15,
            max_iops: 300.0,
            sustained: BytesPerSec::from_mb_s(80.0),
        }
    }

    /// Drive failure rate `λ_d = 1/MTTF_d`.
    pub fn failure_rate(&self) -> PerHour {
        self.mttf.rate()
    }

    /// The dimensionless product `C·HER` that appears in every sector-error
    /// probability of the paper: the probability of at least one
    /// uncorrectable error when reading one full drive.
    ///
    /// At baseline: `300 GB · 8 bit/B · 1e-14 /bit = 0.024`.
    pub fn c_her(&self) -> f64 {
        self.capacity.bits() * self.hard_error_rate_per_bit
    }

    /// Effective per-drive bandwidth when issuing commands of `block` bytes:
    /// IOPS-bound for small blocks, streaming-bound for large ones
    /// (`min(max_iops·block, sustained)`).
    pub fn command_bandwidth(&self, block: Bytes) -> BytesPerSec {
        BytesPerSec((self.max_iops * block.0).min(self.sustained.0))
    }

    fn validate(&self) -> Result<()> {
        if !(self.mttf.0 > 0.0 && self.mttf.0.is_finite()) {
            return Err(Error::invalid("drive MTTF must be positive and finite"));
        }
        if !(self.capacity.0 > 0.0 && self.capacity.0.is_finite()) {
            return Err(Error::invalid("drive capacity must be positive and finite"));
        }
        if !(self.hard_error_rate_per_bit >= 0.0 && self.hard_error_rate_per_bit.is_finite()) {
            return Err(Error::invalid("hard error rate must be >= 0 and finite"));
        }
        if self.c_her() >= 1.0 {
            return Err(Error::invalid(
                "C·HER must be < 1 (a probability of uncorrectable error per drive read)",
            ));
        }
        if !(self.max_iops > 0.0 && self.sustained.0 > 0.0) {
            return Err(Error::invalid(
                "drive throughput parameters must be positive",
            ));
        }
        Ok(())
    }
}

/// Storage-node ("brick") characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Mean time to failure of the node's non-redundant components
    /// (controller, power supply, …). Baseline: 400 000 h.
    pub mttf: Hours,
    /// Number of drives per node (`d`). Baseline: 12.
    pub drives_per_node: u32,
}

impl NodeParams {
    /// The §6 baseline brick.
    pub fn baseline() -> Self {
        NodeParams {
            mttf: Hours(400_000.0),
            drives_per_node: 12,
        }
    }

    /// Node failure rate `λ_N = 1/MTTF_N`.
    pub fn failure_rate(&self) -> PerHour {
        self.mttf.rate()
    }

    fn validate(&self) -> Result<()> {
        if !(self.mttf.0 > 0.0 && self.mttf.0.is_finite()) {
            return Err(Error::invalid("node MTTF must be positive and finite"));
        }
        if self.drives_per_node == 0 {
            return Err(Error::invalid("a node must contain at least one drive"));
        }
        Ok(())
    }
}

/// Whether node links move rebuild traffic in and out concurrently.
///
/// §5.1 counts "total data in and out of a node" (`2(R−t)/(N−1)`); whether
/// that is a single serialized stream or two concurrent ones depends on the
/// fabric. The brick fabric of the paper (6 surface links per node) is
/// full-duplex in aggregate, which also reproduces the paper's ≈3 Gb/s
/// disk/network crossover (Fig 17); half-duplex is provided for
/// sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Duplex {
    /// Ingress and egress proceed concurrently (default).
    #[default]
    Full,
    /// Ingress and egress share one serialized channel.
    Half,
}

/// System-level configuration and workload constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// Node set size `N`. Baseline: 64.
    pub node_count: u32,
    /// Redundancy set size `R` (data + parity elements of one stripe).
    /// Baseline: 8.
    pub redundancy_set_size: u32,
    /// Re-stripe command size used by internal-RAID re-striping.
    /// Baseline: 1 MiB.
    pub restripe_command: Bytes,
    /// Rebuild command size used by distributed rebuilds. Baseline: 128 KiB.
    pub rebuild_command: Bytes,
    /// Link speed. Baseline: 10 Gb/s (800 MB/s sustained per node).
    pub link_speed: Gbps,
    /// Fraction of raw capacity occupied by data (the rest is the
    /// fail-in-place spare pool). Baseline: 0.75.
    pub capacity_utilization: f64,
    /// Fraction of drive/link bandwidth budgeted to rebuild traffic
    /// (foreground I/O keeps the rest). Baseline: 0.10.
    pub rebuild_bw_utilization: f64,
    /// Link duplexing model.
    pub duplex: Duplex,
}

impl SystemParams {
    /// The §6 baseline system.
    pub fn baseline() -> Self {
        SystemParams {
            node_count: 64,
            redundancy_set_size: 8,
            restripe_command: Bytes::from_mib(1.0),
            rebuild_command: Bytes::from_kib(128.0),
            link_speed: Gbps(10.0),
            capacity_utilization: 0.75,
            rebuild_bw_utilization: 0.10,
            duplex: Duplex::Full,
        }
    }

    fn validate(&self) -> Result<()> {
        check_geometry(self.node_count, self.redundancy_set_size)?;
        if !(self.restripe_command.0 > 0.0 && self.rebuild_command.0 > 0.0) {
            return Err(Error::invalid("command sizes must be positive"));
        }
        if !(self.link_speed.0 > 0.0 && self.link_speed.0.is_finite()) {
            return Err(Error::invalid("link speed must be positive and finite"));
        }
        if !(self.capacity_utilization > 0.0 && self.capacity_utilization <= 1.0) {
            return Err(Error::invalid("capacity utilization must be in (0, 1]"));
        }
        if !(self.rebuild_bw_utilization > 0.0 && self.rebuild_bw_utilization <= 1.0) {
            return Err(Error::invalid(
                "rebuild bandwidth utilization must be in (0, 1]",
            ));
        }
        Ok(())
    }
}

/// The node-set and redundancy-set sizes `N` and `R` alone: the checks
/// of [`Params::validate`] that depend on nothing else.
pub(crate) fn check_geometry(nodes: u32, set_size: u32) -> Result<()> {
    if nodes < 2 {
        return Err(Error::invalid("node set must contain at least 2 nodes"));
    }
    if set_size < 2 {
        return Err(Error::invalid(
            "redundancy set must contain at least 2 nodes",
        ));
    }
    if set_size > nodes {
        return Err(Error::infeasible(format!(
            "redundancy set size {set_size} exceeds node set size {nodes}"
        )));
    }
    Ok(())
}

/// The complete parameter set for one evaluation.
///
/// `Params` is a plain data structure (all fields public) so sensitivity
/// sweeps can tweak one knob at a time; call [`Params::validate`] (or any
/// model entry point, which validates internally) after mutation.
///
/// # Example
///
/// ```
/// use nsr_core::params::Params;
/// use nsr_core::units::Hours;
///
/// let mut p = Params::baseline();
/// p.drive.mttf = Hours(750_000.0); // high end of the paper's Fig 14 range
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Disk-drive characteristics.
    pub drive: DriveParams,
    /// Node ("brick") characteristics.
    pub node: NodeParams,
    /// System-level configuration.
    pub system: SystemParams,
}

impl Params {
    /// The complete §6 baseline parameter set.
    pub fn baseline() -> Self {
        Params {
            drive: DriveParams::baseline(),
            node: NodeParams::baseline(),
            system: SystemParams::baseline(),
        }
    }

    /// Validates every field group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] or [`Error::Infeasible`] naming the
    /// first violated constraint.
    pub fn validate(&self) -> Result<()> {
        self.drive.validate()?;
        self.node.validate()?;
        self.system.validate()
    }

    /// Raw capacity of the whole node set.
    pub fn raw_capacity(&self) -> Bytes {
        Bytes(
            self.system.node_count as f64
                * self.node.drives_per_node as f64
                * self.drive.capacity.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        Params::baseline().validate().unwrap();
    }

    #[test]
    fn baseline_constants_match_paper() {
        let p = Params::baseline();
        assert_eq!(p.drive.mttf.0, 300_000.0);
        assert_eq!(p.node.mttf.0, 400_000.0);
        assert_eq!(p.system.node_count, 64);
        assert_eq!(p.system.redundancy_set_size, 8);
        assert_eq!(p.node.drives_per_node, 12);
        assert_eq!(p.system.capacity_utilization, 0.75);
        assert_eq!(p.system.rebuild_bw_utilization, 0.10);
        // C·HER = 300 GB * 8 * 1e-14 = 0.024 (dimensionless).
        assert!((p.drive.c_her() - 0.024).abs() < 1e-15);
    }

    #[test]
    fn enterprise_drives_tighten_everything() {
        let mut p = Params::baseline();
        p.drive = DriveParams::enterprise();
        p.validate().unwrap();
        assert!(p.drive.c_her() < DriveParams::baseline().c_her());
        assert!(p.drive.failure_rate().0 < DriveParams::baseline().failure_rate().0);
    }

    #[test]
    fn command_bandwidth_iops_vs_streaming() {
        let d = DriveParams::baseline();
        // 128 KiB commands: 150 * 131072 = 19.66 MB/s < 40 MB/s sustained.
        let small = d.command_bandwidth(Bytes::from_kib(128.0));
        assert!((small.0 - 150.0 * 131072.0).abs() < 1e-6);
        // 1 MiB commands: IOPS bound would be 157 MB/s; clamped to 40 MB/s.
        let big = d.command_bandwidth(Bytes::from_mib(1.0));
        assert_eq!(big.0, 40e6);
    }

    #[test]
    fn capacity_accounting() {
        let p = Params::baseline();
        // 64 * 12 * 300 GB = 230.4 TB raw.
        assert!((p.raw_capacity().0 - 230.4e12).abs() < 1.0);
        // Logical at t=2: 230.4 TB * 0.75 * 6/8 = 129.6 TB.
        let ft2 = crate::config::Configuration::new(crate::raid::InternalRaid::None, 2).unwrap();
        let logical = ft2.model(&p).unwrap().logical_capacity;
        assert!((logical.0 - 129.6e12).abs() < 1.0);
    }

    #[test]
    fn validation_catches_each_field() {
        let mut p = Params::baseline();
        p.drive.mttf = Hours(0.0);
        assert!(p.validate().is_err());

        let mut p = Params::baseline();
        p.drive.hard_error_rate_per_bit = 1.0; // C·HER >= 1
        assert!(p.validate().is_err());

        let mut p = Params::baseline();
        p.node.drives_per_node = 0;
        assert!(p.validate().is_err());

        let mut p = Params::baseline();
        p.system.redundancy_set_size = 200; // > node_count
        assert!(matches!(
            p.validate().unwrap_err(),
            Error::Infeasible { .. }
        ));

        let mut p = Params::baseline();
        p.system.capacity_utilization = 0.0;
        assert!(p.validate().is_err());

        let mut p = Params::baseline();
        p.system.node_count = 1;
        assert!(p.validate().is_err());

        let mut p = Params::baseline();
        p.system.rebuild_bw_utilization = 1.5;
        assert!(p.validate().is_err());

        let mut p = Params::baseline();
        p.drive.max_iops = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn duplex_default_is_full() {
        assert_eq!(Duplex::default(), Duplex::Full);
    }
}
