//! The §5.1 rebuild-time model.
//!
//! The paper derives rebuild rates from first principles: the amount of data
//! each surviving node must *receive*, *source*, and move *to/from its own
//! disks* during a distributed rebuild, bottlenecked by either the network
//! links or the drives. The spare capacity is distributed evenly, so all
//! `N − 1` survivors participate.
//!
//! With a node set of size `N`, redundancy sets of size `R`, and fault
//! tolerance `t`, §5.1 gives (in units of one failed node's worth of data):
//!
//! | quantity | amount |
//! |---|---|
//! | rebuilt by each node | `1/(N−1)` |
//! | received by each node | `(R−t)/(N−1)` |
//! | sourced by each node | `(R−t)/(N−1)` |
//! | total in+out of a node | `2(R−t)/(N−1)` |
//! | to/from a node's disks | `(R−t+1)/(N−1)` |
//! | total network traffic | `R−t` |
//!
//! The same accounting applies to a failed *drive*'s worth of data in the
//! no-internal-RAID configurations. Internal-RAID nodes instead *re-stripe*
//! in place after a drive failure (fail-in-place, §3), which is a purely
//! node-local operation.

use crate::params::{Duplex, Params};
use crate::units::{Bytes, BytesPerSec, Hours, PerHour};
use crate::{Error, Result};

/// The §5.1 per-rebuild transfer amounts, in units of the lost entity's
/// (node's or drive's) worth of data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferAmounts {
    /// Data rebuilt (written as new redundancy) by each surviving node:
    /// `1/(N−1)`.
    pub rebuilt_per_node: f64,
    /// Data received over the network by each surviving node: `(R−t)/(N−1)`.
    pub received_per_node: f64,
    /// Data sourced (sent) over the network by each surviving node:
    /// `(R−t)/(N−1)`.
    pub sourced_per_node: f64,
    /// Data moved to and from each surviving node's disks:
    /// `(R−t)/(N−1) + 1/(N−1)`.
    pub disk_per_node: f64,
    /// Total data crossing the interconnect: `R−t`.
    pub network_total: f64,
}

impl TransferAmounts {
    /// Computes the §5.1 amounts for node set size `n`, redundancy set size
    /// `r` and fault tolerance `t`.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] if `t >= r` (the code cannot tolerate as many
    ///   failures as it has elements) or `n < 2`.
    pub fn new(n: u32, r: u32, t: u32) -> Result<TransferAmounts> {
        if n < 2 {
            return Err(Error::infeasible("need at least 2 nodes to rebuild"));
        }
        if t >= r {
            return Err(Error::infeasible(format!(
                "fault tolerance {t} must be smaller than redundancy set size {r}"
            )));
        }
        let survivors = (n - 1) as f64;
        let sources = (r - t) as f64;
        Ok(TransferAmounts {
            rebuilt_per_node: 1.0 / survivors,
            received_per_node: sources / survivors,
            sourced_per_node: sources / survivors,
            disk_per_node: (sources + 1.0) / survivors,
            network_total: sources,
        })
    }

    /// Total data in and out of each node (`2(R−t)/(N−1)`), the quantity the
    /// paper headlines for the network bottleneck.
    pub fn inout_per_node(&self) -> f64 {
        self.received_per_node + self.sourced_per_node
    }
}

/// Which resource limits a rebuild — reported alongside the rate so the
/// Fig 17 "network-bound below ≈3 Gb/s" analysis can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// Limited by drive throughput within the surviving nodes.
    Disk,
    /// Limited by node link bandwidth.
    Network,
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bottleneck::Disk => write!(f, "disk"),
            Bottleneck::Network => write!(f, "network"),
        }
    }
}

/// A computed rebuild (or re-stripe) rate with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildRate {
    /// The repair rate `μ` (per hour).
    pub rate: PerHour,
    /// Wall-clock duration of one repair.
    pub duration: Hours,
    /// Which resource set the duration.
    pub bottleneck: Bottleneck,
}

/// The rebuild-rate model: §5.1 transfer amounts combined with the §6
/// bandwidth parameters.
///
/// # Example
///
/// ```
/// use nsr_core::params::Params;
/// use nsr_core::rebuild::RebuildModel;
///
/// # fn main() -> Result<(), nsr_core::Error> {
/// let m = RebuildModel::new(Params::baseline())?;
/// let mu_n = m.node_rebuild(2)?; // μ_N at fault tolerance 2
/// // Baseline node rebuild takes a few hours and is disk-bound.
/// assert!(mu_n.duration.0 > 1.0 && mu_n.duration.0 < 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RebuildModel {
    params: Params,
}

impl RebuildModel {
    /// Builds the model, validating the parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`Params::validate`] failures.
    pub fn new(params: Params) -> Result<RebuildModel> {
        params.validate()?;
        Ok(RebuildModel::from_validated(params))
    }

    /// The model over parameters the caller has already passed through
    /// [`Params::validate`] — the evaluator validates once per point.
    pub(crate) fn from_validated(params: Params) -> RebuildModel {
        RebuildModel { params }
    }

    /// The parameters this model was built from.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Aggregate drive bandwidth available for rebuild I/O inside one node:
    /// `d · min(max_iops · rebuild_command, sustained) · bw_utilization`.
    pub fn disk_rebuild_bandwidth(&self) -> BytesPerSec {
        let per_drive = self
            .params
            .drive
            .command_bandwidth(self.params.system.rebuild_command);
        BytesPerSec(
            per_drive.0
                * self.params.node.drives_per_node as f64
                * self.params.system.rebuild_bw_utilization,
        )
    }

    /// Node link bandwidth available for rebuild traffic, per direction:
    /// `sustained(link_speed) · bw_utilization`.
    pub fn network_rebuild_bandwidth(&self) -> BytesPerSec {
        BytesPerSec(
            self.params.system.link_speed.sustained().0 * self.params.system.rebuild_bw_utilization,
        )
    }

    /// Rebuild rate for one *entity* (a node's or a drive's worth of data)
    /// of size `data`, under fault tolerance `t`.
    fn distributed_rebuild(&self, data: Bytes, t: u32) -> Result<RebuildRate> {
        let sys = &self.params.system;
        let amounts = TransferAmounts::new(sys.node_count, sys.redundancy_set_size, t)?;

        let disk_bytes = Bytes(amounts.disk_per_node * data.0);
        let disk_time = self.disk_rebuild_bandwidth().time_for(disk_bytes);

        let net_fraction = match sys.duplex {
            // Full duplex: receive and send streams overlap; the slower
            // direction (they are equal here) sets the pace.
            Duplex::Full => amounts.received_per_node.max(amounts.sourced_per_node),
            // Half duplex: both directions share the channel.
            Duplex::Half => amounts.inout_per_node(),
        };
        let net_time = self
            .network_rebuild_bandwidth()
            .time_for(Bytes(net_fraction * data.0));

        let (duration, bottleneck) = if disk_time.0 >= net_time.0 {
            (disk_time, Bottleneck::Disk)
        } else {
            (net_time, Bottleneck::Network)
        };
        nsr_obs::trace::event("core.rebuild.model", || {
            vec![
                ("disk_h", nsr_obs::Json::Num(disk_time.0)),
                ("net_h", nsr_obs::Json::Num(net_time.0)),
                ("bottleneck", nsr_obs::Json::Str(bottleneck.to_string())),
            ]
        });
        Ok(RebuildRate {
            rate: duration.rate(),
            duration,
            bottleneck,
        })
    }

    /// Node rebuild rate `μ_N`: time to reconstruct a failed node's worth of
    /// data onto the distributed spare space of the `N−1` survivors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if `t >= R`.
    pub fn node_rebuild(&self, t: u32) -> Result<RebuildRate> {
        self.distributed_rebuild(self.params.node_data(), t)
    }

    /// Drive rebuild rate `μ_d` for no-internal-RAID configurations: time to
    /// reconstruct a failed drive's worth of data across the survivors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if `t >= R`.
    pub fn drive_rebuild(&self, t: u32) -> Result<RebuildRate> {
        self.distributed_rebuild(self.params.drive_data(), t)
    }

    /// Re-stripe rate for internal-RAID nodes: after an internal drive
    /// failure the array rewrites its content across the surviving `d−1`
    /// drives (fail-in-place, §3/§4.2), reading and writing the node's used
    /// data at the re-stripe command size. Entirely node-local, so no
    /// network term.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] for single-drive nodes, which cannot
    /// re-stripe.
    pub fn restripe(&self) -> Result<RebuildRate> {
        let d = self.params.node.drives_per_node;
        if d < 2 {
            return Err(Error::infeasible(
                "re-striping requires at least 2 drives per node",
            ));
        }
        let per_drive = self
            .params
            .drive
            .command_bandwidth(self.params.system.restripe_command);
        let bw =
            BytesPerSec(per_drive.0 * (d - 1) as f64 * self.params.system.rebuild_bw_utilization);
        // Read everything once and write it back once.
        let duration = bw.time_for(Bytes(2.0 * self.params.node_data().0));
        Ok(RebuildRate {
            rate: duration.rate(),
            duration,
            bottleneck: Bottleneck::Disk,
        })
    }

    /// The link speed (in Gb/s) at which the rebuild bottleneck flips from
    /// network to disk, holding everything else fixed — the paper observes
    /// ≈3 Gb/s for the baseline (Fig 17).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Infeasible`] if `t >= R`.
    pub fn crossover_link_speed(&self, t: u32) -> Result<f64> {
        let sys = &self.params.system;
        let amounts = TransferAmounts::new(sys.node_count, sys.redundancy_set_size, t)?;
        let net_fraction = match sys.duplex {
            Duplex::Full => amounts.received_per_node.max(amounts.sourced_per_node),
            Duplex::Half => amounts.inout_per_node(),
        };
        // disk_time == net_time at the crossover:
        //   disk_per_node / disk_bw == net_fraction / (gbps·80e6·util)
        let disk_bw = self.disk_rebuild_bandwidth().0;
        let gbps =
            net_fraction * disk_bw / (amounts.disk_per_node * 80e6 * sys.rebuild_bw_utilization);
        Ok(gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Gbps;

    fn model() -> RebuildModel {
        RebuildModel::new(Params::baseline()).unwrap()
    }

    #[test]
    fn transfer_amounts_match_section_5_1() {
        // N=64, R=8, t=2: survivors 63, sources 6.
        let a = TransferAmounts::new(64, 8, 2).unwrap();
        assert!((a.rebuilt_per_node - 1.0 / 63.0).abs() < 1e-15);
        assert!((a.received_per_node - 6.0 / 63.0).abs() < 1e-15);
        assert!((a.sourced_per_node - 6.0 / 63.0).abs() < 1e-15);
        assert!((a.disk_per_node - 7.0 / 63.0).abs() < 1e-15);
        assert!((a.network_total - 6.0).abs() < 1e-15);
        assert!((a.inout_per_node() - 12.0 / 63.0).abs() < 1e-15);
    }

    #[test]
    fn sourced_equals_received_totals() {
        // Conservation: total received == total sourced == network_total.
        for (n, r, t) in [(16, 8, 1), (64, 8, 2), (128, 10, 3)] {
            let a = TransferAmounts::new(n, r, t).unwrap();
            let survivors = (n - 1) as f64;
            assert!((a.received_per_node * survivors - a.network_total).abs() < 1e-12);
            assert!((a.sourced_per_node * survivors - a.network_total).abs() < 1e-12);
        }
    }

    #[test]
    fn infeasible_amounts_rejected() {
        assert!(TransferAmounts::new(1, 8, 2).is_err());
        assert!(TransferAmounts::new(64, 8, 8).is_err());
        assert!(TransferAmounts::new(64, 3, 5).is_err());
    }

    #[test]
    fn baseline_bandwidths() {
        let m = model();
        // Per-drive 128 KiB commands: 150*131072 = 19.66 MB/s; ×12 ×0.1.
        let disk = m.disk_rebuild_bandwidth().0;
        assert!((disk - 150.0 * 131072.0 * 12.0 * 0.1).abs() < 1.0);
        // 10 Gb/s -> 800 MB/s ×0.1 = 80 MB/s.
        assert!((m.network_rebuild_bandwidth().0 - 80e6).abs() < 1.0);
    }

    #[test]
    fn baseline_node_rebuild_is_disk_bound() {
        let m = model();
        let r = m.node_rebuild(2).unwrap();
        assert_eq!(r.bottleneck, Bottleneck::Disk);
        // (7/63) * 2.7 TB / 23.59 MB/s ≈ 12716 s ≈ 3.53 h.
        assert!(
            r.duration.0 > 3.0 && r.duration.0 < 4.5,
            "duration {}",
            r.duration.0
        );
        assert!((r.rate.0 * r.duration.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slow_link_makes_rebuild_network_bound() {
        let mut p = Params::baseline();
        p.system.link_speed = Gbps(1.0);
        let m = RebuildModel::new(p).unwrap();
        let r = m.node_rebuild(2).unwrap();
        assert_eq!(r.bottleneck, Bottleneck::Network);
    }

    #[test]
    fn crossover_near_three_gbps() {
        // The paper (Fig 17) reports the disk/network crossover "around
        // 3 Gb/s" for baseline parameters.
        let m = model();
        let x = m.crossover_link_speed(2).unwrap();
        assert!(x > 1.5 && x < 4.5, "crossover at {x} Gb/s");
        // Consistency: just below the crossover the rebuild is
        // network-bound, just above it is disk-bound.
        for (gbps, expected) in [(x * 0.9, Bottleneck::Network), (x * 1.1, Bottleneck::Disk)] {
            let mut p = Params::baseline();
            p.system.link_speed = Gbps(gbps);
            let r = RebuildModel::new(p).unwrap().node_rebuild(2).unwrap();
            assert_eq!(r.bottleneck, expected, "at {gbps} Gb/s");
        }
    }

    #[test]
    fn drive_rebuild_faster_than_node_rebuild() {
        let m = model();
        let node = m.node_rebuild(2).unwrap();
        let drive = m.drive_rebuild(2).unwrap();
        // A drive holds 1/d of a node's data.
        assert!(drive.duration.0 < node.duration.0);
        let ratio = node.duration.0 / drive.duration.0;
        assert!((ratio - 12.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn restripe_rate_baseline() {
        let m = model();
        let r = m.restripe().unwrap();
        // 2*2.7TB / (11 drives * 40 MB/s * 0.1) ≈ 122727 s ≈ 34 h.
        assert!(
            r.duration.0 > 25.0 && r.duration.0 < 45.0,
            "duration {}",
            r.duration.0
        );
        assert_eq!(r.bottleneck, Bottleneck::Disk);
    }

    #[test]
    fn restripe_requires_two_drives() {
        let mut p = Params::baseline();
        p.node.drives_per_node = 1;
        let m = RebuildModel::new(p).unwrap();
        assert!(m.restripe().is_err());
    }

    #[test]
    fn half_duplex_slows_network_bound_rebuild() {
        let mut p = Params::baseline();
        p.system.link_speed = Gbps(1.0); // force network bound
        let full = RebuildModel::new(p).unwrap().node_rebuild(2).unwrap();
        p.system.duplex = Duplex::Half;
        let half = RebuildModel::new(p).unwrap().node_rebuild(2).unwrap();
        assert!((half.duration.0 / full.duration.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn larger_rebuild_block_speeds_up_disk_bound_rebuild() {
        let mut p = Params::baseline();
        p.system.rebuild_command = Bytes::from_kib(16.0);
        let slow = RebuildModel::new(p).unwrap().node_rebuild(2).unwrap();
        p.system.rebuild_command = Bytes::from_kib(256.0);
        let fast = RebuildModel::new(p).unwrap().node_rebuild(2).unwrap();
        assert!(fast.rate.0 > slow.rate.0);
        // Beyond the streaming limit, larger blocks stop helping.
        p.system.rebuild_command = Bytes::from_mib(1.0);
        let capped1 = RebuildModel::new(p).unwrap().node_rebuild(2).unwrap();
        p.system.rebuild_command = Bytes::from_mib(4.0);
        let capped2 = RebuildModel::new(p).unwrap().node_rebuild(2).unwrap();
        assert!((capped1.rate.0 - capped2.rate.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_display() {
        assert_eq!(format!("{}", Bottleneck::Disk), "disk");
        assert_eq!(format!("{}", Bottleneck::Network), "network");
    }
}
