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
//!
//! A configuration's rates at a parameter point come from its model point
//! ([`crate::config::Configuration::model`]), which applies these
//! amounts to the §6 bandwidth parameters.

use crate::params::Duplex;
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

    /// The share of the lost entity's data that crosses each survivor's
    /// link one direction at a time.
    pub(crate) fn link_share(&self, duplex: Duplex) -> f64 {
        match duplex {
            // Full duplex: receive and send streams overlap; the slower
            // direction (they are equal here) sets the pace.
            Duplex::Full => self.received_per_node.max(self.sourced_per_node),
            // Half duplex: both directions share the channel.
            Duplex::Half => self.inout_per_node(),
        }
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

/// The §5.1 distributed rebuild of `data` (a node's or a drive's worth)
/// by the survivors that `amounts` describes, at per-node disk and link
/// bandwidths `disk` and `net`: whichever of the disk and the network
/// traffic takes longer sets the duration.
pub(crate) fn distributed_rebuild(
    amounts: &TransferAmounts,
    duplex: Duplex,
    data: Bytes,
    disk: BytesPerSec,
    net: BytesPerSec,
) -> RebuildRate {
    let disk_time = disk.time_for(Bytes(amounts.disk_per_node * data.0));
    let net_time = net.time_for(Bytes(amounts.link_share(duplex) * data.0));

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
    RebuildRate {
        rate: duration.rate(),
        duration,
        bottleneck,
    }
}

/// The fail-in-place re-stripe of a `d`-drive node holding `node_data`
/// at array bandwidth `bw` (the surviving `d − 1` drives' rebuild share):
/// read everything once and write it back once.
///
/// # Errors
///
/// [`Error::Infeasible`] for single-drive nodes, which cannot re-stripe.
pub(crate) fn restripe(d: u32, bw: BytesPerSec, node_data: Bytes) -> Result<RebuildRate> {
    if d < 2 {
        return Err(Error::infeasible(
            "re-striping requires at least 2 drives per node",
        ));
    }
    let duration = bw.time_for(Bytes(2.0 * node_data.0));
    Ok(RebuildRate {
        rate: duration.rate(),
        duration,
        bottleneck: Bottleneck::Disk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Configuration, ModelPoint};
    use crate::params::Params;
    use crate::raid::InternalRaid;
    use crate::units::Gbps;

    /// The model point of `internal` at fault tolerance `t` under `p`.
    fn point(p: Params, internal: InternalRaid, t: u32) -> Result<ModelPoint> {
        Configuration::new(internal, t)?.model(&p)
    }

    /// μ_N at fault tolerance `t` under `p`.
    fn node_rebuild(p: Params, t: u32) -> RebuildRate {
        point(p, InternalRaid::None, t).unwrap().node_rebuild
    }

    fn model() -> ModelPoint {
        point(Params::baseline(), InternalRaid::None, 2).unwrap()
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
        let disk = m.disk_rebuild_bandwidth.0;
        assert!((disk - 150.0 * 131072.0 * 12.0 * 0.1).abs() < 1.0);
        // 10 Gb/s -> 800 MB/s ×0.1 = 80 MB/s.
        assert!((m.network_rebuild_bandwidth.0 - 80e6).abs() < 1.0);
    }

    #[test]
    fn baseline_node_rebuild_is_disk_bound() {
        let r = model().node_rebuild;
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
        let r = node_rebuild(p, 2);
        assert_eq!(r.bottleneck, Bottleneck::Network);
    }

    #[test]
    fn crossover_near_three_gbps() {
        // The paper (Fig 17) reports the disk/network crossover "around
        // 3 Gb/s" for baseline parameters.
        let x = model().crossover_link_speed;
        assert!(x > 1.5 && x < 4.5, "crossover at {x} Gb/s");
        // Consistency: just below the crossover the rebuild is
        // network-bound, just above it is disk-bound.
        for (gbps, expected) in [(x * 0.9, Bottleneck::Network), (x * 1.1, Bottleneck::Disk)] {
            let mut p = Params::baseline();
            p.system.link_speed = Gbps(gbps);
            let r = node_rebuild(p, 2);
            assert_eq!(r.bottleneck, expected, "at {gbps} Gb/s");
        }
    }

    #[test]
    fn drive_rebuild_faster_than_node_rebuild() {
        let m = model();
        let node = m.node_rebuild;
        let drive = m.drive_repair;
        // A drive holds 1/d of a node's data.
        assert!(drive.duration.0 < node.duration.0);
        let ratio = node.duration.0 / drive.duration.0;
        assert!((ratio - 12.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn restripe_rate_baseline() {
        let r = point(Params::baseline(), InternalRaid::Raid5, 2)
            .unwrap()
            .drive_repair;
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
        let err = point(p, InternalRaid::Raid5, 2).unwrap_err();
        assert!(err.to_string().contains("re-striping"), "{err}");
    }

    #[test]
    fn half_duplex_slows_network_bound_rebuild() {
        let mut p = Params::baseline();
        p.system.link_speed = Gbps(1.0); // force network bound
        let full = node_rebuild(p, 2);
        p.system.duplex = Duplex::Half;
        let half = node_rebuild(p, 2);
        assert!((half.duration.0 / full.duration.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn larger_rebuild_block_speeds_up_disk_bound_rebuild() {
        let mut p = Params::baseline();
        p.system.rebuild_command = Bytes::from_kib(16.0);
        let slow = node_rebuild(p, 2);
        p.system.rebuild_command = Bytes::from_kib(256.0);
        let fast = node_rebuild(p, 2);
        assert!(fast.rate.0 > slow.rate.0);
        // Beyond the streaming limit, larger blocks stop helping.
        p.system.rebuild_command = Bytes::from_mib(1.0);
        let capped1 = node_rebuild(p, 2);
        p.system.rebuild_command = Bytes::from_mib(4.0);
        let capped2 = node_rebuild(p, 2);
        assert!((capped1.rate.0 - capped2.rate.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_display() {
        assert_eq!(format!("{}", Bottleneck::Disk), "disk");
        assert_eq!(format!("{}", Bottleneck::Network), "network");
    }
}
