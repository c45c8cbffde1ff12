//! End-to-end gateway tests against in-process brick servers: healthy
//! and degraded reads, automatic rebuild to spares, the typed
//! `RebuildInterrupted` checkpoint, and coordinator-restart resume.
//!
//! Bricks run as threads (the child-process path is exercised by
//! `nsr cluster-inject` and the CLI integration test); the failure
//! detector runs on a `MockClock` so every health transition in here is
//! deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use nsr_erasure::rs::ReedSolomon;
use nsr_net::client::BrickClient;
use nsr_net::clock::MockClock;
use nsr_net::detector::{DetectorConfig, Health};
use nsr_net::gateway::{
    data_shards_for, Gateway, GatewayConfig, ReadMode, RetryPolicy, PAGE_BYTES,
};
use nsr_net::local::{LocalCluster, Pace};
use nsr_net::Error;
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

fn cluster(bricks: usize, data: usize, parity: usize) -> LocalCluster {
    let mut cfg = GatewayConfig::new(data, parity);
    cfg.timeout = Duration::from_millis(300);
    cfg.retry = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
    };
    cfg.detector = DetectorConfig {
        suspect_phi: 1.0,
        dead_phi: 3.0,
        initial_interval_s: 0.5,
        interval_alpha: 0.2,
    };
    let cluster = LocalCluster::start(bricks, cfg, Pace::Mock).expect("cluster");
    // Establish heartbeat history at a steady mock interval.
    for _ in 0..10 {
        cluster.pump();
    }
    cluster
}

/// Two pages: at `k = 2` an object this long keeps the full `k + t`
/// width that the layout vectors and counts below are written for.
const WIDE: usize = 2 * PAGE_BYTES;

fn payload(object: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 31 + object * 7) % 251) as u8)
        .collect()
}

#[test]
fn healthy_put_get_round_trip() {
    let cluster = cluster(4, 2, 1);
    let data = payload(3, 10_000);
    cluster.gw.put(3, &data).expect("put");
    let (back, mode) = cluster.gw.get(3).expect("get");
    assert_eq!(back, data);
    assert_eq!(mode, ReadMode::Healthy);
    // Odd sizes survive the shard padding too.
    cluster.gw.put(4, &payload(4, 1)).expect("put tiny");
    assert_eq!(cluster.gw.get(4).expect("get tiny").0, payload(4, 1));
    cluster.gw.put(5, &[]).expect("put empty");
    assert_eq!(cluster.gw.get(5).expect("get empty").0, Vec::<u8>::new());
}

#[test]
fn degraded_read_routes_around_undetected_dead_brick() {
    let mut cluster = cluster(4, 2, 1);
    let data = payload(0, 8_192);
    cluster.gw.put(0, &data).expect("put");
    let layout = cluster.gw.object_layout(0).expect("layout");
    // Kill a data-shard holder without giving the detector a chance to
    // notice: the read must still succeed by reconstruction.
    cluster.stop(layout[0] as usize).expect("stop");
    let (back, mode) = cluster.gw.get(0).expect("degraded get");
    assert_eq!(back, data);
    assert_eq!(mode, ReadMode::Degraded);
}

#[test]
fn death_triggers_rebuild_to_spare_and_healthy_reads() {
    let mut cluster = cluster(4, 2, 1);
    for id in 0..6u64 {
        cluster.gw.put(id, &payload(id, WIDE)).expect("put");
    }
    // Brick 1 appears in some layouts (4 bricks, r=3 → each object
    // skips exactly one brick).
    cluster.kill(1).expect("kill");
    let report = cluster.gw.repair_all().expect("repair");
    assert!(report.shards_moved > 0, "rebuild must move shards");
    assert_eq!(report.lost_objects, Vec::<u64>::new());
    assert_eq!(report.resumed_from, 0);
    // Every layout now avoids brick 1 and reads are fully healthy.
    for id in 0..6u64 {
        let layout = cluster.gw.object_layout(id).expect("layout");
        assert!(!layout.contains(&1), "obj{id} still references dead brick");
        let (back, mode) = cluster.gw.get(id).expect("get after rebuild");
        assert_eq!(back, payload(id, WIDE));
        assert_eq!(mode, ReadMode::Healthy);
    }
    // The drained brick is out of rebuilding, still out of service.
    assert_eq!(cluster.gw.health_summary()[1].1, Health::Dead);
}

/// The interruption scenario, fully deterministic: brick 0 dies and is
/// detected; bricks 5 and 6 die *silently* (no detector round). The
/// repair pass fixes obj 0 (checkpoint = 1), then hits obj 5 — whose
/// surviving sources are mostly the silently-dead bricks — and must
/// surface `RebuildInterrupted { resumed_from: 1 }` rather than failing
/// some other way or redoing work on resume.
#[test]
fn rebuild_interruption_checkpoints_and_resumes() {
    let mut cluster = cluster(8, 2, 2);
    // Layout rotation over 8 healthy bricks: obj0 → [0,1,2,3],
    // obj5 → [5,6,7,0].
    cluster.gw.put(0, &payload(0, WIDE)).expect("put 0");
    cluster.gw.put(5, &payload(5, WIDE)).expect("put 5");
    assert_eq!(cluster.gw.object_layout(0).unwrap(), vec![0, 1, 2, 3]);
    assert_eq!(cluster.gw.object_layout(5).unwrap(), vec![5, 6, 7, 0]);

    cluster.kill(0).expect("kill");
    // Silent deaths: the detector still believes 5 and 6 are healthy.
    cluster.stop(5).expect("stop");
    cluster.stop(6).expect("stop");

    match cluster.gw.repair_all() {
        Err(Error::RebuildInterrupted { resumed_from }) => {
            assert_eq!(resumed_from, 1, "obj0's completed move is the checkpoint")
        }
        other => panic!("expected RebuildInterrupted, got {other:?}"),
    }
    // obj0's repair survived the interruption (per-shard commit).
    assert!(!cluster.gw.object_layout(0).unwrap().contains(&0));

    // Let detection catch up, then resume.
    cluster.kill(5).expect("kill");
    cluster.kill(6).expect("kill");
    let report = cluster.gw.repair_all().expect("resumed repair");
    assert_eq!(report.resumed_from, 1, "resumed from the checkpoint");
    assert_eq!(report.shards_moved, 0, "no completed work is redone");
    assert_eq!(
        report.lost_objects,
        vec![5],
        "obj5 lost 3 of 4 shards — typed loss, not silent"
    );
    assert_eq!(
        cluster.gw.get(0).expect("obj0 healthy").1,
        ReadMode::Healthy
    );
    assert!(matches!(
        cluster.gw.get(5),
        Err(Error::DataLoss {
            object: 5,
            missing: 3,
            tolerated: 2
        })
    ));
    // A clean pass closes the rebuild generation.
    assert_eq!(
        cluster.gw.repair_all().expect("idle repair").resumed_from,
        0
    );
}

/// Spare exhaustion: with 2 of 4 bricks dead, an object that lost only
/// 1 shard (≤ t) may find every survivor already in its layout — there
/// is nowhere to re-replicate to. The repair pass must *defer* such
/// objects (keeping them degraded-readable), not abort, and a
/// presence-driven scrub after the bricks rejoin must restore them to
/// full redundancy in place.
#[test]
fn no_spare_defers_objects_and_scrub_restores_after_rejoin() {
    let mut cluster = cluster(4, 2, 1);
    for id in 0..6u64 {
        cluster.gw.put(id, &payload(id, WIDE)).expect("put");
    }
    // Layout rotation: obj o → bricks [o%4, o+1, o+2]. Dead {0, 3}:
    // objects 0,1,4,5 lose exactly 1 shard but every survivor {1,2} is
    // already in their layout; objects 2,3 lose 2 > t.
    cluster.stop(0).expect("stop");
    cluster.stop(3).expect("stop");
    cluster.kill(0).expect("kill");
    cluster.kill(3).expect("kill");

    let report = cluster.gw.repair_all().expect("repair pass must not abort");
    assert_eq!(report.deferred_objects, vec![0, 1, 4, 5]);
    assert_eq!(report.lost_objects, vec![2, 3]);
    assert_eq!(report.shards_moved, 0, "nowhere to move shards to");

    // Deferred objects stay readable. Objects 0 and 4 lost a *data*
    // shard (brick 0 holds their pos 0), so their reads reconstruct;
    // objects 1 and 5 only lost parity (brick 3) and read clean.
    for id in [0u64, 1, 4, 5] {
        let (back, mode) = cluster.gw.get(id).expect("deferred object readable");
        assert_eq!(back, payload(id, WIDE));
        let expect_mode = if id % 4 == 0 {
            ReadMode::Degraded
        } else {
            ReadMode::Healthy
        };
        assert_eq!(mode, expect_mode, "obj{id}");
    }
    assert!(matches!(
        cluster.gw.get(2),
        Err(Error::DataLoss {
            object: 2,
            missing: 2,
            tolerated: 1
        })
    ));

    // Victims come back empty and are adopted as spares.
    cluster.restart(0).expect("restart");
    cluster.restart(3).expect("restart");
    for _ in 0..32 {
        cluster.pump();
        cluster.gw.adopt_rejoined();
        let hs = cluster.gw.health_summary();
        if hs[0].1 == Health::Healthy && hs[3].1 == Health::Healthy {
            break;
        }
    }

    let scrub = cluster.gw.scrub_repair().expect("scrub");
    assert_eq!(scrub.objects_repaired, 4);
    assert_eq!(
        scrub.shards_moved, 4,
        "one missing shard per deferred object"
    );
    assert_eq!(scrub.lost_objects, vec![2, 3], "loss is permanent");
    assert_eq!(scrub.deferred_objects, Vec::<u64>::new());

    // Full redundancy restored in place: same layouts, healthy reads.
    for id in [0u64, 1, 4, 5] {
        let (back, mode) = cluster.gw.get(id).expect("get after scrub");
        assert_eq!(back, payload(id, WIDE));
        assert_eq!(mode, ReadMode::Healthy);
    }
    // A second scrub finds nothing to do.
    let idle = cluster.gw.scrub_repair().expect("idle scrub");
    assert_eq!(idle.shards_moved, 0);
}

/// Coordinator restart: a fresh gateway importing the old gateway's
/// exported metadata resumes the rebuild from the committed layout —
/// obj0's finished move is not redone, obj5's loss is re-derived.
#[test]
fn coordinator_restart_resumes_from_committed_metadata() {
    let mut cluster = cluster(8, 2, 2);
    cluster.gw.put(0, &payload(0, WIDE)).expect("put 0");
    cluster.gw.put(5, &payload(5, WIDE)).expect("put 5");
    cluster.kill(0).expect("kill");
    cluster.stop(5).expect("stop");
    cluster.stop(6).expect("stop");
    assert!(matches!(
        cluster.gw.repair_all(),
        Err(Error::RebuildInterrupted { resumed_from: 1 })
    ));
    let exported = cluster.gw.export_meta();

    // The coordinator "crashes" and a new one starts with a blank
    // detector and the exported metadata.
    let mut cfg = GatewayConfig::new(2, 2);
    cfg.timeout = Duration::from_millis(300);
    cfg.retry = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
    };
    let clock = MockClock::new();
    let gw2 = Gateway::with_clock(cluster.addrs().to_vec(), cfg, Arc::new(clock.clone()))
        .expect("second gateway");
    gw2.import_meta(&exported).expect("import");
    for _ in 0..40 {
        clock.advance(0.5);
        gw2.pump_heartbeats();
        let hs = gw2.health_summary();
        if [0usize, 5, 6].iter().all(|&b| hs[b].1 == Health::Dead) {
            break;
        }
    }
    let report = gw2.repair_all().expect("repair after restart");
    assert_eq!(
        report.shards_moved, 0,
        "finished move not redone after restart"
    );
    assert_eq!(report.lost_objects, vec![5]);
    assert_eq!(gw2.get(0).expect("obj0 readable").0, payload(0, WIDE));
}

/// Reads every acknowledged object back and compares it byte for byte.
fn assert_all_exact(gw: &Gateway, acked: &BTreeMap<u64, usize>, context: &str) {
    for (&key, &len) in acked {
        match gw.get(key) {
            Ok((back, _)) => assert!(back == payload(key, len), "{context}: obj{key} corrupted"),
            Err(e) => panic!("{context}: acknowledged obj{key} unreadable: {e:?}"),
        }
    }
}

/// The durability contract under a seeded random mix of operations:
/// fresh-key puts (a failed put counts as not stored), brick deaths
/// pumped to `Dead`, `repair_all`, restarting a stopped brick empty and
/// then `scrub_repair`, and gets. No more than `t` bricks are ever down
/// or unrepaired at once, so every acknowledged object must read back
/// byte-exact after every operation and at the end, no pass may report a
/// lost object, and once every brick is back one scrub restores full
/// redundancy. Keys are never reused: an overwrite is outside this
/// contract.
#[test]
fn seeded_random_ops_keep_acknowledged_objects_exact_within_t() {
    // (bricks, data, parity). At `bricks == k + t + 1` a repair can run
    // out of spares and defer; the t = 1 layouts notice a single shard
    // gone missing that should not have.
    const GEOMETRIES: [(usize, usize, usize); 4] = [(4, 2, 1), (5, 3, 1), (5, 2, 2), (6, 2, 2)];
    let mut rng = StdRng::seed_from_u64(0x5704_0001);
    for round in 0..24 {
        let (bricks, data, parity) = GEOMETRIES[round % GEOMETRIES.len()];
        let mut cluster = cluster(bricks, data, parity);
        let mut acked: BTreeMap<u64, usize> = BTreeMap::new();
        let mut next_key = 0u64;
        // Bricks stopped and not yet restarted.
        let mut stopped: BTreeSet<usize> = BTreeSet::new();
        // Bricks whose lost shards may still be named by some layout:
        // stopped until a repair pass finishes without deferring, and
        // restarted until a scrub has refilled them.
        let mut unrepaired: BTreeSet<usize> = BTreeSet::new();
        for step in 0..40 {
            let context = format!("round {round} ({bricks} bricks, {data}+{parity}) step {step}");
            match rng.random_range_usize(0, 5) {
                0 => {
                    let key = next_key;
                    next_key += 1;
                    let len = rng.random_range_usize(0, 8 * 1024 + 1);
                    if cluster.gw.put(key, &payload(key, len)).is_ok() {
                        acked.insert(key, len);
                    }
                }
                1 if unrepaired.len() < parity => {
                    let running: Vec<usize> =
                        (0..bricks).filter(|b| !stopped.contains(b)).collect();
                    let victim = running[rng.random_range_usize(0, running.len())];
                    cluster.kill(victim).expect("kill");
                    stopped.insert(victim);
                    unrepaired.insert(victim);
                }
                2 => {
                    let report = cluster.gw.repair_all().expect(&context);
                    assert_eq!(report.lost_objects, Vec::<u64>::new(), "{context}");
                    if report.deferred_objects.is_empty() {
                        unrepaired.retain(|b| !stopped.contains(b));
                    }
                }
                3 if !stopped.is_empty() => {
                    let down: Vec<usize> = stopped.iter().copied().collect();
                    let back = down[rng.random_range_usize(0, down.len())];
                    cluster.rejoin(back).expect("rejoin");
                    stopped.remove(&back);
                    let report = cluster.gw.scrub_repair().expect(&context);
                    assert_eq!(report.lost_objects, Vec::<u64>::new(), "{context}");
                    assert_eq!(report.deferred_objects, Vec::<u64>::new(), "{context}");
                    unrepaired.retain(|b| stopped.contains(b));
                }
                _ if next_key > 0 => {
                    let key = rng.random_range_usize(0, next_key as usize) as u64;
                    match (acked.get(&key), cluster.gw.get(key)) {
                        (Some(&len), Ok((back, _))) => {
                            assert!(back == payload(key, len), "{context}: obj{key} corrupted")
                        }
                        (None, Err(Error::ObjectNotFound { .. })) => {}
                        (want, got) => panic!("{context}: obj{key} stored={want:?} read {got:?}"),
                    }
                }
                _ => {}
            }
            assert_all_exact(&cluster.gw, &acked, &context);
        }
        // Every brick back: one scrub restores full redundancy in place,
        // and every object then reads healthy and exact.
        for back in std::mem::take(&mut stopped) {
            cluster.rejoin(back).expect("rejoin");
        }
        let report = cluster.gw.scrub_repair().expect("final scrub");
        assert_eq!(report.lost_objects, Vec::<u64>::new(), "round {round}");
        assert_eq!(report.deferred_objects, Vec::<u64>::new(), "round {round}");
        for (&key, &len) in &acked {
            let (back, mode) = cluster.gw.get(key).expect("get after final scrub");
            assert!(
                back == payload(key, len),
                "round {round}: obj{key} corrupted"
            );
            assert_eq!(mode, ReadMode::Healthy, "round {round}: obj{key}");
        }
    }
}

/// Every running brick holds exactly the shards the committed layouts
/// point at: none that no layout names (an orphan), and none missing.
fn assert_exact_inventories(cluster: &LocalCluster, context: &str) {
    let (_, inventories) = cluster.state().expect("state");
    for (brick, inventory) in inventories.iter().enumerate() {
        let Some(inventory) = inventory else {
            continue;
        };
        let mut want: Vec<(u64, u32)> = Vec::new();
        for object in cluster.gw.object_ids() {
            let layout = cluster.gw.object_layout(object).expect("layout");
            let here = (0..layout.len()).filter(|&pos| layout[pos] == brick as u32);
            want.extend(here.map(|pos| (object, pos as u32)));
        }
        want.sort_unstable();
        assert_eq!(inventory, &want, "{context}: brick {brick}");
    }
}

/// An overwrite that changes an object's layout — to another width, or
/// to other bricks after a death — deletes the old shards it did not
/// overwrite once it commits.
#[test]
fn an_overwrite_onto_a_new_layout_leaves_no_orphan_shards() {
    // 6 + 2 on nine bricks: 64 KiB is eight shards wide, 4 KiB three.
    let mut cluster = cluster(9, 6, 2);
    let key = 3;
    for (step, len) in [64 * 1024, PAGE_BYTES, 64 * 1024].into_iter().enumerate() {
        let data = payload(step as u64, len);
        cluster.gw.put(key, &data).expect("put");
        let layout = cluster.gw.object_layout(key).expect("layout");
        assert_eq!(layout.len(), data_shards_for(len, 6) + 2, "step {step}");
        assert_eq!(cluster.gw.get(key).expect("get").0, data, "step {step}");
        assert_exact_inventories(&cluster, &format!("{len}-byte step {step}"));
    }
    // A layout brick dies: the next overwrite is laid out over the eight
    // healthy bricks, and every position lands on another brick.
    let before = cluster.gw.object_layout(key).expect("layout");
    cluster.kill(before[0] as usize).expect("kill");
    let data = payload(9, 64 * 1024);
    cluster.gw.put(key, &data).expect("put with a brick dead");
    let after = cluster.gw.object_layout(key).expect("layout");
    assert!(before.iter().zip(&after).all(|(a, b)| a != b), "{after:?}");
    assert_exact_inventories(&cluster, "overwrite onto other bricks");
    cluster.rejoin(before[0] as usize).expect("rejoin");
    assert_exact_inventories(&cluster, "after the rejoin");
    assert_eq!(cluster.gw.get(key).expect("get"), (data, ReadMode::Healthy));
}

/// Metadata exported before the width rule — every object `k + t` wide,
/// whatever its length — imports and reads back; the next overwrite
/// re-cuts the object at its own width and takes back the rest.
#[test]
fn a_full_width_export_of_a_one_page_object_imports_and_reads_back() {
    let cluster = cluster(9, 6, 2);
    // Eight 683-byte shards on bricks 0..8, as a 6 + 2 put of 4 KiB wrote
    // them before the width rule.
    let data = payload(1, PAGE_BYTES);
    let shard_len = PAGE_BYTES.div_ceil(6);
    let mut padded = data.clone();
    padded.resize(6 * shard_len, 0);
    let data_shards: Vec<&[u8]> = padded.chunks(shard_len).collect();
    let stripe = ReedSolomon::new(6, 2)
        .expect("codec")
        .encode(&data_shards)
        .expect("encode");
    for (pos, shard) in stripe.iter().enumerate() {
        let mut brick = BrickClient::connect(cluster.addrs()[pos], Duration::from_millis(300))
            .expect("connect behind the gateway");
        brick.put_shard(1, pos as u32, shard).expect("put shard");
    }
    let export = format!(
        "nsr-net-meta/v1\nobject 1 len {PAGE_BYTES} shard_len {shard_len} layout 0,1,2,3,4,5,6,7\n"
    );
    cluster
        .gw
        .import_meta(&export)
        .expect("a full-width export");
    assert_eq!(cluster.gw.export_meta(), export);
    assert_eq!(cluster.gw.get(1).expect("get"), (data, ReadMode::Healthy));
    let data = payload(2, PAGE_BYTES);
    cluster.gw.put(1, &data).expect("overwrite");
    assert_eq!(cluster.gw.object_layout(1).expect("layout").len(), 3);
    assert_eq!(cluster.gw.get(1).expect("get"), (data, ReadMode::Healthy));
    assert_exact_inventories(&cluster, "after the overwrite");
}

/// A one-page object is `t + 1` whole copies, and takes every fault path
/// a full-width object takes: read around `t` dead copies, re-copied onto
/// spares, restored in place by a scrub, and lost — typed — at `t + 1`.
#[test]
fn a_one_page_object_is_t_plus_one_copies_through_every_fault_path() {
    let mut cluster = cluster(9, 6, 2);
    let data = payload(4, PAGE_BYTES);
    cluster.gw.put(4, &data).expect("put");
    let layout = cluster.gw.object_layout(4).expect("layout");
    assert_eq!(layout.len(), 3, "t + 1 copies");
    for (pos, &brick) in layout.iter().enumerate() {
        let mut client =
            BrickClient::connect(cluster.addrs()[brick as usize], Duration::from_millis(300))
                .expect("connect behind the gateway");
        assert_eq!(
            client.get_shard(4, pos as u32).expect("copy"),
            data,
            "pos {pos}"
        );
    }

    // t copies' bricks die, the data copy among them: the read rebuilds
    // it from the last copy, and a repair pass re-copies both onto spares.
    cluster.kill(layout[0] as usize).expect("kill");
    cluster.kill(layout[1] as usize).expect("kill");
    assert_eq!(
        cluster.gw.get(4).expect("degraded get"),
        (data.clone(), ReadMode::Degraded)
    );
    let report = cluster.gw.repair_all().expect("repair");
    assert_eq!(report.shards_moved, 2);
    assert_eq!(report.bytes_moved, 2 * PAGE_BYTES as u64);
    assert_eq!(report.objects_repaired, 1);
    assert_eq!(report.lost_objects, Vec::<u64>::new());
    assert_eq!(report.deferred_objects, Vec::<u64>::new());
    let repaired = cluster.gw.object_layout(4).expect("layout");
    assert_eq!(repaired[2], layout[2], "the surviving copy stays");
    assert!(!repaired.contains(&layout[0]) && !repaired.contains(&layout[1]));
    assert_eq!(
        cluster.gw.get(4).expect("get after repair"),
        (data.clone(), ReadMode::Healthy)
    );
    assert_exact_inventories(&cluster, "after the repair");

    // One copy's brick comes back empty, still in the layout: the read is
    // degraded until a scrub writes the copy back in place.
    let emptied = repaired[0] as usize;
    cluster.kill(emptied).expect("kill");
    cluster.rejoin(emptied).expect("rejoin");
    assert_eq!(
        cluster.gw.get(4).expect("get with a copy missing"),
        (data.clone(), ReadMode::Degraded)
    );
    let scrub = cluster.gw.scrub_repair().expect("scrub");
    assert_eq!((scrub.shards_moved, scrub.objects_repaired), (1, 1));
    assert_eq!(cluster.gw.object_layout(4), Some(repaired.clone()));
    assert_eq!(
        cluster.gw.get(4).expect("get after scrub"),
        (data, ReadMode::Healthy)
    );
    assert_exact_inventories(&cluster, "after the scrub");

    // t + 1 copies gone: a typed loss, on reads and in the repair report.
    for &brick in &repaired {
        cluster.kill(brick as usize).expect("kill");
    }
    assert_eq!(
        cluster.gw.get(4),
        Err(Error::DataLoss {
            object: 4,
            missing: 3,
            tolerated: 2
        })
    );
    assert_eq!(
        cluster.gw.repair_all().expect("repair").lost_objects,
        vec![4]
    );
}
