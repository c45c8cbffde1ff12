//! Property tests for the pipelined shard fan-out: the fast path must
//! be observably identical to the serial per-shard reference path.
//!
//! The same seeded script — puts of varying sizes, a seeded brick kill,
//! degraded gets, post-kill puts — runs once with `fanout: true` and
//! once with `fanout: false` at each pool size, and the full transcript
//! (returned bytes AND `ReadMode` per get) must match entry for entry.
//! Both clusters share the jitter seed, so layouts are identical and
//! the only variable is the serving path.
//!
//! A second read script covers every shape a get can take — object
//! lengths from empty to a padded 1 MiB stripe, the large ones also at
//! layouts that wrap past the last brick, crossed with which shards are
//! out of reach and how the gateway finds out — and holds bytes,
//! `ReadMode` and the typed loss past `t` to the serial path and to the
//! payload.
//!
//! The repair path gets the same treatment: a kill script — detected
//! deaths, deaths the detector has not seen yet (a source or a spare
//! that stops serving mid-pass), an emptied brick rejoining — runs in
//! both modes, and every `repair_all` / `scrub_repair` result, the
//! `export_meta()` text and every brick's `list_shards()` must match
//! after each step.
//!
//! Repair works through objects in windows (up to 32 objects each at the
//! sizes used here), so the last three repair cases run over more than
//! three windows' worth of damaged objects: a clean pass, and passes cut
//! by a source or a spare that stops serving at the 41st damaged object,
//! inside the second window. Every interrupted pass must leave its
//! checkpoint equal to the shards it committed and no shard on any
//! running brick that the committed layout does not point at.

use std::time::Duration;

use nsr_net::client::BrickClient;
use nsr_net::detector::DetectorConfig;
use nsr_net::gateway::{
    data_shards_for, Gateway, GatewayConfig, ReadMode, RepairReport, RetryPolicy, PAGE_BYTES,
};
use nsr_net::local::{ClusterState, LocalCluster, Pace};
use nsr_net::Error;

fn cluster(
    bricks: usize,
    data: usize,
    parity: usize,
    fanout: bool,
    pool_size: usize,
) -> LocalCluster {
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
    cfg.jitter_seed = 77;
    cfg.fanout = fanout;
    cfg.pool_size = pool_size;
    let c = LocalCluster::start(bricks, cfg, Pace::Mock).expect("cluster");
    for _ in 0..10 {
        c.pump();
    }
    c
}

/// Shard positions whose committed home differs from `before`.
fn moved_since(gw: &Gateway, before: &[(u64, Vec<u32>)]) -> u64 {
    before
        .iter()
        .map(|(object, old)| {
            let now = gw.object_layout(*object).expect("layout");
            old.iter().zip(&now).filter(|(a, b)| a != b).count() as u64
        })
        .sum()
}

fn layouts(gw: &Gateway) -> Vec<(u64, Vec<u32>)> {
    gw.object_ids()
        .into_iter()
        .map(|o| (o, gw.object_layout(o).expect("layout")))
        .collect()
}

/// Deterministic per-object payload with a length that exercises both
/// sub-shard objects and multi-KiB stripes, including lengths that are
/// not multiples of `k`. Objects shorter than `k` pages are stored
/// narrower than `k + t`.
fn payload(object: u64) -> Vec<u8> {
    patterned(object, 37 + (object as usize * 7919) % (48 * 1024))
}

/// `payload`'s bytes at least three pages long: at `k` ≤ 3, as in every
/// repair script that names layouts or counts deferrals, each object keeps
/// the full `k + t` width.
fn wide_payload(object: u64) -> Vec<u8> {
    patterned(
        object,
        3 * PAGE_BYTES + (object as usize * 7919) % (48 * 1024),
    )
}

fn patterned(object: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (object as usize).wrapping_mul(31).wrapping_add(i * 131) as u8)
        .collect()
}

/// Runs the seeded script against one cluster and records every get as
/// `(object, bytes, mode)`. The kill victim comes from a seeded LCG so
/// the schedule is data-driven, not hand-picked — and identical across
/// the fanout and serial runs being compared.
fn transcript(fanout: bool, pool_size: usize) -> Vec<(u64, Vec<u8>, ReadMode)> {
    let mut c = cluster(4, 2, 1, fanout, pool_size);
    for object in 1..=8u64 {
        c.gw.put(object, &payload(object)).expect("put");
    }
    let mut out = Vec::new();
    for object in 1..=8u64 {
        let (data, mode) = c.gw.get(object).expect("healthy get");
        out.push((object, data, mode));
    }
    // Seeded kill schedule: one victim drawn from an LCG.
    let mut lcg: u64 = 0xD5;
    lcg = lcg
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let victim = ((lcg >> 33) % 4) as usize;
    c.kill(victim).expect("kill");
    for object in 1..=8u64 {
        let (data, mode) = c.gw.get(object).expect("post-kill get");
        out.push((object, data, mode));
    }
    // Puts keep working with a dead brick: layouts route around it.
    for object in 9..=11u64 {
        c.gw.put(object, &payload(object)).expect("post-kill put");
        let (data, mode) = c.gw.get(object).expect("post-kill read-back");
        out.push((object, data, mode));
    }
    out
}

#[test]
fn fanout_transcript_is_identical_to_serial_at_every_pool_size() {
    let reference = transcript(false, 1);
    // The reference itself must round-trip every payload.
    for (object, data, _) in &reference {
        assert_eq!(data, &payload(*object), "object {object} bytes");
    }
    for pool_size in [1usize, 2, 8] {
        let fast = transcript(true, pool_size);
        assert_eq!(fast.len(), reference.len());
        for ((obj_a, data_a, mode_a), (obj_b, data_b, mode_b)) in reference.iter().zip(&fast) {
            assert_eq!(obj_a, obj_b, "pool_size = {pool_size}");
            assert_eq!(
                data_a, data_b,
                "object {obj_a} bytes, pool_size = {pool_size}"
            );
            assert_eq!(
                mode_a, mode_b,
                "object {obj_a} read mode, pool_size = {pool_size}"
            );
        }
    }
}

#[test]
fn fanout_degraded_read_survives_exactly_t_dead_bricks() {
    // 2 data + 2 parity on six bricks: t = 2, so killing exactly two
    // layout bricks is the worst still-recoverable case. Kill the two
    // *data* holders so the read is a full parity reconstruction.
    let mut c = cluster(6, 2, 2, true, 2);
    let want = wide_payload(1);
    c.gw.put(1, &want).expect("put");
    let layout = c.gw.object_layout(1).expect("layout");
    assert_eq!(layout.len(), 4);
    let (d0, d1) = (layout[0] as usize, layout[1] as usize);
    c.kill(d0).expect("kill");
    c.kill(d1).expect("kill");
    let (data, mode) = c.gw.get(1).expect("degraded get at t dead");
    assert_eq!(data, want);
    assert_eq!(mode, ReadMode::Degraded);
}

/// Geometry of the read-shape matrix: 3 + 2 on exactly five bricks.
/// Object `o` is laid out from brick `o mod 5` on, wrapping past brick 4
/// to brick 0 (`brick_of`), over `k' + t` bricks, where `k'` is the
/// width rule's for the object's length: all five from three pages up.
/// The shapes sit at multiples of five, so their layouts are `[0, 1, ..,
/// k' + t - 1]` — bricks `0..k'` hold data, the next `t` parity — and the
/// wrapped shapes at every other start.
const K: usize = 3;
const T: usize = 2;

/// Empty, one to `K` bytes, one and a half pages, both sides of every
/// width boundary (one data shard below two pages, two below three, three
/// from there, the last with a ragged tail), a padded tail past 64 KiB,
/// and shards larger than any socket read buffer.
const SHAPE_LENS: [usize; 14] = [
    0,
    1,
    K - 1,
    K,
    PAGE_BYTES - 1,
    PAGE_BYTES,
    6 * 1024,
    2 * PAGE_BYTES - 1,
    2 * PAGE_BYTES,
    K * PAGE_BYTES - 1,
    K * PAGE_BYTES,
    K * PAGE_BYTES + 1,
    64 * 1024 + 1,
    1024 * 1024 + 3,
];

/// The shapes stored once more at every layout that wraps: position
/// order is then not brick order, so a get that read its data shards in
/// brick order, or landed one in the slice of another, shows.
const WRAPPED_LENS: [usize; 2] = [64 * 1024 + 1, 1024 * 1024 + 3];

/// The brick holding position `pos` of `object`.
fn brick_of(object: u64, pos: usize) -> usize {
    (object as usize + pos) % (K + T)
}

/// Every object the shape matrix stores, with its length: each shape
/// from brick 0, then each wrapped shape from bricks 1 to 4.
fn shape_objects() -> Vec<(u64, usize)> {
    let n = (K + T) as u64;
    let plain = SHAPE_LENS.iter().zip(0..).map(|(&len, i)| (i * n, len));
    let wrapped = WRAPPED_LENS
        .iter()
        .zip(SHAPE_LENS.len() as u64..)
        .flat_map(|(&len, i)| (1..n).map(move |start| (i * n + start, len)));
    plain.chain(wrapped).collect()
}

/// What is out of reach when the reads run.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// These bricks are dead and the detector knows it.
    Down(&'static [usize]),
    /// Data position 1 of every object was deleted on its brick behind
    /// the gateway's back: the brick is healthy, so the miss is a
    /// `ShardNotFound` in the middle of the fan-out.
    Deleted,
}

/// Unlike `payload`, the bytes do not repeat with period 256, so the
/// shards of one object differ even at power-of-two shard lengths and a
/// shard landed in the wrong slice of the result shows.
fn shaped_payload(object: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (object as usize)
                .wrapping_mul(17)
                .wrapping_add(i * 29 + i / 251) as u8
        })
        .collect()
}

type ReadOutcome = Result<(Vec<u8>, ReadMode), Error>;

/// Stores every object of `shape_objects`, applies `fault`, reads each
/// back: `(object, length, outcome)`.
fn shapes_transcript(
    fanout: bool,
    pool_size: usize,
    fault: Fault,
) -> Vec<(u64, usize, ReadOutcome)> {
    let mut c = cluster(K + T, K, T, fanout, pool_size);
    let objects = shape_objects();
    for &(object, len) in &objects {
        c.gw.put(object, &shaped_payload(object, len)).expect("put");
        let width = data_shards_for(len, K) + T;
        let layout = (0..width).map(|pos| brick_of(object, pos) as u32).collect();
        assert_eq!(c.gw.object_layout(object), Some(layout));
    }
    match fault {
        Fault::Down(bricks) => bricks.iter().for_each(|&id| {
            c.kill(id).expect("kill");
        }),
        Fault::Deleted => {
            for &(object, _) in &objects {
                let addr = c.addrs()[brick_of(object, 1)];
                let mut brick = BrickClient::connect(addr, Duration::from_millis(300))
                    .expect("connect behind the gateway");
                brick.delete_shard(object, 1).expect("delete");
            }
        }
    }
    objects
        .iter()
        .map(|&(object, len)| (object, len, c.gw.get(object)))
        .collect()
}

/// What a get of the `len`-byte `object` returns under `fault`, from its
/// layout alone: more than `t` of its positions out of reach is a typed
/// loss, and a read is degraded when a data position is out of reach.
fn expected(object: u64, len: usize, fault: Fault) -> ReadOutcome {
    let k = data_shards_for(len, K);
    let out: Vec<usize> = match fault {
        Fault::Down(bricks) => (0..k + T)
            .filter(|&pos| bricks.contains(&brick_of(object, pos)))
            .collect(),
        Fault::Deleted => vec![1],
    };
    if out.len() > T {
        return Err(Error::DataLoss {
            object,
            missing: out.len(),
            tolerated: T,
        });
    }
    let mode = if out.iter().any(|&pos| pos < k) {
        ReadMode::Degraded
    } else {
        ReadMode::Healthy
    };
    Ok((shaped_payload(object, len), mode))
}

#[test]
fn get_matches_serial_on_every_shape_at_every_pool_size() {
    // The read mode of every full-width (k + t) object laid out from
    // brick 0 under each fault; narrower and wrapped objects read as
    // `expected` derives from their layout.
    let readable = [
        (Fault::Down(&[]), ReadMode::Healthy),
        (Fault::Down(&[0]), ReadMode::Degraded),
        (Fault::Down(&[1]), ReadMode::Degraded),
        (Fault::Down(&[2]), ReadMode::Degraded),
        (Fault::Down(&[0, 2]), ReadMode::Degraded),
        (Fault::Down(&[1, 4]), ReadMode::Degraded),
        // Parity alone out of reach: nothing to reconstruct.
        (Fault::Down(&[3, 4]), ReadMode::Healthy),
        (Fault::Deleted, ReadMode::Degraded),
    ];
    for (fault, mode) in readable {
        let reference = shapes_transcript(false, 1, fault);
        for (object, len, got) in &reference {
            let want = expected(*object, *len, fault);
            if data_shards_for(*len, K) == K && brick_of(*object, 0) == 0 {
                assert!(
                    want == Ok((shaped_payload(*object, *len), mode)),
                    "{fault:?}, {len}-byte object: the full-width mode"
                );
            }
            assert!(
                got == &want,
                "{fault:?}, {len}-byte object {object}, serial"
            );
        }
        for pool_size in [1usize, 2, 8] {
            let fast = shapes_transcript(true, pool_size, fault);
            assert!(fast == reference, "{fault:?}, pool_size = {pool_size}");
        }
    }
    // One brick past t of a full-width layout: a typed loss with the
    // same accounting both ways (a narrower layout holds fewer of these
    // bricks, and reads or loses as `expected` says).
    for fault in [Fault::Down(&[0, 1, 2]), Fault::Down(&[1, 3, 4])] {
        let reference = shapes_transcript(false, 1, fault);
        for (object, len, got) in &reference {
            let want = expected(*object, *len, fault);
            if data_shards_for(*len, K) == K {
                let lost = Err(Error::DataLoss {
                    object: *object,
                    missing: T + 1,
                    tolerated: T,
                });
                assert_eq!(
                    want, lost,
                    "{fault:?}, {len}-byte object {object}: the full-width loss"
                );
            }
            assert!(
                got == &want,
                "{fault:?}, {len}-byte object {object}, serial"
            );
        }
        for pool_size in [1usize, 2, 8] {
            let fast = shapes_transcript(true, pool_size, fault);
            assert_eq!(fast, reference, "{fault:?}, pool_size = {pool_size}");
        }
    }
}

/// One repair-path step: what the call returned and what it left behind.
type RepairStep = (Result<RepairReport, Error>, ClusterState);

/// Runs `script` in the serial reference mode and with the fan-out at
/// pool sizes 1, 2 and 8, and requires identical steps. Returns the
/// reference steps for scenario-specific assertions.
fn assert_repair_parity(script: impl Fn(bool, usize) -> Vec<RepairStep>) -> Vec<RepairStep> {
    let reference = script(false, 1);
    for pool_size in [1usize, 2, 8] {
        let fast = script(true, pool_size);
        assert_eq!(fast.len(), reference.len());
        for (step, (want, got)) in reference.iter().zip(&fast).enumerate() {
            assert_eq!(want, got, "step {step}, pool_size = {pool_size}");
        }
    }
    reference
}

/// Every object reads back healthy with its own bytes.
fn assert_all_healthy(c: &LocalCluster, bytes: fn(u64) -> Vec<u8>) {
    for object in c.gw.object_ids() {
        let (data, mode) = c.gw.get(object).expect("get after repair");
        assert_eq!(data, bytes(object), "object {object} bytes");
        assert_eq!(mode, ReadMode::Healthy, "object {object}");
    }
}

/// Every shard a running brick holds is one the committed layout points
/// at: nothing a pass wrote and did not commit is left behind.
fn assert_no_orphans(c: &LocalCluster) {
    let (_, inventories) = c.state().expect("state");
    for (brick, inventory) in inventories.iter().enumerate() {
        for &(object, pos) in inventory.iter().flatten() {
            let layout = c.gw.object_layout(object).expect("layout");
            assert_eq!(
                layout[pos as usize], brick as u32,
                "orphan shard ({object}, {pos}) on brick {brick}"
            );
        }
    }
}

/// 2+2 over ten bricks, object `o` laid out `[o, o+1, o+2, o+3] mod 10`.
/// Bricks 0 and 1 die and are detected; `silent` bricks stop without a
/// detector round just before the pass. Steps: the first pass, then —
/// once detection has caught up — the resumed pass.
fn interrupted_repair(
    fanout: bool,
    pool_size: usize,
    objects: &[u64],
    bytes: fn(u64) -> Vec<u8>,
    silent: &[usize],
) -> Vec<RepairStep> {
    let mut c = cluster(10, 2, 2, fanout, pool_size);
    for &object in objects {
        c.gw.put(object, &bytes(object)).expect("put");
    }
    let before = layouts(&c.gw);
    c.kill(0).expect("kill");
    c.kill(1).expect("kill");
    for &id in silent {
        c.stop(id).expect("stop");
    }
    let first = c.gw.repair_all();
    let checkpoint = match &first {
        Err(Error::RebuildInterrupted { resumed_from }) => *resumed_from,
        other => panic!("expected RebuildInterrupted, got {other:?}"),
    };
    assert!(checkpoint > 0, "the pass was cut mid-way, not at its start");
    assert_eq!(
        checkpoint,
        moved_since(&c.gw, &before),
        "checkpoint equals shards committed"
    );
    assert_no_orphans(&c);
    let mut steps = vec![(first, c.state().expect("state"))];
    for &id in silent {
        c.kill(id).expect("kill");
    }
    let resumed = c.gw.repair_all();
    let report = resumed.as_ref().expect("resumed pass");
    assert_eq!(report.resumed_from, checkpoint);
    assert_no_orphans(&c);
    steps.push((resumed, c.state().expect("state")));
    steps
}

#[test]
fn clean_repair_matches_serial_at_every_pool_size() {
    // 3+2 over eight bricks: two detected deaths leave objects with one
    // and with two lost shards, and three spares to rotate over.
    fn script(fanout: bool, pool_size: usize) -> Vec<RepairStep> {
        let mut c = cluster(8, 3, 2, fanout, pool_size);
        for object in 1..=12u64 {
            c.gw.put(object, &payload(object)).expect("put");
        }
        c.kill(2).expect("kill");
        c.kill(3).expect("kill");
        let repaired = c.gw.repair_all();
        assert_all_healthy(&c, payload);
        vec![(repaired, c.state().expect("state"))]
    }
    let reference = assert_repair_parity(script);
    let report = reference[0].0.as_ref().expect("clean pass");
    assert!(
        report.shards_moved > report.objects_repaired,
        "some objects lost two shards"
    );
    assert_eq!(report.lost_objects, Vec::<u64>::new());
    assert_eq!(report.deferred_objects, Vec::<u64>::new());
}

#[test]
fn repair_interrupted_by_a_source_death_matches_serial_and_resumes() {
    // Bricks 7 and 8 are obj7's primary sources (layout [7, 8, 9, 0])
    // and nobody's spare before it: obj0 repairs, obj7 cannot reach k.
    fn script(fanout: bool, pool_size: usize) -> Vec<RepairStep> {
        let objects: Vec<u64> = (0..10).collect();
        interrupted_repair(fanout, pool_size, &objects, wide_payload, &[7, 8])
    }
    let reference = assert_repair_parity(script);
    let resumed = reference[1].0.as_ref().expect("resumed pass");
    assert!(
        resumed.shards_moved > 0,
        "the resumed pass finishes the work"
    );
}

#[test]
fn repair_interrupted_by_a_spare_death_matches_serial_and_resumes() {
    // Brick 6 is no affected object's source. With obj1 left out it is
    // first met as the *first* of obj9's two targets (6, 7): the fan-out
    // has already landed the second shard on brick 7 when the first
    // fails, and must take it back to leave what the serial path leaves.
    fn script(fanout: bool, pool_size: usize) -> Vec<RepairStep> {
        let objects: Vec<u64> = (0..10).filter(|&o| o != 1).collect();
        interrupted_repair(fanout, pool_size, &objects, wide_payload, &[6])
    }
    let reference = assert_repair_parity(script);
    let (interrupted, (_, inventories)) = &reference[0];
    assert_eq!(
        interrupted,
        &Err(Error::RebuildInterrupted { resumed_from: 5 })
    );
    let on_seven = inventories[7].as_ref().expect("brick 7 runs");
    assert!(
        !on_seven.contains(&(9, 2)),
        "uncommitted shard left on brick 7"
    );
    let resumed = reference[1].0.as_ref().expect("resumed pass");
    assert_eq!(resumed.lost_objects, Vec::<u64>::new());
}

#[test]
fn scrub_after_an_emptied_brick_rejoins_matches_serial() {
    // 2+2 over five bricks leaves one spare, so with bricks 0 and 1 dead
    // the repair pass can only defer; both come back empty, are adopted,
    // and the scrub re-creates one or two shards per object in place.
    fn script(fanout: bool, pool_size: usize) -> Vec<RepairStep> {
        let mut c = cluster(5, 2, 2, fanout, pool_size);
        for object in 0..10u64 {
            c.gw.put(object, &wide_payload(object)).expect("put");
        }
        c.kill(0).expect("kill");
        c.kill(1).expect("kill");
        let mut steps = vec![(c.gw.repair_all(), c.state().expect("state"))];
        c.rejoin(0).expect("rejoin");
        c.rejoin(1).expect("rejoin");
        steps.push((c.gw.scrub_repair(), c.state().expect("state")));
        assert_all_healthy(&c, wide_payload);
        steps.push((c.gw.scrub_repair(), c.state().expect("state")));
        steps
    }
    let reference = assert_repair_parity(script);
    let deferred = reference[0].0.as_ref().expect("repair pass");
    assert_eq!(deferred.shards_moved, 0, "nowhere to move shards to");
    assert_eq!(deferred.deferred_objects.len(), 10);
    let scrub = reference[1].0.as_ref().expect("scrub");
    assert_eq!(scrub.objects_repaired, 10);
    assert!(scrub.shards_moved > 10, "some objects lost two shards");
    let idle = reference[2].0.as_ref().expect("idle scrub");
    assert_eq!(idle.shards_moved, 0);
}

/// Length of every object in the multi-window cases: 2+2 stripes of
/// 8 KiB shards, so a window holds its object limit, not its byte budget.
const WINDOW_OBJECT_BYTES: usize = 16 * 1024;

/// Damaged objects repaired before the death is met: one window of 32
/// and eight more, so the 41st is inside the second window.
const BEFORE_DEATH: usize = 40;

fn window_payload(object: u64) -> Vec<u8> {
    shaped_payload(object, WINDOW_OBJECT_BYTES)
}

/// One damaged object of the `interrupted_repair` geometry: its layout
/// before bricks 0 and 1 die, and after a clean serial pass moved it.
struct Move {
    object: u64,
    before: Vec<u32>,
    after: Vec<u32>,
}

impl Move {
    fn lost(&self) -> Vec<usize> {
        (0..self.before.len())
            .filter(|&pos| self.before[pos] < 2)
            .collect()
    }

    fn touches(&self, brick: u32) -> bool {
        self.before.contains(&brick) || self.after.contains(&brick)
    }
}

/// Where a clean serial pass moves every damaged object among `objects`.
/// A layout and a spare depend only on the object id and on which bricks
/// are healthy, so these moves hold for any subset of the objects.
fn clean_moves(objects: std::ops::Range<u64>) -> Vec<Move> {
    let mut c = cluster(10, 2, 2, false, 1);
    for object in objects {
        c.gw.put(object, &window_payload(object)).expect("put");
    }
    let before = layouts(&c.gw);
    c.kill(0).expect("kill");
    c.kill(1).expect("kill");
    c.gw.repair_all().expect("clean pass");
    before
        .into_iter()
        .filter(|(_, layout)| layout.iter().any(|&b| b < 2))
        .map(|(object, before)| Move {
            object,
            after: c.gw.object_layout(object).expect("layout"),
            before,
        })
        .collect()
}

/// A pass that meets a silent brick at its 41st damaged object.
struct SecondWindowCut {
    /// The objects to store, ascending.
    objects: Vec<u64>,
    /// The brick that stops serving just before the pass.
    silent: usize,
    /// Shards the objects before the cut move.
    committed: u64,
}

/// Picks a silent brick and the objects to store: `BEFORE_DEATH` damaged
/// objects that never touch the brick, then the first later one that
/// `fatal` accepts, then ten more that do not touch it (the rest of the
/// second window, none of whose writes may outlive the cut).
fn second_window_cut(fatal: impl Fn(&Move, u32) -> bool) -> SecondWindowCut {
    let moves = clean_moves(0..400);
    for brick in 2..10u32 {
        let clear = |m: &&Move| !m.touches(brick);
        let first: Vec<&Move> = moves.iter().filter(clear).take(BEFORE_DEATH).collect();
        let last = first.last().expect("damaged objects").object;
        let Some(victim) = moves.iter().find(|m| m.object > last && fatal(m, brick)) else {
            continue;
        };
        let rest: Vec<u64> = moves
            .iter()
            .filter(|m| m.object > victim.object)
            .filter(clear)
            .take(10)
            .map(|m| m.object)
            .collect();
        if first.len() < BEFORE_DEATH || rest.len() < 10 {
            continue;
        }
        let mut objects: Vec<u64> = first.iter().map(|m| m.object).collect();
        objects.push(victim.object);
        objects.extend(rest);
        return SecondWindowCut {
            objects,
            silent: brick as usize,
            committed: first.iter().map(|m| m.lost().len() as u64).sum(),
        };
    }
    panic!("no brick fits the cut");
}

#[test]
fn multi_window_clean_repair_matches_serial() {
    // 130 damaged objects: more than three windows of 32.
    fn script(fanout: bool, pool_size: usize) -> Vec<RepairStep> {
        let mut c = cluster(10, 2, 2, fanout, pool_size);
        for object in 0..260u64 {
            c.gw.put(object, &window_payload(object)).expect("put");
        }
        let before = layouts(&c.gw);
        c.kill(0).expect("kill");
        c.kill(1).expect("kill");
        let repaired = c.gw.repair_all();
        let report = repaired.as_ref().expect("clean pass");
        assert_eq!(
            report.shards_moved,
            moved_since(&c.gw, &before),
            "every shard moved is committed"
        );
        assert_no_orphans(&c);
        assert_all_healthy(&c, window_payload);
        vec![(repaired, c.state().expect("state"))]
    }
    let reference = assert_repair_parity(script);
    let report = reference[0].0.as_ref().expect("clean pass");
    assert_eq!(report.objects_repaired, 130);
    assert!(report.shards_moved > report.objects_repaired);
}

#[test]
fn multi_window_repair_cut_by_a_source_death_matches_serial_and_resumes() {
    // The victim lost two shards, so its other two positions are its only
    // sources, and the silent brick is one of them.
    let cut = second_window_cut(|m, brick| m.lost().len() == 2 && m.before.contains(&brick));
    let reference = assert_repair_parity(|fanout, pool_size| {
        interrupted_repair(
            fanout,
            pool_size,
            &cut.objects,
            window_payload,
            &[cut.silent],
        )
    });
    assert_eq!(
        reference[0].0,
        Err(Error::RebuildInterrupted {
            resumed_from: cut.committed
        }),
        "cut at the 41st damaged object"
    );
    let resumed = reference[1].0.as_ref().expect("resumed pass");
    assert!(resumed.shards_moved > 0);
}

#[test]
fn multi_window_repair_cut_by_a_spare_death_matches_serial_and_resumes() {
    // The victim lost two shards and its first goes to the silent brick:
    // the second lands on its own spare before the first one fails.
    let cut = second_window_cut(|m, brick| {
        let lost = m.lost();
        lost.len() == 2 && m.after[lost[0]] == brick
    });
    let reference = assert_repair_parity(|fanout, pool_size| {
        interrupted_repair(
            fanout,
            pool_size,
            &cut.objects,
            window_payload,
            &[cut.silent],
        )
    });
    assert_eq!(
        reference[0].0,
        Err(Error::RebuildInterrupted {
            resumed_from: cut.committed
        }),
        "cut at the 41st damaged object"
    );
    let resumed = reference[1].0.as_ref().expect("resumed pass");
    assert_eq!(resumed.lost_objects, Vec::<u64>::new());
}

/// One serving step: what a get or put returned and what it left behind.
type ServeStep<T> = (u64, Result<T, Error>, ClusterState);

/// Runs `script` in the serial reference mode and with the fan-out at
/// pool sizes 1, 2 and 8, and requires identical steps. Returns the
/// reference steps.
fn assert_serve_parity<T: PartialEq + std::fmt::Debug>(
    script: impl Fn(bool, usize) -> Vec<ServeStep<T>>,
) -> Vec<ServeStep<T>> {
    let reference = script(false, 1);
    for pool_size in [1usize, 2, 8] {
        let fast = script(true, pool_size);
        assert_eq!(fast.len(), reference.len());
        for (want, got) in reference.iter().zip(&fast) {
            assert_eq!(want, got, "object {}, pool_size = {pool_size}", want.0);
        }
    }
    reference
}

#[test]
fn a_get_around_a_data_brick_stopped_unseen_matches_serial() {
    // 3+2 over six bricks; brick 1 stops before the detector notices, so
    // every get still asks it. Object `o` is laid out from brick `o mod
    // 6`: brick 1 holds a data position of objects 0, 1 and 5 (object 0's
    // shards are larger than a socket read buffer, so its get reads one
    // brick ahead and its miss sits between two appended shards), a
    // parity position of objects 3 and 4, and nothing of object 2. The
    // round misses the shard, its retry fails, and parity makes it up.
    const STOPPED: u32 = 1;
    let len = |object: u64| match object {
        0 => 1024 * 1024 + 3,
        _ => K * PAGE_BYTES + 1,
    };
    let script = |fanout: bool, pool_size: usize| {
        let mut c = cluster(K + T + 1, K, T, fanout, pool_size);
        for object in 0..6u64 {
            c.gw.put(object, &shaped_payload(object, len(object)))
                .expect("put");
        }
        c.stop(STOPPED as usize).expect("stop");
        (0..6u64)
            .map(|object| (object, c.gw.get(object), c.state().expect("state")))
            .collect()
    };
    let reference = assert_serve_parity(script);
    for (object, got, _) in &reference {
        let (data, mode) = got.as_ref().expect("one brick out of reach");
        assert!(
            data == &shaped_payload(*object, len(*object)),
            "object {object} bytes"
        );
        let stopped_at = (0..K + T).find(|pos| (*object as usize + pos) % (K + T + 1) == 1);
        let want = match stopped_at {
            Some(pos) if pos < K => ReadMode::Degraded,
            _ => ReadMode::Healthy,
        };
        assert_eq!(*mode, want, "object {object}");
    }
}

#[test]
fn a_put_of_fresh_keys_around_two_bricks_stopped_unseen_matches_serial() {
    // 3+2; bricks 1 and 3 stop before the detector notices, so the first
    // layout of every put below names both, and both miss in one round.
    // The put rules out every failed brick and lays the object out again,
    // until it lands or too few bricks are left: over eight bricks the
    // second layout lands; over six the first layout's error returns. Either way no shard of a layout that failed
    // stays behind. Fresh keys only: a failed overwrite deletes the old
    // version's shards, a known loss that this test leaves out.
    fn script(bricks: usize, fanout: bool, pool_size: usize) -> Vec<ServeStep<Vec<u32>>> {
        let mut c = cluster(bricks, K, T, fanout, pool_size);
        c.stop(1).expect("stop");
        c.stop(3).expect("stop");
        // Objects 0 and 1 start their first layout at brick 0 and 1: both
        // name bricks 1 and 3.
        (0..2u64)
            .map(|object| {
                let data = shaped_payload(object, K * PAGE_BYTES + 1);
                let put = c.gw.put(object, &data).map(|()| {
                    assert_eq!(c.gw.get(object).expect("get").0, data);
                    c.gw.object_layout(object).expect("layout")
                });
                (object, put, c.state().expect("state"))
            })
            .collect()
    }
    let landed = assert_serve_parity(|fanout, pool_size| script(8, fanout, pool_size));
    for (object, put, (_, inventories)) in &landed {
        let layout = put.as_ref().expect("the second layout lands");
        assert!(!layout.contains(&1) && !layout.contains(&3), "{layout:?}");
        for (brick, inventory) in inventories.iter().enumerate() {
            let held = inventory
                .iter()
                .flatten()
                .filter(|(o, _)| o == object)
                .count();
            let want = usize::from(layout.contains(&(brick as u32)));
            assert_eq!(held, want, "object {object} on brick {brick}");
        }
    }
    let failed = assert_serve_parity(|fanout, pool_size| script(6, fanout, pool_size));
    for (object, put, (meta, inventories)) in &failed {
        assert!(
            matches!(
                put,
                Err(Error::RetriesExhausted {
                    op: "put_shard",
                    ..
                })
            ),
            "object {object}: {put:?}"
        );
        assert!(!meta.contains(&format!("object {object} ")));
        assert!(inventories
            .iter()
            .flatten()
            .flatten()
            .all(|(o, _)| o != object));
    }
}
