//! Fleet-scale discrete-event simulation of brick storage.
//!
//! [`crate::system`] simulates *one* redundancy cell to data loss with an
//! O(outstanding) scan per event — fine for a 64-node system, hopeless for
//! a fleet. This module rebuilds the engine around the structures a fleet
//! needs:
//!
//! * **One event queue per cell** ([`EventQueue`]): events are keyed by
//!   `(f64 time, u64 sequence)` — time ordered by `f64::total_cmp`, ties
//!   broken by a monotone per-cell sequence number — so the processing
//!   order is a pure function of the pushed events, never of HashMap
//!   iteration or thread interleaving. No event in one cell reads or
//!   writes another cell's state, so each cell runs to the horizon on its
//!   own queue (a few hundred entries), one cell after another.
//! * **Repair lanes beside the heap**: §5.1 makes a rebuild a fixed
//!   amount of work at a fixed rate, so every node rebuild takes the same
//!   time, as does every drive rebuild. The clock never runs backwards,
//!   so the completions of one class are pushed in time order: each class
//!   gets a FIFO lane of the cell's queue instead of a heap slot. Lanes
//!   share the heap's sequence counter and a pop takes the least
//!   `(time, seq)` of heap top and lane fronts, so the pop order is the
//!   heap-only order bit for bit; about half of a decade's pops skip the
//!   heap. A lane push out of time order is a typed error
//!   ([`Error::LaneOutOfOrder`]), not a silent reorder.
//! * **Per-entity state**: every node and drive owns a failure clock, an
//!   incarnation counter (for O(1) lazy cancellation of stale events),
//!   and a down flag. No `Vec` scans. The state is one cell's worth
//!   (832 entities at the §6 baseline, ~11 KiB), reused from cell to
//!   cell, so it and the queue stay in L1/L2 whatever the fleet size.
//! * **Counter-based draws** ([`nsr_rng::CounterRng`]): each entity draws
//!   from its own stateless stream, indexed by a private counter. A
//!   cell's trajectory therefore depends only on `(seed, cell)` — *not*
//!   on which worker simulates it — which is what makes a same-seed run
//!   **byte-identical at any worker count** (the determinism tests pin
//!   workers 1/4/16 to identical outcomes and canonical traces).
//! * **Horizon pruning**: events past the mission end are never pushed.
//!   At baseline MTTFs only ~25 % of entities fail within a decade, so
//!   the queue stays far smaller than the cell. Arming decides most of
//!   those misses without a logarithm (`StartHorizon`), at mission
//!   start and at every re-arm. A cell's initial survivors are all known
//!   before its first event, so they load as one counting-sorted run
//!   beside the heap ([`EventQueue::push_all`]), popped in O(1): about
//!   four of every five pops the heap would otherwise serve.
//! * **One arming kernel** (`StartHorizon::arm`): every arming is a
//!   range of entities on one clock — a cell's nodes, then its drives, at
//!   mission start and at a reset after a loss; a repaired node, then its
//!   surviving drives; a repaired drive, a range of one. The kernel draws
//!   up to 64 counters before any branch, as independent mixer chains,
//!   and applies the cut to each draw's 53-bit integer in a hit mask; only
//!   the hits take the `ln`. Failures are pushed in entity order, so every
//!   sequence number, and with it every outcome, is what a draw-by-draw
//!   arm gives.
//!
//! The fleet is modelled as independent redundancy cells (one §6 baseline
//! system each: `n` bricks × `d` drives). Cells are grouped into shards
//! of 64, the unit of work: worker threads claim shards from an atomic
//! counter, and since a cell's outcome does not depend on who runs it,
//! the worker count cannot leak into results. Failure semantics per cell
//! mirror the aggregate engine of [`crate::faultinject`] (§4 failure
//! model, §5.2 sector errors), from the same derived rates; rebuilds
//! always take the §5.1 deterministic durations — the exponential-repair
//! ablation is the aggregate engine's (and the ablations record's), not here.
//!
//! Direct simulation observes losses only for the weakest configurations;
//! for 9–11-nines targets the module wires in both rare-event estimators
//! — balanced failure biasing ([`crate::importance`]) and multilevel
//! splitting ([`crate::splitting`]) — over the configuration's exact
//! CTMC, scaled to the fleet and cross-checked against the analytic
//! MTTDL.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::time::Instant;

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::units::HOURS_PER_YEAR;
use nsr_obs::Json;
use nsr_rng::rngs::StdRng;
use nsr_rng::{CounterRng, SeedableRng};

use crate::importance::{Options as IsOptions, RareEvent, RareEventEstimate};
use crate::splitting::{SplitOptions, Splitting};
use crate::system::{EngineRates, LossCause};
use crate::{Error, Result};

/// Cells per shard, the unit of work a worker claims. Fixed, though
/// nothing depends on it but load balance: cells are independent.
const CELLS_PER_SHARD: u64 = 64;

/// A deterministic min-queue of timed events held in three kinds of
/// source: a binary heap, a sorted start run, and `LANES` FIFO lanes.
///
/// Ordering contract: events pop in ascending `(time, seq)` order, where
/// `time` compares by `f64::total_cmp` and `seq` is the monotone push
/// sequence — so simultaneous events fire in push order, and the full pop
/// order is reproducible bit-for-bit from the push history. Non-finite
/// times are rejected up front ([`Error::NonFiniteEventTime`]): a NaN or
/// ±∞ timestamp would sort to the far future and silently never fire.
///
/// [`EventQueue::push`] goes to the heap, O(log n) per push and pop.
/// [`EventQueue::push_all`] loads a batch as the start run, sorted once
/// in O(n) for spread-out times, then O(1) per pop. A lane
/// ([`EventQueue::push_lane`]) holds events pushed in time order, so it
/// is already sorted and costs O(1) per push and pop. All three draw
/// `seq` from one counter, and a pop takes the least `(time, seq)` among
/// the heap top, the run's earliest entry and the lane fronts. `seq` is
/// unique, so that is one total order whichever source holds an entry,
/// and the pop order is exactly the one a heap-only queue gives the same
/// pushes. A lane push earlier than the lane's back would break that,
/// and is refused ([`Error::LaneOutOfOrder`]).
#[derive(Debug)]
pub struct EventQueue<T, const LANES: usize = 0> {
    heap: BinaryHeap<Entry<T>>,
    /// The start run, sorted latest-first — ascending in `Entry`'s
    /// reversed order — so its earliest entry pops off the back.
    run: Vec<Entry<T>>,
    /// Counting-sort scratch: entries per bucket, then offsets; each
    /// entry's bucket; the sorted run, swapped with `run`.
    counts: Vec<usize>,
    buckets: Vec<usize>,
    sorted: Vec<Entry<T>>,
    lanes: [VecDeque<Entry<T>>; LANES],
    seq: u64,
}

/// Where [`EventQueue::pop`] found the least entry.
enum Source {
    Heap,
    Run,
    Lane(usize),
}

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T, const LANES: usize> EventQueue<T, LANES> {
    /// An empty queue.
    pub fn new() -> EventQueue<T, LANES> {
        EventQueue {
            heap: BinaryHeap::new(),
            run: Vec::new(),
            counts: Vec::new(),
            buckets: Vec::new(),
            sorted: Vec::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            seq: 0,
        }
    }

    /// Stamps `item` with the next sequence number.
    fn entry(&mut self, time: f64, item: T) -> Result<Entry<T>> {
        if !time.is_finite() {
            return Err(Error::NonFiniteEventTime { time });
        }
        let seq = self.seq;
        self.seq += 1;
        Ok(Entry { time, seq, item })
    }

    /// Schedules `item` at `time`.
    ///
    /// # Errors
    ///
    /// [`Error::NonFiniteEventTime`] if `time` is NaN or infinite.
    pub fn push(&mut self, time: f64, item: T) -> Result<()> {
        let entry = self.entry(time, item)?;
        self.heap.push(entry);
        Ok(())
    }

    /// Schedules `item` at `time` at the back of FIFO lane `lane`, in
    /// O(1). It pops exactly where [`EventQueue::push`] would have put it.
    ///
    /// # Errors
    ///
    /// * [`Error::NonFiniteEventTime`] if `time` is NaN or infinite.
    /// * [`Error::LaneOutOfOrder`] if `time` is earlier than the lane's
    ///   last event. Nothing is scheduled and no sequence number is used.
    ///
    /// # Panics
    ///
    /// If `lane >= LANES`.
    pub fn push_lane(&mut self, lane: usize, time: f64, item: T) -> Result<()> {
        if let Some(back) = self.lanes[lane].back() {
            if time.total_cmp(&back.time).is_lt() {
                return Err(Error::LaneOutOfOrder {
                    lane,
                    time,
                    back: back.time,
                });
            }
        }
        let entry = self.entry(time, item)?;
        self.lanes[lane].push_back(entry);
        Ok(())
    }

    /// Drops every pending event and restarts the sequence at zero,
    /// keeping the allocations.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.run.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.seq = 0;
    }

    /// Removes and returns the earliest event, `None` when empty.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        // The run's last entry and each lane's front are their sources'
        // earliest. The reversed order ranks the earlier `(time, seq)`
        // greater.
        let mut from = Source::Heap;
        let mut least = self.heap.peek();
        if let Some(last) = self.run.last() {
            if least.is_none_or(|e| last > e) {
                least = Some(last);
                from = Source::Run;
            }
        }
        for (l, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.front() {
                if least.is_none_or(|e| front > e) {
                    least = Some(front);
                    from = Source::Lane(l);
                }
            }
        }
        match from {
            Source::Heap => self.heap.pop(),
            Source::Run => self.run.pop(),
            Source::Lane(l) => self.lanes[l].pop_front(),
        }
        .map(|e| (e.time, e.item))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }
}

impl<T: Copy, const LANES: usize> EventQueue<T, LANES> {
    /// Schedules every `(time, item)` in iteration order, assigning the
    /// same sequence numbers — hence the same pop order — as pushing them
    /// one by one, but as one sorted run instead of n sift-ups. Entries a
    /// previous run still holds are sorted in with the new ones. `T: Copy`
    /// lets the counting sort copy each entry straight into its slot.
    ///
    /// # Errors
    ///
    /// [`Error::NonFiniteEventTime`] at the first NaN or infinite time;
    /// the items before it stay scheduled, as with [`EventQueue::push`].
    pub fn push_all(&mut self, items: impl IntoIterator<Item = (f64, T)>) -> Result<()> {
        let mut outcome = Ok(());
        for (time, item) in items {
            match self.entry(time, item) {
                Ok(entry) => self.run.push(entry),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.sort_run();
        outcome
    }

    /// Sorts the run latest-first: a stable counting sort on a bucket
    /// that never decreases as time falls (higher `seq` first within
    /// one, so exact ties are already in order), then one insertion pass
    /// under the full `(time, seq)` order, so the result never depends on
    /// the buckets — they only make the pass short.
    fn sort_run(&mut self) {
        let n = self.run.len();
        if n < 2 {
            return;
        }
        // Every time is finite: plain comparisons beat `f64::min`/`max`.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in &self.run {
            if e.time < lo {
                lo = e.time;
            }
            if e.time > hi {
                hi = e.time;
            }
        }
        // Three buckets per entry keep most buckets to one entry, so the
        // pass rarely moves one. `hi == lo` gives 0·∞ = NaN: bucket 0.
        let last = 3 * n - 1;
        let scale = (3 * n) as f64 / (hi - lo);
        let (counts, buckets) = (&mut self.counts, &mut self.buckets);
        counts.clear();
        counts.resize(last + 1, 0);
        buckets.clear();
        buckets.extend(self.run.iter().map(|e| {
            let bucket = (((hi - e.time) * scale) as usize).min(last);
            counts[bucket] += 1;
            bucket
        }));
        let mut offset = 0;
        for c in counts.iter_mut() {
            (*c, offset) = (offset, offset + *c);
        }
        let sorted = &mut self.sorted;
        sorted.clear();
        sorted.extend_from_slice(&self.run);
        for (e, &bucket) in self.run.iter().zip(buckets.iter()).rev() {
            sorted[counts[bucket]] = *e;
            counts[bucket] += 1;
        }
        std::mem::swap(&mut self.run, sorted);
        let run = &mut self.run;
        for i in 1..n {
            let mut j = i;
            while j > 0 && run[j] < run[j - 1] {
                run.swap(j, j - 1);
                j -= 1;
            }
        }
    }
}

impl<T, const LANES: usize> Default for EventQueue<T, LANES> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// One data-loss event observed during a fleet mission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossRecord {
    /// Simulated time of the loss, hours from mission start.
    pub time_hours: f64,
    /// Global index of the cell that lost data.
    pub cell: u64,
    /// What caused the loss.
    pub cause: LossCause,
}

/// Result of one fleet mission. `PartialEq` compares every field exactly
/// (including `f64` loss times bit-for-bit via IEEE equality), which is
/// what the determinism tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Bricks (storage nodes) simulated; the requested count rounded up
    /// to whole cells.
    pub bricks: u64,
    /// Independent redundancy cells simulated.
    pub cells: u64,
    /// Total simulated entities (bricks plus, for no-IR configurations,
    /// their drives).
    pub entities: u64,
    /// Mission length in hours.
    pub mission_hours: f64,
    /// Events processed (failures, rebuild completions, sector strikes).
    pub events: u64,
    /// Events popped but dropped as stale (lazy cancellation).
    pub stale_events: u64,
    /// Brick (node) failures processed.
    pub node_failures: u64,
    /// Drive failures processed (0 for internal-RAID configurations,
    /// where drive failures are folded into the brick rates).
    pub drive_failures: u64,
    /// Rebuilds completed.
    pub rebuilds: u64,
    /// Every data loss, in ascending `(time, cell)` order.
    pub losses: Vec<LossRecord>,
    /// Logical capacity per cell, PB (for events/PB-year conversions).
    pub cell_capacity_pb: f64,
}

impl FleetOutcome {
    /// Number of data-loss events.
    pub fn loss_count(&self) -> u64 {
        self.losses.len() as u64
    }

    /// Total cell-hours of exposure (`cells × mission`).
    pub fn cell_hours(&self) -> f64 {
        self.cells as f64 * self.mission_hours
    }

    /// Direct MTTDL estimate `cell-hours / losses` (each cell resets
    /// after a loss, so losses form a renewal process), with its 95 %
    /// Poisson confidence interval. `None` with zero observed losses —
    /// use [`FleetOutcome::mttdl_lower_bound`] or a rare-event estimator.
    pub fn mttdl_estimate(&self) -> Option<(f64, (f64, f64))> {
        let k = self.loss_count() as f64;
        if k == 0.0 {
            return None;
        }
        let t = self.cell_hours();
        let half = 1.96 * k.sqrt();
        // Rate interval (k ± 1.96√k)/T inverts to an MTTDL interval.
        let lo = t / (k + half);
        let hi = if k > half {
            t / (k - half)
        } else {
            f64::INFINITY
        };
        Some((t / k, (lo, hi)))
    }

    /// With zero losses, the 95 % lower confidence bound on the MTTDL by
    /// the rule of three: the loss rate is below `3/T` at 95 %.
    pub fn mttdl_lower_bound(&self) -> f64 {
        self.cell_hours() / 3.0
    }

    /// Observed data-loss events per PB-year of logical capacity.
    pub fn events_per_pb_year(&self) -> f64 {
        let pb_years =
            self.cells as f64 * self.cell_capacity_pb * self.mission_hours / HOURS_PER_YEAR;
        self.loss_count() as f64 / pb_years
    }

    /// Canonical textual rendering: a header of exact counters plus one
    /// line per loss carrying the raw IEEE-754 bits of its timestamp.
    /// Two runs are byte-identical iff their canonical traces match —
    /// this is the replay-determinism artifact diffed by CI.
    pub fn canonical_trace(&self) -> String {
        let mut s = format!(
            "fleet bricks={} cells={} entities={} mission_h_bits={:016x} \
             events={} stale={} node_failures={} drive_failures={} rebuilds={} losses={}\n",
            self.bricks,
            self.cells,
            self.entities,
            self.mission_hours.to_bits(),
            self.events,
            self.stale_events,
            self.node_failures,
            self.drive_failures,
            self.rebuilds,
            self.loss_count(),
        );
        for l in &self.losses {
            s.push_str(&format!(
                "loss t_bits={:016x} t_h={:.6e} cell={} cause={}\n",
                l.time_hours.to_bits(),
                l.time_hours,
                l.cell,
                l.cause
            ));
        }
        s
    }
}

/// Which MTTDL estimator to run against a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEstimator {
    /// Direct discrete-event simulation over the mission (only resolves
    /// the weakest configurations within feasible fleet-hours).
    Direct,
    /// Balanced failure biasing on the exact CTMC ([`crate::importance`]).
    Importance,
    /// Multilevel splitting on the exact CTMC ([`crate::splitting`]).
    Splitting,
}

impl std::fmt::Display for FleetEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetEstimator::Direct => write!(f, "direct"),
            FleetEstimator::Importance => write!(f, "importance"),
            FleetEstimator::Splitting => write!(f, "splitting"),
        }
    }
}

/// A rare-event MTTDL estimate scaled to the fleet, paired with the
/// analytic value it is validated against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRareEstimate {
    /// Which estimator produced it.
    pub estimator: FleetEstimator,
    /// Per-cell MTTDL estimate with confidence information.
    pub cell_mttdl: RareEventEstimate,
    /// The analytic (exact-chain) per-cell MTTDL, hours.
    pub analytic_cell_mttdl: f64,
    /// Fleet-level MTTDL, hours (`cell MTTDL / cells`: losses across
    /// independent cells superpose).
    pub fleet_mttdl_hours: f64,
    /// Implied data-loss events per PB-year of logical capacity.
    pub events_per_pb_year: f64,
}

impl FleetRareEstimate {
    /// Distance from the analytic value in standard errors.
    pub fn sigmas_from_analytic(&self) -> f64 {
        (self.analytic_cell_mttdl - self.cell_mttdl.mtta).abs() / self.cell_mttdl.std_err()
    }

    /// Whether the analytic value lies within `k` standard errors.
    pub fn contains_analytic(&self, k: f64) -> bool {
        self.cell_mttdl.contains(self.analytic_cell_mttdl, k)
    }
}

/// One cell's event payload. Entity indices are cell-local; the `u32`
/// tag is the incarnation (entities) or epoch (the cell) the event was
/// scheduled against, for lazy cancellation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Failure clock of entity `.0` (incarnation `.1`) fires.
    Fail(u32, u32),
    /// Rebuild of entity `.0` (incarnation `.1`) completes.
    Repair(u32, u32),
    /// Critical-window sector strike (epoch `.0`), IR only.
    Strike(u32),
}

/// Entities the arming kernel ([`StartHorizon::arm`]) draws before it
/// takes any logarithm: one bit each in a `u64` hit mask.
const ARM_BLOCK: usize = 64;

/// `CounterRng::f64_at`'s map from 53 uniform bits to `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// A failure clock and its horizon test, decided without a logarithm for
/// most draws — at mission start and at every re-arm.
///
/// At start, `t = 0 − ln(1−u)/rate ≤ mission` is the test
/// `u ≤ −expm1(−rate·mission)`. The computed `t` is a few ulp off
/// (`1 − u` is exact; `ln` and the division round once each), which
/// moves the boundary in `u` by well under 1e-15. So a `u` more than
/// `1e-12` above the cut lands past the horizon for certain and skips
/// the `ln`; any `u` at or below `cut + 1e-12` takes the exact
/// comparison. Once `rate·mission` exceeds `ln 10¹² ≈ 27.63`,
/// `cut + 1e-12 ≥ 1 > u` and the fast path never fires.
///
/// A re-arm at `now ≥ 0` computes `now − ln(1−u)/rate`, which rounding
/// keeps at or above the start-time value `0 − ln(1−u)/rate` (the same
/// two operations, then a subtraction that rounds monotonically). So a
/// `u` the cut rejects at start is past the horizon at any later `now`
/// too, and the same cut serves every re-arm.
///
/// The cut is applied to the draw's bits, not to `u`: a draw is
/// `u = m·2⁻⁵³` for its top 53 bits `m`, so `u > cut` exactly when the
/// integer `m` exceeds `cut·2⁵³` (an exact scaling), that is, when
/// `m > ⌊cut·2⁵³⌋` (`cut_mantissa`).
#[derive(Debug, Clone, Copy)]
struct StartHorizon {
    rate: f64,
    mission: f64,
    /// `⌊(−expm1(−rate·mission) + 1e-12)·2⁵³⌋`; at least 2⁵³, so above
    /// every `m`, once the cut reaches 1.
    cut_mantissa: u64,
}

impl StartHorizon {
    fn new(rate: f64, mission: f64) -> StartHorizon {
        let mut h = StartHorizon {
            rate,
            mission,
            cut_mantissa: 0,
        };
        // `as` truncates, which is the floor of a non-negative cut.
        h.cut_mantissa = (h.cut() * (1u64 << 53) as f64) as u64;
        h
    }

    /// `−expm1(−rate·mission) + 1e-12`, the cut on `u`.
    fn cut(&self) -> f64 {
        -(-self.rate * self.mission).exp_m1() + 1e-12
    }

    /// The arming kernel. Draws the next lifetime of every entity in
    /// `range`, all on this clock and started at `now ≥ 0`, from its own
    /// stream (`streams + entity`) at its counter, and calls
    /// `fire(failure time, entity)`, in entity order, for each that fails
    /// within the mission, stopping at its first error. Entities `skip`
    /// marks draw nothing and keep their counters; the rest advance theirs
    /// by one. A clock with no hazard draws nothing at all.
    ///
    /// A block of up to [`ARM_BLOCK`] entities draws first, without a
    /// branch: the draws are independent mixer chains the core overlaps,
    /// and each folds the horizon cut into the block's hit mask by an
    /// integer compare. Then only the hits (~25 % at baseline rates) take
    /// the `ln` and the exact `t <= mission` test, one loop exit per block
    /// instead of a data-dependent branch per draw. Each time and decision
    /// equals, to the bit, what the test oracle `next_failure` gives for
    /// `CounterRng::f64_at`'s draw.
    #[allow(clippy::too_many_arguments)]
    fn arm(
        &self,
        crng: &CounterRng,
        streams: u64,
        range: Range<usize>,
        now: f64,
        counters: &mut [u64],
        skip: &[bool],
        fire: impl FnMut(f64, u32) -> Result<()>,
    ) -> Result<()> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        // A repaired drive arms alone. A block of one compiles to
        // straight-line code, without the loop exits a wider block takes.
        if range.len() == 1 {
            self.arm_blocks::<1>(crng, streams, range, now, counters, skip, fire)
        } else {
            self.arm_blocks::<ARM_BLOCK>(crng, streams, range, now, counters, skip, fire)
        }
    }

    /// [`StartHorizon::arm`] in blocks of `B ≤ 64` entities.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn arm_blocks<const B: usize>(
        &self,
        crng: &CounterRng,
        streams: u64,
        range: Range<usize>,
        now: f64,
        counters: &mut [u64],
        skip: &[bool],
        mut fire: impl FnMut(f64, u32) -> Result<()>,
    ) -> Result<()> {
        const { assert!(B <= 64, "one bit per entity in a u64 hit mask") };
        let blocks = counters[range.clone()]
            .chunks_mut(B)
            .zip(skip[range.clone()].chunks(B));
        for (b, (counters, skip)) in blocks.enumerate() {
            let first = range.start + b * B;
            let mut bits = [0u64; B];
            let mut hits = 0u64;
            for (k, ((x, counter), &skip)) in bits.iter_mut().zip(counters).zip(skip).enumerate() {
                *x = crng.u64_at(streams + (first + k) as u64, *counter);
                *counter += u64::from(!skip);
                hits |= u64::from(!skip & (*x >> 11 <= self.cut_mantissa)) << k;
            }
            while hits != 0 {
                let k = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let u = (bits[k] >> 11) as f64 * UNIT;
                let t = now - (1.0 - u).ln() / self.rate;
                if t <= self.mission {
                    fire(t, (first + k) as u32)?;
                }
            }
        }
        Ok(())
    }

    /// The scalar oracle the kernel is tested against: the failure time
    /// draw `u` gives a clock started at `now ≥ 0`, `None` past the
    /// horizon — exactly `now − ln(1−u)/rate`, tested `<= mission`.
    #[cfg(test)]
    fn next_failure(&self, now: f64, u: f64) -> Option<f64> {
        if u > self.cut() {
            return None;
        }
        let t = now - (1.0 - u).ln() / self.rate;
        (t <= self.mission).then_some(t)
    }
}

/// What every cell of a mission shares, derived once per run.
struct CellModel {
    e: EngineRates,
    /// Entities per cell: `n` nodes, then (no-IR) their `n·d` drives,
    /// node `j`'s at `n + j·d ..`.
    per_cell: usize,
    /// Node clocks (IR: node plus folded-in array failures).
    node_clock: StartHorizon,
    /// Drive clocks (no-IR only).
    drive_clock: StartHorizon,
    /// IR only: critical sector-error rate per surviving node.
    critical_sector_rate: f64,
    mission: f64,
    /// Whether to time the arm and loop phases (tracing is on).
    timed: bool,
}

/// Counters and losses of the cells one worker simulated.
#[derive(Debug, Default)]
struct Tally {
    events: u64,
    stale: u64,
    node_failures: u64,
    drive_failures: u64,
    rebuilds: u64,
    losses: Vec<LossRecord>,
    /// Wall seconds spent arming cells at mission start (timed runs only).
    arm_seconds: f64,
    /// Wall seconds spent in the cells' event loops (timed runs only).
    loop_seconds: f64,
    /// Entries loaded into the cells' start runs (timed runs only).
    armed: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.events += other.events;
        self.stale += other.stale;
        self.node_failures += other.node_failures;
        self.drive_failures += other.drive_failures;
        self.rebuilds += other.rebuilds;
        self.losses.extend(other.losses);
        self.arm_seconds += other.arm_seconds;
        self.loop_seconds += other.loop_seconds;
        self.armed += other.armed;
    }
}

/// The state of the cell being simulated. A worker keeps one and reuses
/// it from cell to cell, so entity state and queue stay cache-resident.
struct Cell {
    incarnation: Vec<u32>,
    /// Draw position of each entity's stream.
    counters: Vec<u64>,
    down: Vec<bool>,
    /// Outstanding failures (nodes + drives).
    outstanding: u32,
    /// How many of those are nodes.
    nodes_down: u32,
    /// Bumped whenever a critical window closes (cancels strikes) or the
    /// cell resets.
    epoch: u32,
    /// Draw position of the cell's own stream (sector draws, strikes).
    draws: u64,
    /// Mission-start failures in the start run; re-armed failures and
    /// strikes in the heap; rebuild completions in the [`NODE_REPAIRS`]
    /// and [`DRIVE_REPAIRS`] lanes.
    q: EventQueue<Ev, 2>,
    /// The mission-start failures, in entity order, before they load as
    /// the start run.
    armed: Vec<(f64, Ev)>,
}

/// The queue lane of node rebuild completions.
const NODE_REPAIRS: usize = 0;
/// The queue lane of drive rebuild completions.
const DRIVE_REPAIRS: usize = 1;

impl Cell {
    fn new(per_cell: usize) -> Cell {
        Cell {
            incarnation: vec![0; per_cell],
            counters: vec![0; per_cell],
            down: vec![false; per_cell],
            outstanding: 0,
            nodes_down: 0,
            epoch: 0,
            draws: 0,
            q: EventQueue::new(),
            armed: Vec::new(),
        }
    }

    /// Simulates global cell `cell` from mission start to the horizon,
    /// adding its counters and losses to `tally`.
    fn run(
        &mut self,
        m: &CellModel,
        crng: &CounterRng,
        cell: u64,
        tally: &mut Tally,
    ) -> Result<()> {
        let started = m.timed.then(Instant::now);
        self.start(m, crng, cell)?;
        let armed = m.timed.then(Instant::now);
        if m.timed {
            tally.armed += self.q.len() as u64;
        }

        while let Some((now, ev)) = self.q.pop() {
            let live = match ev {
                Ev::Fail(i, inc) | Ev::Repair(i, inc) => self.incarnation[i as usize] == inc,
                Ev::Strike(epoch) => self.epoch == epoch,
            };
            if !live {
                tally.stale += 1;
                continue;
            }
            tally.events += 1;
            match ev {
                Ev::Fail(i, _) => self.fail(m, crng, cell, i as usize, now, tally)?,
                Ev::Repair(i, _) => self.repair(m, crng, cell, i as usize, now, tally)?,
                Ev::Strike(_) => self.lose(m, crng, cell, now, LossCause::SectorError, tally)?,
            }
        }

        if let (Some(started), Some(armed)) = (started, armed) {
            tally.arm_seconds += armed.duration_since(started).as_secs_f64();
            tally.loop_seconds += armed.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Clears the state for a fresh cell and arms every entity at mission
    /// start: the clocks that fire within the mission load as one sorted
    /// run.
    fn start(&mut self, m: &CellModel, crng: &CounterRng, cell: u64) -> Result<()> {
        self.incarnation.fill(0);
        self.counters.fill(0);
        self.down.fill(false);
        self.outstanding = 0;
        self.nodes_down = 0;
        self.epoch = 0;
        self.draws = 0;
        self.q.clear();
        let (n, streams) = (m.e.n as usize, cell * m.per_cell as u64);
        for (clock, range) in [(&m.node_clock, 0..n), (&m.drive_clock, n..m.per_cell)] {
            let armed = &mut self.armed;
            clock.arm(
                crng,
                streams,
                range,
                0.0,
                &mut self.counters,
                &self.down,
                |t, i| {
                    armed.push((t, Ev::Fail(i, 0)));
                    Ok(())
                },
            )?;
        }
        self.q.push_all(self.armed.drain(..))
    }

    /// Entity `i` fails at `now`.
    fn fail(
        &mut self,
        m: &CellModel,
        crng: &CounterRng,
        cell: u64,
        i: usize,
        now: f64,
        tally: &mut Tally,
    ) -> Result<()> {
        let e = &m.e;
        if self.outstanding == e.t {
            // Already critical: one more failure is a loss.
            return self.lose(m, crng, cell, now, LossCause::ExcessFailures, tally);
        }
        let (n, d) = (e.n as usize, e.d as usize);
        self.incarnation[i] += 1;
        self.down[i] = true;
        self.outstanding += 1;
        let (rebuild_hours, lane) = if i < n {
            tally.node_failures += 1;
            self.nodes_down += 1;
            if e.ir_rates.is_none() {
                // Park the node's surviving drives: their clocks become
                // stale until the node repairs.
                for drive in n + i * d..n + (i + 1) * d {
                    if !self.down[drive] {
                        self.incarnation[drive] += 1;
                    }
                }
            }
            (e.node_rebuild_hours, NODE_REPAIRS)
        } else {
            tally.drive_failures += 1;
            (e.drive_rebuild_hours, DRIVE_REPAIRS)
        };
        // `now` never decreases and the class's rebuild takes a fixed
        // time, so completions join their lane in time order.
        let done = now + rebuild_hours;
        if done <= m.mission {
            self.q
                .push_lane(lane, done, Ev::Repair(i as u32, self.incarnation[i]))?;
        }
        if self.outstanding != e.t {
            return Ok(());
        }

        // The cell just went critical. Its own draws come from a stream
        // in a namespace disjoint from the entities' (top bit set).
        let cell_stream = (1u64 << 63) | cell;
        if let Some(h) = &e.h {
            // No-IR: the triggering rebuild reads critical data; §5.2.2
            // sector-error probability.
            let p = h
                .by_drive_count(self.outstanding - self.nodes_down)
                .min(1.0);
            let u = crng.f64_at(cell_stream, self.draws);
            self.draws += 1;
            if u < p {
                return self.lose(m, crng, cell, now, LossCause::SectorError, tally);
            }
        } else {
            // IR: continuous critical sector-error hazard (§4.2, scaled by
            // k_t) until the window closes. Node count is frozen during
            // the window (any further failure is a loss).
            let rate = f64::from(e.n - self.nodes_down) * m.critical_sector_rate;
            if rate > 0.0 {
                let u = crng.f64_at(cell_stream, self.draws);
                self.draws += 1;
                let strike = now - (1.0 - u).ln() / rate;
                if strike <= m.mission {
                    self.q.push(strike, Ev::Strike(self.epoch))?;
                }
            }
        }
        Ok(())
    }

    /// Entity `i`'s rebuild completes at `now`.
    fn repair(
        &mut self,
        m: &CellModel,
        crng: &CounterRng,
        cell: u64,
        i: usize,
        now: f64,
        tally: &mut Tally,
    ) -> Result<()> {
        let e = &m.e;
        let (n, d) = (e.n as usize, e.d as usize);
        tally.rebuilds += 1;
        self.down[i] = false;
        if self.outstanding == e.t {
            // Critical window closes; cancel a pending strike.
            self.epoch += 1;
        }
        self.outstanding -= 1;
        self.incarnation[i] += 1;

        if i < n {
            self.nodes_down -= 1;
            // Un-park surviving drives with fresh clocks (memoryless, so
            // re-drawing is equivalent); down ones stay as they are.
            let drives = if e.ir_rates.is_none() {
                n + i * d..n + (i + 1) * d
            } else {
                0..0
            };
            for drive in drives.clone() {
                self.incarnation[drive] += u32::from(!self.down[drive]);
            }
            self.arm(m, crng, cell, &m.node_clock, i..i + 1, now)?;
            self.arm(m, crng, cell, &m.drive_clock, drives, now)
        } else if !self.down[(i - n) / d] {
            // A drive re-arms only if its node is alive; otherwise it
            // stays parked until the node repair.
            self.arm(m, crng, cell, &m.drive_clock, i..i + 1, now)
        } else {
            Ok(())
        }
    }

    /// Records a data loss, then rebuilds the cell from scratch (§3's
    /// "spare nodes are added" policy): all entity state clears, every
    /// pending event goes stale, and fresh failure clocks are drawn.
    fn lose(
        &mut self,
        m: &CellModel,
        crng: &CounterRng,
        cell: u64,
        now: f64,
        cause: LossCause,
        tally: &mut Tally,
    ) -> Result<()> {
        tally.losses.push(LossRecord {
            time_hours: now,
            cell,
            cause,
        });
        self.outstanding = 0;
        self.nodes_down = 0;
        self.epoch += 1;
        self.incarnation.iter_mut().for_each(|inc| *inc += 1);
        self.down.fill(false);
        let n = m.e.n as usize;
        self.arm(m, crng, cell, &m.node_clock, 0..n, now)?;
        self.arm(m, crng, cell, &m.drive_clock, n..m.per_cell, now)
    }

    /// Re-arms entities `range`, all on `clock`, at `now`: the arming
    /// kernel schedules each failure within the mission on the heap,
    /// against its entity's incarnation. Down entities draw nothing.
    fn arm(
        &mut self,
        m: &CellModel,
        crng: &CounterRng,
        cell: u64,
        clock: &StartHorizon,
        range: Range<usize>,
        now: f64,
    ) -> Result<()> {
        // Entity streams are global entity indices, cell-major.
        let streams = cell * m.per_cell as u64;
        let (q, incarnation) = (&mut self.q, &self.incarnation);
        clock.arm(
            crng,
            streams,
            range,
            now,
            &mut self.counters,
            &self.down,
            |t, i| q.push(t, Ev::Fail(i, incarnation[i as usize])),
        )
    }
}

/// The fleet simulator: many independent cells of one configuration at
/// one parameter point, over a finite mission.
#[derive(Debug, Clone)]
pub struct FleetSim {
    rates: EngineRates,
    params: Params,
    config: Configuration,
    cells: u64,
    mission_hours: f64,
}

impl FleetSim {
    /// Builds a fleet of at least `bricks` storage nodes (rounded up to
    /// whole cells of `params.system.node_count`) for a mission of
    /// `mission_years`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] for a zero brick count or non-positive
    ///   mission.
    /// * Propagates parameter validation errors.
    pub fn new(
        params: Params,
        config: Configuration,
        bricks: u64,
        mission_years: f64,
    ) -> Result<FleetSim> {
        if bricks == 0 {
            return Err(Error::InvalidArgument {
                what: "fleet must have at least one brick",
            });
        }
        if !(mission_years > 0.0 && mission_years.is_finite()) {
            return Err(Error::InvalidArgument {
                what: "mission length must be positive and finite",
            });
        }
        let rates = EngineRates::of(&params, config)?;
        let n = u64::from(params.system.node_count);
        Ok(FleetSim {
            rates,
            params,
            config,
            cells: bricks.div_ceil(n),
            mission_hours: mission_years * HOURS_PER_YEAR,
        })
    }

    /// Redundancy cells in the fleet.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Bricks actually simulated (`cells × nodes per cell`).
    pub fn bricks(&self) -> u64 {
        self.cells * u64::from(self.params.system.node_count)
    }

    /// Mission length in hours.
    pub fn mission_hours(&self) -> f64 {
        self.mission_hours
    }

    /// The configuration being simulated.
    pub fn config(&self) -> Configuration {
        self.config
    }

    /// Simulated entities per cell: `n` bricks, plus `n·d` drives for
    /// no-IR configurations (internal RAID folds drive failures into the
    /// brick rates, so drives are not separate entities).
    fn entities_per_cell(&self) -> u64 {
        let n = u64::from(self.params.system.node_count);
        if self.rates.ir_rates.is_some() {
            n
        } else {
            n * (1 + u64::from(self.params.node.drives_per_node))
        }
    }

    /// Runs the mission. `workers == 0` uses the machine's available
    /// parallelism. The outcome — every counter and loss record — is a
    /// pure function of `seed` and the fleet geometry, independent of
    /// `workers`.
    ///
    /// # Errors
    ///
    /// Propagates per-cell failures (non-finite event times).
    pub fn run(&self, seed: u64, workers: u32) -> Result<FleetOutcome> {
        let t0 = nsr_obs::metrics_timer();
        let mut span = nsr_obs::trace::Span::enter("sim.fleet.run");
        let shard_count = self.cells.div_ceil(CELLS_PER_SHARD) as usize;
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get() as u32)
                .unwrap_or(1)
        } else {
            workers
        }
        .min(shard_count as u32)
        .max(1);
        let crng = CounterRng::new(seed);
        let model = self.cell_model();

        let next = AtomicUsize::new(0);
        let per_worker: Vec<Result<Tally>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (next, crng, model) = (&next, &crng, &model);
                    scope.spawn(move || {
                        nsr_obs::set_trace_lane(u64::from(w) + 1);
                        let mut cell = Cell::new(model.per_cell);
                        let mut tally = Tally::default();
                        loop {
                            let s = next.fetch_add(1, AtomicOrdering::Relaxed);
                            if s >= shard_count {
                                return Ok(tally);
                            }
                            let first = s as u64 * CELLS_PER_SHARD;
                            for c in first..(first + CELLS_PER_SHARD).min(self.cells) {
                                cell.run(model, crng, c, &mut tally)?;
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        });

        let mut merged = Tally::default();
        for tally in per_worker {
            merged.absorb(tally?);
        }
        merged.losses.sort_by(|a, b| {
            a.time_hours
                .total_cmp(&b.time_hours)
                .then(a.cell.cmp(&b.cell))
        });

        let outcome = FleetOutcome {
            bricks: self.bricks(),
            cells: self.cells,
            entities: self.cells * self.entities_per_cell(),
            mission_hours: self.mission_hours,
            events: merged.events,
            stale_events: merged.stale,
            node_failures: merged.node_failures,
            drive_failures: merged.drive_failures,
            rebuilds: merged.rebuilds,
            losses: merged.losses,
            cell_capacity_pb: self.rates.capacity_pb,
        };
        crate::obs::FLEET_EVENTS.add(outcome.events);
        crate::obs::FLEET_FAILURES.add(outcome.node_failures + outcome.drive_failures);
        crate::obs::FLEET_LOSSES.add(outcome.loss_count());
        if let Some(t0) = t0 {
            let secs = t0.elapsed().as_secs_f64();
            crate::obs::FLEET_EVENTS_PER_S.observe(outcome.events as f64 / secs.max(1e-9));
        }
        span.field("bricks", || Json::Num(outcome.bricks as f64));
        span.field("cells", || Json::Num(outcome.cells as f64));
        span.field("events", || Json::Num(outcome.events as f64));
        span.field("stale", || Json::Num(outcome.stale_events as f64));
        span.field("losses", || Json::Num(outcome.loss_count() as f64));
        span.field("workers", || Json::Num(f64::from(workers)));
        // Summed over workers: CPU seconds, not wall time, when workers > 1.
        span.field("arm_seconds", || Json::Num(merged.arm_seconds));
        span.field("loop_seconds", || Json::Num(merged.loop_seconds));
        // Of the `events + stale` pops, `armed` came off start runs.
        span.field("armed", || Json::Num(merged.armed as f64));
        Ok(outcome)
    }

    /// The rates, sizes and horizon cuts every cell of a run shares.
    fn cell_model(&self) -> CellModel {
        let e = self.rates.clone();
        let (lambda_array, critical_sector_rate) = e.ir_rates.unwrap_or((0.0, 0.0));
        let mission = self.mission_hours;
        CellModel {
            per_cell: self.entities_per_cell() as usize,
            node_clock: StartHorizon::new(e.lambda_n + lambda_array, mission),
            drive_clock: StartHorizon::new(e.lambda_d, mission),
            critical_sector_rate,
            mission,
            timed: nsr_obs::trace_enabled(),
            e,
        }
    }

    /// The analytic per-cell MTTDL from the exact chain, hours.
    ///
    /// # Errors
    ///
    /// Propagates model evaluation errors.
    pub fn analytic_cell_mttdl(&self) -> Result<f64> {
        Ok(self.config.evaluate(&self.params)?.exact.mttdl_hours)
    }

    /// Rare-event MTTDL estimation by balanced failure biasing on the
    /// configuration's exact CTMC, scaled to this fleet.
    ///
    /// # Errors
    ///
    /// Propagates chain construction and estimator errors.
    pub fn estimate_importance(&self, options: IsOptions, seed: u64) -> Result<FleetRareEstimate> {
        let (ctmc, root) = self.config.exact_chain(&self.params)?;
        let estimator = RareEvent::new(&ctmc, root)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = estimator.estimate(options, &mut rng)?;
        self.scale_estimate(FleetEstimator::Importance, cell)
    }

    /// Rare-event MTTDL estimation by multilevel splitting on the
    /// configuration's exact CTMC, scaled to this fleet.
    ///
    /// # Errors
    ///
    /// Propagates chain construction and estimator errors.
    pub fn estimate_splitting(
        &self,
        options: SplitOptions,
        seed: u64,
    ) -> Result<FleetRareEstimate> {
        let (ctmc, root) = self.config.exact_chain(&self.params)?;
        let estimator = Splitting::new(&ctmc, root)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = estimator.estimate(options, &mut rng)?;
        self.scale_estimate(FleetEstimator::Splitting, cell)
    }

    fn scale_estimate(
        &self,
        estimator: FleetEstimator,
        cell: RareEventEstimate,
    ) -> Result<FleetRareEstimate> {
        let analytic = self.analytic_cell_mttdl()?;
        let capacity_pb = self.rates.capacity_pb;
        Ok(FleetRareEstimate {
            estimator,
            cell_mttdl: cell,
            analytic_cell_mttdl: analytic,
            fleet_mttdl_hours: cell.mtta / self.cells as f64,
            events_per_pb_year: HOURS_PER_YEAR / (cell.mtta * capacity_pb),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsr_core::raid::InternalRaid;

    fn config(internal: InternalRaid, t: u32) -> Configuration {
        Configuration::new(internal, t).unwrap()
    }

    #[test]
    fn queue_orders_by_time_then_sequence() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(2.0, 1).unwrap();
        q.push(1.0, 2).unwrap();
        q.push(1.0, 3).unwrap(); // same time: push order breaks the tie
        q.push(0.5, 4).unwrap();
        assert_eq!(q.len(), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_rejects_non_finite_times() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                q.push(bad, 0),
                Err(Error::NonFiniteEventTime { .. })
            ));
        }
        assert!(q.is_empty());
        // -0.0 and subnormals are fine.
        q.push(-0.0, 1).unwrap();
        assert_eq!(q.pop(), Some((-0.0, 1)));
    }

    #[test]
    fn push_all_pops_like_sequential_pushes() {
        // Many time ties, so the order rests on the sequence numbers.
        let items: Vec<(f64, u32)> = (0..500u32).map(|i| (f64::from(i * 7 % 13), i)).collect();
        let mut one_by_one: EventQueue<u32> = EventQueue::new();
        let mut bulk: EventQueue<u32> = EventQueue::new();
        for q in [&mut one_by_one, &mut bulk] {
            q.push(3.0, 1000).unwrap();
        }
        for &(t, v) in &items {
            one_by_one.push(t, v).unwrap();
        }
        bulk.push_all(items.iter().copied()).unwrap();
        for q in [&mut one_by_one, &mut bulk] {
            q.push(3.0, 2000).unwrap();
        }
        let drain = |q: &mut EventQueue<u32>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut one_by_one), drain(&mut bulk));

        // A non-finite time stops the load; what came before stays.
        let err = bulk.push_all([(1.0, 1), (f64::NAN, 2), (0.5, 3)]);
        assert!(matches!(err, Err(Error::NonFiniteEventTime { .. })));
        assert_eq!(drain(&mut bulk), vec![(1.0, 1)]);

        // `clear` drops pending events and restarts the sequence.
        bulk.push(1.0, 9).unwrap();
        bulk.clear();
        assert!(bulk.is_empty());
        bulk.push_all([(2.0, 5), (2.0, 6)]).unwrap();
        assert_eq!(drain(&mut bulk), vec![(2.0, 5), (2.0, 6)]);
    }

    /// Lanes change where an event waits, never when it pops: random
    /// interleavings of heap pushes, monotone lane pushes and pops — on
    /// an integer time grid, so heap and lanes tie often — pop exactly as
    /// a heap-only queue fed the same pushes, across `clear`s too.
    #[test]
    fn lanes_pop_exactly_as_a_heap_only_queue() {
        use nsr_rng::Rng;
        let mut rng = StdRng::seed_from_u64(27);
        let mut laned: EventQueue<u32, 2> = EventQueue::new();
        let mut heap_only: EventQueue<u32> = EventQueue::new();
        let mut now = 0.0f64;
        let mut backs = [0.0f64; 2];
        let (mut pops, mut lane_pushes) = (0u32, 0u32);
        for step in 0..20_000u32 {
            if step == 6_000 || step == 13_000 {
                laned.clear();
                heap_only.clear();
                (now, backs) = (0.0, [0.0; 2]);
                continue;
            }
            match rng.random_range_usize(0, 8) {
                // A heap event at the clock or up to 40 ticks after it.
                0..=2 => {
                    let t = now + rng.random_range_usize(0, 40) as f64;
                    laned.push(t, step).unwrap();
                    heap_only.push(t, step).unwrap();
                }
                // A lane event tying or trailing the lane's last one, as
                // a fixed-length rebuild started at a later `now` does.
                3..=5 => {
                    let lane = rng.random_range_usize(0, 2);
                    let t = backs[lane].max(now) + rng.random_range_usize(0, 3) as f64;
                    backs[lane] = t;
                    laned.push_lane(lane, t, step).unwrap();
                    heap_only.push(t, step).unwrap();
                    lane_pushes += 1;
                }
                _ => {
                    let got = laned.pop();
                    assert_eq!(got, heap_only.pop(), "step {step}");
                    if let Some((t, _)) = got {
                        now = t;
                        pops += 1;
                    }
                }
            }
            assert_eq!(laned.len(), heap_only.len());
        }
        let rest: Vec<_> = std::iter::from_fn(|| laned.pop()).collect();
        assert!(!rest.is_empty() && laned.is_empty());
        assert_eq!(
            rest,
            std::iter::from_fn(|| heap_only.pop()).collect::<Vec<_>>()
        );
        assert!(
            pops > 3_000 && lane_pushes > 5_000,
            "{pops} pops, {lane_pushes} lane pushes"
        );
    }

    /// The start run changes where an event waits, never when it pops:
    /// seeded `push_all` batches — exact ties among ±0.0, subnormals and
    /// small integers, times spread from 1e-300 to 1e300 (either sign),
    /// fleet-like spans, empty and one-entry batches, a NaN partway
    /// through — interleaved with heap pushes, lane pushes, pops and
    /// second loads while a run still holds entries, pop exactly as a
    /// heap-only queue fed the same items one push at a time.
    #[test]
    fn start_run_pops_exactly_as_a_heap_only_queue() {
        use nsr_rng::Rng;
        let mut rng = StdRng::seed_from_u64(28);
        let mut q: EventQueue<u32, 2> = EventQueue::new();
        let mut heap_only: EventQueue<u32> = EventQueue::new();
        let bits = |p: Option<(f64, u32)>| p.map(|(t, v)| (t.to_bits(), v));
        let ties = [-0.0, 0.0, 5e-324, 1e-310, f64::MIN_POSITIVE, 1.0, 2.0];
        let (mut now, mut backs, mut item) = (0.0f64, [0.0f64; 2], 0u32);
        let (mut run_pops, mut reloads, mut nan_loads) = (0u32, 0u32, 0u32);
        for round in 0..600u32 {
            if round % 5 == 0 {
                q.clear();
                heap_only.clear();
                (now, backs) = (0.0, [0.0; 2]);
            }
            let len = match rng.random_range_usize(0, 6) {
                0 => 0,
                1 => 1,
                _ => rng.random_range_usize(2, 400),
            };
            let nan_at = (round % 7 == 3).then(|| rng.random_range_usize(0, len + 1));
            let batch: Vec<(f64, u32)> = (0..len)
                .map(|k| {
                    item += 1;
                    let t = match round % 3 {
                        0 => ties[rng.random_range_usize(0, ties.len())],
                        1 => {
                            let t = 10f64.powf(rng.random_range_f64(-300.0, 300.0));
                            if rng.random::<bool>() {
                                -t
                            } else {
                                t
                            }
                        }
                        _ => now + rng.random_range_f64(0.0, 87_600.0),
                    };
                    (if nan_at == Some(k) { f64::NAN } else { t }, item)
                })
                .collect();
            if !q.run.is_empty() {
                reloads += 1;
            }
            let loaded = q.push_all(batch.iter().copied());
            let pushed = batch.iter().try_for_each(|&(t, v)| heap_only.push(t, v));
            assert_eq!(loaded.is_err(), pushed.is_err(), "round {round}");
            nan_loads += u32::from(loaded.is_err());
            assert_eq!(q.len(), heap_only.len(), "round {round}");

            for _ in 0..rng.random_range_usize(0, 2 * len + 8) {
                item += 1;
                match rng.random_range_usize(0, 6) {
                    0 => {
                        let t = now + rng.random_range_usize(0, 40) as f64;
                        q.push(t, item).unwrap();
                        heap_only.push(t, item).unwrap();
                    }
                    1 => {
                        let lane = rng.random_range_usize(0, 2);
                        let t = backs[lane].max(now) + rng.random_range_usize(0, 3) as f64;
                        backs[lane] = t;
                        q.push_lane(lane, t, item).unwrap();
                        heap_only.push(t, item).unwrap();
                    }
                    _ => {
                        let run_len = q.run.len();
                        let got = q.pop();
                        assert_eq!(bits(got), bits(heap_only.pop()), "round {round}");
                        run_pops += u32::from(q.run.len() < run_len);
                        if let Some((t, _)) = got {
                            now = t;
                        }
                    }
                }
            }
            assert_eq!(q.len(), heap_only.len(), "round {round}");
        }
        let rest: Vec<_> = std::iter::from_fn(|| bits(q.pop())).collect();
        assert!(!rest.is_empty() && q.is_empty());
        assert_eq!(
            rest,
            std::iter::from_fn(|| bits(heap_only.pop())).collect::<Vec<_>>()
        );
        assert!(
            run_pops > 20_000 && reloads > 100 && nan_loads > 50,
            "{run_pops} run pops, {reloads} reloads, {nan_loads} NaN loads"
        );
    }

    #[test]
    fn a_lane_push_behind_the_lanes_back_is_refused() {
        let mut q: EventQueue<u32, 2> = EventQueue::new();
        q.push_lane(0, 5.0, 1).unwrap();
        q.push_lane(0, 5.0, 2).unwrap(); // a tie keeps push order
        q.push_lane(1, 1.0, 3).unwrap(); // each lane has its own back
        let err = q.push_lane(0, 4.0, 4);
        assert!(matches!(
            err,
            Err(Error::LaneOutOfOrder {
                lane: 0,
                time: 4.0,
                back: 5.0
            })
        ));
        assert!(matches!(
            q.push_lane(1, f64::NAN, 6),
            Err(Error::NonFiniteEventTime { .. })
        ));
        // Refused pushes schedule nothing; a heap event tying the lane's
        // back pops after it, in push order.
        q.push(5.0, 7).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![3, 1, 2, 7]);
        // The check orders times as the heap does, by `total_cmp`, under
        // which -0.0 sorts below 0.0.
        let mut zeros: EventQueue<u32, 1> = EventQueue::new();
        zeros.push_lane(0, 0.0, 1).unwrap();
        assert!(zeros.push_lane(0, -0.0, 2).is_err());
        // `clear` empties the lanes, so any time is accepted again.
        q.push_lane(0, 9.0, 8).unwrap();
        q.clear();
        q.push_lane(0, 0.5, 9).unwrap();
        assert_eq!(q.pop(), Some((0.5, 9)));
    }

    /// The log-free horizon cut never changes a decision, at mission start
    /// or at a re-arm later in it: for 10⁶ counter draws over rates from
    /// 1e-9 to 1e-1 per hour, each armed at one of seven clock readings
    /// from 0 to the horizon, and for every `u` within ±64 ulp of each
    /// reading's exact boundary and of the point where the fast path
    /// starts, `next_failure` equals the exact test to the bit.
    #[test]
    fn start_horizon_cut_matches_the_exact_comparison() {
        let mission = 10.0 * HOURS_PER_YEAR;
        let boundary_rm = 27.7; // > ln 1e12: the fast path must never fire
        let rates = [
            1e-9,
            1e-8,
            1e-7,
            1e-6,
            2.5e-6,
            1e-5,
            1e-4,
            1e-3,
            1e-2,
            1e-1,
            boundary_rm / mission,
        ];
        // Re-arms happen anywhere in the mission, up to the horizon itself.
        let nows = [
            0.0,
            f64::MIN_POSITIVE,
            1e-3,
            0.37 * mission,
            mission.next_down(),
            mission - 1e-9,
            mission,
        ];
        let crng = CounterRng::new(2026);
        let draws_per_rate = 1_000_000 / rates.len() as u64 + 1;
        for (stream, &rate) in rates.iter().enumerate() {
            let h = StartHorizon::new(rate, mission);
            let mut fast = 0u64;
            let mut check = |now: f64, u: f64| {
                let t = now - (1.0 - u).ln() / rate;
                let exact = (t <= mission).then_some(t.to_bits());
                assert_eq!(
                    h.next_failure(now, u).map(f64::to_bits),
                    exact,
                    "rate {rate:e}, now {now:e}, u {u:e}"
                );
                if now == 0.0 && u > h.cut() {
                    fast += 1;
                }
            };
            for counter in 0..draws_per_rate {
                // Every seventh draw arms at mission start.
                let now = nows[counter as usize % nows.len()];
                check(now, crng.f64_at(stream as u64, counter));
            }
            for now in nows {
                let exact_cut = -(-rate * (mission - now)).exp_m1();
                for centre in [exact_cut, h.cut()] {
                    let (mut lo, mut hi) = (centre, centre);
                    for _ in 0..64 {
                        lo = lo.next_down();
                        hi = hi.next_up();
                    }
                    let mut u = lo;
                    while u <= hi {
                        if (0.0..1.0).contains(&u) {
                            check(now, u);
                        }
                        u = u.next_up();
                    }
                }
            }
            let draws_per_rate = draws_per_rate / nows.len() as u64;
            if rate * mission > boundary_rm - 0.1 {
                assert_eq!(fast, 0, "rate {rate:e}: cut fired with rate·mission > 27.6");
            } else if rate * mission < 0.5 {
                // Where most clocks outlive the mission, most draws skip the log.
                assert!(fast > draws_per_rate / 2, "rate {rate:e}: only {fast} fast");
            }
        }
    }

    /// The integer cut decides exactly as `u > cut` does: at the mantissas
    /// around `⌊cut·2⁵³⌋`, at 0 and at 2⁵³ − 1, for rates from a tiny one
    /// (cut ≈ 1e-12) to past `rate·mission = ln 10¹²` (cut ≥ 1, where
    /// every mantissa passes).
    #[test]
    fn cut_mantissa_agrees_with_the_float_cut() {
        let mission = 10.0 * HOURS_PER_YEAR;
        let top = (1u64 << 53) - 1;
        let u = |m: u64| m as f64 * UNIT;
        let rates = [
            5e-324,
            1e-20,
            1e-9,
            2.5e-6,
            1e-4,
            27.0 / mission,
            27.7 / mission,
            40.0 / mission,
            f64::MAX,
        ];
        for rate in rates {
            let h = StartHorizon::new(rate, mission);
            let cut = h.cut();
            let c = h.cut_mantissa;
            if cut < 1.0 {
                // The floor: the last mantissa at or below the cut.
                assert!(u(c) <= cut && u(c + 1) > cut, "rate {rate:e}");
            } else {
                assert!(c >= 1 << 53, "rate {rate:e}: cut {cut} but mantissa {c}");
            }
            if rate * mission > 1e12f64.ln() {
                assert!(cut >= 1.0, "rate {rate:e}");
            }
            let near = (c.saturating_sub(2)..=c.saturating_add(2)).map(|m| m.min(top));
            for m in near.chain([0, 1, top - 1, top]) {
                assert_eq!(m <= c, u(m) <= cut, "rate {rate:e}, mantissa {m}");
            }
        }
    }

    /// The arming kernel is the scalar oracle run entity by entity: for
    /// widths 1–8 and blocks around 64, at non-zero counters, with random
    /// entities down, at start, mid-mission and at the horizon, it fires
    /// the same `(time bits, entity)` in the same order and leaves the
    /// same counters, inside the range and out of it.
    #[test]
    fn arming_kernel_matches_the_scalar_oracle() {
        use nsr_rng::Rng;
        let mission = 10.0 * HOURS_PER_YEAR;
        let crng = CounterRng::new(33);
        let mut rng = StdRng::seed_from_u64(33);
        let nows = [0.0, 0.4 * mission, 0.95 * mission, mission];
        let (mut fired, mut skipped, mut past) = (0u32, 0u32, 0u32);
        for rate in [0.0, 2.5e-6, 1.5e-5, 1e-4, 40.0 / mission] {
            let h = StartHorizon::new(rate, mission);
            for width in (1..=8).chain([9, 21, 63, 64, 65, 105, 130]) {
                for trial in 0..40 {
                    let first = rng.random_range_usize(0, 4);
                    let len = first + width + rng.random_range_usize(0, 4);
                    let range = first..first + width;
                    let counters: Vec<u64> = (0..len)
                        .map(|_| rng.random_range_usize(1, 1_000) as u64)
                        .collect();
                    let skip: Vec<bool> = (0..len)
                        .map(|_| rng.random_range_usize(0, 4) == 0)
                        .collect();
                    let streams = rng.random_range_usize(0, 1 << 40) as u64;
                    let now = nows[trial % nows.len()];

                    let mut want_counters = counters.clone();
                    let mut want = Vec::new();
                    if rate > 0.0 {
                        for i in range.clone() {
                            if skip[i] {
                                skipped += 1;
                                continue;
                            }
                            let u = crng.f64_at(streams + i as u64, want_counters[i]);
                            want_counters[i] += 1;
                            match h.next_failure(now, u) {
                                Some(t) => want.push((t.to_bits(), i as u32)),
                                None => past += 1,
                            }
                        }
                    }
                    let mut got_counters = counters.clone();
                    let mut got = Vec::new();
                    h.arm(
                        &crng,
                        streams,
                        range,
                        now,
                        &mut got_counters,
                        &skip,
                        |t, i| {
                            got.push((t.to_bits(), i));
                            Ok(())
                        },
                    )
                    .unwrap();
                    assert_eq!(got, want, "rate {rate:e}, width {width}, trial {trial}");
                    assert_eq!(got_counters, want_counters, "rate {rate:e}, width {width}");
                    fired += got.len() as u32;
                }
            }
        }
        assert!(
            fired > 10_000 && skipped > 5_000 && past > 10_000,
            "{fired} fired, {skipped} skipped, {past} past the horizon"
        );

        // The first error `fire` returns stops the kernel and comes back.
        let h = StartHorizon::new(40.0 / mission, mission);
        let mut calls = 0;
        let err = h.arm(&crng, 0, 0..8, 0.0, &mut [0; 8], &[false; 8], |t, _| {
            calls += 1;
            Err(Error::NonFiniteEventTime { time: t })
        });
        assert!(matches!(err, Err(Error::NonFiniteEventTime { .. })));
        assert_eq!(calls, 1);
    }

    #[test]
    fn ft1_fleet_sees_losses_near_analytic_rate() {
        // FT1 no-IR is weak enough for direct observation: a decade over
        // ~100 cells catches many losses, and the renewal rate must match
        // the analytic MTTDL to simulation accuracy (deterministic vs
        // exponential rebuilds, ~15 %).
        let params = Params::baseline();
        let c = config(InternalRaid::None, 1);
        let fleet = FleetSim::new(params, c, 100 * 64, 10.0).unwrap();
        let out = fleet.run(7, 0).unwrap();
        assert!(out.loss_count() > 20, "losses {}", out.loss_count());
        let (mttdl, (lo, hi)) = out.mttdl_estimate().unwrap();
        let analytic = fleet.analytic_cell_mttdl().unwrap();
        assert!(
            analytic > 0.5 * lo && analytic < 2.0 * hi,
            "direct {mttdl:.3e} [{lo:.3e}, {hi:.3e}] vs analytic {analytic:.3e}"
        );
        // Losses are sorted and within the mission.
        assert!(out
            .losses
            .windows(2)
            .all(|w| w[0].time_hours <= w[1].time_hours));
        assert!(out
            .losses
            .iter()
            .all(|l| l.time_hours > 0.0 && l.time_hours <= out.mission_hours));
    }

    #[test]
    fn worker_count_does_not_change_outcome() {
        let params = Params::baseline();
        let c = config(InternalRaid::None, 1);
        let fleet = FleetSim::new(params, c, 50 * 64, 5.0).unwrap();
        let one = fleet.run(42, 1).unwrap();
        let four = fleet.run(42, 4).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.canonical_trace(), four.canonical_trace());
    }

    #[test]
    fn different_seeds_diverge() {
        let params = Params::baseline();
        let c = config(InternalRaid::None, 1);
        let fleet = FleetSim::new(params, c, 50 * 64, 5.0).unwrap();
        let a = fleet.run(1, 2).unwrap();
        let b = fleet.run(2, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn internal_raid_fleet_runs() {
        // IR cells have node entities only; drive failures fold into λ_D.
        let mut params = Params::baseline();
        params.node.mttf = nsr_core::units::Hours(40_000.0);
        let c = config(InternalRaid::Raid5, 1);
        let fleet = FleetSim::new(params, c, 200 * 64, 10.0).unwrap();
        let out = fleet.run(3, 0).unwrap();
        assert_eq!(out.drive_failures, 0);
        assert_eq!(out.entities, out.bricks);
        assert!(out.node_failures > 0);
    }

    #[test]
    fn brick_count_rounds_up_to_whole_cells() {
        let params = Params::baseline();
        let c = config(InternalRaid::None, 2);
        let fleet = FleetSim::new(params, c, 100, 1.0).unwrap();
        assert_eq!(fleet.cells(), 2); // 100 bricks / 64 per cell → 2 cells
        assert_eq!(fleet.bricks(), 128);
        assert!(FleetSim::new(params, c, 0, 1.0).is_err());
        assert!(FleetSim::new(params, c, 10, 0.0).is_err());
        assert!(FleetSim::new(params, c, 10, f64::INFINITY).is_err());
    }

    #[test]
    fn rare_estimators_scale_to_fleet() {
        let params = Params::baseline();
        let c = config(InternalRaid::None, 2);
        let fleet = FleetSim::new(params, c, 10_000, 10.0).unwrap();
        let is = fleet.estimate_importance(IsOptions::default(), 11).unwrap();
        assert!(is.contains_analytic(4.0), "{:?}", is);
        assert!(
            (is.fleet_mttdl_hours - is.cell_mttdl.mtta / fleet.cells() as f64).abs()
                < 1e-9 * is.fleet_mttdl_hours
        );
        let sp = fleet
            .estimate_splitting(SplitOptions::default(), 11)
            .unwrap();
        assert!(sp.contains_analytic(4.0), "{:?}", sp);
    }
}
