//! φ-style heartbeat failure detection with an explicit health state
//! machine per brick:
//!
//! ```text
//! Healthy --(φ ≥ suspect_phi)--> Suspect --(φ ≥ dead_phi)--> Dead
//!    ^                              |                          |
//!    |        (heartbeat: flap)     |      (coordinator)       v
//!    +------------------------------+                     Rebuilding
//!    ^                                                         |
//!    |  (coordinator wipes + adopts as spare)                  v
//!    +----------------------------------------- Rejoined <-(heartbeat)
//! ```
//!
//! The suspicion level follows the φ-accrual detector of Hayashibara et
//! al. under an exponential inter-arrival assumption: with `mean` the
//! smoothed heartbeat interval, the probability that a heartbeat is
//! still coming after silence `Δ` is `exp(-Δ/mean)`, so
//! `φ = Δ / (mean · ln 10)` — φ = 1 means 90 % confident the brick is
//! gone, φ = 3 means 99.9 %. Time comes only from the injected
//! [`Clock`], so tests drive every transition deterministically.

use std::collections::BTreeMap;
use std::sync::Arc;

use nsr_obs::Json;

use crate::clock::Clock;
use crate::obs;

/// A brick's position in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Heartbeating normally; serves reads and accepts writes.
    Healthy,
    /// Heartbeats overdue past the suspect threshold; reads avoid it
    /// when alternatives exist, writes exclude it.
    Suspect,
    /// Declared failed; the rebuild coordinator should re-replicate its
    /// shards.
    Dead,
    /// Declared failed and a rebuild of its shards is in progress.
    Rebuilding,
    /// A previously dead brick resumed heartbeating. It holds no useful
    /// state (kill-9 of an in-memory brick loses everything), so the
    /// coordinator wipes it and re-admits it as a spare.
    Rejoined,
}

impl Health {
    /// Whether the brick is worth contacting for a read at all.
    pub fn readable(self) -> bool {
        matches!(self, Health::Healthy | Health::Suspect)
    }

    /// Short lowercase name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Suspect => "suspect",
            Health::Dead => "dead",
            Health::Rebuilding => "rebuilding",
            Health::Rejoined => "rejoined",
        }
    }
}

/// A single health state change, as returned by [`FailureDetector::tick`]
/// and the heartbeat/coordinator methods.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// The brick that changed state.
    pub brick: u32,
    /// Previous state.
    pub from: Health,
    /// New state.
    pub to: Health,
    /// Clock time of the change, seconds.
    pub at_s: f64,
    /// For transitions into [`Health::Dead`]: seconds of silence between
    /// the brick's last heartbeat and the declaration — the detection
    /// latency the paper's MTTDL models take as an input parameter.
    pub detection_latency_s: Option<f64>,
}

/// Thresholds and smoothing for the detector.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// φ at which a brick becomes [`Health::Suspect`].
    pub suspect_phi: f64,
    /// φ at which a brick becomes [`Health::Dead`]. Must exceed
    /// `suspect_phi`.
    pub dead_phi: f64,
    /// Assumed heartbeat interval before any arrivals are observed,
    /// seconds.
    pub initial_interval_s: f64,
    /// EWMA weight given to each newly observed interval (0 < α ≤ 1).
    pub interval_alpha: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            suspect_phi: 1.0,
            dead_phi: 3.0,
            initial_interval_s: 0.5,
            interval_alpha: 0.2,
        }
    }
}

#[derive(Debug)]
struct Track {
    health: Health,
    last_heartbeat_s: f64,
    mean_interval_s: f64,
    seen_any: bool,
    snap_seq: u64,
    snap_at_s: f64,
}

/// Heartbeat bookkeeping and health state for a set of bricks.
///
/// The detector is passive: it never touches the network. Callers feed
/// it [`heartbeat`](FailureDetector::heartbeat) arrivals and call
/// [`tick`](FailureDetector::tick) to evaluate silence against the
/// thresholds; both return the transitions they caused, in brick-id
/// order, so a driving loop is fully deterministic under a mock clock.
pub struct FailureDetector {
    clock: Arc<dyn Clock>,
    cfg: DetectorConfig,
    tracks: BTreeMap<u32, Track>,
}

impl FailureDetector {
    /// Creates a detector over `bricks`, all initially healthy with the
    /// configured prior interval, "last heard" anchored at the current
    /// clock reading.
    pub fn new(
        clock: Arc<dyn Clock>,
        cfg: DetectorConfig,
        bricks: impl IntoIterator<Item = u32>,
    ) -> Self {
        assert!(
            cfg.dead_phi > cfg.suspect_phi && cfg.suspect_phi > 0.0,
            "thresholds must satisfy 0 < suspect_phi < dead_phi"
        );
        let now = clock.now_s();
        let tracks = bricks
            .into_iter()
            .map(|id| {
                (
                    id,
                    Track {
                        health: Health::Healthy,
                        last_heartbeat_s: now,
                        mean_interval_s: cfg.initial_interval_s,
                        seen_any: false,
                        snap_seq: 0,
                        snap_at_s: now,
                    },
                )
            })
            .collect();
        let det = FailureDetector { clock, cfg, tracks };
        det.update_healthy_gauge();
        det
    }

    /// Current health of `brick`, if tracked.
    pub fn health(&self, brick: u32) -> Option<Health> {
        self.tracks.get(&brick).map(|t| t.health)
    }

    /// Brick ids currently [`Health::Healthy`], ascending.
    pub fn healthy(&self) -> Vec<u32> {
        self.tracks
            .iter()
            .filter(|(_, t)| t.health == Health::Healthy)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Brick ids in `Dead` or `Rebuilding` — the set whose shards need
    /// (or are getting) re-replication.
    pub fn failed(&self) -> Vec<u32> {
        self.tracks
            .iter()
            .filter(|(_, t)| matches!(t.health, Health::Dead | Health::Rebuilding))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Current suspicion level for `brick` (0 when unknown).
    pub fn phi(&self, brick: u32) -> f64 {
        let Some(t) = self.tracks.get(&brick) else {
            return 0.0;
        };
        let silence = (self.clock.now_s() - t.last_heartbeat_s).max(0.0);
        silence / (t.mean_interval_s.max(1e-9) * std::f64::consts::LN_10)
    }

    /// Records a heartbeat arrival from `brick`. Returns the transition
    /// it caused, if any: `Suspect → Healthy` (a flap) or
    /// `Dead`/`Rebuilding → Rejoined` (the killed process came back).
    pub fn heartbeat(&mut self, brick: u32) -> Option<Transition> {
        let now = self.clock.now_s();
        let cfg_alpha = self.cfg.interval_alpha;
        let initial = self.cfg.initial_interval_s;
        let t = self.tracks.get_mut(&brick)?;
        let interval = now - t.last_heartbeat_s;
        if matches!(t.health, Health::Dead | Health::Rebuilding) {
            // A resurrection: the silence while the brick was down is
            // not an inter-arrival sample. Absorbing it would inflate
            // the estimate and slow every *subsequent* detection — the
            // error compounds across kill/rejoin cycles. Restart the
            // estimate as for a freshly tracked brick instead.
            t.mean_interval_s = initial;
            t.seen_any = false;
        } else if t.seen_any {
            t.mean_interval_s = (1.0 - cfg_alpha) * t.mean_interval_s + cfg_alpha * interval;
        } else {
            t.mean_interval_s = interval.max(1e-6);
            t.seen_any = true;
        }
        t.last_heartbeat_s = now;
        let from = t.health;
        let to = match from {
            Health::Suspect => Health::Healthy,
            Health::Dead | Health::Rebuilding => Health::Rejoined,
            same => same,
        };
        if to == from {
            return None;
        }
        t.health = to;
        self.emit(brick, from, to, now, None);
        Some(Transition {
            brick,
            from,
            to,
            at_s: now,
            detection_latency_s: None,
        })
    }

    /// Evaluates every brick's silence against the thresholds and
    /// applies `Healthy → Suspect` and `Suspect → Dead` transitions.
    /// Returns the transitions in ascending brick-id order.
    pub fn tick(&mut self) -> Vec<Transition> {
        let now = self.clock.now_s();
        let mut out = Vec::new();
        let ids: Vec<u32> = self.tracks.keys().copied().collect();
        for id in ids {
            let t = &self.tracks[&id];
            let silence = (now - t.last_heartbeat_s).max(0.0);
            let phi = silence / (t.mean_interval_s.max(1e-9) * std::f64::consts::LN_10);
            let (from, to) = match t.health {
                Health::Healthy if phi >= self.cfg.suspect_phi => {
                    (Health::Healthy, Health::Suspect)
                }
                Health::Suspect if phi >= self.cfg.dead_phi => (Health::Suspect, Health::Dead),
                _ => continue,
            };
            // A very long silence can cross both thresholds in one tick;
            // Healthy still passes through Suspect so observers see the
            // full state machine, but both transitions land in this call.
            self.tracks.get_mut(&id).expect("tracked").health = to;
            let latency = if to == Health::Dead {
                Some(silence)
            } else {
                None
            };
            self.emit(id, from, to, now, latency);
            out.push(Transition {
                brick: id,
                from,
                to,
                at_s: now,
                detection_latency_s: latency,
            });
            if to == Health::Suspect && phi >= self.cfg.dead_phi {
                self.tracks.get_mut(&id).expect("tracked").health = Health::Dead;
                self.emit(id, Health::Suspect, Health::Dead, now, Some(silence));
                out.push(Transition {
                    brick: id,
                    from: Health::Suspect,
                    to: Health::Dead,
                    at_s: now,
                    detection_latency_s: Some(silence),
                });
            }
        }
        if !out.is_empty() {
            self.update_healthy_gauge();
        }
        out
    }

    /// Records the metrics-snapshot sequence number piggybacked on a
    /// heartbeat ack. The snapshot timestamp only advances when the
    /// sequence changes, so [`snapshot_age_s`](Self::snapshot_age_s)
    /// measures how stale the last *served scrape* is — the piggybacked
    /// staleness signal costs no extra round trip.
    pub fn note_snapshot(&mut self, brick: u32, snap_seq: u64) {
        let now = self.clock.now_s();
        if let Some(t) = self.tracks.get_mut(&brick) {
            if t.snap_seq != snap_seq {
                t.snap_seq = snap_seq;
                t.snap_at_s = now;
            }
        }
    }

    /// Seconds since `brick`'s scrape-snapshot sequence last advanced
    /// (`None` for untracked bricks). A collector whose scrape loop has
    /// stalled shows up here as unbounded growth while heartbeats — and
    /// therefore this signal — keep flowing.
    pub fn snapshot_age_s(&self, brick: u32) -> Option<f64> {
        self.tracks
            .get(&brick)
            .map(|t| (self.clock.now_s() - t.snap_at_s).max(0.0))
    }

    /// The last scrape-snapshot sequence observed for `brick`.
    pub fn snapshot_seq(&self, brick: u32) -> Option<u64> {
        self.tracks.get(&brick).map(|t| t.snap_seq)
    }

    /// Marks a dead brick as having its shards rebuilt. Coordinator-only
    /// transition; no-op unless the brick is `Dead`.
    pub fn mark_rebuilding(&mut self, brick: u32) -> Option<Transition> {
        self.coordinator_transition(brick, Health::Dead, Health::Rebuilding)
    }

    /// Re-admits a rejoined (wiped) brick as a healthy spare.
    /// Coordinator-only transition; no-op unless the brick is `Rejoined`.
    pub fn adopt_spare(&mut self, brick: u32) -> Option<Transition> {
        self.coordinator_transition(brick, Health::Rejoined, Health::Healthy)
    }

    /// Marks a rebuilt brick's rebuild as finished. The brick stays out
    /// of service (`Dead`) until it rejoins via heartbeat; no-op unless
    /// it is `Rebuilding`.
    pub fn finish_rebuilding(&mut self, brick: u32) -> Option<Transition> {
        self.coordinator_transition(brick, Health::Rebuilding, Health::Dead)
    }

    fn coordinator_transition(
        &mut self,
        brick: u32,
        from: Health,
        to: Health,
    ) -> Option<Transition> {
        let now = self.clock.now_s();
        let t = self.tracks.get_mut(&brick)?;
        if t.health != from {
            return None;
        }
        t.health = to;
        if to == Health::Healthy {
            // Adopting a spare restarts its heartbeat history.
            t.last_heartbeat_s = now;
        }
        self.emit(brick, from, to, now, None);
        self.update_healthy_gauge();
        Some(Transition {
            brick,
            from,
            to,
            at_s: now,
            detection_latency_s: None,
        })
    }

    fn emit(&self, brick: u32, from: Health, to: Health, at_s: f64, latency: Option<f64>) {
        let name = match to {
            Health::Suspect => "net.detect.suspect",
            Health::Dead => "net.detect.dead",
            Health::Rejoined => "net.detect.rejoin",
            Health::Rebuilding => "net.detect.rebuilding",
            Health::Healthy => "net.detect.recover",
        };
        nsr_obs::trace::event(name, || {
            let mut f = vec![
                ("brick", Json::Num(brick as f64)),
                ("from", Json::Str(from.name().into())),
                ("to", Json::Str(to.name().into())),
                ("at_s", Json::Num(at_s)),
            ];
            if let Some(l) = latency {
                f.push(("latency_s", Json::Num(l)));
            }
            f
        });
        match to {
            Health::Dead => {
                obs::DEATHS.inc();
                if let Some(l) = latency {
                    obs::DETECT_LATENCY_S.observe(l);
                }
            }
            Health::Rejoined => obs::REJOINS.inc(),
            _ => {}
        }
    }

    fn update_healthy_gauge(&self) {
        obs::HEALTHY_BRICKS.set(
            self.tracks
                .values()
                .filter(|t| t.health == Health::Healthy)
                .count() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;

    fn detector(clock: &MockClock, bricks: u32) -> FailureDetector {
        FailureDetector::new(
            Arc::new(clock.clone()),
            DetectorConfig::default(),
            0..bricks,
        )
    }

    /// Warm up heartbeat history at a steady interval so φ is predictable.
    fn warm(det: &mut FailureDetector, clock: &MockClock, bricks: u32, beats: u32) {
        for _ in 0..beats {
            clock.advance(0.5);
            for b in 0..bricks {
                det.heartbeat(b);
            }
            assert!(det.tick().is_empty(), "no transitions during warm-up");
        }
    }

    #[test]
    fn steady_heartbeats_stay_healthy() {
        let clock = MockClock::new();
        let mut det = detector(&clock, 3);
        warm(&mut det, &clock, 3, 20);
        for b in 0..3 {
            assert_eq!(det.health(b), Some(Health::Healthy));
        }
    }

    #[test]
    fn silence_walks_healthy_suspect_dead() {
        let clock = MockClock::new();
        let mut det = detector(&clock, 2);
        warm(&mut det, &clock, 2, 10);
        // Brick 1 goes silent; brick 0 keeps beating.
        let mut states = Vec::new();
        for _ in 0..20 {
            clock.advance(0.5);
            det.heartbeat(0);
            for tr in det.tick() {
                assert_eq!(tr.brick, 1);
                states.push(tr.to);
                if tr.to == Health::Dead {
                    let lat = tr.detection_latency_s.expect("death carries latency");
                    assert!(lat > 0.0);
                }
            }
        }
        assert_eq!(states, vec![Health::Suspect, Health::Dead]);
        assert_eq!(det.health(0), Some(Health::Healthy));
        assert_eq!(det.healthy(), vec![0]);
        assert_eq!(det.failed(), vec![1]);
    }

    #[test]
    fn mock_clock_runs_are_bit_identical() {
        let run = || {
            let clock = MockClock::new();
            let mut det = detector(&clock, 4);
            warm(&mut det, &clock, 4, 8);
            let mut log = Vec::new();
            for step in 0..30 {
                clock.advance(0.5);
                for b in 0..4 {
                    // Bricks 2 and 3 die at step 10.
                    if step < 10 || b < 2 {
                        det.heartbeat(b);
                    }
                }
                for tr in det.tick() {
                    log.push((step, tr.brick, tr.to, tr.detection_latency_s));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_age_tracks_scrape_staleness_not_heartbeats() {
        let clock = MockClock::new();
        let mut det = detector(&clock, 2);
        warm(&mut det, &clock, 2, 4);
        // First scrape observed via a heartbeat ack.
        det.note_snapshot(0, 1);
        assert_eq!(det.snapshot_seq(0), Some(1));
        assert_eq!(det.snapshot_age_s(0), Some(0.0));
        // Heartbeats keep flowing but the scrape loop has stalled: the
        // same snap_seq arrives on every ack, and the age keeps growing.
        for _ in 0..6 {
            clock.advance(0.5);
            det.heartbeat(0);
            det.note_snapshot(0, 1);
        }
        assert_eq!(det.snapshot_age_s(0), Some(3.0));
        // A fresh scrape bumps the sequence and resets the age.
        det.note_snapshot(0, 2);
        assert_eq!(det.snapshot_age_s(0), Some(0.0));
        clock.advance(1.0);
        assert_eq!(det.snapshot_age_s(0), Some(1.0));
        // Untracked bricks report nothing.
        assert_eq!(det.snapshot_age_s(9), None);
    }

    #[test]
    fn coordinator_lifecycle_dead_rebuilding_rejoined_spare() {
        let clock = MockClock::new();
        let mut det = detector(&clock, 2);
        warm(&mut det, &clock, 2, 10);
        // Kill brick 1 and walk it to Dead.
        for _ in 0..20 {
            clock.advance(0.5);
            det.heartbeat(0);
            det.tick();
        }
        assert_eq!(det.health(1), Some(Health::Dead));
        assert!(det.mark_rebuilding(1).is_some());
        assert_eq!(det.health(1), Some(Health::Rebuilding));
        // The killed process restarts and heartbeats → Rejoined, not Healthy.
        let tr = det.heartbeat(1).expect("rejoin transition");
        assert_eq!((tr.from, tr.to), (Health::Rebuilding, Health::Rejoined));
        // Writes still avoid it until the coordinator adopts it.
        assert_eq!(det.healthy(), vec![0]);
        assert!(det.adopt_spare(1).is_some());
        assert_eq!(det.healthy(), vec![0, 1]);
    }
}
