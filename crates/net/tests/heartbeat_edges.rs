//! Heartbeat edge cases (satellite coverage): flapping bricks that die
//! and rejoin inside the suspect window, simultaneous death of exactly
//! `t` and of `t + 1` bricks, and clock-free determinism of the
//! detector — every test drives a `MockClock`, so there is no sleep and
//! no scheduler dependence anywhere in this file.

use std::sync::Arc;
use std::time::Duration;

use nsr_net::clock::MockClock;
use nsr_net::detector::{DetectorConfig, FailureDetector, Health};
use nsr_net::gateway::{GatewayConfig, RetryPolicy};
use nsr_net::local::{LocalCluster, Pace};
use nsr_net::Error;

fn det(clock: &MockClock, bricks: u32) -> FailureDetector {
    FailureDetector::new(
        Arc::new(clock.clone()),
        DetectorConfig {
            suspect_phi: 1.0,
            dead_phi: 3.0,
            initial_interval_s: 0.5,
            interval_alpha: 0.2,
        },
        0..bricks,
    )
}

fn warm(d: &mut FailureDetector, clock: &MockClock, bricks: u32, rounds: u32) {
    for _ in 0..rounds {
        clock.advance(0.5);
        for b in 0..bricks {
            d.heartbeat(b);
        }
        assert!(d.tick().is_empty());
    }
}

/// A brick that misses beats long enough to be suspected but resumes
/// before the dead threshold must flap back to Healthy — no death, no
/// rebuild, and the detection machinery keeps working afterwards.
#[test]
fn flap_within_suspect_window_returns_to_healthy() {
    let clock = MockClock::new();
    let mut d = det(&clock, 2);
    warm(&mut d, &clock, 2, 10);
    // Brick 1 misses beats: mean ≈ 0.5 s, so suspect at ~1.15 s of
    // silence and dead at ~3.45 s. Walk it into Suspect…
    let mut suspected = false;
    for _ in 0..3 {
        clock.advance(0.5);
        d.heartbeat(0);
        for tr in d.tick() {
            assert_eq!((tr.brick, tr.to), (1, Health::Suspect));
            suspected = true;
        }
    }
    assert!(suspected, "brick 1 must reach Suspect");
    assert_eq!(d.health(1), Some(Health::Suspect));
    // …then resume inside the window: the flap transition is
    // Suspect → Healthy, not a rejoin, and no death is ever recorded.
    let tr = d.heartbeat(1).expect("flap transition");
    assert_eq!((tr.from, tr.to), (Health::Suspect, Health::Healthy));
    assert!(tr.detection_latency_s.is_none());
    warm(&mut d, &clock, 2, 10);
    assert_eq!(d.health(1), Some(Health::Healthy));
}

/// Repeated flapping must never escalate: a brick that oscillates
/// between silence-to-Suspect and resume never reaches Dead.
#[test]
fn repeated_flapping_never_escalates_to_dead() {
    let clock = MockClock::new();
    let mut d = det(&clock, 2);
    warm(&mut d, &clock, 2, 10);
    for _ in 0..8 {
        // Two missed rounds: into (or toward) Suspect…
        for _ in 0..3 {
            clock.advance(0.5);
            d.heartbeat(0);
            for tr in d.tick() {
                assert_ne!(tr.to, Health::Dead, "flapping must not kill the brick");
            }
        }
        // …then one beat to recover. The EWMA absorbs the long gap, so
        // thresholds adapt rather than ratchet.
        d.heartbeat(1);
        for _ in 0..4 {
            clock.advance(0.5);
            d.heartbeat(0);
            d.heartbeat(1);
            d.tick();
        }
    }
    assert_eq!(d.health(0), Some(Health::Healthy));
    assert_eq!(d.health(1), Some(Health::Healthy));
}

/// Exactly `t` and `t + 1` simultaneous deaths, at the detector level:
/// every victim individually walks Suspect → Dead with a latency
/// measurement, and the survivor set is exact.
#[test]
fn simultaneous_deaths_t_and_t_plus_one_detected_exactly() {
    for victims in [2u32, 3u32] {
        let clock = MockClock::new();
        let bricks = 6;
        let mut d = det(&clock, bricks);
        warm(&mut d, &clock, bricks, 10);
        let mut deaths = Vec::new();
        for _ in 0..12 {
            clock.advance(0.5);
            for b in victims..bricks {
                d.heartbeat(b);
            }
            for tr in d.tick() {
                if tr.to == Health::Dead {
                    assert!(tr.detection_latency_s.expect("latency") > 0.0);
                    deaths.push(tr.brick);
                }
            }
        }
        deaths.sort_unstable();
        assert_eq!(deaths, (0..victims).collect::<Vec<_>>());
        assert_eq!(d.healthy(), (victims..bricks).collect::<Vec<_>>());
        assert_eq!(d.failed(), (0..victims).collect::<Vec<_>>());
    }
}

/// Repeated kill/rejoin cycles must not slow detection down: the
/// silence while a brick is dead is not an inter-arrival sample, so the
/// estimate (and with it the dead threshold) must not ratchet upward
/// cycle over cycle.
#[test]
fn detection_latency_stable_across_kill_rejoin_cycles() {
    let clock = MockClock::new();
    let mut d = det(&clock, 2);
    warm(&mut d, &clock, 2, 10);
    let mut latencies = Vec::new();
    for _ in 0..6 {
        // Brick 1 goes silent until declared dead.
        let mut latency = None;
        for _ in 0..64 {
            clock.advance(0.5);
            d.heartbeat(0);
            for tr in d.tick() {
                if tr.brick == 1 && tr.to == Health::Dead {
                    latency = tr.detection_latency_s;
                }
            }
            if latency.is_some() {
                break;
            }
        }
        latencies.push(latency.expect("brick 1 declared dead"));
        // It comes back, is adopted, and beats steadily again.
        let tr = d.heartbeat(1).expect("rejoin transition");
        assert_eq!(tr.to, Health::Rejoined);
        d.adopt_spare(1).expect("adopt");
        warm(&mut d, &clock, 2, 10);
    }
    let first = latencies[0];
    for (i, &l) in latencies.iter().enumerate() {
        assert!(
            (l - first).abs() < 1.0,
            "cycle {i} latency {l:.2}s drifted from {first:.2}s: the dead gap leaked into the estimate"
        );
    }
}

/// The same two runs, bit for bit: transition log, φ values, latencies.
#[test]
fn detector_is_clock_free_deterministic() {
    let run = || {
        let clock = MockClock::new();
        let mut d = det(&clock, 5);
        let mut log: Vec<String> = Vec::new();
        for step in 0usize..60 {
            clock.advance(0.25);
            for b in 0..5u32 {
                // Per-brick beat patterns: 0–2 steady, 3 bursty (flaps
                // in and out of Suspect), 4 goes silent for good —
                // the log covers flaps, a death, and staggered timing.
                let beats = match b {
                    3 => step % 7 < 3,
                    4 => step < 20,
                    _ => step % 2 == 0,
                };
                if beats {
                    d.heartbeat(b);
                }
            }
            for tr in d.tick() {
                log.push(format!(
                    "{step} {} {:?}->{:?} lat={:?}",
                    tr.brick, tr.from, tr.to, tr.detection_latency_s
                ));
            }
            log.push(format!("{step} phi0={:.6} phi4={:.6}", d.phi(0), d.phi(4)));
        }
        log
    };
    assert_eq!(run(), run());
}

/// System-level t vs t+1, on live bricks: with `t = 2` parity, two
/// simultaneous brick deaths leave every object readable (degraded at
/// worst); three deaths produce typed `DataLoss` on exactly the
/// stripes that lost more than `t` shards — and nothing else.
#[test]
fn t_deaths_readable_t_plus_one_typed_loss() {
    let bricks = 6;
    let mut cfg = GatewayConfig::new(2, 2);
    cfg.timeout = Duration::from_millis(300);
    cfg.retry = RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    };
    let mut cluster = LocalCluster::start(bricks, cfg, Pace::Mock).expect("cluster");
    for _ in 0..10 {
        cluster.pump();
    }
    let n_objects = 12u64;
    for id in 0..n_objects {
        cluster.gw.put(id, &vec![id as u8; 2048]).expect("put");
    }
    // Exactly t = 2 deaths: everything stays readable.
    cluster.stop(0).expect("stop");
    cluster.stop(1).expect("stop");
    for id in 0..n_objects {
        let (bytes, _) = cluster.gw.get(id).expect("readable at exactly t deaths");
        assert_eq!(bytes, vec![id as u8; 2048]);
    }
    // One more (t + 1 = 3 dead): loss appears, typed, on exactly the
    // stripes with > t dead shards.
    cluster.stop(2).expect("stop");
    for id in 0..n_objects {
        let layout = cluster.gw.object_layout(id).expect("layout");
        let dead_in_layout = layout.iter().filter(|&&b| b <= 2).count();
        match cluster.gw.get(id) {
            Ok((bytes, _)) => {
                assert!(dead_in_layout <= 2, "obj{id} should have been lost");
                assert_eq!(bytes, vec![id as u8; 2048]);
            }
            Err(Error::DataLoss {
                object,
                missing,
                tolerated,
            }) => {
                assert_eq!(object, id);
                assert_eq!(tolerated, 2);
                assert!(
                    dead_in_layout > 2,
                    "obj{id} lost with only {dead_in_layout} dead"
                );
                assert_eq!(missing, dead_in_layout);
            }
            Err(e) => panic!("obj{id}: unexpected error {e:?}"),
        }
    }
}
