//! Bit pins for the planner, captured before its closed-form pass was
//! split into class, geometry and point stages.
//!
//! Every feasible point's pass-1 fields (grid index, both costs, closed
//! MTTDL and closed events per PB-year) and every infeasible point's
//! error text are hashed with FNV-1a over `to_bits`, and so is every
//! field of the pruned and exhaustive `PlanReport`s except the
//! worker-dependent `skeleton_*` tallies. The grids are the repo
//! benchmark's 11,520 points and `BENCH_plan.json`'s 115,200. A pruned
//! point never reaches a frontier, so without the pass-1 hash an ulp of
//! drift in its closed form would show only if it flipped a pruning
//! decision.

use nsr_core::params::Params;
use nsr_core::plan::{closed_form_pass, plan_search, ConfigSpace, PlanOptions, PlanReport};
use nsr_core::raid::InternalRaid;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The repo benchmark's grid (`model_batch`, `BENCH_plan.json`'s
/// `grid_11520` rows).
fn bench_grid() -> ConfigSpace {
    ConfigSpace {
        nodes: vec![16, 32, 64, 128, 256],
        data_shards: (2..=13).collect(),
        node_ft: vec![1, 2, 3, 4],
        internal: InternalRaid::all().to_vec(),
        spare_frac: vec![0.0, 0.1, 0.25, 0.4],
        rebuild_bw: vec![0.05, 0.1, 0.2, 0.4],
    }
}

/// `BENCH_plan.json`'s `grid_115200` space.
fn wide_grid() -> ConfigSpace {
    ConfigSpace {
        nodes: vec![16, 24, 32, 48, 64, 96, 128, 192, 256, 384],
        data_shards: (2..=25).collect(),
        spare_frac: (0..10).map(|i| f64::from(i) * 0.05).collect(),
        ..bench_grid()
    }
}

fn pass1_hash(space: &ConfigSpace) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut feasible = 0;
    for (idx, point) in closed_form_pass(&Params::baseline(), space)
        .unwrap()
        .iter()
        .enumerate()
    {
        h.word(idx as u64);
        match point {
            Ok(p) => {
                assert_eq!(p.index, idx);
                h.float(p.cost_overhead);
                h.float(p.cost_rebuild_bw);
                h.float(p.closed_mttdl_hours);
                h.float(p.closed_events_pb_year);
                feasible += 1;
            }
            Err(e) => h.text(&e.to_string()),
        }
    }
    (h.0, feasible)
}

fn report_hash(r: &PlanReport) -> u64 {
    let mut h = Fnv::new();
    for n in [
        r.grid_points,
        r.feasible,
        r.pruned,
        r.solved,
        r.guard_violations,
    ] {
        h.word(n as u64);
    }
    h.word(u64::from(r.exhaustive_fallback));
    h.float(r.mission_years);
    h.word(r.frontier.len() as u64);
    for f in &r.frontier {
        let p = &f.point;
        h.word(p.index as u64);
        h.text(&p.point.config_code());
        h.text(&p.config.to_string());
        for n in [p.point.nodes, p.point.data_shards, p.point.node_ft] {
            h.word(u64::from(n));
        }
        for x in [
            p.point.spare_frac,
            p.point.rebuild_bw,
            p.cost_overhead,
            p.cost_rebuild_bw,
            p.closed_mttdl_hours,
            p.closed_events_pb_year,
            f.exact_mttdl_hours,
            f.exact_events_pb_year,
            f.exact_mission_loss,
        ] {
            h.float(x);
        }
    }
    h.word(r.infeasible_examples.len() as u64);
    for (p, why) in &r.infeasible_examples {
        h.text(&p.config_code());
        for n in [p.nodes, p.data_shards] {
            h.word(u64::from(n));
        }
        h.float(p.spare_frac);
        h.float(p.rebuild_bw);
        h.text(why);
    }
    h.0
}

fn search(space: &ConfigSpace, workers: usize, exhaustive: bool) -> PlanReport {
    let opts = PlanOptions {
        workers,
        exhaustive,
        ..PlanOptions::default()
    };
    plan_search(&Params::baseline(), space, &opts).unwrap()
}

/// Checks one grid: the pass-1 hash, then the pruned report at 1 and 3
/// workers and the exhaustive one, each against its pin.
fn check(space: &ConfigSpace, pins: [u64; 3], feasible: usize) {
    let (pass1, n) = pass1_hash(space);
    assert_eq!(n, feasible, "feasible points");
    assert_eq!(pass1, pins[0], "pass-1 closed forms: {pass1:#018x}");
    for workers in [1, 3] {
        let got = report_hash(&search(space, workers, false));
        assert_eq!(
            got, pins[1],
            "pruned report, {workers} workers: {got:#018x}"
        );
    }
    let got = report_hash(&search(space, 1, true));
    assert_eq!(got, pins[2], "exhaustive report: {got:#018x}");
}

#[test]
fn bench_grid_pass1_and_reports_are_pinned() {
    check(
        &bench_grid(),
        [
            0xf6b1_31d3_a93e_2701,
            0x4e71_079f_3f7b_4998,
            0xbf4b_3c4a_3a78_fbf1,
        ],
        11_472,
    );
}

#[test]
fn wide_grid_pass1_and_reports_are_pinned() {
    check(
        &wide_grid(),
        [
            0xbb89_6c78_1f55_7ed3,
            0xcc12_f24e_b563_120a,
            0x24e3_c33f_ca64_ed60,
        ],
        108_000,
    );
}
