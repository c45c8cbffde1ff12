//! Named benchmark suites with a machine-readable report format.
//!
//! Each suite runs a fixed set of [`Timing::measure`] cases and renders
//! the results as a `BENCH_<suite>.json` document with the stable schema
//!
//! ```json
//! {
//!   "schema": "nsr-bench/v1",
//!   "suite": "erasure",
//!   "mode": "full",
//!   "results": [
//!     { "name": "...", "ns_per_iter": 123.4,
//!       "bytes_per_iter": 65536, "mib_per_s": 3200.5 }
//!   ]
//! }
//! ```
//!
//! `mib_per_s` is `null` for cases where throughput is meaningless
//! (solvers, simulators). Two fidelities exist: [`Mode::Full`] for the
//! recorded numbers checked into the repository, and [`Mode::Smoke`] for
//! the offline CI gate — tiny time budgets and shrunken problem sizes
//! that prove the harness runs end to end, not that the numbers are
//! stable. [`validate_report`] checks a parsed document against the
//! schema; the CI smoke step re-reads what the harness wrote and fails
//! on any drift.
//!
//! The erasure suite deliberately includes `seed_baseline/*` cases that
//! re-run the original scalar log/exp kernel and recover-everything
//! decode path (via [`nsr_erasure::gf256::mul_acc_reference`] and the
//! public [`GfMatrix`] API), so every report carries its own
//! before/after comparison.

use std::fmt;

use crate::timing::{Measurement, Timing};

use nsr_core::config::{CachedEvaluator, Configuration};
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::recursive::RecursiveModel;
use nsr_core::sweep::{fig13_baseline, figure_sweep};
use nsr_core::units::PerHour;
use nsr_erasure::gf256::{mul_acc, mul_acc_portable, mul_acc_reference, xor_acc, Gf};
use nsr_erasure::matrix::GfMatrix;
use nsr_erasure::placement::Placement;
use nsr_erasure::rs::ReedSolomon;
use nsr_markov::AbsorbingAnalysis;
use nsr_obs::Json;
use nsr_rng::rngs::StdRng;
use nsr_rng::SeedableRng;
use nsr_sim::fleet::FleetSim;
use nsr_sim::importance::{Options, RareEvent};
use nsr_sim::splitting::{SplitOptions, Splitting};
use nsr_sim::system::SystemSim;

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "nsr-bench/v1";

/// The suite names, in the order `all` runs them. `obs` runs last so its
/// enable/disable toggling never overlaps another suite's measurements.
pub const SUITE_NAMES: [&str; 8] = [
    "erasure", "solvers", "sweep", "plan", "sim", "net", "serving", "obs",
];

/// Measurement fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Recorded numbers: 120 ms × 7 samples, full problem sizes.
    Full,
    /// CI gate: millisecond budgets and shrunken sizes.
    Smoke,
}

impl Mode {
    /// The timing configuration for this fidelity.
    pub fn timing(self) -> Timing {
        match self {
            Mode::Full => Timing::full(),
            Mode::Smoke => Timing::smoke(),
        }
    }

    /// The string stored in the report's `mode` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Smoke => "smoke",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed suite run.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Suite name (`erasure`, `solvers`, `sim`).
    pub suite: &'static str,
    /// Fidelity the run used.
    pub mode: Mode,
    /// The measurements, in execution order.
    pub results: Vec<Measurement>,
}

impl Suite {
    /// The canonical report file name, `BENCH_<suite>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.suite)
    }

    /// Renders the report document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("suite", Json::Str(self.suite.into())),
            ("mode", Json::Str(self.mode.as_str().into())),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|m| {
                            let mut fields = vec![
                                ("name", Json::Str(m.name.clone())),
                                ("ns_per_iter", Json::Num(m.ns_per_iter)),
                                ("bytes_per_iter", Json::Num(m.bytes_per_iter as f64)),
                                ("mib_per_s", m.mib_per_s().map_or(Json::Null, Json::Num)),
                            ];
                            // Optional item-rate fields (schema-compatible:
                            // absent for byte-throughput and plain-time
                            // cases, so pre-existing reports stay valid).
                            if let Some(rate) = m.items_per_s() {
                                fields.push(("items_per_iter", Json::Num(m.items_per_iter as f64)));
                                fields.push(("items_per_s", Json::Num(rate)));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the human-readable table printed alongside the JSON.
    pub fn render_human(&self) -> String {
        let mut out = format!("suite {} (mode: {})\n", self.suite, self.mode);
        for m in &self.results {
            out.push_str(&m.render());
            out.push('\n');
        }
        out
    }
}

/// Runs the suite with the given name.
///
/// # Errors
///
/// Unknown names, and internal model-construction failures (which would
/// indicate a bug — the parameters are fixed known-good ones), are
/// reported as strings suitable for CLI display.
pub fn run_suite(name: &str, mode: Mode) -> Result<Suite, String> {
    match name {
        "erasure" => erasure_suite(mode),
        "solvers" => solvers_suite(mode),
        "sweep" => sweep_suite(mode),
        "plan" => plan_suite(mode),
        "sim" => sim_suite(mode),
        "net" => net_suite(mode),
        "serving" => serving_suite(mode),
        "obs" => obs_suite(mode),
        other => Err(format!(
            "unknown suite `{other}` (expected one of: {})",
            SUITE_NAMES.join(", ")
        )),
    }
}

fn err<E: fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The erasure hot-path suite: GF(2⁸) kernels and Reed–Solomon
/// encode/reconstruct at the headline geometry `k = 10, t = 2` with
/// 64 KiB shards (4 KiB in smoke mode), the store's 6+2 codec rows at the
/// shard sizes its workloads move (`rs_k6_t2/*`, full size in both
/// modes), plus the `seed_baseline/*` before-datapoints.
pub fn erasure_suite(mode: Mode) -> Result<Suite, String> {
    let t = mode.timing();
    let (shard, label) = match mode {
        Mode::Full => (64 * 1024usize, "64k"),
        Mode::Smoke => (4 * 1024usize, "4k"),
    };
    let mut results = Vec::new();

    // Raw kernels over one shard-sized slice.
    let src: Vec<u8> = (0..shard).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; shard];
    results.push(t.measure(
        &format!("gf256/mul_acc_reference_{label}"),
        shard as u64,
        || mul_acc_reference(&mut dst, &src, Gf(0x57)),
    ));
    results.push(t.measure(
        &format!("gf256/mul_acc_portable_{label}"),
        shard as u64,
        || mul_acc_portable(&mut dst, &src, Gf(0x57)),
    ));
    results.push(
        t.measure(&format!("gf256/mul_acc_{label}"), shard as u64, || {
            mul_acc(&mut dst, &src, Gf(0x57))
        }),
    );
    results.push(
        t.measure(&format!("gf256/xor_acc_{label}"), shard as u64, || {
            xor_acc(&mut dst, &src)
        }),
    );

    // Reed–Solomon at the headline geometry.
    let (k, tpar) = (10usize, 2usize);
    let code = ReedSolomon::new(k, tpar).map_err(err("rs geometry"))?;
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..shard).map(|j| ((i * 131 + j) % 251) as u8).collect())
        .collect();
    let full = code.encode(&data).map_err(err("encode"))?;
    let stripe_bytes = (k * shard) as u64;

    results.push(
        t.measure(&format!("rs_k10_t2/encode_{label}"), stripe_bytes, || {
            code.encode(&data).expect("encode")
        }),
    );
    let mut parity_out = vec![vec![0u8; shard]; tpar];
    results.push(t.measure(
        &format!("rs_k10_t2/encode_parity_into_{label}"),
        stripe_bytes,
        || {
            code.encode_parity_into(&data, &mut parity_out)
                .expect("encode_parity_into")
        },
    ));

    // Reconstruct one data and one parity erasure (shards 1 and k). The
    // stripe is reused across iterations with only the erased entries
    // reset, so the measurement is the decode itself, not a stripe copy.
    let missing = [1usize, k];
    let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
    results.push(t.measure(
        &format!("rs_k10_t2/reconstruct_two_erasures_{label}"),
        stripe_bytes,
        || {
            for &m in &missing {
                shards[m] = None;
            }
            code.reconstruct(&mut shards).expect("reconstruct");
        },
    ));
    let plan = code
        .plan_reconstruction(&missing)
        .map_err(err("plan_reconstruction"))?;
    results.push(t.measure(
        &format!("rs_k10_t2/reconstruct_with_cached_plan_{label}"),
        stripe_bytes,
        || {
            for &m in &missing {
                shards[m] = None;
            }
            code.reconstruct_with_plan(&plan, &mut shards)
                .expect("reconstruct_with_plan");
        },
    ));

    // The store's own geometry (6+2) at the two shard sizes its workloads
    // move, the same in both modes: a `serve_large` stripe (a 1 MiB object
    // as six 174,763-byte shards) through the fused encode, and a
    // `degraded_rebuild` read (two data shards of a 64 KiB object rebuilt
    // from 10,923-byte survivors).
    let code62 = ReedSolomon::new(6, 2).map_err(err("rs geometry"))?;
    let stripe_62 = |shard: usize| -> Vec<Vec<u8>> {
        (0..6)
            .map(|i| (0..shard).map(|j| ((i * 131 + j) % 251) as u8).collect())
            .collect()
    };
    let large = stripe_62(174_763);
    let mut large_parity = vec![vec![0u8; 174_763]; 2];
    results.push(
        t.measure("rs_k6_t2/encode_parity_into_1m", 6 * 174_763, || {
            code62
                .encode_parity_into(&large, &mut large_parity)
                .expect("encode_parity_into")
        }),
    );
    let mut small = code62.encode(&stripe_62(10_923)).map_err(err("encode"))?;
    let lost_data = [0usize, 1];
    let plan62 = code62
        .plan_reconstruction(&lost_data)
        .map_err(err("plan_reconstruction"))?;
    let mut views: Vec<&mut [u8]> = small.iter_mut().map(Vec::as_mut_slice).collect();
    results.push(t.measure("rs_k6_t2/reconstruct_into_64k", 6 * 10_923, || {
        code62
            .reconstruct_into(&plan62, &mut views, &lost_data)
            .expect("reconstruct_into")
    }));

    // Seed baseline: the pre-overhaul algorithms, reproduced through the
    // public API. Encode drove `mul_acc_reference` coefficient by
    // coefficient; reconstruct inverted the survivor matrix, recovered
    // *all* k data shards, then re-encoded the missing parity.
    let generator = GfMatrix::vandermonde(k + tpar, k)
        .and_then(|v| v.systematize())
        .map_err(err("generator"))?;
    results.push(t.measure(
        &format!("seed_baseline/encode_{label}"),
        stripe_bytes,
        || {
            let mut parity = vec![vec![0u8; shard]; tpar];
            for (p, out) in parity.iter_mut().enumerate() {
                for (c, d) in data.iter().enumerate() {
                    mul_acc_reference(out, d, generator.get(k + p, c));
                }
            }
            parity
        },
    ));
    let survivors: Vec<usize> = (0..k + tpar)
        .filter(|i| !missing.contains(i))
        .take(k)
        .collect();
    results.push(t.measure(
        &format!("seed_baseline/reconstruct_two_erasures_{label}"),
        stripe_bytes,
        || {
            let decode = generator
                .select_rows(&survivors)
                .inverse()
                .expect("mds inverse");
            let mut recovered = vec![vec![0u8; shard]; k];
            for (m, out) in recovered.iter_mut().enumerate() {
                for (j, &s) in survivors.iter().enumerate() {
                    mul_acc_reference(out, &full[s], decode.get(m, j));
                }
            }
            // Re-encode the missing parity shard (index k ⇒ parity row 0).
            let mut parity = vec![0u8; shard];
            for (c, d) in recovered.iter().enumerate() {
                mul_acc_reference(&mut parity, d, generator.get(k, c));
            }
            (recovered, parity)
        },
    ));

    // Placement enumeration rides along for regression coverage.
    if mode == Mode::Full {
        results.push(t.measure("placement/enumerate_c14_6", 0, || {
            Placement::enumerate_all(14, 6).expect("placement")
        }));
    }

    Ok(Suite {
        suite: "erasure",
        mode,
        results,
    })
}

fn recursive_model(k: u32) -> Result<RecursiveModel, String> {
    RecursiveModel::new(
        k,
        64,
        8,
        12,
        PerHour(1.0 / 400_000.0),
        PerHour(1.0 / 300_000.0),
        PerHour(0.28),
        PerHour(3.24),
        0.024,
    )
    .map_err(err("recursive model"))
}

/// The analytic-kernel suite: recursive-chain build and GTH solve, and
/// (full mode only) a complete Figure-13 evaluation.
pub fn solvers_suite(mode: Mode) -> Result<Suite, String> {
    let t = mode.timing();
    let mut results = Vec::new();

    let ks: &[u32] = match mode {
        Mode::Full => &[1, 2, 3, 5, 7],
        Mode::Smoke => &[2],
    };
    for &k in ks {
        let model = recursive_model(k)?;
        results.push(t.measure(&format!("recursive_chain/build_k{k}"), 0, || {
            model.ctmc().expect("ctmc")
        }));
        let ctmc = model.ctmc().map_err(err("ctmc"))?;
        results.push(
            t.measure(&format!("recursive_chain/gth_solve_k{k}"), 0, || {
                AbsorbingAnalysis::new(&ctmc).expect("analysis")
            }),
        );
        results.push(t.measure(&format!("recursive_chain/theorem_k{k}"), 0, || {
            model.mttdl_theorem()
        }));
    }

    let params = Params::baseline();
    if mode == Mode::Full {
        results.push(
            t.measure("figure13_full_baseline", 0, || {
                fig13_baseline(&params).expect("fig13")
            })
            .with_items(9),
        );
    }
    let config = Configuration::new(InternalRaid::Raid5, 2).map_err(err("cfg"))?;
    results.push(t.measure("evaluate_ft2_ir5", 0, || {
        config.evaluate(&params).expect("eval")
    }));
    // The same evaluation through a reused evaluator (the sweep engine's
    // per-point cost: no bind, no scratch allocation).
    let mut cached = CachedEvaluator::new(config);
    let _ = cached.evaluate(&params).map_err(err("warm cache"))?;
    results.push(t.measure("evaluate_ft2_ir5_cached", 0, || {
        cached.evaluate(&params).expect("eval")
    }));

    Ok(Suite {
        suite: "solvers",
        mode,
        results,
    })
}

/// The sweep-engine suite: a full Figure-14 sensitivity sweep and the
/// hard-error-rate extension sweep, both serial. Every case records
/// `items_per_iter` (configuration evaluations per sweep) so reports
/// expose evaluations-per-second directly. There are no `workers_N`
/// rows: on the one-core recording host they timed thread spawn (a
/// serial sweep costs less than one spawn), and the byte-identity of
/// parallel output is pinned by tests, not by a timing.
pub fn sweep_suite(mode: Mode) -> Result<Suite, String> {
    let t = mode.timing();
    let mut results = Vec::new();
    let params = Params::baseline();

    let probe = figure_sweep(14, &params, 1).map_err(err("fig14"))?;
    let fig14_items = (probe.rows.len() * probe.configs().len()) as u64;
    results.push(
        t.measure("fig14_sweep/workers_1", 0, || {
            figure_sweep(14, &params, 1).expect("sweep")
        })
        .with_items(fig14_items),
    );

    if mode == Mode::Full {
        let her = nsr_core::sweep::ext_hard_error_rate(&params, 1).map_err(err("ext her"))?;
        let her_items = (her.rows.len() * her.configs().len()) as u64;
        results.push(
            t.measure("ext_her_sweep/workers_1", 0, || {
                nsr_core::sweep::ext_hard_error_rate(&params, 1).expect("sweep")
            })
            .with_items(her_items),
        );
    }

    Ok(Suite {
        suite: "sweep",
        mode,
        results,
    })
}

/// The capacity-planner suite: the headline 11,520-point grid search on
/// one core (the ISSUE's ≥ 1,000 configs/s target reads off its
/// `items_per_s`), the same grid with pruning disabled (the speedup is
/// the ratio), a 115,200-point grid (the scaling of the dominance
/// passes is the ratio), and the batched-solver microbenchmark.
/// Smoke mode shrinks the grid to the 3×3×3 golden space.
pub fn plan_suite(mode: Mode) -> Result<Suite, String> {
    use nsr_core::plan::{plan_search, ConfigSpace, PlanOptions};

    let t = mode.timing();
    let mut results = Vec::new();
    let params = Params::baseline();

    let space = match mode {
        // 12 × 4 × 3 × 5 × 4 × 4 = 11,520 grid points.
        Mode::Full => ConfigSpace {
            nodes: vec![16, 32, 64, 128, 256],
            data_shards: (2..=13).collect(),
            node_ft: vec![1, 2, 3, 4],
            internal: InternalRaid::all().to_vec(),
            spare_frac: vec![0.0, 0.1, 0.25, 0.4],
            rebuild_bw: vec![0.05, 0.1, 0.2, 0.4],
        },
        Mode::Smoke => ConfigSpace {
            nodes: vec![64],
            data_shards: vec![2, 4, 6],
            node_ft: vec![1, 2, 3],
            internal: InternalRaid::all().to_vec(),
            spare_frac: vec![0.25],
            rebuild_bw: vec![0.1],
        },
    };
    let points = space.len() as u64;
    let opts = PlanOptions {
        workers: 1,
        mission_years: 5.0,
        exhaustive: false,
    };

    results.push(
        t.measure(&format!("grid_{points}/pruned/workers_1"), 0, || {
            plan_search(&params, &space, &opts).expect("plan")
        })
        .with_items(points),
    );
    results.push(
        t.measure(&format!("grid_{points}/exhaustive/workers_1"), 0, || {
            plan_search(
                &params,
                &space,
                &PlanOptions {
                    exhaustive: true,
                    ..opts
                },
            )
            .expect("plan")
        })
        .with_items(points),
    );
    if mode == Mode::Full {
        // Ten times the points on the same four bandwidth levels: pins
        // how the dominance passes scale with the grid.
        let wide = ConfigSpace {
            nodes: vec![16, 24, 32, 48, 64, 96, 128, 192, 256, 384],
            data_shards: (2..=25).collect(),
            spare_frac: (0..10).map(|i| f64::from(i) * 0.05).collect(),
            ..space.clone()
        };
        let wide_points = wide.len() as u64;
        results.push(
            t.measure(&format!("grid_{wide_points}/pruned/workers_1"), 0, || {
                plan_search(&params, &wide, &opts).expect("plan")
            })
            .with_items(wide_points),
        );
    }

    // The batched-solver inner loop in isolation: repeated solves of the
    // deepest no-RAID chain through one compiled elimination program.
    let config = Configuration::new(InternalRaid::None, 3).map_err(err("cfg"))?;
    let (ctmc, root) = config.exact_chain(&params).map_err(err("chain"))?;
    let mut solver = nsr_markov::BatchSolver::new(&ctmc, root).map_err(err("solver"))?;
    let rates: Vec<f64> = ctmc.transitions().iter().map(|tr| tr.rate).collect();
    results.push(t.measure("batch_solve/ft3_nir", 0, || {
        solver.solve_mtta(&rates).expect("solve")
    }));

    Ok(Suite {
        suite: "plan",
        mode,
        results,
    })
}

/// The simulator suite: system-level loss trajectories and
/// importance-sampling cycles (shrunk in smoke mode).
pub fn sim_suite(mode: Mode) -> Result<Suite, String> {
    let t = mode.timing();
    let mut results = Vec::new();

    let params = Params::baseline();
    let config = Configuration::new(InternalRaid::None, 1).map_err(err("cfg"))?;
    let sim = SystemSim::new(params, config).map_err(err("sim"))?;
    let mut rng = StdRng::seed_from_u64(7);
    results.push(t.measure("system_sim_ft1_trajectory", 0, || {
        sim.simulate_one(&mut rng).expect("loss")
    }));

    // The FT2 internal-RAID chain at baseline.
    let ir5 = Configuration::new(InternalRaid::Raid5, 2).map_err(err("cfg"))?;
    let (ctmc, root) = ir5.exact_chain(&params).map_err(err("chain"))?;
    let est = RareEvent::new(&ctmc, root).map_err(err("estimator"))?;
    let mut rng = StdRng::seed_from_u64(11);
    let cycles: u64 = match mode {
        Mode::Full => 2000,
        Mode::Smoke => 100,
    };
    results.push(
        t.measure(&format!("importance_sampling_{cycles}_cycles"), 0, || {
            est.estimate(
                Options {
                    gamma_cycles: cycles,
                    time_cycles: cycles,
                    ..Options::default()
                },
                &mut rng,
            )
            .expect("estimate")
        }),
    );

    // Multilevel splitting on the same chain, for a like-for-like
    // rare-event estimator comparison.
    let split = Splitting::new(&ctmc, root).map_err(err("splitting"))?;
    let mut rng = StdRng::seed_from_u64(13);
    results.push(t.measure(&format!("splitting_{cycles}_cycles"), 0, || {
        split
            .estimate(
                SplitOptions {
                    gamma_cycles: cycles,
                    time_cycles: cycles,
                    ..SplitOptions::default()
                },
                &mut rng,
            )
            .expect("estimate")
    }));

    // Fleet engine throughput: an FT 3 no-IR fleet simulated for a
    // decade (losses are ~never observed at this tolerance, so this is
    // raw event-queue + per-entity-state throughput). `items` = events
    // processed per mission, so items/s is events/s; ns_per_iter is the
    // wall time of the whole simulated decade. One worker, as in the
    // repo benchmark's `model_batch`: the rows time the engine, not the
    // host's core count.
    let config3 = Configuration::new(InternalRaid::None, 3).map_err(err("cfg"))?;
    let brick_counts: &[u64] = match mode {
        Mode::Full => &[10_000, 100_000, 1_000_000],
        Mode::Smoke => &[640, 6_400],
    };
    for &bricks in brick_counts {
        let fleet = FleetSim::new(params, config3, bricks, 10.0).map_err(err("fleet"))?;
        let events = fleet.run(42, 1).map_err(err("fleet run"))?.events;
        results.push(
            t.measure(&format!("fleet_decade_{bricks}_bricks"), 0, || {
                fleet.run(42, 1).expect("fleet run")
            })
            .with_items(events),
        );
    }

    Ok(Suite {
        suite: "sim",
        mode,
        results,
    })
}

/// The networked-brick-store suite: wire-codec throughput plus a live
/// loopback cluster of four in-process brick threads at geometry
/// `2 + 1` — a scrape round trip, a traced put, and the wall clock from
/// a brick going silent to the detector declaring it dead. The
/// percentile cases are single-shot wall-clock measurements, not
/// iterated medians: a detection cannot be replayed without re-killing a
/// brick, so those numbers are indicative (like everything here) rather
/// than statistically tight. Healthy put/get, the degraded get and the
/// rebuild rate are read by the repo benchmark at the same 64 KiB
/// geometry (`gateway.put_p50_us`, `gateway.get_p50_us`,
/// `degraded.get_p50_us`, `rebuild.mib_per_s`), not here.
pub fn net_suite(mode: Mode) -> Result<Suite, String> {
    use std::time::Duration;

    use nsr_net::client::BrickClient;
    use nsr_net::local::{loopback_config, LocalCluster, Pace};
    use nsr_net::wire::Frame;

    let t = mode.timing();
    let (obj_bytes, label) = match mode {
        Mode::Full => (64 * 1024usize, "64k"),
        Mode::Smoke => (4 * 1024usize, "4k"),
    };
    let mut results = Vec::new();

    // Pure wire-codec cases: no sockets involved.
    let shard: Vec<u8> = (0..obj_bytes).map(|i| (i * 31 + 7) as u8).collect();
    let frame = Frame::PutShard {
        object: 42,
        pos: 1,
        data: shard,
    };
    results.push(t.measure(
        &format!("wire/encode_put_{label}"),
        obj_bytes as u64,
        || frame.encode(),
    ));
    let encoded = frame.encode();
    let body = &encoded[4..];
    results.push(t.measure(
        &format!("wire/decode_put_{label}"),
        obj_bytes as u64,
        || Frame::decode(body).expect("decode"),
    ));

    // Live loopback cluster: 4 brick threads, 2 data + 1 parity.
    let mut cluster =
        LocalCluster::start(4, loopback_config(2, 1), Pace::Wall).map_err(err("cluster"))?;
    // Heartbeat history at a steady ~20 ms cadence, like the campaign.
    for _ in 0..8 {
        cluster.pump();
    }

    let data: Vec<u8> = (0..obj_bytes).map(|i| (i * 13 + 5) as u8).collect();

    // Live scrape round-trip: one `Scrape` frame against a brick; the
    // reply serializes the metrics registry plus the trace delta at the
    // caller's cursor, so this prices a whole collector poll.
    {
        let mut sc = BrickClient::connect(cluster.addrs()[0], Duration::from_millis(250))
            .map_err(err("connect for scrape"))?;
        results.push(t.measure("scrape/round_trip", 0, || sc.scrape(0, 64).expect("scrape")));
    }

    // Remote-span overhead: a healthy put with tracing live, so
    // every data op ships a `TraceCtx` prefix frame and each brick
    // opens a remote handler span. What that costs over an untraced
    // put is the repo benchmark's `obs.traced_put_overhead_frac`.
    let was_trace = nsr_obs::trace_enabled();
    nsr_obs::set_trace_enabled(true);
    results.push(t.measure(
        &format!("put/healthy_traced_{label}"),
        obj_bytes as u64,
        || cluster.gw.put(0, &data).expect("traced put"),
    ));
    let _ = nsr_obs::trace::drain();
    nsr_obs::set_trace_enabled(was_trace);

    // Kill-to-declared-dead latency: repeated silence/restart cycles on
    // brick 3 (outside object 0's layout). Orderly shutdown looks the
    // same as kill -9 from the gateway side — the brick stops answering.
    // 40 cycles in full mode: with 15, every sample landed on the same
    // one or two 20 ms heartbeat-pump ticks and p50 == p99 to within
    // 2% — a quantization artifact, not a real tail. A wider sample
    // count catches the occasional extra-tick detection so the p99 row
    // reports a genuine tail rather than echoing the median.
    let cycles = match mode {
        Mode::Full => 40,
        Mode::Smoke => 3,
    };
    let mut latencies_s: Vec<f64> = Vec::new();
    for _ in 0..cycles {
        let took = cluster.kill(3).map_err(err("kill brick 3"))?;
        latencies_s.push(took.as_secs_f64());
        // Restart empty on a fresh port and wait for re-adoption.
        cluster.rejoin(3).map_err(err("rejoin brick 3"))?;
    }
    latencies_s.sort_by(f64::total_cmp);
    let pct = |q: f64| latencies_s[((latencies_s.len() - 1) as f64 * q).round() as usize];
    for (name, q) in [
        ("detect/kill_to_dead_p50", 0.5),
        ("detect/kill_to_dead_p99", 0.99),
    ] {
        results.push(Measurement {
            name: name.to_string(),
            ns_per_iter: pct(q) * 1e9,
            bytes_per_iter: 0,
            items_per_iter: 0,
        });
    }

    cluster.shutdown().map_err(err("shutdown"))?;
    Ok(Suite {
        suite: "net",
        mode,
        results,
    })
}

/// The serving suite: the YCSB-style workload generator replayed over a
/// live loopback cluster in each of the three cluster states — healthy,
/// degraded (one brick dead), and rebuilding (repair pass concurrent
/// with serving). Each state contributes one aggregate-throughput row
/// plus get-latency percentile rows. Like the `net` suite's detection
/// and repair cases, these are single-shot wall-clock phases, not
/// iterated medians: a cluster state cannot be replayed without
/// re-killing a brick.
pub fn serving_suite(mode: Mode) -> Result<Suite, String> {
    use nsr_net::local::loopback_config;
    use nsr_net::workload::{serving_run, KeyDist, WorkloadSpec};

    let (obj_bytes, ops, label) = match mode {
        Mode::Full => (64 * 1024usize, 2000usize, "64k"),
        Mode::Smoke => (4 * 1024usize, 120usize, "4k"),
    };
    let spec = WorkloadSpec {
        objects: 64,
        object_bytes: obj_bytes,
        ops,
        read_pct: 95,
        dist: KeyDist::Zipfian { theta: 0.99 },
        seed: 42,
    };
    let run = serving_run(&spec, 4, loopback_config(2, 1)).map_err(err("serving run"))?;
    if let Err(e) = &run.repair {
        return Err(format!("repair during rebuilding phase: {e}"));
    }

    let mut results = Vec::new();
    let row = |name: String, seconds: f64| Measurement {
        name,
        ns_per_iter: (seconds * 1e9).max(1.0),
        bytes_per_iter: 0,
        items_per_iter: 0,
    };
    for (phase, s) in run.phases() {
        results.push(Measurement {
            bytes_per_iter: s.bytes / s.ops.max(1) as u64,
            ..row(
                format!("serving/{phase}_{label}"),
                s.seconds / s.ops.max(1) as f64,
            )
        });
        for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let name = format!("serving/get_{phase}_{tag}_{label}");
            results.push(row(name, s.get_percentile_s(q)));
        }
        if phase == "healthy" {
            for (tag, q) in [("p50", 0.50), ("p99", 0.99)] {
                let name = format!("serving/put_healthy_{tag}_{label}");
                results.push(row(name, run.healthy.put_percentile_s(q)));
            }
        }
    }
    Ok(Suite {
        suite: "serving",
        mode,
        results,
    })
}

/// The observability-overhead suite: the `disabled/*` cases pin the cost
/// contract of `nsr-obs` (a recording call with the layer off must be a
/// relaxed atomic load + branch — single-digit nanoseconds, no
/// allocation), and the `enabled/*` cases document what turning the
/// layer on costs. The previously-enabled/disabled state of both layers
/// is restored on exit, so `obs` composes with `--suite all`.
pub fn obs_suite(mode: Mode) -> Result<Suite, String> {
    use nsr_obs::{Counter, Histogram, Json as ObsJson, Span};

    static BENCH_COUNTER: Counter = Counter::new("bench.obs.counter");
    static BENCH_HIST: Histogram = Histogram::new("bench.obs.histogram");

    let t = mode.timing();
    let mut results = Vec::new();
    let was_metrics = nsr_obs::metrics_enabled();
    let was_trace = nsr_obs::trace_enabled();

    nsr_obs::set_metrics_enabled(false);
    nsr_obs::set_trace_enabled(false);
    results.push(t.measure("disabled/counter_add", 0, || BENCH_COUNTER.add(3)));
    results.push(t.measure("disabled/histogram_observe", 0, || BENCH_HIST.observe(1.5)));
    results.push(t.measure("disabled/event", 0, || {
        nsr_obs::trace::event("bench.obs.event", || vec![("value", ObsJson::Num(1.0))])
    }));
    results.push(t.measure("disabled/span_enter_drop", 0, || {
        Span::enter("bench.obs.span")
    }));

    nsr_obs::set_metrics_enabled(true);
    results.push(t.measure("enabled/counter_add", 0, || BENCH_COUNTER.add(3)));
    results.push(t.measure("enabled/histogram_observe", 0, || BENCH_HIST.observe(1.5)));
    nsr_obs::set_metrics_enabled(false);

    nsr_obs::set_trace_enabled(true);
    results.push(t.measure("enabled/event", 0, || {
        nsr_obs::trace::event("bench.obs.event", || vec![("value", ObsJson::Num(1.0))])
    }));
    // The full v2 span path: id allocation, span-stack push/pop, and the
    // record append on drop.
    results.push(t.measure("enabled/span_enter_drop", 0, || {
        Span::enter("bench.obs.span")
    }));
    // Millions of bench events overflow the bounded sink by design; drain
    // it so a later `--trace-out` snapshot isn't full of bench noise.
    let _ = nsr_obs::trace::drain();
    nsr_obs::set_trace_enabled(false);

    nsr_obs::set_metrics_enabled(was_metrics);
    nsr_obs::set_trace_enabled(was_trace);

    Ok(Suite {
        suite: "obs",
        mode,
        results,
    })
}

/// Validates a parsed report against the `nsr-bench/v1` schema. Returns
/// a description of the first violation.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` string")?;
    if schema != SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SCHEMA}`"));
    }
    let suite = doc
        .get("suite")
        .and_then(Json::as_str)
        .ok_or("missing `suite` string")?;
    if !SUITE_NAMES.contains(&suite) {
        return Err(format!("unknown suite `{suite}`"));
    }
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing `mode` string")?;
    if mode != "full" && mode != "smoke" {
        return Err(format!("mode is `{mode}`, expected `full` or `smoke`"));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing `results` array")?;
    if results.is_empty() {
        return Err("`results` is empty".to_string());
    }
    for (i, r) in results.iter().enumerate() {
        let name = r
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("result {i}: missing `name`"))?;
        let ns = r
            .get("ns_per_iter")
            .and_then(Json::as_f64)
            .ok_or(format!("result {i} ({name}): missing `ns_per_iter`"))?;
        if !(ns.is_finite() && ns > 0.0) {
            return Err(format!(
                "result {i} ({name}): ns_per_iter {ns} not positive"
            ));
        }
        let bytes = r
            .get("bytes_per_iter")
            .and_then(Json::as_f64)
            .ok_or(format!("result {i} ({name}): missing `bytes_per_iter`"))?;
        if !(bytes.is_finite() && bytes >= 0.0 && bytes == bytes.trunc()) {
            return Err(format!(
                "result {i} ({name}): bytes_per_iter {bytes} not a non-negative integer"
            ));
        }
        match r.get("mib_per_s") {
            Some(Json::Null) if bytes == 0.0 => {}
            Some(Json::Num(m)) if bytes > 0.0 && m.is_finite() && *m > 0.0 => {}
            _ => {
                return Err(format!(
                    "result {i} ({name}): `mib_per_s` inconsistent with `bytes_per_iter`"
                ))
            }
        }
        // `items_per_iter` / `items_per_s` are optional (added after v1
        // shipped; reports without them remain valid) but must be
        // consistent when present.
        let items = r.get("items_per_iter");
        let rate = r.get("items_per_s");
        match (items, rate) {
            (None, None) => {}
            (Some(Json::Num(n)), Some(Json::Num(s)))
                if n.is_finite() && *n > 0.0 && *n == n.trunc() && s.is_finite() && *s > 0.0 => {}
            _ => {
                return Err(format!(
                    "result {i} ({name}): `items_per_iter`/`items_per_s` must be present \
                     together, a positive integer and a positive rate"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erasure_smoke_suite_runs_and_validates() {
        let suite = erasure_suite(Mode::Smoke).expect("suite");
        assert_eq!(suite.file_name(), "BENCH_erasure.json");
        let names: Vec<&str> = suite.results.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "gf256/mul_acc_reference_4k",
            "gf256/mul_acc_4k",
            "rs_k10_t2/encode_parity_into_4k",
            "rs_k10_t2/reconstruct_with_cached_plan_4k",
            "rs_k6_t2/encode_parity_into_1m",
            "rs_k6_t2/reconstruct_into_64k",
            "seed_baseline/encode_4k",
            "seed_baseline/reconstruct_two_erasures_4k",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        let doc = suite.to_json();
        validate_report(&doc).expect("schema");
        // And after a render → parse round trip.
        let back = Json::parse(&doc.render()).expect("parse");
        validate_report(&back).expect("schema after round trip");
        assert!(suite.render_human().contains("mode: smoke"));
    }

    #[test]
    fn obs_smoke_suite_runs_and_restores_state() {
        assert!(!nsr_obs::metrics_enabled());
        assert!(!nsr_obs::trace_enabled());
        let suite = obs_suite(Mode::Smoke).expect("suite");
        // Both layers are back off after the run.
        assert!(!nsr_obs::metrics_enabled());
        assert!(!nsr_obs::trace_enabled());
        let names: Vec<&str> = suite.results.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "disabled/counter_add",
            "disabled/histogram_observe",
            "disabled/event",
            "disabled/span_enter_drop",
            "enabled/counter_add",
            "enabled/histogram_observe",
            "enabled/event",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        validate_report(&suite.to_json()).expect("schema");
    }

    #[test]
    fn sweep_smoke_suite_emits_item_rates() {
        let suite = sweep_suite(Mode::Smoke).expect("suite");
        assert_eq!(suite.file_name(), "BENCH_sweep.json");
        let names: Vec<&str> = suite.results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["fig14_sweep/workers_1"]);
        for m in &suite.results {
            // fig14: 6 grid points × 3 sensitivity configs.
            assert_eq!(m.items_per_iter, 18, "{}", m.name);
            assert!(m.items_per_s().expect("rate") > 0.0);
        }
        let doc = suite.to_json();
        validate_report(&doc).expect("schema");
        let back = Json::parse(&doc.render()).expect("parse");
        validate_report(&back).expect("schema after round trip");
    }

    #[test]
    fn validate_report_checks_item_fields() {
        let suite = Suite {
            suite: "sweep",
            mode: Mode::Smoke,
            results: vec![Measurement {
                name: "fig14_sweep/workers_1".into(),
                ns_per_iter: 1000.0,
                bytes_per_iter: 0,
                items_per_iter: 18,
            }],
        };
        let good = suite.to_json();
        validate_report(&good).expect("items fields valid");

        // `items_per_iter` without `items_per_s` is a violation.
        let mut bad = good.clone();
        if let Json::Obj(m) = &mut bad {
            if let Some(Json::Arr(rs)) = m.get_mut("results") {
                if let Json::Obj(r) = &mut rs[0] {
                    r.remove("items_per_s");
                }
            }
        }
        assert!(validate_report(&bad).is_err());

        // A fractional item count is a violation.
        let mut bad = good;
        if let Json::Obj(m) = &mut bad {
            if let Some(Json::Arr(rs)) = m.get_mut("results") {
                if let Json::Obj(r) = &mut rs[0] {
                    r.insert("items_per_iter".into(), Json::Num(1.5));
                }
            }
        }
        assert!(validate_report(&bad).is_err());
    }

    #[test]
    fn run_suite_rejects_unknown_names() {
        let e = run_suite("nope", Mode::Smoke).unwrap_err();
        assert!(e.contains("unknown suite"));
        assert!(e.contains("erasure"));
    }

    #[test]
    fn validate_report_rejects_schema_drift() {
        let suite = Suite {
            suite: "erasure",
            mode: Mode::Smoke,
            results: vec![Measurement {
                name: "x/y".into(),
                ns_per_iter: 10.0,
                bytes_per_iter: 0,
                items_per_iter: 0,
            }],
        };
        let good = suite.to_json();
        validate_report(&good).expect("good");

        let mut bad = good.clone();
        if let Json::Obj(m) = &mut bad {
            m.insert("schema".into(), Json::Str("nsr-bench/v0".into()));
        }
        assert!(validate_report(&bad).is_err());

        let mut bad = good.clone();
        if let Json::Obj(m) = &mut bad {
            m.insert("results".into(), Json::Arr(vec![]));
        }
        assert!(validate_report(&bad).is_err());

        let mut bad = good;
        if let Json::Obj(m) = &mut bad {
            m.insert("mode".into(), Json::Str("warp".into()));
        }
        assert!(validate_report(&bad).is_err());
    }
}
