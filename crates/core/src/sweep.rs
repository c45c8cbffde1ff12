//! The §7 sensitivity analyses: the generic [`sweep`] driver and the one
//! figure entry point, [`figure_sweep`], over a spec per paper figure.
//!
//! A sweep varies a single parameter across a range (holding everything
//! else at baseline, exactly as §7 prescribes) and evaluates a set of
//! configurations at every point; Figure 13's baseline lives here too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::config::Configuration;
use crate::metrics::Reliability;
use crate::params::Params;
use crate::units::{Bytes, Gbps, Hours};
use crate::Result;

/// One configuration's value at one sweep point. `None` when that point is
/// structurally infeasible for the configuration (e.g. too few drives for
/// the internal RAID level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// The configuration evaluated.
    pub config: Configuration,
    /// Closed-form reliability, or `None` if infeasible at this point.
    pub reliability: Option<Reliability>,
}

/// All configurations' values at one x-coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The swept parameter's value at this point.
    pub x: f64,
    /// One cell per configuration, in the order passed to [`sweep`].
    pub cells: Vec<SweepCell>,
}

/// A complete sensitivity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Human-readable name of the swept parameter (axis label).
    pub x_name: String,
    /// Unit of the x axis.
    pub x_unit: String,
    /// The rows, in ascending x order.
    pub rows: Vec<SweepRow>,
}

impl Sweep {
    /// The series for one configuration as `(x, events_per_pb_year)`
    /// pairs, skipping infeasible points.
    ///
    /// `O(rows)`: the configuration's column is located once in the first
    /// row (the sweep driver guarantees every row shares the same column
    /// order) and then accessed positionally. The per-row identity check
    /// is kept so a malformed `Sweep` degrades to missing points rather
    /// than silently reading a different configuration's column.
    pub fn series(&self, config: Configuration) -> Vec<(f64, f64)> {
        let Some(first) = self.rows.first() else {
            return Vec::new();
        };
        let Some(col) = first.cells.iter().position(|c| c.config == config) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter_map(|row| {
                row.cells
                    .get(col)
                    .filter(|c| c.config == config)
                    .and_then(|c| c.reliability)
                    .map(|r| (row.x, r.events_per_pb_year))
            })
            .collect()
    }

    /// The configurations present in this sweep.
    pub fn configs(&self) -> Vec<Configuration> {
        self.rows
            .first()
            .map(|r| r.cells.iter().map(|c| c.config).collect())
            .unwrap_or_default()
    }
}

/// Rows each worker claims per visit to the shared counter. Per-row
/// claiming made every worker bounce the counter's cache line between
/// cores once per row — measurably slower than serial on small machines
/// (`workers_2` ran at 0.69x serial before chunking). A worker now
/// claims a run of rows at a time; the chunk is sized so each worker
/// visits the counter only a handful of times while late chunks stay
/// small enough for the work-stealing to still balance uneven rows.
pub(crate) fn claim_chunk(rows: usize, workers: usize) -> usize {
    (rows / (workers * 4)).clamp(1, 8)
}

/// The model crates' one worker pool, which the sweep, the planner, the
/// fleet and the system simulator run on: maps `work` over `0..total`
/// and merges by index, so the output is the same for any worker count.
/// Workers claim runs of `claim` items (at least 1) from a shared
/// counter; sweep and planner rows claim `claim_chunk` runs. Each
/// worker threads its own `S` (from `init`) through its calls and hands
/// it to `finish` on its own thread after its last claim; the `finish`
/// results come back one per worker, in worker order. No more workers
/// start than there are items. Worker `w` records on trace lane `w + 1`
/// under the caller's open span; one worker runs inline, on the caller's
/// lane, with no thread machinery at all.
pub fn parallel_map<S, T, R>(
    total: usize,
    workers: usize,
    claim: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
    finish: impl Fn(S) -> R + Sync,
) -> (Vec<T>, Vec<R>)
where
    T: Send,
    R: Send,
{
    let workers = workers.min(total);
    if workers <= 1 {
        let mut state = init();
        let out = (0..total).map(|i| work(&mut state, i)).collect();
        return (out, vec![finish(state)]);
    }
    let claim = claim.max(1);
    let next = AtomicUsize::new(0);
    let (next, init, work, finish) = (&next, &init, &work, &finish);
    let parent = nsr_obs::current_parent();
    let per_worker: Vec<(Vec<(usize, T)>, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    nsr_obs::set_trace_lane(w as u64 + 1);
                    let _adopted = nsr_obs::adopt_parent(parent);
                    let mut state = init();
                    let mut mine = Vec::new();
                    loop {
                        let start = next.fetch_add(claim, Ordering::Relaxed);
                        if start >= total {
                            break;
                        }
                        let end = (start + claim).min(total);
                        for i in start..end {
                            mine.push((i, work(&mut state, i)));
                        }
                    }
                    (mine, finish(state))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(total).collect();
    let mut finished = Vec::with_capacity(workers);
    for (mine, r) in per_worker {
        finished.push(r);
        for (i, v) in mine {
            slots[i] = Some(v);
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect();
    (out, finished)
}

/// Picks a worker count for a sweep of `rows` rows on this machine:
/// `1` (serial, no thread machinery) when only one core is visible or
/// the sweep is too small to amortize thread spawn, otherwise one
/// worker per core, capped so each worker has at least ~16 rows. This
/// is what `workers = 0` ("auto", e.g. `nsr sweep --workers auto`)
/// resolves to.
pub fn auto_workers(rows: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores <= 1 || rows < 32 {
        return 1;
    }
    cores.min(rows / 16).max(1)
}

/// Generic sweep driver: for each `x`, apply `set(params, x)` to a copy of
/// `base` and evaluate every configuration.
///
/// Individual evaluation failures become `None` cells (a sweep should
/// show *where* a configuration stops being feasible, not abort); the
/// function itself only errors if the base parameters are invalid.
///
/// Every cell is the configuration's closed form
/// ([`Configuration::closed_form`]): the three model-point stages and
/// the paper's formula, no chain solve. Rows are claimed from a shared
/// atomic counter in small chunks (work-stealing — rows whose
/// configurations go infeasible early are cheaper than feasible ones;
/// see `claim_chunk` for why claims are chunked) and merged back **by
/// row index**, so the output is deterministic and byte-identical for
/// every worker count, including `1`: evaluation is pure and each row is
/// produced by exactly one worker from the same `(base, x)` inputs.
///
/// `workers = 0` resolves via [`auto_workers`]; the result is clamped to
/// `1..=xs.len()`, and `workers <= 1` runs inline on the calling thread
/// with no thread machinery at all.
///
/// # Errors
///
/// Returns parameter-validation errors for `base` itself.
pub fn sweep<F>(
    base: &Params,
    configs: &[Configuration],
    x_name: &str,
    x_unit: &str,
    xs: &[f64],
    workers: usize,
    set: F,
) -> Result<Sweep>
where
    F: Fn(&mut Params, f64) + Sync,
{
    base.validate()?;
    crate::obs::SWEEPS.inc();
    let workers = if workers == 0 {
        auto_workers(xs.len())
    } else {
        workers
    };
    let workers = workers.clamp(1, xs.len().max(1));

    let (rows, _) = parallel_map(
        xs.len(),
        workers,
        claim_chunk(xs.len(), workers),
        Instant::now,
        |_, i| eval_row(base, configs, xs[i], &set),
        |start| crate::obs::WORKER_SECONDS.observe(start.elapsed().as_secs_f64()),
    );

    Ok(Sweep {
        x_name: x_name.to_string(),
        x_unit: x_unit.to_string(),
        rows,
    })
}

/// Evaluates one sweep row: every configuration's closed form.
fn eval_row<F>(base: &Params, configs: &[Configuration], x: f64, set: &F) -> SweepRow
where
    F: Fn(&mut Params, f64),
{
    let mut params = *base;
    set(&mut params, x);
    let cells = configs
        .iter()
        .map(|&config| SweepCell {
            config,
            reliability: config.closed_form(&params).ok(),
        })
        .collect();
    SweepRow { x, cells }
}

/// Figure 13: all nine configurations at the §6 baseline.
///
/// # Errors
///
/// Propagates closed-form errors (the baseline is feasible for all nine).
pub fn fig13_baseline(params: &Params) -> Result<Vec<(Configuration, Reliability)>> {
    Configuration::all_nine()
        .into_iter()
        .map(|c| c.closed_form(params).map(|r| (c, r)))
        .collect()
}

/// The drive-MTTF grid of Figure 14 (hours): the paper's "practical range"
/// 100 000 – 750 000 h.
pub fn drive_mttf_grid() -> Vec<f64> {
    vec![
        100_000.0, 200_000.0, 300_000.0, 450_000.0, 600_000.0, 750_000.0,
    ]
}

/// The node-MTTF grid of Figure 15 (hours): 100 000 – 1 000 000 h.
pub fn node_mttf_grid() -> Vec<f64> {
    vec![
        100_000.0,
        200_000.0,
        400_000.0,
        600_000.0,
        800_000.0,
        1_000_000.0,
    ]
}

/// The declarative part of one figure's sensitivity sweep: axis label,
/// unit, grid, and the parameter each grid point sets. Non-capturing
/// setters keep the spec `Copy`-cheap and trivially `Sync`.
type FigureSpec = (&'static str, &'static str, Vec<f64>, fn(&mut Params, f64));

/// The §7 sweep specification for paper figure `figure` (14–20), or
/// `None` for any other number.
fn figure_spec(figure: u32) -> Option<FigureSpec> {
    Some(match figure {
        14 => ("drive MTTF", "h", drive_mttf_grid(), |p, x| {
            p.drive.mttf = Hours(x)
        }),
        15 => ("node MTTF", "h", node_mttf_grid(), |p, x| {
            p.node.mttf = Hours(x)
        }),
        16 => (
            "rebuild block size",
            "KiB",
            vec![4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
            |p, x| p.system.rebuild_command = Bytes::from_kib(x),
        ),
        17 => ("link speed", "Gb/s", vec![1.0, 3.0, 5.0, 10.0], |p, x| {
            p.system.link_speed = Gbps(x)
        }),
        18 => (
            "node set size",
            "nodes",
            vec![16.0, 32.0, 64.0, 128.0, 256.0],
            |p, x| p.system.node_count = x as u32,
        ),
        19 => (
            "redundancy set size",
            "nodes",
            vec![4.0, 6.0, 8.0, 10.0, 12.0, 16.0],
            |p, x| p.system.redundancy_set_size = x as u32,
        ),
        20 => (
            "drives per node",
            "drives",
            vec![4.0, 8.0, 12.0, 16.0, 24.0, 32.0],
            |p, x| p.node.drives_per_node = x as u32,
        ),
        _ => return None,
    })
}

/// Runs the sensitivity sweep of paper figure `figure` (14–20) over the
/// paper's sensitivity set with an explicit worker count. Figures 14 and
/// 15 hold the *other* MTTF at whatever `base` carries.
///
/// # Errors
///
/// [`crate::Error::InvalidParams`] for figure numbers outside 14–20
/// (figure 13 is [`fig13_baseline`]), plus base-parameter validation
/// errors.
pub fn figure_sweep(figure: u32, base: &Params, workers: usize) -> Result<Sweep> {
    let (name, unit, xs, set) = figure_spec(figure).ok_or_else(|| {
        crate::Error::invalid(format!(
            "no sensitivity sweep for figure {figure} (expected 14..20)"
        ))
    })?;
    sweep(
        base,
        &Configuration::sensitivity_set(),
        name,
        unit,
        &xs,
        workers,
        set,
    )
}

/// Extension (not a paper figure): sensitivity to the drive hard-error
/// rate, 10⁻¹⁶ – 10⁻¹³ errors per bit. HER is partially controllable in
/// deployment (scrubbing shrinks the window for latent errors), making
/// this the natural companion to the paper's rebuild-block analysis.
///
/// # Errors
///
/// Propagates base-parameter validation errors.
pub fn ext_hard_error_rate(base: &Params, workers: usize) -> Result<Sweep> {
    sweep(
        base,
        &Configuration::sensitivity_set(),
        "hard error rate",
        "errors/bit",
        &[1e-16, 1e-15, 1e-14, 5e-14, 1e-13],
        workers,
        |p, x| p.drive.hard_error_rate_per_bit = x,
    )
}

/// A 2-D reliability map over the drive-MTTF × node-MTTF plane for one
/// configuration — Figures 14 and 15 sample the edges of this matrix;
/// the full map shows the feasibility region at a glance.
#[derive(Debug, Clone, PartialEq)]
pub struct MttfMap {
    /// The configuration mapped.
    pub config: Configuration,
    /// Drive-MTTF grid (hours), the map's columns.
    pub drive_mttf: Vec<f64>,
    /// Node-MTTF grid (hours), the map's rows.
    pub node_mttf: Vec<f64>,
    /// `values[row][col]` = events per PB-year at
    /// `(node_mttf[row], drive_mttf[col])`.
    pub values: Vec<Vec<f64>>,
}

impl MttfMap {
    /// Fraction of grid points meeting the §6 target.
    pub fn feasible_fraction(&self) -> f64 {
        let total = self.values.len() * self.values.first().map_or(0, Vec::len);
        if total == 0 {
            return 0.0;
        }
        let ok = self
            .values
            .iter()
            .flatten()
            .filter(|v| **v < crate::metrics::TARGET_EVENTS_PER_PB_YEAR)
            .count();
        ok as f64 / total as f64
    }
}

/// Evaluates the full drive-MTTF × node-MTTF matrix for `config` (the 2-D
/// extension of Figures 14/15).
///
/// # Errors
///
/// Propagates base-parameter validation and closed-form errors.
pub fn mttf_map(base: &Params, config: Configuration) -> Result<MttfMap> {
    base.validate()?;
    let drive_grid = drive_mttf_grid();
    let node_grid = node_mttf_grid();
    let mut values = Vec::with_capacity(node_grid.len());
    for &node in &node_grid {
        let mut row = Vec::with_capacity(drive_grid.len());
        for &drive in &drive_grid {
            let mut p = *base;
            p.node.mttf = Hours(node);
            p.drive.mttf = Hours(drive);
            row.push(config.closed_form(&p)?.events_per_pb_year);
        }
        values.push(row);
    }
    Ok(MttfMap {
        config,
        drive_mttf: drive_grid,
        node_mttf: node_grid,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TARGET_EVENTS_PER_PB_YEAR;
    use crate::raid::InternalRaid;

    fn base() -> Params {
        Params::baseline()
    }

    #[test]
    fn fig13_has_nine_entries() {
        let rows = fig13_baseline(&base()).unwrap();
        assert_eq!(rows.len(), 9);
        for (c, r) in &rows {
            assert!(r.events_per_pb_year > 0.0, "{c}");
        }
    }

    #[test]
    fn fig14_shape() {
        let mut p = base();
        p.node.mttf = Hours(1_000_000.0);
        let s = figure_sweep(14, &p, 1).unwrap();
        assert_eq!(s.rows.len(), drive_mttf_grid().len());
        assert_eq!(s.configs().len(), 3);
        // Higher drive MTTF ⇒ monotonically fewer events, for every config.
        for config in s.configs() {
            let series = s.series(config);
            for pair in series.windows(2) {
                assert!(
                    pair[1].1 <= pair[0].1 * 1.0000001,
                    "{config}: {:?} -> {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn fig15_shape() {
        let mut p = base();
        p.drive.mttf = Hours(750_000.0);
        let s = figure_sweep(15, &p, 1).unwrap();
        for config in s.configs() {
            let series = s.series(config);
            assert_eq!(series.len(), node_mttf_grid().len());
            for pair in series.windows(2) {
                assert!(pair[1].1 <= pair[0].1 * 1.0000001, "{config}");
            }
        }
    }

    #[test]
    fn fig16_larger_blocks_help_until_streaming_cap() {
        let s = figure_sweep(16, &base(), 1).unwrap();
        let ir5 = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        let series = s.series(ir5);
        // Improves up to the 40 MB/s streaming cap (150 IOPS × ~273 KiB),
        // then flattens.
        assert!(series[0].1 > series[4].1); // 4 KiB worse than 64 KiB
        let last = series[series.len() - 1].1;
        let second_last = series[series.len() - 2].1;
        assert!((last - second_last).abs() / last < 1e-9, "should flatten");
    }

    #[test]
    fn fig16_paper_claim_64kib_meets_target() {
        // §6/§8: [FT2, IR5] and [FT3, no IR] meet the target once the
        // rebuild block is at least 64 KiB.
        let s = figure_sweep(16, &base(), 1).unwrap();
        for config in [
            Configuration::new(InternalRaid::Raid5, 2).unwrap(),
            Configuration::new(InternalRaid::None, 3).unwrap(),
        ] {
            for (x, v) in s.series(config) {
                if x >= 64.0 {
                    assert!(
                        v < TARGET_EVENTS_PER_PB_YEAR,
                        "{config} at {x} KiB: {v:.3e}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig17_plateau_above_crossover() {
        let s = figure_sweep(17, &base(), 1).unwrap();
        for config in s.configs() {
            let series = s.series(config);
            let at5 = series.iter().find(|(x, _)| *x == 5.0).unwrap().1;
            let at10 = series.iter().find(|(x, _)| *x == 10.0).unwrap().1;
            // Paper: "no difference in reliability between the last two
            // points" (5 and 10 Gb/s).
            assert!((at5 - at10).abs() / at10 < 1e-9, "{config}");
            let at1 = series.iter().find(|(x, _)| *x == 1.0).unwrap().1;
            assert!(at1 > at10, "{config}: 1 Gb/s should be worse");
        }
    }

    #[test]
    fn fig18_weak_sensitivity_for_ir5() {
        let s = figure_sweep(18, &base(), 1).unwrap();
        let ir5 = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        let series = s.series(ir5);
        let min = series.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let max = series.iter().map(|p| p.1).fold(0.0, f64::max);
        // "relatively insensitive": well within two orders of magnitude
        // over a 16× range of N.
        assert!(max / min < 100.0, "ratio {}", max / min);
    }

    #[test]
    fn fig19_larger_redundancy_sets_hurt() {
        let s = figure_sweep(19, &base(), 1).unwrap();
        for config in s.configs() {
            let series = s.series(config);
            assert!(
                series.last().unwrap().1 > series.first().unwrap().1,
                "{config}"
            );
        }
    }

    #[test]
    fn fig20_weak_sensitivity_to_drives_per_node() {
        let s = figure_sweep(20, &base(), 1).unwrap();
        for config in s.configs() {
            let series = s.series(config);
            let min = series.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let max = series.iter().map(|p| p.1).fold(0.0, f64::max);
            assert!(max / min < 100.0, "{config}: ratio {}", max / min);
        }
    }

    #[test]
    fn mttf_map_monotone_in_both_axes() {
        let config = Configuration::new(InternalRaid::Raid5, 2).unwrap();
        let map = mttf_map(&base(), config).unwrap();
        assert_eq!(map.values.len(), node_mttf_grid().len());
        assert_eq!(map.values[0].len(), drive_mttf_grid().len());
        // Better MTTF in either direction never hurts.
        for r in 0..map.values.len() {
            for c in 0..map.values[r].len() {
                if r + 1 < map.values.len() {
                    assert!(map.values[r + 1][c] <= map.values[r][c] * 1.0000001);
                }
                if c + 1 < map.values[r].len() {
                    assert!(map.values[r][c + 1] <= map.values[r][c] * 1.0000001);
                }
            }
        }
        // The recommended configuration is feasible over the entire
        // practical plane.
        assert_eq!(map.feasible_fraction(), 1.0);
        // FT2 no-IR only in the good corner.
        let nir = Configuration::new(InternalRaid::None, 2).unwrap();
        let map = mttf_map(&base(), nir).unwrap();
        let f = map.feasible_fraction();
        assert!(f > 0.0 && f < 0.5, "feasible fraction {f}");
    }

    #[test]
    fn ext_her_monotone() {
        let s = ext_hard_error_rate(&base(), 1).unwrap();
        for config in s.configs() {
            let series = s.series(config);
            for w in series.windows(2) {
                assert!(w[1].1 >= w[0].1 * 0.999999, "{config}");
            }
        }
        // The sector path matters: two decades of HER must move FT2-noIR by
        // well over 2x.
        let nir = Configuration::new(InternalRaid::None, 2).unwrap();
        let series = s.series(nir);
        assert!(series.last().unwrap().1 > 2.0 * series.first().unwrap().1);
    }

    #[test]
    fn sweep_marks_infeasible_points_as_none() {
        // Sweeping R below t+1 must yield None cells for FT3, not errors.
        let s = sweep(
            &base(),
            &[Configuration::new(InternalRaid::None, 3).unwrap()],
            "redundancy set size",
            "nodes",
            &[2.0, 3.0, 8.0],
            1,
            |p, x| p.system.redundancy_set_size = x as u32,
        )
        .unwrap();
        assert!(s.rows[0].cells[0].reliability.is_none()); // R=2 < t+1
        assert!(s.rows[1].cells[0].reliability.is_none()); // R=3 = t
        assert!(s.rows[2].cells[0].reliability.is_some());
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let configs = Configuration::sensitivity_set();
        let xs = drive_mttf_grid();
        let serial = sweep(&base(), &configs, "drive MTTF", "h", &xs, 1, |p, x| {
            p.drive.mttf = Hours(x)
        })
        .unwrap();
        // 0 = auto: resolves via auto_workers() and must match too.
        for workers in [0, 2, 3, 4, 17] {
            let parallel = sweep(
                &base(),
                &configs,
                "drive MTTF",
                "h",
                &xs,
                workers,
                |p, x| p.drive.mttf = Hours(x),
            )
            .unwrap();
            assert_eq!(serial, parallel, "workers = {workers}");
            for (rs, rp) in serial.rows.iter().zip(&parallel.rows) {
                assert_eq!(rs.x.to_bits(), rp.x.to_bits());
                for (cs, cp) in rs.cells.iter().zip(&rp.cells) {
                    match (cs.reliability, cp.reliability) {
                        (Some(a), Some(b)) => {
                            assert_eq!(
                                a.events_per_pb_year.to_bits(),
                                b.events_per_pb_year.to_bits()
                            );
                            assert_eq!(a.mttdl_hours.to_bits(), b.mttdl_hours.to_bits());
                        }
                        (None, None) => {}
                        _ => panic!("feasibility mismatch at workers = {workers}"),
                    }
                }
            }
        }
    }

    #[test]
    fn auto_workers_stays_within_bounds() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Small sweeps never spawn threads.
        assert_eq!(auto_workers(0), 1);
        assert_eq!(auto_workers(1), 1);
        assert_eq!(auto_workers(31), 1);
        for rows in [32, 100, 1000, 100_000] {
            let w = auto_workers(rows);
            assert!((1..=cores.max(1)).contains(&w), "rows = {rows}, w = {w}");
            assert!(w <= rows.max(1), "rows = {rows}, w = {w}");
        }
    }

    #[test]
    fn parallel_map_starts_no_more_workers_than_items() {
        let count = |n: &mut usize, i: usize| {
            *n += 1;
            i * 10
        };
        let (out, finished) = parallel_map(3, 64, 1, || 0, count, |n| n);
        assert_eq!(out, [0, 10, 20]);
        assert_eq!(finished.len(), 3);
        assert_eq!(finished.iter().sum::<usize>(), 3);
        let (out, finished) = parallel_map(0, 64, 1, || 0, count, |n| n);
        assert!(out.is_empty());
        assert_eq!(finished, [0]);
    }

    #[test]
    fn claim_chunks_cover_every_row_exactly_once() {
        for (rows, workers) in [(1, 2), (8, 2), (9, 3), (64, 4), (64, 17), (1000, 4)] {
            let chunk = claim_chunk(rows, workers);
            assert!(chunk >= 1, "rows = {rows}, workers = {workers}");
            let mut seen = vec![0u32; rows];
            let mut next = 0;
            while next < rows {
                let end = (next + chunk).min(rows);
                for s in seen.iter_mut().take(end).skip(next) {
                    *s += 1;
                }
                next += chunk;
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "rows = {rows}, workers = {workers}"
            );
        }
    }

    #[test]
    fn every_row_preserves_the_input_column_order() {
        let configs = Configuration::all_nine();
        let s = sweep(
            &base(),
            &configs,
            "drives per node",
            "drives",
            &[4.0, 8.0, 12.0, 16.0],
            3,
            |p, x| p.node.drives_per_node = x as u32,
        )
        .unwrap();
        for row in &s.rows {
            assert_eq!(row.cells.len(), configs.len());
            for (cell, &config) in row.cells.iter().zip(&configs) {
                assert_eq!(cell.config, config);
            }
        }
        assert_eq!(s.configs(), configs);
    }

    #[test]
    fn cached_evaluator_matches_one_shot_across_points() {
        use crate::config::CachedEvaluator;
        for config in Configuration::all_nine() {
            let mut cached = CachedEvaluator::new(config);
            for mttf in drive_mttf_grid() {
                let mut p = base();
                p.drive.mttf = Hours(mttf);
                let a = cached.evaluate(&p).unwrap();
                let b = config.evaluate(&p).unwrap();
                assert_eq!(
                    a.exact.mttdl_hours.to_bits(),
                    b.exact.mttdl_hours.to_bits(),
                    "{config} exact at drive MTTF {mttf}"
                );
                assert_eq!(
                    a.closed_form.mttdl_hours.to_bits(),
                    b.closed_form.mttdl_hours.to_bits(),
                    "{config} closed form at drive MTTF {mttf}"
                );
            }
        }
    }

    #[test]
    fn series_skips_infeasible() {
        let c = Configuration::new(InternalRaid::None, 3).unwrap();
        let s = sweep(
            &base(),
            &[c],
            "redundancy set size",
            "nodes",
            &[2.0, 8.0],
            1,
            |p, x| p.system.redundancy_set_size = x as u32,
        )
        .unwrap();
        assert_eq!(s.series(c).len(), 1);
    }
}
