//! Pins the evaluator's allocation budget (with `nsr_obs` off, its
//! default): after one warm-up call `CachedEvaluator::evaluate` performs
//! zero heap allocations, and a whole `figure_sweep` allocates only what
//! its output and its evaluators need. A counting global allocator wraps
//! the system one, so this lives in its own test binary with a single
//! test function (the counter is process-wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nsr_core::config::{CachedEvaluator, Configuration};
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;
use nsr_core::sweep::{drive_mttf_grid, figure_sweep};
use nsr_core::units::Hours;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// What one serial `figure_sweep(14, ..)` may allocate: the x grid (1),
/// the evaluator vector (1), each of its three evaluators' solver
/// scratch and rate buffer (3 × 2), the row vector (1), one cell vector
/// per row (6) and the two axis strings (2). Nothing per evaluated cell:
/// 18 cells, 17 allocations.
const FIG14_SWEEP_ALLOCS: u64 = 17;

#[test]
fn steady_state_evaluation_does_not_allocate() {
    let base = Params::baseline();
    let grid = drive_mttf_grid();

    // The paper's nine configurations plus FT 4 without internal RAID,
    // whose closed form is the appendix theorem's recursion.
    let mut configs = Configuration::all_nine();
    configs.push(Configuration::new(InternalRaid::None, 4).unwrap());
    for config in configs {
        let mut evaluator = CachedEvaluator::new(config);
        // Warm-up: binds (and, first time in the process, compiles) the
        // class program, sizes the scratch and the rate buffer.
        let first = evaluator.evaluate(&base).unwrap();
        let before = allocations();
        let mut moved = false;
        for &mttf in &grid {
            let mut p = base;
            p.drive.mttf = Hours(mttf);
            let e = evaluator.evaluate(&p).unwrap();
            moved |= e.exact.mttdl_hours.to_bits() != first.exact.mttdl_hours.to_bits();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{config}: steady-state evaluate allocated"
        );
        assert!(moved, "{config}: every point must be solved afresh");
    }

    // One whole sweep, programs already compiled by the loop above.
    let warm = figure_sweep(14, &base, 1).unwrap();
    let before = allocations();
    let sweep = figure_sweep(14, &base, 1).unwrap();
    let after = allocations();
    assert_eq!(sweep, warm);
    assert_eq!(sweep.rows.len() * sweep.configs().len(), 18);
    assert_eq!(
        after - before,
        FIG14_SWEEP_ALLOCS,
        "figure_sweep(14) allocation budget moved"
    );
}
