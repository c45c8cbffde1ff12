//! Benches for the analytic kernels: GTH absorbing analysis,
//! recursive-chain construction and solve, and a full
//! Figure-13 evaluation. Emits `BENCH_solvers.json` (override with
//! `--out <path>`; `--smoke` shrinks budgets and sizes). Run with
//! `cargo bench -p nsr-bench --bench solvers`.

fn main() {
    if let Err(e) = nsr_bench::bench_suite_main("solvers") {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
