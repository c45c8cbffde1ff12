//! Acceptance test for the v2 causal trace: a parallel planner search
//! drains a byte-identical canonical trace for every worker count, with
//! every span well-nested (parent links resolving to emitted spans).
//!
//! Lives in its own integration-test binary because it toggles the
//! process-global trace switch; sharing a binary with other tests would
//! race on that state.

use nsr_core::params::Params;
use nsr_core::plan::{plan_search, ConfigSpace, PlanOptions};

/// Runs one traced search and returns `(raw jsonl, canonical jsonl)`.
fn traced_search(workers: usize) -> (String, String) {
    let _ = nsr_obs::trace::drain();
    nsr_obs::set_trace_enabled(true);
    let opts = PlanOptions {
        workers,
        ..PlanOptions::default()
    };
    plan_search(&Params::baseline(), &ConfigSpace::default_grid(), &opts).expect("search succeeds");
    nsr_obs::set_trace_enabled(false);
    let raw = nsr_obs::trace_jsonl("trace-determinism-test");
    let canon = nsr_obs::canonical_jsonl(&raw).expect("canonicalizes");
    (raw, canon)
}

#[test]
fn parallel_search_traces_are_deterministic_across_worker_counts() {
    let (raw1, canon1) = traced_search(1);

    // The serial trace is already well-formed: valid records, every
    // parent_id resolving to an emitted span_id (the same structural
    // check `nsr obs-check` runs).
    let records = nsr_obs::validate_jsonl(&raw1).expect("raw trace validates");
    assert!(records > 0, "search emitted no trace records");
    nsr_obs::validate_span_links(&raw1).expect("span links resolve");
    // The survivors' exact solves show up as causally nested spans.
    assert!(canon1.contains("core.plan.search"), "{canon1}");
    assert!(
        canon1.contains("core.plan.search/markov.batch.solve"),
        "solver spans must nest under the search that ran them:\n{canon1}"
    );

    for workers in [3, 8] {
        let (raw, canon) = traced_search(workers);
        nsr_obs::validate_span_links(&raw).expect("span links resolve");
        assert_eq!(
            canon1, canon,
            "canonical trace differs between workers=1 and workers={workers}"
        );
    }
}
