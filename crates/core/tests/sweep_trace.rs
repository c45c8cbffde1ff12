//! A figure sweep traced inside a caller's span drains the same
//! canonical trace at every worker count: the records its workers emit
//! (the rebuild model's `core.rebuild.model` events, one per distributed
//! rebuild a cell derives) nest under the caller's span whichever thread
//! evaluated the row.
//!
//! Lives in its own integration-test binary because it toggles the
//! process-global trace switch; sharing a binary with other tests would
//! race on that state.

use nsr_core::params::Params;
use nsr_core::sweep::figure_sweep;

/// Runs figure 16's nine-row sweep inside a `test.caller` span and
/// returns its canonical trace.
fn traced_sweep(workers: usize) -> String {
    let _ = nsr_obs::trace::drain();
    nsr_obs::set_trace_enabled(true);
    {
        let _caller = nsr_obs::trace::Span::enter("test.caller");
        figure_sweep(16, &Params::baseline(), workers).expect("sweep succeeds");
    }
    nsr_obs::set_trace_enabled(false);
    let raw = nsr_obs::trace_jsonl("sweep-trace-test");
    nsr_obs::validate_span_links(&raw).expect("span links resolve");
    nsr_obs::canonical_jsonl(&raw).expect("canonicalizes")
}

#[test]
fn sweep_traces_inside_a_caller_span_match_across_worker_counts() {
    let serial = traced_sweep(1);
    let events: Vec<&str> = serial
        .lines()
        .filter(|l| l.contains(r#""name":"core.rebuild.model""#))
        .collect();
    assert!(!events.is_empty(), "the sweep emitted no rebuild events");
    for event in events {
        assert!(
            event.contains(r#""parent_id":"test.caller""#),
            "a cell's rebuild event must nest under the caller: {event}"
        );
    }
    for workers in [3, 8] {
        assert_eq!(
            serial,
            traced_sweep(workers),
            "canonical trace differs between workers=1 and workers={workers}"
        );
    }
}
