//! A parallel system simulation traced inside a caller's span: every
//! `sim.worker` event its workers record hangs under that span, as sweep
//! and planner records do, whichever thread ran the chunk.
//!
//! Lives in its own integration-test binary because it toggles the
//! process-global trace switch; sharing a binary with other tests would
//! race on that state.

use nsr_core::params::Params;
use nsr_obs::Json;
use nsr_sim::system::SystemSim;

#[test]
fn run_parallel_worker_events_nest_under_the_caller_span() {
    let sim = SystemSim::new(Params::baseline(), "ft1-nir".parse().unwrap()).unwrap();
    let _ = nsr_obs::trace::drain();
    nsr_obs::set_trace_enabled(true);
    {
        let _caller = nsr_obs::trace::Span::enter("test.caller");
        sim.run_parallel(120, 21, 4).expect("run succeeds");
    }
    nsr_obs::set_trace_enabled(false);
    let (records, dropped) = nsr_obs::trace::drain();
    assert_eq!(dropped, 0);

    let name = |r: &Json| r.get("name").and_then(Json::as_str).map(str::to_owned);
    let caller: Vec<f64> = records
        .iter()
        .filter(|r| name(r).as_deref() == Some("test.caller"))
        .filter_map(|r| r.get("span_id").and_then(Json::as_f64))
        .collect();
    assert_eq!(caller.len(), 1, "one caller span");
    let workers: Vec<&Json> = records
        .iter()
        .filter(|r| name(r).as_deref() == Some("sim.worker"))
        .collect();
    assert_eq!(workers.len(), 4, "one event per sample chunk");
    for event in workers {
        assert_eq!(
            event.get("parent_id").and_then(Json::as_f64),
            Some(caller[0]),
            "a worker event must nest under the caller: {event:?}"
        );
    }
}
