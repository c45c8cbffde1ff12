//! A trace context sent before a *bare* data request parents that
//! request's handler span on the brick, and no later one — the bare
//! request is served as a batch of one, under the same rule as a batch
//! (`batch_frames.rs`). It has a test binary of its own because the
//! trace sink is process-global: two tests draining it side by side
//! could each take the other's spans.

use std::time::Duration;

use nsr_net::brick::{BrickConfig, BrickServer};
use nsr_net::client::BrickClient;
use nsr_obs::{Json, SpanContext};

#[test]
fn a_trace_context_before_a_bare_request_parents_that_request_only() {
    nsr_obs::set_trace_enabled(true);
    let (addr, handle) = BrickServer::bind("127.0.0.1:0", BrickConfig::new(4))
        .expect("bind")
        .spawn();
    let mut c = BrickClient::connect(addr, Duration::from_millis(500)).expect("connect");
    let ctx = SpanContext {
        proc_id: 0xb0a2e,
        span_id: 0x5eed_b0a2,
    };
    let data = [9u8; 48];
    c.send_trace_ctx(ctx).expect("context");
    c.put_shard(88, 1, &data).expect("parented put");
    // The context was for that request only.
    c.put_shard(88, 2, &data).expect("unparented put");
    assert_eq!(c.get_shard(88, 1), Ok(data.to_vec()));
    c.send_trace_ctx(ctx).expect("context");
    assert_eq!(c.get_shard(88, 2), Ok(data.to_vec()));
    c.delete_shard(88, 1).expect("unparented delete");
    c.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
    let (records, _) = nsr_obs::trace::drain();
    let handlers: Vec<(String, f64)> = records
        .iter()
        .filter(|rec| rec.get("kind").and_then(Json::as_str) == Some("span"))
        .filter_map(|rec| {
            let name = rec.get("name").and_then(Json::as_str)?;
            if !name.starts_with("net.brick.") {
                return None;
            }
            let fields = rec.get("fields")?;
            assert_eq!(fields.get("object").and_then(Json::as_f64), Some(88.0));
            assert_eq!(
                rec.get("remote_parent_id").and_then(Json::as_f64),
                Some(ctx.span_id as f64)
            );
            assert_eq!(
                rec.get("remote_proc_id").and_then(Json::as_f64),
                Some(ctx.proc_id as f64)
            );
            let pos = fields.get("pos").and_then(Json::as_f64)?;
            Some((name.to_string(), pos))
        })
        .collect();
    assert_eq!(
        handlers,
        [
            ("net.brick.put".to_string(), 1.0),
            ("net.brick.get".to_string(), 2.0)
        ]
    );
}
