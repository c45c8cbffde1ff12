//! Causal span/event tracing with per-thread sharded sinks drained to
//! `nsr-obs/v2` JSON-lines.
//!
//! Like metrics, tracing is disabled by default and the disabled path is
//! near-free: one relaxed atomic load and a branch. Field construction is
//! deferred behind closures so a disabled [`event`] allocates nothing, and
//! a disabled [`Span`] is a plain struct with an empty (unallocated)
//! `Vec`.
//!
//! # Causality (`nsr-obs/v2`)
//!
//! Every recorded span carries a process-unique `span_id`; a thread-local
//! span stack supplies the `parent_id` for spans and events recorded
//! while another span is open on the same thread, so records form a
//! forest whose edges are *causal* (this solve ran inside that sweep
//! cell, this post-mortem event belongs to that loss). Records also carry
//! `thread` (the recording thread's lane, see [`set_trace_lane`]) and
//! `seq` (a process-wide monotone sequence number).
//!
//! # Sharded sinks and deterministic drain
//!
//! Each recording thread appends to its **own** shard, so recording never
//! contends with other recording threads — the only lock an append takes
//! is the appending thread's own shard mutex, which is uncontended except
//! at the moment a [`drain`] walks the shards. [`drain`] merges all
//! shards into a single sequence ordered by `(at_s, thread, seq)`; with
//! deterministic lanes ([`set_trace_lane`]) and after
//! [`canonical_jsonl`]'s timestamp normalization, serial and parallel
//! runs of the same deterministic workload produce byte-identical output.
//!
//! The sink is bounded: at most [`SINK_CAP`] records (configurable via
//! [`set_trace_capacity`]) buffer across *all* shards; each record beyond
//! the capacity increments the dropped count by exactly one, and the
//! drained `meta` line reports it.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Default maximum number of buffered trace records before new ones are
/// dropped (and counted in the drained `meta` record). See
/// [`set_trace_capacity`].
pub const SINK_CAP: usize = 1 << 16;

/// Lanes assigned automatically to threads that never called
/// [`set_trace_lane`] start here, far above any explicit worker lane, so
/// pinned lanes sort first in the drained output.
const AUTO_LANE_BASE: u64 = 1 << 32;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Shared record budget across all shards.
static CAPACITY: AtomicUsize = AtomicUsize::new(SINK_CAP);
static BUFFERED: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Process-unique span ids; 0 is never issued so it can mean "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Process-wide monotone record sequence (total-order tiebreak).
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_AUTO_LANE: AtomicU64 = AtomicU64::new(AUTO_LANE_BASE);
/// All shards ever created by live threads (pruned at drain once their
/// thread has exited and their records are taken).
static REGISTRY: Mutex<Vec<Arc<Shard>>> = Mutex::new(Vec::new());
/// Process identity ([`set_trace_process`]): the label stamped on
/// drained `meta` lines plus its FNV-1a id, carried by outbound
/// [`SpanContext`]s so merged cluster traces can namespace span ids.
static PROCESS: Mutex<Option<(String, u64)>> = Mutex::new(None);

/// Cap on rendered lines retained for cursor-based scrape deltas
/// ([`trace_delta`]); older lines are discarded from the front, which
/// advances the cursor base.
const RETAIN_CAP: usize = 1 << 14;

/// Rendered records retained between scrapes. `base` is the cursor of
/// `lines[0]`; the cursor one past the end is `base + lines.len()`.
/// `dropped` accumulates sink drops observed by scrape flushes so the
/// final dump's `meta` line still accounts for them.
struct Retained {
    base: u64,
    lines: Vec<String>,
    dropped: u64,
}

static RETAINED: Mutex<Retained> = Mutex::new(Retained {
    base: 0,
    lines: Vec::new(),
    dropped: 0,
});

/// One thread's sink shard. The mutex is only ever contended by a
/// concurrent [`drain`]; recording threads each lock their own shard.
struct Shard {
    /// The lane stamped on *new* records from this thread.
    lane: AtomicU64,
    records: Mutex<Vec<Rec>>,
}

/// A buffered record with its merge key.
struct Rec {
    at_s: f64,
    lane: u64,
    seq: u64,
    line: Json,
}

/// Per-thread recorder state: the thread's shard plus its open-span
/// stack (the source of `parent_id`).
struct LocalState {
    shard: Option<Arc<Shard>>,
    stack: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<LocalState> = const {
        RefCell::new(LocalState {
            shard: None,
            stack: Vec::new(),
        })
    };
}

/// Enables or disables trace recording process-wide. The first enable
/// fixes the epoch that `at_s` timestamps are measured from.
pub fn set_trace_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether trace recording is currently enabled.
pub fn trace_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// FNV-1a over `label` — the deterministic process id used by
/// [`set_trace_process`]: the same label always maps to the same id, so
/// merged cluster traces are reproducible without coordination.
pub fn process_id_for(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Ids round-trip through JSON numbers (f64): keep them ≤ 2^53 so
    // they stay exactly representable.
    h & ((1 << 53) - 1)
}

/// Names the calling process for cross-process tracing. The label (and
/// its deterministic FNV-1a id) is stamped on drained `meta` lines and
/// carried by [`current_context`] so a remote process can link its
/// handler spans back to this one. Call once, before work is traced;
/// distinct processes in one cluster must use distinct labels.
pub fn set_trace_process(label: &str) {
    *PROCESS.lock().unwrap_or_else(|p| p.into_inner()) =
        Some((label.to_string(), process_id_for(label)));
}

/// The process label and id set by [`set_trace_process`], if any.
pub fn trace_process() -> Option<(String, u64)> {
    PROCESS.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// A span's cross-process identity: the originating process
/// ([`set_trace_process`]) plus its process-local span id. Sent over
/// the wire so a remote handler span can adopt this span as its causal
/// parent — see [`Span::enter_remote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Deterministic id of the originating process.
    pub proc_id: u64,
    /// The originating span's process-local id.
    pub span_id: u64,
}

/// The innermost open span on this thread as a [`SpanContext`], ready to
/// propagate to a remote process. `None` when tracing is disabled, no
/// span is open, or [`set_trace_process`] was never called (an unnamed
/// process has no cross-process identity).
pub fn current_context() -> Option<SpanContext> {
    if !trace_enabled() {
        return None;
    }
    let (_, proc_id) = trace_process()?;
    let span_id = LOCAL
        .try_with(|l| l.borrow().stack.last().copied())
        .ok()
        .flatten()?;
    Some(SpanContext { proc_id, span_id })
}

/// The innermost open span on the calling thread, for a parallel driver
/// to hand its worker threads ([`adopt_parent`]). `None` when tracing is
/// disabled or no span is open.
pub fn current_parent() -> Option<Parent> {
    if !trace_enabled() {
        return None;
    }
    LOCAL
        .try_with(|l| l.borrow().stack.last().copied())
        .ok()
        .flatten()
        .map(Parent)
}

/// A span of this process, open on the thread that took it with
/// [`current_parent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parent(u64);

/// Makes `parent` the causal parent of what the calling thread records
/// until the guard drops, as if its span were open on this thread too:
/// a worker adopts the span its driver had open, so its records nest
/// exactly as they would have had the driver run the work inline. The
/// span must stay open on its own thread while the guard lives. A
/// `None` parent adopts nothing.
pub fn adopt_parent(parent: Option<Parent>) -> Adopted {
    Adopted(parent.and_then(|p| {
        LOCAL
            .try_with(|l| l.borrow_mut().stack.push(p.0))
            .ok()
            .map(|()| p)
    }))
}

/// Guard of [`adopt_parent`]: drops the adopted span from the calling
/// thread's stack.
pub struct Adopted(Option<Parent>);

impl Drop for Adopted {
    fn drop(&mut self) {
        if let Some(Parent(id)) = self.0 {
            let _ = LOCAL.try_with(|l| {
                let mut l = l.borrow_mut();
                if let Some(i) = l.stack.iter().rposition(|&s| s == id) {
                    l.stack.remove(i);
                }
            });
        }
    }
}

/// Sets the shared record capacity of the sink (all shards together).
/// Takes effect for subsequent records; already-buffered records are
/// never discarded. The process default is [`SINK_CAP`].
pub fn set_trace_capacity(cap: usize) {
    CAPACITY.store(cap, Ordering::Relaxed);
}

/// Pins the calling thread's lane — the `thread` value stamped on its
/// records and the second component of the drain's `(at_s, thread, seq)`
/// merge order. Parallel drivers (sweep and simulation workers) pin lane
/// `worker_index + 1` so the merged drain is independent of OS thread
/// identity; threads that never call this get an arbitrary high lane.
/// No-op while tracing is disabled.
pub fn set_trace_lane(lane: u64) {
    if !trace_enabled() {
        return;
    }
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        shard_of(&mut l).lane.store(lane, Ordering::Relaxed);
    });
}

/// Seconds since the trace epoch. The epoch is fixed on first use —
/// either the first `set_trace_enabled(true)` or the first timestamp
/// request — so `at_s` can never read `0.0` from an unset epoch and
/// successive timestamps are non-decreasing.
fn now_s() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The calling thread's shard, created and registered on first use.
fn shard_of(l: &mut LocalState) -> &Arc<Shard> {
    l.shard.get_or_insert_with(|| {
        let shard = Arc::new(Shard {
            lane: AtomicU64::new(NEXT_AUTO_LANE.fetch_add(1, Ordering::Relaxed)),
            records: Mutex::new(Vec::new()),
        });
        REGISTRY
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&shard));
        shard
    })
}

/// Reserves one slot of the shared record budget; on failure the record
/// is counted as dropped (exactly once).
fn reserve_slot() -> bool {
    let cap = CAPACITY.load(Ordering::Relaxed);
    let mut cur = BUFFERED.load(Ordering::Relaxed);
    loop {
        if cur >= cap {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        match BUFFERED.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
}

/// Appends one record to the calling thread's shard. `make` receives the
/// record's `(lane, seq, parent_id)` — the parent is the innermost open
/// span on this thread, if any.
fn push_record(at_s: f64, make: impl FnOnce(u64, u64, Option<u64>) -> Json) {
    if !reserve_slot() {
        return;
    }
    let appended = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied();
        let shard = shard_of(&mut l);
        let lane = shard.lane.load(Ordering::Relaxed);
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        let line = make(lane, seq, parent);
        shard
            .records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Rec {
                at_s,
                lane,
                seq,
                line,
            });
    });
    if appended.is_err() {
        // Thread-local storage already destroyed (record from a late
        // thread-exit destructor): give the slot back, count the drop.
        BUFFERED.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

fn fields_obj(fields: Vec<(&'static str, Json)>) -> Json {
    Json::obj(fields)
}

/// Base pairs shared by every v2 span/event record. Sized for the base
/// six pairs plus `dur_s`/`span_id`/`parent_id`/remote identity/`fields`
/// so the common cases never reallocate.
fn v2_base(
    kind: &'static str,
    name: &'static str,
    at_s: f64,
    lane: u64,
    seq: u64,
) -> Vec<(&'static str, Json)> {
    let mut pairs = Vec::with_capacity(12);
    pairs.push(("schema", Json::Str(crate::SCHEMA_V2.into())));
    pairs.push(("kind", Json::Str(kind.into())));
    pairs.push(("name", Json::Str(name.into())));
    pairs.push(("at_s", Json::Num(at_s)));
    pairs.push(("thread", Json::Num(lane as f64)));
    pairs.push(("seq", Json::Num(seq as f64)));
    pairs
}

/// Records a point-in-time event. `fields` is only invoked (and only
/// allocates) when tracing is enabled. The event inherits the innermost
/// open [`Span`] on this thread as `parent_id`.
pub fn event(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Json)>) {
    if !trace_enabled() {
        return;
    }
    let at_s = now_s();
    let fields = Json::obj(fields());
    push_record(at_s, |lane, seq, parent| {
        let mut pairs = v2_base("event", name, at_s, lane, seq);
        if let Some(p) = parent {
            pairs.push(("parent_id", Json::Num(p as f64)));
        }
        pairs.push(("fields", fields));
        Json::obj(pairs)
    });
}

/// An in-progress span: records its name, ids, start offset and duration
/// when dropped. Construct with [`Span::enter`]; attach fields with
/// [`Span::field`]. When tracing is disabled the span is inert and
/// allocation-free.
///
/// A live span sits on its thread's span stack from `enter` to drop, so
/// spans and events started in between become its children. Spans are
/// expected to be entered and dropped on the same thread; a span dropped
/// elsewhere still records, but cannot close its stack entry.
pub struct Span {
    name: &'static str,
    start: Option<(f64, Instant)>,
    id: u64,
    parent: Option<u64>,
    remote: Option<SpanContext>,
    fields: Vec<(&'static str, Json)>,
}

impl Span {
    /// Starts a span. Inert (no clock read, no allocation) when tracing
    /// is disabled.
    pub fn enter(name: &'static str) -> Span {
        if !trace_enabled() {
            return Span {
                name,
                start: None,
                id: 0,
                parent: None,
                remote: None,
                fields: Vec::new(),
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = LOCAL
            .try_with(|l| {
                let mut l = l.borrow_mut();
                let parent = l.stack.last().copied();
                l.stack.push(id);
                parent
            })
            .unwrap_or(None);
        Span {
            name,
            start: Some((now_s(), Instant::now())),
            id,
            parent,
            remote: None,
            fields: Vec::new(),
        }
    }

    /// Starts a span whose causal parent lives in another process: the
    /// recorded span carries `remote_proc_id`/`remote_parent_id` (never
    /// `parent_id`, which stays process-local so single-file link
    /// validation sees no orphans). Cross-process merges
    /// ([`canonical_cluster_jsonl`]) resolve the remote link into one
    /// causal tree. Locally the span still behaves like [`Span::enter`]:
    /// it goes on this thread's stack, so nested work parents under it.
    pub fn enter_remote(name: &'static str, ctx: SpanContext) -> Span {
        let mut span = Span::enter(name);
        if span.start.is_some() {
            span.remote = Some(ctx);
        }
        span
    }

    /// Attaches a field to the span; `value` is only invoked when the
    /// span is live (tracing was enabled at `enter`).
    pub fn field(&mut self, key: &'static str, value: impl FnOnce() -> Json) {
        if self.start.is_some() {
            self.fields.push((key, value()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((at_s, t0)) = self.start.take() else {
            return;
        };
        let id = self.id;
        // Close the stack entry. Searching from the top keeps this
        // robust to out-of-order drops of sibling spans.
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            if let Some(i) = l.stack.iter().rposition(|&s| s == id) {
                l.stack.remove(i);
            }
        });
        let dur_s = t0.elapsed().as_secs_f64();
        let name = self.name;
        let parent = self.parent;
        let remote = self.remote;
        let fields = fields_obj(std::mem::take(&mut self.fields));
        push_record(at_s, |lane, seq, _| {
            let mut pairs = v2_base("span", name, at_s, lane, seq);
            pairs.push(("dur_s", Json::Num(dur_s)));
            pairs.push(("span_id", Json::Num(id as f64)));
            if let Some(p) = parent {
                pairs.push(("parent_id", Json::Num(p as f64)));
            }
            if let Some(ctx) = remote {
                pairs.push(("remote_proc_id", Json::Num(ctx.proc_id as f64)));
                pairs.push(("remote_parent_id", Json::Num(ctx.span_id as f64)));
            }
            pairs.push(("fields", fields));
            Json::obj(pairs)
        });
    }
}

/// Drains the sink: merges all shards into one sequence ordered by
/// `(at_s, thread, seq)` and returns it (plus the number of records
/// dropped since the last drain), resetting both. Shards of exited
/// threads are reclaimed. Intended to be called at a quiescent point
/// (concurrent recording during the drain lands in the next one).
pub fn drain() -> (Vec<Json>, u64) {
    let mut recs: Vec<Rec> = Vec::new();
    {
        let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        reg.retain(|shard| {
            recs.append(&mut shard.records.lock().unwrap_or_else(|p| p.into_inner()));
            // Only the registry holds shards of exited threads.
            Arc::strong_count(shard) > 1
        });
    }
    BUFFERED.store(0, Ordering::Relaxed);
    let dropped = DROPPED.swap(0, Ordering::Relaxed);
    recs.sort_by(|a, b| {
        a.at_s
            .total_cmp(&b.at_s)
            .then(a.lane.cmp(&b.lane))
            .then(a.seq.cmp(&b.seq))
    });
    (recs.into_iter().map(|r| r.line).collect(), dropped)
}

/// Drains freshly recorded lines into the retained scrape buffer,
/// trimming the front past [`RETAIN_CAP`] and accumulating the sink's
/// dropped count for the eventual dump.
fn flush_to_retained() {
    let (records, dropped) = drain();
    let mut r = RETAINED.lock().unwrap_or_else(|p| p.into_inner());
    for rec in records {
        r.lines.push(rec.render_compact());
    }
    let over = r.lines.len().saturating_sub(RETAIN_CAP);
    if over > 0 {
        r.lines.drain(..over);
        r.base += over as u64;
    }
    r.dropped += dropped;
}

/// Cursor-based trace delta for the scrape path: returns up to
/// `max_lines` rendered records starting at `cursor`, plus the cursor to
/// resume from — repeated scrapes never replay a line. A cursor behind
/// the retained window (the buffer trimmed past it) silently skips to
/// the oldest retained line; a cursor past the end returns nothing.
/// Lines handed out stay retained until `RETAIN_CAP` pushes them out,
/// so a second consumer at an older cursor still sees them.
pub fn trace_delta(cursor: u64, max_lines: usize) -> (u64, Vec<String>) {
    flush_to_retained();
    let r = RETAINED.lock().unwrap_or_else(|p| p.into_inner());
    let end = r.base + r.lines.len() as u64;
    let start = cursor.clamp(r.base, end);
    let take = ((end - start) as usize).min(max_lines);
    let from = (start - r.base) as usize;
    (start + take as u64, r.lines[from..from + take].to_vec())
}

/// Drains the sink and renders it as JSON-lines: a `meta` record
/// (carrying the dropped count, and the process label/id when
/// [`set_trace_process`] named this process) followed by the merged
/// records. Lines still sitting in the scrape-delta buffer are included
/// first (they were recorded earlier) and consumed, so a process that
/// was scraped and then dumped emits each record exactly once here.
pub fn trace_jsonl(source: &str) -> String {
    flush_to_retained();
    let (lines, dropped) = {
        let mut r = RETAINED.lock().unwrap_or_else(|p| p.into_inner());
        r.base += r.lines.len() as u64;
        (std::mem::take(&mut r.lines), std::mem::take(&mut r.dropped))
    };
    let mut out = String::new();
    let mut meta_pairs = vec![
        ("schema", Json::Str(crate::SCHEMA.into())),
        ("kind", Json::Str("meta".into())),
        ("source", Json::Str(source.into())),
        ("dropped", Json::Num(dropped as f64)),
    ];
    if let Some((label, id)) = trace_process() {
        meta_pairs.push(("proc", Json::Str(label)));
        meta_pairs.push(("proc_id", Json::Num(id as f64)));
    }
    out.push_str(&Json::obj(meta_pairs).render_compact());
    out.push('\n');
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

/// Writes [`trace_jsonl`] to `path`; returns the number of records
/// written (including the leading `meta` record).
pub fn write_trace(path: &Path, source: &str) -> std::io::Result<usize> {
    let text = trace_jsonl(source);
    let records = text.lines().count();
    std::fs::write(path, text)?;
    Ok(records)
}

/// Rewrites drained trace JSON-lines into a **canonical** form that is
/// byte-identical across scheduling orders whenever the *multiset* of
/// recorded work is the same:
///
/// * `at_s` and `dur_s` are zeroed, and so is every numeric field whose
///   name ends in `_seconds` (wall-clock normalization);
/// * `thread` and `seq` are dropped;
/// * `span_id` / `parent_id` are replaced by the span's causal name path
///   (`"root/child/…"`, from following `parent_id` links);
/// * the lines are sorted lexicographically.
///
/// This is what the parallel-determinism tests compare: a deterministic
/// workload traced at 1, 3 and 8 workers canonicalizes to identical
/// bytes.
///
/// # Errors
///
/// Returns a description if a line fails to parse, a span has no
/// `span_id`, a `parent_id` does not resolve to an emitted `span_id`, or
/// the parent links form a cycle.
pub fn canonical_jsonl(text: &str) -> Result<String, String> {
    let mut docs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        docs.push(doc);
    }
    // Map span_id -> (name, parent_id) so ids can become name paths.
    let mut spans: std::collections::HashMap<u64, (String, Option<u64>)> =
        std::collections::HashMap::new();
    for doc in &docs {
        if doc.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let Some(id) = doc.get("span_id").and_then(Json::as_f64) else {
            return Err("span without a `span_id`".into());
        };
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let parent = doc
            .get("parent_id")
            .and_then(Json::as_f64)
            .map(|p| p as u64);
        spans.insert(id as u64, (name, parent));
    }
    let path_of = |mut id: u64| -> Result<String, String> {
        let mut parts = Vec::new();
        loop {
            let (name, parent) = spans
                .get(&id)
                .ok_or_else(|| format!("parent_id {id} does not resolve to a span_id"))?;
            parts.push(name.clone());
            if parts.len() > spans.len() {
                return Err(format!("span parent cycle through id {id}"));
            }
            match parent {
                Some(p) => id = *p,
                None => break,
            }
        }
        parts.reverse();
        Ok(parts.join("/"))
    };
    let mut lines = Vec::with_capacity(docs.len());
    for doc in docs {
        lines.push(canonical_record(doc, |_| {}, path_of)?);
    }
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    Ok(out)
}

/// One record in canonical form, the normalization both
/// [`canonical_jsonl`] and [`canonical_cluster_jsonl`] apply: `at_s`,
/// `dur_s` and every numeric `*_seconds` field zeroed, `thread` and `seq`
/// dropped, then `adjust` applied, then `span_id` and `parent_id`
/// replaced by `path_of` their value.
fn canonical_record(
    doc: Json,
    adjust: impl FnOnce(&mut std::collections::BTreeMap<String, Json>),
    path_of: impl Fn(u64) -> Result<String, String>,
) -> Result<String, String> {
    let Json::Obj(mut map) = doc else {
        return Err("record is not an object".into());
    };
    for key in ["at_s", "dur_s"] {
        if map.contains_key(key) {
            map.insert(key.into(), Json::Num(0.0));
        }
    }
    if let Some(Json::Obj(fields)) = map.get_mut("fields") {
        for (key, value) in fields.iter_mut() {
            if key.ends_with("_seconds") && matches!(value, Json::Num(_)) {
                *value = Json::Num(0.0);
            }
        }
    }
    map.remove("thread");
    map.remove("seq");
    adjust(&mut map);
    for key in ["span_id", "parent_id"] {
        if let Some(id) = map.get(key).and_then(Json::as_f64) {
            map.insert(key.into(), Json::Str(path_of(id as u64)?));
        }
    }
    Ok(Json::Obj(map).render_compact())
}

/// Merges per-process trace JSONL parts into one **canonical
/// cross-process** causal tree, byte-identical across scheduling orders
/// and process interleavings whenever the multiset of recorded work is
/// the same.
///
/// Each part must lead with a `meta` line carrying `proc` and `proc_id`
/// (written by [`trace_jsonl`] after [`set_trace_process`]). Span
/// identity is namespaced per process — ids are `(proc_id, span_id)` —
/// and a span's causal path follows local `parent_id` links first, then
/// jumps across the process boundary through
/// `remote_proc_id`/`remote_parent_id` and continues in the originating
/// process. Each record is normalized as [`canonical_jsonl`] normalizes
/// it (timestamps and `*_seconds` fields zeroed, `thread`/`seq`
/// dropped), gains a `"proc"` label and loses the raw ids (replaced by
/// name paths prefixed with the owning process of each segment), and
/// the merged lines are sorted lexicographically. `meta` lines are omitted (their
/// dropped counts are timing-dependent).
///
/// # Errors
///
/// Returns a description if a part lacks its `proc`/`proc_id` meta, a
/// line fails to parse, a local or remote parent does not resolve, or
/// parent links form a cycle.
pub fn canonical_cluster_jsonl(parts: &[&str]) -> Result<String, String> {
    // Key spans globally by (proc_id, span_id).
    type Key = (u64, u64);
    struct SpanInfo {
        name: String,
        parent: Option<u64>,
        remote: Option<Key>,
    }
    let mut spans: std::collections::HashMap<Key, SpanInfo> = std::collections::HashMap::new();
    let mut parsed: Vec<(String, u64, Vec<Json>)> = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        let mut label: Option<(String, u64)> = None;
        let mut docs = Vec::new();
        for (i, line) in part.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc =
                Json::parse(line).map_err(|e| format!("part {}, line {}: {e}", pi + 1, i + 1))?;
            if doc.get("kind").and_then(Json::as_str) == Some("meta") {
                let proc = doc.get("proc").and_then(Json::as_str).map(str::to_string);
                let id = doc.get("proc_id").and_then(Json::as_f64).map(|v| v as u64);
                if let (Some(p), Some(id)) = (proc, id) {
                    label = Some((p, id));
                }
                continue;
            }
            docs.push(doc);
        }
        let (proc, proc_id) = label.ok_or_else(|| {
            format!(
                "part {} has no meta line with `proc`/`proc_id` (was the \
                 process named with set_trace_process?)",
                pi + 1
            )
        })?;
        for doc in &docs {
            if doc.get("kind").and_then(Json::as_str) != Some("span") {
                continue;
            }
            let Some(id) = doc.get("span_id").and_then(Json::as_f64) else {
                return Err(format!("part {}: span without a `span_id`", pi + 1));
            };
            let remote = match (
                doc.get("remote_proc_id").and_then(Json::as_f64),
                doc.get("remote_parent_id").and_then(Json::as_f64),
            ) {
                (Some(p), Some(s)) => Some((p as u64, s as u64)),
                _ => None,
            };
            spans.insert(
                (proc_id, id as u64),
                SpanInfo {
                    name: doc
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    parent: doc
                        .get("parent_id")
                        .and_then(Json::as_f64)
                        .map(|p| p as u64),
                    remote,
                },
            );
        }
        parsed.push((proc, proc_id, docs));
    }
    let proc_names: std::collections::HashMap<u64, String> = parsed
        .iter()
        .map(|(name, id, _)| (*id, name.clone()))
        .collect();
    // A span's canonical path: walk local parents to this process's
    // root, jump through any remote context, repeat. Segments are
    // prefixed with their process label so paths are unambiguous.
    let path_of = |key: Key| -> Result<String, String> {
        let mut parts_rev: Vec<String> = Vec::new();
        let mut cur = key;
        loop {
            let info = spans.get(&cur).ok_or_else(|| {
                format!("span ({}, {}) referenced but never emitted", cur.0, cur.1)
            })?;
            let proc = proc_names.get(&cur.0).map(String::as_str).unwrap_or("?");
            parts_rev.push(format!("{proc}:{}", info.name));
            if parts_rev.len() > spans.len() {
                return Err(format!("span parent cycle through ({}, {})", cur.0, cur.1));
            }
            match (info.parent, info.remote) {
                (Some(p), _) => cur = (cur.0, p),
                (None, Some(r)) => cur = r,
                (None, None) => break,
            }
        }
        parts_rev.reverse();
        Ok(parts_rev.join("/"))
    };
    let mut lines = Vec::new();
    for (proc, proc_id, docs) in parsed {
        for doc in docs {
            let adjust = |map: &mut std::collections::BTreeMap<String, Json>| {
                map.remove("remote_proc_id");
                map.remove("remote_parent_id");
                map.insert("proc".into(), Json::Str(proc.clone()));
            };
            lines.push(canonical_record(doc, adjust, |id| path_of((proc_id, id)))?);
        }
    }
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::test_guard;

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = test_guard();
        set_trace_enabled(false);
        drain();
        event("test.noop", || vec![("x", Json::Num(1.0))]);
        {
            let mut s = Span::enter("test.noop.span");
            s.field("y", || Json::Num(2.0));
        }
        let (records, dropped) = drain();
        assert!(records.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn events_and_spans_are_recorded_and_validate() {
        let _g = test_guard();
        set_trace_enabled(true);
        drain();
        event("test.event", || vec![("worker", Json::Num(3.0))]);
        {
            let mut s = Span::enter("test.span");
            s.field("items", || Json::Num(7.0));
        }
        set_trace_enabled(false);
        let text = trace_jsonl("unit-test");
        let n = crate::validate_jsonl(&text).unwrap();
        assert_eq!(n, 3, "meta + event + span: {text}");
        let span_line = text.lines().find(|l| l.contains("test.span")).unwrap();
        let doc = Json::parse(span_line).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(crate::SCHEMA_V2)
        );
        assert!(doc.get("dur_s").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(doc.get("span_id").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            doc.get("fields")
                .and_then(|f| f.get("items"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn nested_spans_and_events_link_to_their_parents() {
        let _g = test_guard();
        set_trace_enabled(true);
        drain();
        {
            let _outer = Span::enter("test.outer");
            event("test.inner.event", Vec::new);
            let _inner = Span::enter("test.inner");
        }
        set_trace_enabled(false);
        let (records, _) = drain();
        assert_eq!(records.len(), 3);
        let find = |name: &str| {
            records
                .iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
                .unwrap()
        };
        let outer_id = find("test.outer").get("span_id").and_then(Json::as_f64);
        assert!(outer_id.is_some());
        assert!(find("test.outer").get("parent_id").is_none());
        for child in ["test.inner", "test.inner.event"] {
            assert_eq!(
                find(child).get("parent_id").and_then(Json::as_f64),
                outer_id,
                "{child} should nest under test.outer"
            );
        }
    }

    #[test]
    fn event_timestamps_are_nondecreasing() {
        // Regression: `now_s` used to return a constant 0.0 whenever the
        // epoch had not been initialized; it now self-initializes.
        let _g = test_guard();
        set_trace_enabled(true);
        drain();
        event("test.tick", Vec::new);
        std::thread::sleep(std::time::Duration::from_millis(2));
        event("test.tick", Vec::new);
        event("test.tick", Vec::new);
        set_trace_enabled(false);
        let (records, _) = drain();
        let stamps: Vec<f64> = records
            .iter()
            .map(|r| r.get("at_s").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(stamps.len(), 3);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        // The sleep separates the epoch from the later stamps, so a
        // constant-zero clock cannot pass this.
        assert!(stamps[2] > 0.0, "{stamps:?}");
    }

    #[test]
    fn sink_capacity_bounds_records_with_exact_drop_accounting() {
        let _g = test_guard();
        set_trace_enabled(true);
        drain();
        set_trace_capacity(4);
        for _ in 0..9 {
            event("test.cap", Vec::new);
        }
        set_trace_enabled(false);
        let text = trace_jsonl("cap-test");
        set_trace_capacity(SINK_CAP);
        let meta = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(meta.get("dropped").and_then(Json::as_f64), Some(5.0));
        assert_eq!(text.lines().count(), 5, "meta + 4 kept records: {text}");
        // The drain reset the budget: recording works again.
        set_trace_enabled(true);
        event("test.cap", Vec::new);
        set_trace_enabled(false);
        let (records, dropped) = drain();
        assert_eq!((records.len(), dropped), (1, 0));
    }

    #[test]
    fn parallel_threads_record_without_loss_and_merge_deterministically() {
        let _g = test_guard();
        set_trace_enabled(true);
        drain();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                scope.spawn(move || {
                    set_trace_lane(w + 1);
                    for i in 0..25 {
                        let mut s = Span::enter("test.par");
                        s.field("i", || Json::Num(f64::from(i)));
                    }
                });
            }
        });
        set_trace_enabled(false);
        let (records, dropped) = drain();
        assert_eq!(records.len(), 100);
        assert_eq!(dropped, 0);
        // Merged order is (at_s, thread, seq): check it is a total order
        // actually sorted.
        let keys: Vec<(f64, f64, f64)> = records
            .iter()
            .map(|r| {
                (
                    r.get("at_s").and_then(Json::as_f64).unwrap(),
                    r.get("thread").and_then(Json::as_f64).unwrap(),
                    r.get("seq").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.total_cmp(&b.2))
        });
        assert_eq!(keys, sorted);
        let lanes: std::collections::BTreeSet<u64> = keys.iter().map(|k| k.1 as u64).collect();
        assert_eq!(lanes, (1..=4).collect());
    }

    #[test]
    fn canonical_jsonl_is_stable_across_lane_and_time_jitter() {
        let _g = test_guard();
        let run = |lane: u64| {
            set_trace_enabled(true);
            drain();
            set_trace_lane(lane);
            {
                let mut outer = Span::enter("test.canon.outer");
                outer.field("k", || Json::Num(7.0));
                event("test.canon.tick", Vec::new);
            }
            set_trace_enabled(false);
            let text = trace_jsonl("canon");
            canonical_jsonl(&text).unwrap()
        };
        let a = run(1);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = run(9);
        assert_eq!(a, b);
        assert!(a.contains("\"span_id\":\"test.canon.outer\""), "{a}");
        assert!(
            a.contains("\"parent_id\":\"test.canon.outer\""),
            "event keeps its causal path: {a}"
        );
    }

    #[test]
    fn an_adopting_worker_records_under_the_drivers_span() {
        let _g = test_guard();
        let run = |threaded: bool| {
            set_trace_enabled(true);
            drain();
            {
                let mut outer = Span::enter("test.adopt.driver");
                outer.field("phase_seconds", || {
                    Json::Num(if threaded { 0.25 } else { 0.5 })
                });
                let work = || {
                    let _s = Span::enter("test.adopt.work");
                    event("test.adopt.tick", Vec::new);
                };
                if threaded {
                    let parent = current_parent();
                    std::thread::scope(|scope| {
                        scope.spawn(|| {
                            let _adopted = adopt_parent(parent);
                            work();
                        });
                    });
                } else {
                    work();
                }
            }
            set_trace_enabled(false);
            let text = trace_jsonl("adopt");
            crate::validate_span_links(&text).unwrap();
            canonical_jsonl(&text).unwrap()
        };
        let inline = run(false);
        assert_eq!(
            inline,
            run(true),
            "a worker's records nest as inline ones do"
        );
        assert!(
            inline.contains("\"span_id\":\"test.adopt.driver/test.adopt.work\""),
            "{inline}"
        );
        // Wall-clock span fields canonicalize like `dur_s`.
        assert!(inline.contains("\"phase_seconds\":0"), "{inline}");
        assert_eq!(adopt_parent(None).0, None);
    }

    #[test]
    fn trace_delta_cursors_never_replay_and_resume() {
        let _g = test_guard();
        set_trace_enabled(true);
        let _ = trace_jsonl("reset"); // clear sink + retained buffer
                                      // A cursor past the end clamps to the live end — the origin for
                                      // the deltas below (`base` survives from earlier tests).
        let (c0, none) = trace_delta(u64::MAX, 100);
        assert!(none.is_empty());
        for i in 0..5 {
            event("test.delta", move || vec![("i", Json::Num(f64::from(i)))]);
        }
        let (c1, lines1) = trace_delta(c0, 3);
        assert_eq!((c1 - c0, lines1.len()), (3, 3));
        let (c2, lines2) = trace_delta(c1, 100);
        assert_eq!((c2 - c0, lines2.len()), (5, 2));
        // No new records: resuming from the cursor returns nothing.
        let (c3, lines3) = trace_delta(c2, 100);
        assert_eq!((c3, lines3.len()), (c2, 0));
        // More records extend the window from the same cursor.
        event("test.delta.more", Vec::new);
        let (c4, lines4) = trace_delta(c3, 100);
        assert_eq!((c4 - c0, lines4.len()), (6, 1));
        assert!(lines4[0].contains("test.delta.more"));
        // An older cursor still replays retained lines (second consumer).
        let (_, again) = trace_delta(c0, 100);
        assert_eq!(again.len(), 6);
        set_trace_enabled(false);
        let _ = trace_jsonl("cleanup");
    }

    #[test]
    fn remote_spans_stitch_into_one_cluster_tree() {
        let _g = test_guard();
        set_trace_enabled(true);
        let _ = trace_jsonl("reset");
        // "Gateway" process: a put span whose context crosses the wire.
        set_trace_process("gw");
        let ctx = {
            let _put = Span::enter("net.put");
            current_context().expect("open span + named process")
        };
        assert_eq!(ctx.proc_id, process_id_for("gw"));
        set_trace_enabled(false);
        let gw_part = trace_jsonl("gw");
        // "Brick" process: the handler span adopts the remote parent.
        set_trace_enabled(true);
        set_trace_process("brick-0");
        {
            let _h = Span::enter_remote("net.brick.put", ctx);
            event("net.brick.commit", Vec::new);
        }
        set_trace_enabled(false);
        let brick_part = trace_jsonl("brick-0");
        let merged = canonical_cluster_jsonl(&[&gw_part, &brick_part]).unwrap();
        assert!(
            merged.contains("\"span_id\":\"gw:net.put/brick-0:net.brick.put\""),
            "handler span paths through the gateway parent: {merged}"
        );
        assert!(
            merged.contains("\"parent_id\":\"gw:net.put/brick-0:net.brick.put\""),
            "brick-local event keeps the stitched path: {merged}"
        );
        assert!(!merged.contains("remote_proc_id"), "{merged}");
        // A part without process identity is rejected.
        let anon = "{\"schema\":\"nsr-obs/v1\",\"kind\":\"meta\",\"source\":\"x\"}\n";
        let err = canonical_cluster_jsonl(&[anon]).unwrap_err();
        assert!(err.contains("proc"), "{err}");
        // An unresolvable remote parent is rejected.
        let missing = canonical_cluster_jsonl(&[&brick_part]);
        assert!(missing.is_err(), "dangling remote parent must error");
    }

    #[test]
    fn cluster_parts_zero_wall_clock_span_fields() {
        let _g = test_guard();
        let part = |seconds: f64| {
            set_trace_enabled(true);
            let _ = trace_jsonl("reset");
            set_trace_process("brick-0");
            {
                let mut span = Span::enter("net.brick.scrub");
                span.field("scan_seconds", || Json::Num(seconds));
                span.field("objects", || Json::Num(3.0));
            }
            set_trace_enabled(false);
            canonical_cluster_jsonl(&[&trace_jsonl("brick-0")]).unwrap()
        };
        let a = part(0.25);
        assert_eq!(a, part(1.5), "a *_seconds field is wall clock");
        assert!(a.contains("\"scan_seconds\":0"), "{a}");
        assert!(a.contains("\"objects\":3"), "other fields are kept: {a}");
    }

    #[test]
    fn canonical_jsonl_rejects_orphan_parents() {
        let line = format!(
            "{{\"schema\":\"{}\",\"kind\":\"event\",\"name\":\"x\",\"at_s\":0.1,\
             \"thread\":1,\"seq\":0,\"parent_id\":42,\"fields\":{{}}}}\n",
            crate::SCHEMA_V2
        );
        let err = canonical_jsonl(&line).unwrap_err();
        assert!(err.contains("42"), "{err}");
        // A span with no `span_id` (the v1 shape) is an error, not skipped.
        let err = canonical_jsonl("{\"kind\":\"span\",\"name\":\"x\"}\n").unwrap_err();
        assert!(err.contains("span_id"), "{err}");
    }
}
