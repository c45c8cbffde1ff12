//! The benchmark's own span recorder. Spans are recorded around calls
//! into the program's layers, from outside; nothing is added inside any
//! crate. Kept in memory, written out once when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{percentile, sorted};

struct SpanRec {
    id: u64,
    parent: Option<u64>,
    /// One id per op, shared by the op's root span and its children.
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    next_op: u64,
}

/// An open root span: one op.
pub struct OpSpan {
    id: u64,
    op: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: Option<u64>, op: u64, name: &'static str, start_ns: u64) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(SpanRec {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Opens the root span of a new op.
    pub fn begin_op(&mut self, name: &'static str) -> OpSpan {
        let op = self.next_op;
        self.next_op += 1;
        let start = self.now_ns();
        OpSpan {
            id: self.push(None, op, name, start),
            op,
        }
    }

    /// Runs `f` as a child span of `root`.
    pub fn child<R>(&mut self, root: &OpSpan, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let id = self.push(Some(root.id), root.op, name, start);
        let out = f();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn end_op(&mut self, root: OpSpan) {
        self.spans[root.id as usize].end_ns = self.now_ns();
    }

    /// Ascending durations in µs, keyed by span name, of the root spans
    /// named `root_name` and of every child under them, each multiplied
    /// by `host_factor`.
    pub fn durations_us(
        &self,
        root_name: &str,
        host_factor: f64,
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut in_scope = false;
        // A root span is pushed before its children and ops never
        // interleave, so one forward pass sees each op's spans together.
        for s in &self.spans {
            if s.parent.is_none() {
                in_scope = s.name == root_name;
            }
            if in_scope {
                by_name
                    .entry(s.name)
                    .or_default()
                    .push((s.end_ns - s.start_ns) as f64 / 1e3 * host_factor);
            }
        }
        by_name.into_iter().map(|(k, v)| (k, sorted(v))).collect()
    }

    /// Median self time in µs of root spans named `name`: the root's
    /// duration minus the part its children cover.
    pub fn root_self_us(&self, name: &'static str) -> f64 {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let selfs = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| {
                let covered = child_ns.get(&s.id).copied().unwrap_or(0);
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect();
        percentile(&sorted(selfs), 0.5)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_their_op() {
        let mut rec = Recorder::new();
        let root = rec.begin_op("op.put");
        let v = rec.child(&root, "gateway.put", || 7);
        rec.child(&root, "erasure.encode", || ());
        rec.end_op(root);
        assert_eq!(v, 7);
        assert_eq!(rec.len(), 3);
        let d = rec.durations_us("op.put", 1.0);
        assert!(rec.durations_us("op.get", 1.0).is_empty());
        assert_eq!(d["op.put"].len(), 1);
        assert_eq!(d["gateway.put"].len(), 1);
        let covered = d["gateway.put"][0] + d["erasure.encode"][0];
        assert!(d["op.put"][0] >= covered);
        assert!(rec.root_self_us("op.put") <= d["op.put"][0]);
        assert!(rec.spans.iter().all(|s| s.op == 0));
        assert_eq!(rec.spans[1].parent, Some(0));
    }
}
