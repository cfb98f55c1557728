//! Spans of the traced pass, kept in memory and written when the workload
//! ends.
//!
//! A span has a name, start, end, the span that caused it and the op it
//! belongs to. The spans the harness records are of two kinds: *interval*
//! spans around a call it made itself (`sim.run` around one slice of
//! `Network::run_probed`, `core.run_with` / `core.sweep_with` around a
//! public call), and *aggregated* child spans (`routing.route`,
//! `routing.injection_requests`, `traffic.generate`) that stand for the
//! thousands of calls the program made into a wrapped trait during one
//! slice: they start with their parent and last as long as those calls
//! took together, and `count` says how many there were. A span's self time
//! is its duration minus its children's.

use std::io::{self, Write};
use std::time::Instant;

use crate::json::Value;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Index of the op (within its workload) the span belongs to.
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span: cycles stepped for `sim.run`, calls made
    /// for an aggregated child, 1 for a span around one public call.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Duration and `count` summed over the direct children of one span. A
/// span's self time is its duration minus `ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Covered {
    pub ns: u64,
    pub count: u64,
}

/// The in-memory span store of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens the root span of op number `op`, starting now.
    pub fn open_root(&mut self, name: &'static str, op: usize) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            parent: None,
            op,
            start_ns: now,
            end_ns: now,
            count: 1,
        })
    }

    /// Opens an interval span under `parent`, starting now.
    pub fn open(&mut self, parent: SpanId, name: &'static str, count: u64) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            parent: Some(parent),
            op: self.spans[parent].op,
            start_ns: now,
            end_ns: now,
            count,
        })
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an aggregated child of `parent`: `count` calls that took
    /// `ns` together, placed at the parent's start.
    pub fn push_aggregate(&mut self, parent: SpanId, name: &'static str, count: u64, ns: u64) {
        let (op, start_ns) = (self.spans[parent].op, self.spans[parent].start_ns);
        self.push(Span {
            name,
            parent: Some(parent),
            op,
            start_ns,
            end_ns: start_ns + ns,
            count,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// What the direct children of each span add up to, indexed by span.
    pub fn children(&self) -> Vec<Covered> {
        let mut covered = vec![Covered::default(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent].ns += span.duration_ns();
                covered[parent].count += span.count;
            }
        }
        covered
    }

    /// Writes the spans as one JSON document, one span per line.
    pub fn write_json(&self, w: &mut impl Write, op_names: &[&str]) -> io::Result<()> {
        writeln!(w, "{{\"unit\":\"ns\",\"spans\":[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let span = Value::obj([
                ("id", Value::from(id as u64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                ),
                ("op", Value::from(op_names[s.op])),
                ("name", Value::from(s.name)),
                ("start", Value::from(s.start_ns)),
                ("end", Value::from(s.end_ns)),
                ("count", Value::from(s.count)),
            ]);
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(w, "{span}{comma}")?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(rec: &mut Recorder, parent: Option<SpanId>, start: u64, end: u64) -> SpanId {
        rec.push(Span {
            name: "sim.run",
            parent,
            op: 0,
            start_ns: start,
            end_ns: end,
            count: 32,
        })
    }

    #[test]
    fn children_are_summed_under_their_direct_parent_only() {
        let mut rec = Recorder::new();
        let root = interval(&mut rec, None, 0, 1000);
        let slice = interval(&mut rec, Some(root), 100, 700);
        rec.push_aggregate(slice, "routing.route", 40, 250);
        rec.push_aggregate(slice, "traffic.generate", 64, 50);
        let lone = interval(&mut rec, None, 2000, 2100);
        let covered = rec.children();
        // Grandchildren do not count against the root, only `slice` does.
        assert_eq!(covered[root], Covered { ns: 600, count: 32 });
        assert_eq!(
            covered[slice],
            Covered {
                ns: 300,
                count: 104
            }
        );
        assert_eq!(covered[lone], Covered::default());
        let child = &rec.spans()[slice + 1];
        assert_eq!(
            (child.start_ns, child.end_ns, child.count, child.op),
            (100, 350, 40, 0)
        );
        assert_eq!(rec.spans()[slice].duration_ns() - covered[slice].ns, 300);
    }

    #[test]
    fn opened_spans_inherit_the_op_and_close_after_they_start() {
        let mut rec = Recorder::new();
        let root = rec.open_root("bench.op", 3);
        let slice = rec.open(root, "sim.run", 32);
        rec.close(slice);
        rec.close(root);
        let (root, slice) = (&rec.spans()[root], &rec.spans()[slice]);
        assert_eq!((slice.op, slice.parent, slice.count), (3, Some(0), 32));
        assert!(root.start_ns <= slice.start_ns && slice.end_ns <= root.end_ns);
    }

    #[test]
    fn the_trace_file_is_valid_json() {
        let mut rec = Recorder::new();
        let slice = interval(&mut rec, None, 1, 9);
        rec.push_aggregate(slice, "routing.route", 2, 3);
        let mut out = Vec::new();
        rec.write_json(&mut out, &["uni_footprint"]).unwrap();
        let doc = Value::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(
            spans[0].get("op").and_then(Value::as_str),
            Some("uni_footprint")
        );
    }
}
