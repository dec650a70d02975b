//! Bench-side spans: recorded around the benchmark's own calls into the
//! program, kept in memory and written out once at the end of a run.
//!
//! Every op is one `op` span with `read`, `write` and `check` children
//! (the oracle). A span's self time is its duration minus the time its
//! children cover; the `op` span's self time is the harness's own loop.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use chop_service::json::{obj, Value};

pub const OP: &str = "op";
pub const READ: &str = "read";
pub const WRITE: &str = "write";
pub const CHECK: &str = "check";
/// Span names in report order.
pub const NAMES: [&str; 4] = [OP, READ, WRITE, CHECK];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. A disabled recorder records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self { on, origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent: parent.0, start_ns, end_ns: start_ns });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    pub fn root() -> SpanId {
        SpanId(None)
    }
}

/// Total self time per span name, in nanoseconds, over several
/// recorders.
pub fn self_times(recorders: &[&Tracer]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for t in recorders {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in t.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
    }
    out
}

/// Writes every span as one JSON line (`name`, `op`, `parent`, `start_ns`,
/// `end_ns`; parents index the file's own lines).
pub fn write_spans(path: &Path, recorders: &[&Tracer]) -> std::io::Result<()> {
    let mut out = String::new();
    let mut base = 0usize;
    for t in recorders {
        for s in &t.spans {
            let parent = s.parent.map_or(Value::Null, |p| Value::Num((p + base) as f64));
            let line = obj(vec![
                ("name", Value::Str(s.name.to_owned())),
                ("op", Value::Num(s.op as f64)),
                ("parent", parent),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            line.write(&mut out);
            out.push('\n');
        }
        base += t.spans.len();
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            Span { name: OP, op: 0, parent: None, start_ns: 0, end_ns: 100 },
            Span { name: READ, op: 0, parent: Some(0), start_ns: 10, end_ns: 70 },
            Span { name: CHECK, op: 0, parent: Some(0), start_ns: 70, end_ns: 90 },
        ];
        let st = self_times(&[&t]);
        assert_eq!(st[OP], 20);
        assert_eq!(st[READ], 60);
        assert_eq!(st[CHECK], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open(OP, 0, Tracer::root());
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
