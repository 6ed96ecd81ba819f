//! In-memory span recording around the benchmark's calls into each
//! layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the operation it belongs to. Spans are kept in memory while a
//! workload runs; per-layer figures are computed from them when it ends
//! and the spans are written out then. A disabled tracer records
//! nothing and costs one branch per span.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `synopsis.dp`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records iff `enabled`; timestamps count from
    /// `epoch`, so tracers of several threads share one time line.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: enabled.then(Vec::new),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Starts a new operation: spans opened from now on carry `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if self.spans.is_none() {
            return f(self);
        }
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        let op = self.op;
        let index = self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        if let Some(spans) = self.spans.as_mut() {
            spans[index].end_ns = end_ns;
        }
        out
    }

    fn push(&mut self, span: Span) -> usize {
        let spans = self.spans.get_or_insert_with(Vec::new);
        spans.push(span);
        spans.len() - 1
    }

    /// The recorded spans so far (empty when disabled).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The recorded spans (empty when disabled).
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Vec<Span>) {
        let Some(spans) = self.spans.as_mut() else {
            return;
        };
        let base = spans.len();
        spans.extend(other.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children of one thread never overlap each other).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] = out[p].saturating_sub(span.dur_ns());
        }
    }
    out
}

/// Per-operation self time of layer `name`, in nanoseconds: the self
/// times of all its spans summed per op id, in op order.
#[must_use]
pub fn per_op_self_ns(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    let mut by_op: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (span, &own) in spans.iter().zip(selfs) {
        if span.name == name {
            *by_op.entry(span.op).or_insert(0) += own;
        }
    }
    by_op.into_values().collect()
}

/// Writes spans as JSON lines to `path` (at most `limit` of them,
/// followed by a line saying how many were left out).
///
/// # Errors
/// An I/O failure creating or writing the file.
pub fn write_spans(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().take(limit).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    if spans.len() > limit {
        writeln!(out, "{{\"omitted_spans\":{}}}", spans.len() - limit)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "c",
                start_ns: 60,
                end_ns: 70,
                parent: Some(2),
                op: 1,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_and_ops() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(3);
        t.span("op", |t| t.span("inner", |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
    }
}
