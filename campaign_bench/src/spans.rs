//! In-memory spans around the calls the benchmark makes into each
//! layer, and the self-time arithmetic over them.
//!
//! A disabled [`Tracer`] records nothing, so traced and untraced runs
//! share one code path and differ only by the recording cost.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it, and the
/// op (campaign or run index) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `sampling.collect`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op identifier shared by all spans of one op.
    pub op: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` inside a disabled tracer.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::close"]
pub struct Open(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { epoch: None, spans: Vec::new(), stack: Vec::new() }
    }

    /// A recording tracer whose timestamps count from `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Tracer { epoch: Some(epoch), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: Instant) -> u64 {
        // Host-time measurement is this benchmark's purpose.
        #[allow(clippy::disallowed_methods)]
        let now = Instant::now();
        u64::try_from(now.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` for op `op`, nested in the innermost
    /// open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        let Some(epoch) = self.epoch else { return Open(None) };
        let id = self.spans.len();
        let start_ns = Self::now_ns(epoch);
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` (and any span left open inside it).
    pub fn close(&mut self, open: Open) {
        let (Some(epoch), Some(id)) = (self.epoch, open.0) else { return };
        let end = Self::now_ns(epoch);
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, one object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (children that overlap
/// each other, as parallel ones do, count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Self times (ns) of every span named `name`.
pub fn self_ns(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times_ns(spans);
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a.inner [15,35); root ⊃ b [50,70).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 10, 20, 20]);
        assert_eq!(self_ns(&spans, "a"), vec![10.0]);
        assert_eq!(spans[1].duration_ns(), 30);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        // Two parallel children overlap on [30,40); one overruns the
        // parent's end.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 20, 40, Some(0)),
            span("y", 30, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let o = t.open("x", 1);
        t.close(o);
        assert!(t.spans().is_empty() && !t.is_on());
    }

    #[test]
    fn nesting_links_parents_and_close_ends_inner_spans() {
        #[allow(clippy::disallowed_methods)]
        let mut t = Tracer::on(Instant::now());
        let outer = t.open("outer", 7);
        let inner = t.open("inner", 7);
        t.close(inner);
        let left_open = t.open("left-open", 7);
        let _ = left_open;
        t.close(outer);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert_eq!(t.spans()[2].end_ns, t.spans()[0].end_ns);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns && s.op == 7));
        let next = t.open("next", 8);
        t.close(next);
        assert_eq!(t.spans()[3].parent, None);
    }
}
