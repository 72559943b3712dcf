//! In-memory span recorder for the traced run.
//!
//! A span is a named host-time interval with an op id and an optional
//! parent span. Spans are kept in a vector and written out once, when
//! the run ends. A disabled recorder hands out no ids and never reads
//! the clock, so the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle to an open span; `None` when recording is off.
pub type SpanId = Option<usize>;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `service.submit`.
    pub name: &'static str,
    /// The benchmark op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for op `op` under `parent`.
    pub fn open(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes span `id` (a no-op for `None`).
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    /// An empty recorder on the same clock, for another thread; merge
    /// it back with [`Spans::join`].
    pub fn fork(&self) -> Spans {
        Spans {
            on: self.on,
            t0: self.t0,
            spans: Vec::new(),
        }
    }

    /// Appends the spans of a recorder made by [`Spans::fork`], keeping
    /// their parent links.
    pub fn join(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children's intervals cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Renders every span as one JSON object per line, after a header
    /// line `header` (itself a JSON object).
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = Spans {
            on: true,
            t0: Instant::now(),
            spans: vec![
                span("op", None, 0, 100),
                span("a", Some(0), 10, 30),
                span("b", Some(0), 20, 40),  // overlaps a: union 10..40
                span("c", Some(0), 90, 120), // clipped at the parent's end
                span("d", Some(1), 12, 14),
            ],
        };
        assert_eq!(s.self_ns(), vec![100 - 30 - 10, 18, 20, 30, 2]);
    }

    #[test]
    fn joined_spans_keep_their_parents() {
        let mut a = Spans::new(true);
        a.time("x", 0, None, || ());
        let mut b = a.fork();
        let parent = b.open("op", 1, None);
        b.time("child", 1, parent, || ());
        b.close(parent);
        a.join(b);
        let s = a.spans();
        assert_eq!((s.len(), s[1].parent, s[2].parent), (3, None, Some(1)));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("x", 1, None);
        assert_eq!(id, None);
        s.close(id);
        assert_eq!(s.time("y", 1, None, || 7), 7);
        assert!(s.spans().is_empty());
    }
}
