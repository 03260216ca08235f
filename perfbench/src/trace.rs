//! Spans and counters recorded around the benchmark's calls into each
//! layer, and the reducer that turns them into per-layer metrics.
//!
//! A span has a name, a start and end (ns since the tracer started), the
//! span that was open when it began (its parent), and the id of the
//! operation it serves. Spans are kept in memory and written out once, when
//! the run ends. A span's *self time* is its duration minus the part of it
//! that its direct children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// A counter value recorded at a span boundary for one operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Count {
    pub name: &'static str,
    pub op: u64,
    pub value: f64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: the same call path, untraced.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    pub fn count(&mut self, name: &'static str, op: u64, value: f64) {
        if self.enabled {
            self.counts.push(Count { name, op, value });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    /// Writes every span and counter as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{}\",\"op\":{},\"value\":{}}}",
                c.name, c.op, c.value
            )?;
        }
        Ok(())
    }
}

/// Self time (ns) of every span: its duration minus the union of its
/// direct children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-name totals a trace reduces to.
#[derive(Default, Debug)]
pub struct Reduced {
    /// Span name → (number of spans, total self time in ns).
    pub spans: BTreeMap<&'static str, (u64, u64)>,
    /// Counter name → (number of values, sum of values).
    pub counts: BTreeMap<&'static str, (u64, f64)>,
}

impl Reduced {
    pub fn of(tracer: &Tracer) -> Reduced {
        let mut r = Reduced::default();
        for (s, t) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            let e = r.spans.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        for c in tracer.counts() {
            let e = r.counts.entry(c.name).or_default();
            e.0 += 1;
            e.1 += c.value;
        }
        r
    }

    /// Mean self time of the spans named `name`, in ns (0 when none ran).
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some(&(n, total)) if n > 0 => total as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// Mean of the values recorded under `name` (0 when none were).
    pub fn mean(&self, name: &str) -> f64 {
        match self.counts.get(name) {
            Some(&(n, sum)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// Sum of the values recorded under `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |c| c.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            op: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > child [10,60) > grandchild [20,50).
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_subtracts_back_to_back_children() {
        // Two children that touch at 40 and a gap [70,80).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_by_their_union() {
        let spans = vec![
            span("root", 10, 100, None),
            span("a", 0, 50, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        // Union of children within the root: [10,60) = 50.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn the_tracer_nests_spans_and_the_reducer_averages_them() {
        let mut tr = Tracer::new();
        for op in 0..3 {
            tr.span("outer", op, |tr| {
                tr.span("inner", op, |tr| tr.count("work", op, 2.0));
            });
        }
        assert_eq!(tr.spans().len(), 6);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, None);
        let r = Reduced::of(&tr);
        assert_eq!(r.spans["outer"].0, 3);
        assert_eq!(r.mean("work"), 2.0);
        assert_eq!(r.sum("work"), 6.0);
        assert_eq!(r.mean("missing"), 0.0);
        let total: u64 = self_times(tr.spans()).iter().sum();
        let roots: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum();
        assert_eq!(total, roots, "self times partition the root spans");
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut tr = Tracer::disabled();
        let v = tr.span("x", 1, |tr| {
            tr.count("c", 1, 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty() && tr.counts().is_empty());
    }
}
