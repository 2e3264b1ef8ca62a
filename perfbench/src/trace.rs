//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent), and the id of the run it belongs to. Spans are
//! kept in memory and written out once, when the run ends. A span's self
//! time is its duration minus the part of its interval its children
//! cover.
//!
//! With tracing off (`Tracer::off`) `span` only calls the closure, so the
//! untraced runs that give the end-to-end metrics pay nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    pub run: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn on() -> Self {
        Self::new(true)
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` belonging to run `run`. The
    /// span closes even if `f` unwinds, so a caught panic leaves the span
    /// list well formed.
    pub fn span<T>(&self, name: &str, run: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                run,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let _close = Close { tracer: self, idx };
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Closes span `idx` when dropped, on return or while unwinding.
struct Close<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        self.tracer.open.borrow_mut().pop();
        self.tracer.spans.borrow_mut()[self.idx].end_ns = self.tracer.now_ns();
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total and self nanoseconds and call count per span name.
pub fn summary(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += own;
        e.2 += 1;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, own)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, own, parent, s.run
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) has children [10,30) and [50,90); the second child
        // has its own child [60,70).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        // Covered: [10,100) clipped to the parent = 90.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_records_parents_and_runs() {
        let t = Tracer::on();
        t.span("outer", 7, || {
            t.span("inner", 7, || std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        let sum = summary(&spans);
        assert_eq!(sum["outer"].2, 1);
        assert!(sum["outer"].1 <= sum["outer"].0);
    }

    #[test]
    fn a_panicking_span_still_closes() {
        let t = Tracer::on();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("boom", 1, || panic!("engine failed"))
        }));
        assert!(caught.is_err());
        t.span("after", 2, || ());
        let spans = t.spans();
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
