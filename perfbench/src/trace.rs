//! In-memory span recorder for the traced run.
//!
//! Spans are kept in memory while the traced run works and written out
//! once at exit. A span's self time is its duration minus the part its
//! child spans cover. Spans nest through a per-thread stack; work that
//! overlaps instead of nesting (child processes) is recorded with
//! explicit bounds as a root span.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into [`Trace::names`].
    pub name: u32,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The unit position or request id the span belongs to.
    pub id: u64,
}

#[derive(Default)]
struct Tracer {
    origin: Option<Instant>,
    names: Vec<String>,
    index: HashMap<String, u32>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    fn ns(&self, t: Instant) -> u64 {
        let origin = self.origin.expect("tracer is on");
        t.saturating_duration_since(origin).as_nanos() as u64
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::default();
}

/// Start recording on this thread (clearing any earlier trace).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Tracer {
            origin: Some(Instant::now()),
            ..Tracer::default()
        }
    });
}

/// Stop recording and take the trace.
pub fn stop() -> Trace {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let wall_ns = t.origin.map_or(0, |o| o.elapsed().as_nanos() as u64);
        let taken = std::mem::take(&mut *t);
        Trace {
            names: taken.names,
            spans: taken.spans,
            wall_ns,
        }
    })
}

/// Run `f` inside a span named `name` (a no-op wrapper when this thread
/// is not recording).
pub fn span<R>(name: &str, id: u64, f: impl FnOnce() -> R) -> R {
    let open = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.origin?;
        let name = t.name_id(name);
        let parent = t.stack.last().copied();
        let start_ns = t.ns(Instant::now());
        let idx = t.spans.len() as u32;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        t.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = open {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.ns(Instant::now());
            t.spans[idx as usize].end_ns = end;
            let popped = t.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans close in stack order");
        });
    }
    out
}

/// Record a root span with explicit bounds — for work that overlaps
/// other spans instead of nesting in them.
pub fn record(name: &str, id: u64, start: Instant, end: Instant) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.origin.is_none() {
            return;
        }
        let name = t.name_id(name);
        let (start_ns, end_ns) = (t.ns(start), t.ns(end));
        t.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            id,
        });
    });
}

/// Per-name totals derived from a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub self_s: f64,
    pub total_s: f64,
}

/// A finished trace.
pub struct Trace {
    pub names: Vec<String>,
    pub spans: Vec<Span>,
    /// Wall time between [`start`] and [`stop`].
    pub wall_ns: u64,
}

impl Trace {
    /// Calls, self time and total time per span name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(self.names[s.name as usize].clone()).or_default();
            t.calls += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(*child) as f64 / 1e9;
        }
        out
    }

    /// Share of the traced wall time that no root span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        roots.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in roots {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((a, b)) = cur {
            covered += b - a;
        }
        if self.wall_ns == 0 {
            return 0.0;
        }
        1.0 - covered.min(self.wall_ns) as f64 / self.wall_ns as f64
    }

    /// Write every span as one JSON line: name, start, end, parent and
    /// the unit or request id.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        span("outer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(4));
            span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(6))
            });
        });
        let trace = stop();
        let totals = trace.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_s >= 0.006);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
        assert!(outer.self_s >= 0.004 && outer.self_s < outer.total_s);
        assert_eq!(trace.spans[1].parent, Some(0));
    }

    #[test]
    fn spans_are_free_when_off() {
        assert_eq!(span("x", 0, || 7), 7);
        let trace = stop();
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn unattributed_counts_gaps_between_overlapping_roots() {
        let trace = Trace {
            names: vec!["a".into()],
            spans: vec![
                Span {
                    name: 0,
                    start_ns: 0,
                    end_ns: 40,
                    parent: None,
                    id: 0,
                },
                Span {
                    name: 0,
                    start_ns: 20,
                    end_ns: 60,
                    parent: None,
                    id: 1,
                },
                Span {
                    name: 0,
                    start_ns: 80,
                    end_ns: 90,
                    parent: None,
                    id: 2,
                },
            ],
            wall_ns: 100,
        };
        assert!((trace.unattributed_frac() - 0.3).abs() < 1e-12);
    }
}
