//! In-memory spans recorded around each call into a program layer.
//!
//! A span has a name, a start and an end (ns since the tracer was made), its
//! parent span, the pass it belongs to and the run it belongs to (one variant
//! of one algorithm on one input; 0 for spans that enclose several runs).
//! Spans stay in memory until the benchmark ends; a disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `SpanId::ROOT` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// Where a span sits: its parent, pass and run.
#[derive(Debug, Clone, Copy)]
pub struct At {
    /// Enclosing span.
    pub parent: SpanId,
    /// Pass (or setup repetition) number.
    pub pass: u64,
    /// Run number within the pass; 0 above the run level.
    pub run: u64,
}

impl At {
    /// The same pass and run under another parent.
    pub fn under(self, parent: SpanId) -> At {
        At { parent, ..self }
    }

    /// A span of run `run` under `parent`.
    pub fn run(self, parent: SpanId, run: u64) -> At {
        At {
            parent,
            run,
            ..self
        }
    }
}

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    at: At,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder shared by every worker thread of one process.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// that its own calls can name it as their parent.
    pub fn span<T>(&self, name: &'static str, at: At, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.on {
            return f(SpanId::ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(SpanId(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the lock")
            .push(Span {
                id,
                at,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock poisoned").len()
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part of it that its children cover (children of one span may run in
    /// parallel, so their intervals are merged before subtracting).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span lock poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            children
                .entry(s.at.parent.0)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span lock poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"pass\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.at.parent.0, s.at.pass, s.at.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let t = Tracer::new(true);
        let top = At {
            parent: SpanId::ROOT,
            pass: 1,
            run: 0,
        };
        let push = |id, parent, name, a, b| {
            t.spans.lock().unwrap().push(Span {
                id,
                at: top.under(SpanId(parent)),
                name,
                start_ns: a,
                end_ns: b,
            })
        };
        push(1, 0, "pass", 0, 100);
        push(2, 1, "cell", 10, 60);
        push(3, 1, "cell", 40, 80);
        let s = t.self_seconds();
        assert!((s["pass"] - 30e-9).abs() < 1e-15);
        assert!((s["cell"] - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let at = At {
            parent: SpanId::ROOT,
            pass: 0,
            run: 0,
        };
        assert_eq!(t.span("x", at, |id| id), SpanId::ROOT);
        assert_eq!(t.len(), 0);
    }
}
