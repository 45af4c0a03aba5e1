//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the operation (packet, session) it belongs to. Spans stay in memory
//! while the run measures and are written out, one JSON object per line,
//! when it ends. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Id of "no parent".
pub const ROOT: u32 = 0;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A cloneable handle on one run's span store. A disabled tracer records
/// nothing and hands out [`ROOT`] ids, so untraced runs pay one branch.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
    next_id: Arc<AtomicU32>,
    /// The span new backend-side spans hang under, and its op id: set by
    /// the code that calls into a session before each push/poll.
    context: Arc<(AtomicU32, AtomicU64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
            next_id: Arc::new(AtomicU32::new(1)),
            context: Arc::new((AtomicU32::new(ROOT), AtomicU64::new(0))),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id before the span ends, so children recorded while
    /// it is open can name it as parent.
    pub fn reserve(&self) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Records a finished span under a fresh id and returns the id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record_as(id, name, parent, op, start, end);
        id
    }

    /// Sets the span and op that backend-side spans are recorded under.
    pub fn set_context(&self, parent: u32, op: u64) {
        self.context.0.store(parent, Ordering::Relaxed);
        self.context.1.store(op, Ordering::Relaxed);
    }

    pub fn context(&self) -> (u32, u64) {
        (
            self.context.0.load(Ordering::Relaxed),
            self.context.1.load(Ordering::Relaxed),
        )
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (each clipped to the window).
pub fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span named `name`, summed: each span's duration minus
/// the part of its interval covered by its direct children.
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|c| covered_ns(s.start_ns, s.end_ns, c))
                .unwrap_or(0);
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .sum()
}

/// Durations (ns) of every span named `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Summed duration (ns) of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, ROOT, "frame", 0, 100),
            // Two overlapping children cover [10, 50); one disjoint [60, 70).
            span(2, 1, "vote", 10, 40),
            span(3, 1, "vote", 30, 50),
            span(4, 1, "retire", 60, 70),
            // A grandchild never counts against the frame directly.
            span(5, 2, "kernel", 12, 20),
        ];
        assert_eq!(self_ns(&spans, "frame"), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, "vote"), (30 - 8) + 20);
        assert_eq!(self_ns(&spans, "kernel"), 8);
    }

    #[test]
    fn children_outside_the_window_are_clipped() {
        let mut iv = [(90, 150), (0, 5)];
        assert_eq!(covered_ns(10, 100, &mut iv), 10);
        let spans = [span(1, ROOT, "a", 10, 20), span(2, 1, "b", 0, 30)];
        assert_eq!(self_ns(&spans, "a"), 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", ROOT, 0, now, now), ROOT);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let id = t.record("x", ROOT, 3, now, now);
        assert_ne!(id, ROOT);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].op, 3);
    }
}
