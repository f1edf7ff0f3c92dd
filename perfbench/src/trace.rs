//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions: name, start, end, parent span and request id.
//! They stay in memory until the run ends and are then written out as JSON
//! lines. A disabled tracer records nothing and costs one branch per call.

use parking_lot::Mutex;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The benchmark's wall clock: every timing in the benchmark reads it.
pub fn now() -> Instant {
    Instant::now() // detlint:allow(wall-clock): the benchmark exists to measure wall time
}

/// Identifier of a recorded span (0 is never issued).
pub type SpanId = u64;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `webworld.fetch`.
    pub name: &'static str,
    /// Optional sub-kind, e.g. the URL kind of a fetch.
    pub label: &'static str,
    /// Request id shared by the spans of one request (a build, a query, a
    /// refresh round).
    pub request: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve a span id before the span ends, so children can name it as
    /// their parent while it is still open.
    pub fn reserve(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a reserved id. No-op when disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        label: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.lock().push(Span {
            id,
            parent,
            name,
            label,
            request,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent nested spans. Returns `f`'s result and the span duration
    /// in nanoseconds (measured whether or not recording is enabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, u64) {
        let id = self.reserve();
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        self.record(id, parent, name, "", request, start, end);
        (out, end - start)
    }

    /// A copy of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.label,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds of `[start, end)` covered by at least one of `children`
/// (each clipped to the parent interval).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of `span`: its duration minus the union of its direct
/// children's intervals.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    span.dur_ns() - covered_ns(span.start_ns, span.end_ns, &children)
}
