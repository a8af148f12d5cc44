//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! workspace crates, on the benchmark's (single) driving thread. With
//! tracing off, [`span`] costs one thread-local flag check and records
//! nothing, so the traced and untraced runs execute the same calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Per-name aggregate over all spans of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Busy time minus the time covered by direct child spans.
    pub self_ns: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    });
}

/// Turns recording on for this thread (call once, before any span).
pub fn enable() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.epoch = Instant::now();
    });
}

/// Sets the request id stamped on spans opened from now on.
pub fn set_request(id: u64) {
    TRACER.with(|t| t.borrow_mut().request = id);
}

/// Closes its span when dropped. `rename` picks the final name once the
/// outcome of the call is known (a cache hit or a miss, say).
pub struct Guard {
    index: Option<usize>,
}

impl Guard {
    pub fn rename(&self, name: &'static str) {
        if let Some(i) = self.index {
            TRACER.with(|t| t.borrow_mut().spans[i].name = name);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let now = t.epoch.elapsed().as_nanos() as u64;
                t.spans[i].end_ns = now;
                let top = t.open.pop();
                debug_assert_eq!(top, Some(i), "spans close in stack order");
            });
        }
    }
}

/// Opens a span named `name`, child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Guard { index: None };
        }
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        let parent = t.open.last().copied();
        let request = t.request;
        let index = t.spans.len();
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        t.open.push(index);
        Guard { index: Some(index) }
    })
}

/// Hands over every recorded span (leaves the recorder empty).
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// How many spans have been recorded so far.
pub fn mark() -> usize {
    TRACER.with(|t| t.borrow().spans.len())
}

/// The summary of the spans recorded since `mark` (empty with tracing
/// off).
pub fn summary_since(mark: usize) -> BTreeMap<&'static str, Summary> {
    TRACER.with(|t| summarize(&t.borrow().spans, mark))
}

/// Mean duration in nanoseconds and call count of the spans named
/// `name` in `summary` (`(0, 0)` if there are none).
pub fn mean_ns(summary: &BTreeMap<&'static str, Summary>, name: &str) -> (f64, u64) {
    match summary.get(name) {
        Some(s) if s.calls > 0 => (s.busy_ns as f64 / s.calls as f64, s.calls),
        _ => (0.0, 0),
    }
}

/// Calls, busy time and self time per span name, over the spans from
/// index `from` on.
pub fn summarize(spans: &[Span], from: usize) -> BTreeMap<&'static str, Summary> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns).skip(from) {
        let e = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        e.calls += 1;
        e.busy_ns += dur;
        e.self_ns += dur.saturating_sub(child);
    }
    out
}

/// The spans and their summary as one JSON document.
pub fn to_json(spans: &[Span], summary: &BTreeMap<&'static str, Summary>) -> String {
    let mut out = String::from("{\"summary\":{");
    for (i, (name, s)) in summary.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"calls\":{},\"busy_ns\":{},\"self_ns\":{}}}",
            s.calls, s.busy_ns, s.self_ns
        ));
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        ));
    }
    out.push_str("]}\n");
    out
}
