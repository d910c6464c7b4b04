//! In-memory spans for the traced run, written at the end as Chrome
//! trace-event JSON (opens in Perfetto or `chrome://tracing`).
//!
//! A span is a name, a start, an end, the span that caused it and the
//! run it belongs to. Spans are pushed under one mutex and never read
//! until the run ends, so recording costs one clock read and one push.

use crate::json::escape;
use crate::probe;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer category (`cell`, `fill`, `frame`, ...).
    pub cat: &'static str,
    /// Display name.
    pub name: String,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
    /// Small per-thread number for the trace viewer.
    pub tid: u64,
    /// Extra numeric arguments shown in the viewer.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Collects spans of one benchmark run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run_id: u64,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// A small stable number for the calling thread.
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Recorder {
    /// A recorder for run `run_id` whose clock starts now.
    pub fn new(run_id: u64) -> Recorder {
        Recorder {
            origin: probe::now(),
            run_id,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent ends.
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Seconds since the recorder's origin at instant `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        cat: &'static str,
        name: String,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, f64)>,
    ) {
        let span = Span {
            id,
            parent,
            cat,
            name,
            start: self.at(start),
            end: self.at(end),
            tid: tid(),
            args,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Record a finished span with a fresh id; returns the id.
    pub fn record(
        &self,
        parent: Option<u64>,
        cat: &'static str,
        name: String,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.push(id, parent, cat, name, start, end, Vec::new());
        id
    }

    /// A copy of every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }

    /// Chrome trace-event JSON of every span (`ph: "X"` complete events,
    /// microsecond timestamps, one process per run id).
    pub fn chrome_json(&self, spans: &[Span]) -> String {
        let selfs = self_times(spans);
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"ph\": \"X\", \"name\": ");
            escape(&s.name, &mut out);
            let _ = write!(
                out,
                ", \"cat\": \"{}\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"run\": {}, \"self_s\": {:.9}",
                s.cat,
                s.start * 1e6,
                s.dur() * 1e6,
                self.run_id,
                s.tid,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.run_id,
                selfs[i],
            );
            for (k, v) in &s.args {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span (same order as `spans`): its duration minus
/// the part of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    let index: std::collections::BTreeMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let lo = s.start.max(parent.start);
            let hi = s.end.min(parent.end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (lo, hi) in iv {
                cur = match cur {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = cur {
                covered += b - a;
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}
