//! Spans recorded around calls into the program's layers.
//!
//! The benchmark times every call it makes into a layer, traced or not;
//! a traced run additionally keeps one [`Span`] per call in memory and
//! writes them as JSONL when the run ends. Spans of one request (a
//! served job, a replayed cell) share a `trace` id, and a span's
//! `self_ns` is its duration minus the part its children cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: the request it belongs to and its parent
/// span (0 for a root).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Ctx {
    pub trace: u64,
    pub parent: u64,
}

/// One finished span; times are nanoseconds since the recorder began.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; a disabled one only times calls.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// A fresh request id for [`Ctx::trace`].
    pub fn mint(&self) -> Ctx {
        Ctx {
            trace: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
        }
    }

    /// Runs `f` inside a span named `name`, handing it the context for
    /// its children, and returns its result with its duration in
    /// seconds.
    pub fn time<T>(&self, name: &str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx {
            trace: ctx.trace,
            parent: id,
        });
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.records
                .lock()
                .expect("span recorder poisoned by a panicking benchmark thread")
                .push(Span {
                    id,
                    parent: ctx.parent,
                    trace: ctx.trace,
                    name: name.to_string(),
                    start_ns: ns(start),
                    end_ns: ns(end),
                });
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// The recorded spans, in the order they ended.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .records
                .lock()
                .expect("span recorder poisoned by a panicking benchmark thread"),
        )
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|span| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == span.id && c.trace == span.trace)
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in children {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// The JSONL artifact: one object per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    use icicle::obs::Json;
    let mut out = String::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let line = Json::object(vec![
            ("id", Json::Int(span.id)),
            ("parent", Json::Int(span.parent)),
            ("trace", Json::Int(span.trace)),
            ("name", Json::Str(span.name.clone())),
            ("start_ns", Json::Int(span.start_ns)),
            ("dur_ns", Json::Int(span.end_ns - span.start_ns)),
            ("self_ns", Json::Int(self_ns)),
        ]);
        out.push_str(&line.render_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Overlapping children count once: [10, 50) covered.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A child that outlives its parent is clipped to it.
            span(4, 1, 90, 120),
            // A grandchild is not the root's child.
            span(5, 2, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 20, 30, 8]);
    }

    #[test]
    fn recorder_nests_and_times() {
        let spans = Spans::new(true);
        let root = spans.mint();
        let ((), outer) = spans.time("outer", root, |ctx| {
            let ((), _) = spans.time("inner", ctx, |_| {});
        });
        assert!(outer >= 0.0);
        let recorded = spans.take();
        assert_eq!(recorded.len(), 2);
        let (inner, outer) = (&recorded[0], &recorded[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.trace, root.trace);
        let jsonl = to_jsonl(&recorded);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"inner\""));
        // A disabled recorder still times but keeps nothing.
        let off = Spans::new(false);
        let (v, _) = off.time("x", off.mint(), |_| 7);
        assert_eq!(v, 7);
        assert!(off.take().is_empty());
    }
}
