//! Spans the benchmark records around its own calls into the system,
//! kept in memory until the run ends, then reduced to self time per
//! layer and written out as a Chrome trace.
//!
//! A span's self time is its duration minus the part of it that its
//! child spans cover, children on other threads included: a caller
//! blocked while workers run has no self time, the workers have it.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within its recorder; never 0.
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// What was called.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: &'static str,
    /// Small per-process thread number.
    pub thread: u32,
    /// The trial (trace, fault injection) the call served, if any.
    pub trial: Option<u64>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's span thread number.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// Collects the spans of one run from every thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), next_id: AtomicU64::new(1), done: Mutex::new(Vec::new()) }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A buffer for the calling thread; its spans join the recorder when
    /// it is dropped, so recording takes no lock per span.
    pub fn buf(&self) -> Buf<'_> {
        Buf { rec: self, thread: thread_id(), spans: Vec::new() }
    }

    /// Adds spans built elsewhere (e.g. from a campaign's event stream).
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.done.lock().expect("span store poisoned").extend(spans);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.done.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Buf<'a> {
    rec: &'a Recorder,
    thread: u32,
    spans: Vec<Span>,
}

impl Buf<'_> {
    /// Runs `f` inside a span; `f` gets the buffer back (for child spans)
    /// and the new span's id (their parent).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: u64,
        trial: Option<u64>,
        f: impl FnOnce(&mut Self, u64) -> T,
    ) -> T {
        let id = self.rec.next_id();
        let start_ns = self.rec.now_ns();
        let out = f(self, id);
        let end_ns = self.rec.now_ns();
        let thread = self.thread;
        self.spans.push(Span { id, parent, name, layer, thread, trial, start_ns, end_ns });
        out
    }
}

impl Drop for Buf<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned store only loses these spans.
        if let Ok(mut done) = self.rec.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of each span, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| {
                union_len(
                    c.iter()
                        .map(|&(a, b)| {
                            (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns))
                        })
                        .collect(),
                )
            });
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, nanoseconds.
pub fn layer_self(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}",
            s.name,
            s.layer,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent
        );
        if let Some(t) = s.trial {
            let _ = write!(out, ",\"trial\":{t}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", layer: "l", thread, trial: None, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100; children 10..40 and 30..60 overlap (union 10..60);
        // a grandchild inside the first child only reduces the child.
        let spans = [
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 40),
            span(3, 1, 2, 30, 60),
            span(4, 2, 1, 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn children_on_other_threads_cover_a_blocked_parent() {
        // A caller waits 0..100 while two workers run 0..90 and 5..100.
        let spans = [span(1, 0, 1, 0, 100), span(2, 1, 2, 0, 90), span(3, 1, 3, 5, 100)];
        let t = self_times(&spans);
        assert_eq!(t[0], 0);
        assert_eq!(t[1] + t[2], 185);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(1, 0, 1, 10, 20), span(2, 1, 1, 0, 15)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn layer_self_sums_by_layer() {
        let mut spans = vec![span(1, 0, 1, 0, 100), span(2, 1, 1, 0, 60)];
        spans[1].layer = "core";
        let layers = layer_self(&spans);
        assert_eq!(layers.get("l"), Some(&40));
        assert_eq!(layers.get("core"), Some(&60));
    }

    #[test]
    fn buffers_nest_and_flush_on_drop() {
        let rec = Recorder::default();
        {
            let mut buf = rec.buf();
            buf.span("outer", "bench", 0, None, |buf, id| {
                buf.span("inner", "core", id, Some(7), |_, _| ());
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.trial, Some(7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut spans = vec![span(1, 0, 1, 0, 1500), span(2, 1, 1, 10, 20)];
        spans[1].trial = Some(3);
        assert!(crate::drive::json_is_valid(&chrome_trace(&spans)));
        assert!(crate::drive::json_is_valid(&chrome_trace(&[])));
    }
}
