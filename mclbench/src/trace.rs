//! In-memory span recording around the benchmark's own calls into the
//! program, written once at the end as a Chrome trace-event file (loads in
//! `ui.perfetto.dev` and `chrome://tracing`).
//!
//! Each span has a name, start, end, parent and job id. Spans nest by a
//! per-recorder stack, so a recorder belongs to one thread; the served
//! workload gives each client thread its own recorder and merges them.

use mcl_obs::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.mgl`.
    pub name: String,
    /// Nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The job (or delta) this span belongs to.
    pub job: u64,
    /// Trace thread id (one per client thread).
    pub tid: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, job: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job,
            tid: self.tid,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it). Returns its
    /// duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].ms()
    }

    /// Records a completed span from explicit instants, nested in the
    /// innermost open span (for boundaries observed after the fact, such
    /// as the `ACCEPTED` line of a served job). Returns its id.
    pub fn record(&mut self, name: &str, job: u64, start: Instant, end: Instant) -> usize {
        let parent = self.stack.last().copied();
        self.record_in(parent, name, job, start, end)
    }

    /// Records a completed span from explicit instants under `parent`.
    /// Returns its id.
    pub fn record_in(
        &mut self,
        parent: Option<usize>,
        name: &str,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent,
            job,
            tid: self.tid,
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, job: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, job);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Moves every span of `other` into this recorder, re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name self time: each span's duration minus the time its direct
/// children cover, summed over all spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let own = total.saturating_sub(child_ns[i]);
        let e = out.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += total as f64 / 1e6;
        e.2 += own as f64 / 1e6;
    }
    out
}

/// Renders spans as a Chrome trace-event JSON document (complete `X`
/// events in microseconds), with `meta` as top-level `otherData`.
pub fn chrome_trace_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (i, s) in spans.iter().enumerate() {
        w.begin_object();
        w.field_str("name", &s.name);
        w.field_str("cat", s.name.split('.').next().unwrap_or("bench"));
        w.field_str("ph", "X");
        w.field_f64("ts", s.start_ns as f64 / 1e3, 3);
        w.field_f64("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3, 3);
        w.field_u64("pid", 1);
        w.field_u64("tid", u64::from(s.tid));
        w.key("args");
        w.begin_object();
        w.field_u64("id", i as u64);
        w.field_u64("job", s.job);
        match s.parent {
            Some(p) => w.field_u64("parent", p as u64),
            None => w.field_raw("parent", "null"),
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.key("otherData");
    w.begin_object();
    for (k, v) in meta {
        w.field_str(k, v);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "job".into(),
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                job: 1,
                tid: 0,
            },
            Span {
                name: "core.mgl".into(),
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                job: 1,
                tid: 0,
            },
            Span {
                name: "core.fixed_order".into(),
                start_ns: 4_000_000,
                end_ns: 9_000_000,
                parent: Some(0),
                job: 1,
                tid: 0,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["job"].0, 1);
        assert!((st["job"].2 - 2.0).abs() < 1e-9);
        assert!((st["core.mgl"].2 - 3.0).abs() < 1e-9);
        let json = chrome_trace_json(&spans, &[("workload", "t".into())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn recorded_children_nest_in_a_recorded_parent() {
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_millis(3);
        let t2 = t0 + std::time::Duration::from_millis(10);
        let mut tr = Tracer::new(t0, 1);
        let id = tr.record("serve.legalize", 7, t0, t2);
        tr.record_in(Some(id), "serve.ack", 7, t0, t1);
        tr.record_in(Some(id), "serve.exec", 7, t1, t2);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(id));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let st = self_times(spans);
        assert!((st["serve.legalize"].1 - 10.0).abs() < 1e-9);
        assert_eq!(st["serve.legalize"].2, 0.0);
        assert!((st["serve.exec"].2 - 7.0).abs() < 1e-9);
    }
}
