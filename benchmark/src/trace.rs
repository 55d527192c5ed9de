//! In-memory spans for the traced run, written out once at exit.
//!
//! Every span carries a name, start, end, the id of the span that caused
//! it and the workload it belongs to. High-rate layers (a `next_packet`
//! call, an `on_event` call) do not get a span each — that would cost more
//! than the work measured — but one *aggregated* span per few thousand
//! calls, carrying the call `count` and the summed `busy_ns` inside the
//! interval. A layer's self time is its span (or `busy_ns`) minus what its
//! child spans cover; readers of the trace file compute it from `parent`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Id of the causing span; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls (or packets) folded into this span; 1 for a plain span.
    pub count: u64,
    /// Nanoseconds busy inside the interval; equals the duration for a
    /// plain span.
    pub busy_ns: u64,
}

/// Collects spans and named counters from every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(workload: impl Into<String>) -> Self {
        Tracer {
            workload: workload.into(),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u32 {
        // Relaxed: ids only need to be distinct.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a plain span now; finish it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: u32) -> u32 {
        let id = self.fresh_id();
        let now = self.now();
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            count: 1,
            busy_ns: 0,
        });
        id
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, id: u32) {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span lock");
        if let Some(span) = spans.iter_mut().rev().find(|span| span.id == id) {
            span.end_ns = now;
            span.busy_ns = now - span.start_ns;
        }
    }

    /// Records a finished (possibly aggregated) span.
    pub fn push(
        &self,
        name: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        count: u64,
        busy_ns: u64,
    ) -> u32 {
        let id = self.fresh_id();
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            count,
            busy_ns,
        });
        id
    }

    /// Adds to a named counter (counts made where the work happens).
    pub fn add_counter(&self, name: &'static str, value: u64) {
        *self.counters.lock().expect("counter lock").entry(name).or_default() += value;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().expect("counter lock").get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Summed `busy_ns` and `count` over every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let spans = self.spans.lock().expect("span lock");
        spans
            .iter()
            .filter(|span| span.name == name)
            .fold((0, 0), |(busy, count), span| (busy + span.busy_ns, count + span.count))
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span lock");
        let mut out = String::with_capacity(64 + spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{}\",\"unit\":\"ns\",\"spans\":[", self.workload);
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"name\":\"{}\",\"start\":{},\
                 \"end\":{},\"count\":{},\"busy\":{}}}",
                span.id,
                span.parent,
                self.workload,
                span.name,
                span.start_ns,
                span.end_ns,
                span.count,
                span.busy_ns
            );
        }
        out.push_str("\n],\"counters\":{");
        let counters = self.counters.lock().expect("counter lock");
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_aggregated_spans_by_name() {
        let tracer = Tracer::new("t");
        let root = tracer.push("chunk", 0, 0, 100, 1, 100);
        tracer.push("parse", root, 0, 30, 10, 30);
        tracer.push("parse", root, 30, 90, 6, 50);
        assert_eq!(tracer.totals("parse"), (80, 16));
        assert_eq!(tracer.totals("chunk"), (100, 1));
        assert_eq!(tracer.totals("absent"), (0, 0));
    }

    #[test]
    fn open_close_and_json_round_out() {
        let tracer = Tracer::new("wl");
        let root = tracer.open("run", 0);
        tracer.add_counter("packets", 3);
        tracer.add_counter("packets", 4);
        tracer.close(root);
        assert_eq!(tracer.counter("packets"), 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].busy_ns, spans[0].end_ns - spans[0].start_ns);
        let json = tracer.to_json();
        assert!(json.contains("\"workload\":\"wl\""));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"packets\":7"));
    }
}
