//! Host-time spans recorded by the benchmark itself, around its calls
//! into the simulator: name, start, end, parent, and the run they
//! belong to. Kept in memory, written as Chrome trace JSON at the end.
//! No span lives inside any simulator crate; in-situ executor
//! attribution is a later issue.

use std::time::Instant;

use simcore::trace::TraceEvent;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// 1-based run number within the rep; 0 for spans around no run.
    run: u32,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let now = self.ns_since_origin(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns_since_origin(Instant::now());
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span after the fact from a measured start and length
    /// (how the run call is split by the simulator's own `RunTimings`).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        start: Instant,
        secs: f64,
    ) {
        let start_ns = self.ns_since_origin(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent,
            run,
        });
    }

    pub fn secs(&self, id: SpanId) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Summed length of every span called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.secs(i))
            .sum()
    }

    /// A span's length minus the part its direct children cover.
    fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    /// Chrome trace JSON: the host spans on pid 0 (timestamps in host
    /// microseconds), then `sim_events` — the simulator's own tracer
    /// output for one run — on pid 1 (simulated microseconds).
    pub fn to_chrome_json(&self, sim_events: &[TraceEvent]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"perf (host time)\"}},\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"simulator, first run (simulated time)\"}}",
        );
        // Children of a parent cover disjoint time, so host spans nest
        // correctly on one thread track.
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"id\":{id},\"parent\":{},\"run\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.run,
                self.self_ns(id) as f64 / 1e3,
            ));
        }
        let mut tracks: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for ev in sim_events {
            let next = tracks.len();
            let tid = *tracks.entry(ev.track()).or_insert(next);
            match ev {
                TraceEvent::Instant {
                    at, category, name, ..
                } => out.push_str(&format!(
                    ",\n{{\"name\":{},\"cat\":\"{category}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"s\":\"t\"}}",
                    quoted(name),
                    at.nanos() / 1_000,
                )),
                TraceEvent::Span {
                    start,
                    end,
                    category,
                    name,
                    ..
                } => out.push_str(&format!(
                    ",\n{{\"name\":{},\"cat\":\"{category}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
                    quoted(name),
                    start.nanos() / 1_000,
                    (end.nanos() - start.nanos()) / 1_000,
                )),
            }
        }
        let mut names: Vec<(&str, usize)> = tracks.into_iter().collect();
        names.sort_by_key(|&(_, tid)| tid);
        for (track, tid) in names {
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                quoted(track)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// JSON string literal, escaped by the vendored serializer.
fn quoted(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_the_file_parses() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let rep = spans.open("rep", None, 0);
        spans.record("run.setup", Some(rep), 1, t0, 0.25);
        spans.record("run.sim", Some(rep), 1, t0, 0.5);
        spans.spans[rep].end_ns = spans.spans[rep].start_ns + 1_000_000_000;
        assert_eq!(spans.self_ns(rep), 250_000_000);
        assert!((spans.total_secs("run.sim") - 0.5).abs() < 1e-9);
        let sim = [TraceEvent::Span {
            start: simcore::SimTime::from_nanos(1_000),
            end: simcore::SimTime::from_nanos(3_000),
            track: "consumer-\"0\"".to_string(),
            category: "region",
            name: "dyad_consume".to_string(),
        }];
        let parsed = serde_json::from_str(&spans.to_chrome_json(&sim)).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();
        // 2 process names + 3 host spans + 1 sim span + 1 thread name.
        assert_eq!(events.len(), 7);
        assert_eq!(events[2]["args"]["self_us"].as_f64(), Some(250_000.0));
    }
}
