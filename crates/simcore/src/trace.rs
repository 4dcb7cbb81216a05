//! Event tracing for simulated runs.
//!
//! A [`Tracer`] collects `(time, track, category, name)` events and
//! duration spans from anywhere in a simulation and exports them in the
//! Chrome trace-event JSON format (load in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) — one timeline track per process
//! or resource, simulated microseconds on the x-axis. Tracing is
//! entirely opt-in and costs nothing in simulated time.

use std::cell::RefCell;
use std::rc::Rc;

use crate::executor::Ctx;
use crate::intern::FxHashMap;
use crate::time::SimTime;

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A point-in-time marker.
    Instant {
        /// When it happened.
        at: SimTime,
        /// Timeline track (process/resource name).
        track: String,
        /// Event category for filtering.
        category: &'static str,
        /// Event label.
        name: String,
    },
    /// A closed duration span.
    Span {
        /// Span start.
        start: SimTime,
        /// Span end.
        end: SimTime,
        /// Timeline track.
        track: String,
        /// Event category for filtering.
        category: &'static str,
        /// Span label.
        name: String,
    },
}

impl TraceEvent {
    /// The track the event belongs to.
    pub fn track(&self) -> &str {
        match self {
            TraceEvent::Instant { track, .. } | TraceEvent::Span { track, .. } => track,
        }
    }
}

#[derive(Default)]
struct TracerState {
    events: Vec<TraceEvent>,
    enabled: bool,
}

/// A shared, cloneable trace sink.
#[derive(Clone, Default)]
pub struct Tracer {
    state: Rc<RefCell<TracerState>>,
}

impl Tracer {
    /// A tracer that records events.
    pub fn enabled() -> Tracer {
        let t = Tracer::default();
        t.state.borrow_mut().enabled = true;
        t
    }

    /// A tracer that drops everything (zero overhead beyond a branch).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.state.borrow().enabled
    }

    /// Record a point event at the current simulated time.
    pub fn instant(&self, ctx: &Ctx, track: &str, category: &'static str, name: &str) {
        if !self.is_enabled() {
            return;
        }
        self.state.borrow_mut().events.push(TraceEvent::Instant {
            at: ctx.now(),
            track: track.to_string(),
            category,
            name: name.to_string(),
        });
    }

    /// Open a span; it closes (and records) when the guard drops.
    /// A disabled tracer returns an inert guard without copying the
    /// labels, so spans on hot paths cost two empty strings at most.
    pub fn span(&self, ctx: &Ctx, track: &str, category: &'static str, name: &str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard {
                tracer: self.clone(),
                ctx: ctx.clone(),
                start: SimTime::ZERO,
                track: String::new(),
                category,
                name: String::new(),
                closed: true,
            };
        }
        SpanGuard {
            tracer: self.clone(),
            ctx: ctx.clone(),
            start: ctx.now(),
            track: track.to_string(),
            category,
            name: name.to_string(),
            closed: false,
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.state.borrow().events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all recorded events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.borrow().events.clone()
    }

    /// Export as Chrome trace-event JSON (the `traceEvents` array form).
    /// Timestamps are simulated microseconds; each track becomes a
    /// thread id.
    pub fn to_chrome_json(&self) -> String {
        let st = self.state.borrow();
        // Thread ids are assigned in first-appearance order; the map makes
        // the lookup O(1) per event (a scan was quadratic in tracks).
        let mut track_ids: FxHashMap<&str, usize> = FxHashMap::default();
        let mut track_names: Vec<&str> = Vec::new();
        let mut tid = |track| -> usize {
            *track_ids.entry(track).or_insert_with(|| {
                track_names.push(track);
                track_names.len() - 1
            })
        };
        let mut out = String::from("[");
        for (i, ev) in st.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match ev {
                TraceEvent::Instant {
                    at,
                    track,
                    category,
                    name,
                } => {
                    let t = tid(track);
                    out.push_str(&format!(
                        r#"{{"name":{},"cat":"{}","ph":"i","ts":{},"pid":1,"tid":{},"s":"t"}}"#,
                        json_str(name),
                        category,
                        at.nanos() / 1_000,
                        t
                    ));
                }
                TraceEvent::Span {
                    start,
                    end,
                    track,
                    category,
                    name,
                } => {
                    let t = tid(track);
                    out.push_str(&format!(
                        r#"{{"name":{},"cat":"{}","ph":"X","ts":{},"dur":{},"pid":1,"tid":{}}}"#,
                        json_str(name),
                        category,
                        start.nanos() / 1_000,
                        (end.nanos() - start.nanos()) / 1_000,
                        t
                    ));
                }
            }
        }
        // Thread-name metadata so tracks are labelled in the viewer.
        for (i, name) in track_names.iter().enumerate() {
            out.push_str(&format!(
                r#",{{"name":"thread_name","ph":"M","pid":1,"tid":{},"args":{{"name":{}}}}}"#,
                i,
                json_str(name)
            ));
        }
        out.push(']');
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// RAII guard from [`Tracer::span`].
pub struct SpanGuard {
    tracer: Tracer,
    ctx: Ctx,
    start: SimTime,
    track: String,
    category: &'static str,
    name: String,
    closed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        // A span of a dead simulation (its task torn down unfinished)
        // records nothing.
        let Some(end) = self.ctx.try_now() else {
            return;
        };
        self.tracer
            .state
            .borrow_mut()
            .events
            .push(TraceEvent::Span {
                start: self.start,
                end,
                track: std::mem::take(&mut self.track),
                category: self.category,
                name: std::mem::take(&mut self.name),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn spans_record_simulated_durations() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let tracer = Tracer::enabled();
        let t2 = tracer.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            let _s = t2.span(&ctx2, "producer-0", "io", "write");
            ctx2.sleep(SimDuration::from_micros(250)).await;
        });
        sim.run();
        let evs = tracer.events();
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            TraceEvent::Span {
                start, end, name, ..
            } => {
                assert_eq!(name, "write");
                assert_eq!((*end - *start).micros(), 250);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let tracer = Tracer::disabled();
        tracer.instant(&ctx, "x", "c", "ev");
        let _s = tracer.span(&ctx, "x", "c", "span");
        drop(_s);
        assert!(tracer.is_empty());
    }

    #[test]
    fn chrome_json_is_valid_and_labelled() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let tracer = Tracer::enabled();
        let t2 = tracer.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            t2.instant(&ctx2, "consumer-1", "sync", "cold_wait");
            let _s = t2.span(&ctx2, "consumer-1", "io", "read \"frame\"");
            ctx2.sleep(SimDuration::from_micros(10)).await;
        });
        sim.run();
        let json = tracer.to_chrome_json();
        // Must parse as JSON (validated without serde to keep simcore
        // dependency-free: just check with a quick structural parse).
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains("thread_name"));
        // Escaped quotes in names survive.
        assert!(json.contains(r#"read \"frame\""#));
    }

    #[test]
    fn chrome_json_numbers_tracks_in_first_appearance_order() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let tracer = Tracer::enabled();
        for track in ["zeta", "alpha", "zeta", "mid", "alpha"] {
            tracer.instant(&ctx, track, "c", "ev");
        }
        let json = tracer.to_chrome_json();
        let tids: Vec<&str> = json
            .match_indices(r#""tid":"#)
            .map(|(i, pat)| &json[i + pat.len()..i + pat.len() + 1])
            .collect();
        // Five events, then one thread_name record per track.
        assert_eq!(tids, ["0", "1", "0", "2", "1", "0", "1", "2"]);
        for (tid, name) in ["zeta", "alpha", "mid"].iter().enumerate() {
            let label = format!(r#""tid":{tid},"args":{{"name":"{name}"}}"#);
            assert!(json.contains(&label), "missing {label}");
        }
    }

    #[test]
    fn events_keep_calendar_order_per_track() {
        let sim = Sim::new(0);
        let tracer = Tracer::enabled();
        for i in 0..3u64 {
            let ctx = sim.ctx();
            let t = tracer.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(i * 10)).await;
                t.instant(&ctx, "track", "c", &format!("e{i}"));
            });
        }
        sim.run();
        let evs = tracer.events();
        let times: Vec<u64> = evs
            .iter()
            .map(|e| match e {
                TraceEvent::Instant { at, .. } => at.nanos(),
                TraceEvent::Span { start, .. } => start.nanos(),
            })
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }
}
