//! Differential oracle for [`SharedBandwidth`], and three recorded traces.
//!
//! The link keeps one virtual service clock per cap class and a finish
//! tag per flow; what it promises is the fluid model: every in-flight
//! flow progresses at `min(rate / n, cap)`, and a flow completes at the
//! first nanosecond tick on or after the moment its last byte is
//! delivered (the ceiling rounding of the completion event). The
//! reference here is that sentence: per-flow residual bytes, every flow
//! credited at every change of the flow set, O(n) per event. It shares
//! no structure — class clocks, tags, heaps, slots, timers — with what
//! it checks.
//!
//! What is compared, per drawn trace: the `(instant, flow)` list in the
//! order the awaiting tasks observe it — so completion instants and
//! completion order, both exactly — and [`BwStats`] (`bytes_moved`,
//! `flows_served`, `peak_concurrency`, `busy`), also exactly. Rates and
//! caps are chosen so that a departure does not fall on a tick by
//! arithmetic coincidence; a draw where one comes within 1e-6 ns of a
//! tick anyway is set aside, because on which side of the tick the
//! link's floats land is not the model's business.
//!
//! A trace mixes what the callers do: transfers awaited in place,
//! counted ones, futures dropped unpolled / parked / finished, a future
//! polled by one task and awaited by another, zero-byte transfers, three
//! cap classes created in drawn order, bursts joining at one instant and
//! gaps long enough for the link to idle and its slots to be reused out
//! of arrival order.
//!
//! The recorded traces are three seeded draws of the same generator on
//! the round rates the cluster model uses (where departures *do* fall on
//! ticks), with the lists the link produced before its state was laid
//! out as one block (PR 24): that change may not move an entry.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use proptest::prelude::*;
use proptest::TestRng;
use simcore::resource::{BwStats, SharedBandwidth, TransferFut};
use simcore::{Sim, SimDuration};

const RATES: [f64; 3] = [0.937e9, 3.21e9, 12.37e9];
/// The link default when a trace draws one (`with_flow_cap`).
const LINK_CAP: f64 = 1.49e9;
/// The two explicit ceilings a transfer may carry.
const CAPS: [f64; 2] = [0.41e9, 2.53e9];

#[derive(Debug, Clone, Copy, PartialEq)]
enum How {
    Await,
    Counted,
    /// Started, polled once or not, dropped `after_ns` later.
    Dropped {
        polled: bool,
        after_ns: u64,
    },
    /// Polled by the starting task, awaited by a second one.
    Handoff,
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    arrival_ns: u64,
    bytes: u64,
    /// `None`: the link default.
    cap: Option<f64>,
    how: How,
}

impl Flow {
    /// Whether the bytes go to `bytes_moved`.
    fn counted(&self) -> bool {
        self.how == How::Counted || (self.how == How::Handoff && self.cap.is_none())
    }
}

#[derive(Debug, Clone)]
struct Trace {
    rate: f64,
    link_cap: Option<f64>,
    flows: Vec<Flow>,
}

/// `(rate, link cap?, [((gap kind, gap), (size kind, size), cap, how, drop delay)])`.
type Draw = (usize, bool, Vec<((u8, u64), (u8, u64), u8, u8, u64)>);

fn draws() -> impl Strategy<Value = Draw> {
    let flow = (
        (0u8..4, 0u64..3_000),
        (0u8..5, 1u64..200_000),
        0u8..3,
        0u8..8,
        0u64..50_000,
    );
    (
        0usize..3,
        any::<bool>(),
        proptest::collection::vec(flow, 1..40),
    )
}

fn trace((rate, link_cap, flows): Draw) -> Trace {
    let mut now = 0;
    let flows = flows
        .into_iter()
        .map(|((gap_kind, gap), (size_kind, size), cap, how, after_ns)| {
            // Half the flows join at the instant of the one before; one
            // gap in four is long enough for the link to drain.
            now += match gap_kind {
                0 | 1 => 0,
                2 => gap,
                _ => gap * 100,
            };
            let bytes = match size_kind {
                0 if size % 4 == 0 => 0,
                // Two sizes that recur, so tags tie.
                0 | 1 => [4_096, 65_536][(size % 2) as usize],
                _ => size,
            };
            Flow {
                arrival_ns: now,
                bytes,
                cap: cap.checked_sub(1).map(|i| CAPS[i as usize]),
                how: match how {
                    0..=2 => How::Await,
                    3 | 4 => How::Counted,
                    5 => How::Dropped {
                        polled: after_ns % 2 == 0,
                        after_ns,
                    },
                    6 => How::Dropped {
                        polled: false,
                        after_ns: 0,
                    },
                    _ => How::Handoff,
                },
            }
        })
        .collect();
    Trace {
        rate: RATES[rate],
        link_cap: link_cap.then_some(LINK_CAP),
        flows,
    }
}

/// Poll `fut` once from the calling task; true if it was ready.
async fn poll_once(fut: &mut TransferFut) -> bool {
    poll_fn(|cx| Poll::Ready(Pin::new(&mut *fut).poll(cx).is_ready())).await
}

/// Run `trace` on a fresh link: the `(instant, flow)` pairs in the order
/// the awaiting tasks observed them, and the link's statistics.
fn run(trace: &Trace) -> (Vec<(u64, u32)>, BwStats) {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let mut bw = SharedBandwidth::new(&ctx, trace.rate);
    if let Some(cap) = trace.link_cap {
        bw = bw.with_flow_cap(cap);
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, &flow) in trace.flows.iter().enumerate() {
        let (ctx, bw, log) = (ctx.clone(), bw.clone(), log.clone());
        let done = move |at: u64| log.borrow_mut().push((at, i as u32));
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(flow.arrival_ns)).await;
            let Flow { bytes, cap, .. } = flow;
            match flow.how {
                How::Await => {
                    match cap {
                        None => bw.transfer(bytes).await,
                        Some(_) => bw.transfer_capped(bytes, cap).await,
                    }
                    done(ctx.now().nanos());
                }
                How::Counted => {
                    match cap {
                        None => bw.transfer_counted(bytes).await,
                        Some(_) => bw.transfer_capped_counted(bytes, cap).await,
                    }
                    done(ctx.now().nanos());
                }
                How::Dropped { polled, after_ns } => {
                    let mut fut = bw.transfer_capped_start(bytes, cap);
                    if polled {
                        poll_once(&mut fut).await;
                    }
                    ctx.sleep(SimDuration::from_nanos(after_ns)).await;
                    drop(fut);
                }
                How::Handoff => {
                    let mut fut = match cap {
                        None => bw.transfer_counted_start(bytes),
                        Some(_) => bw.transfer_capped_start(bytes, cap),
                    };
                    if poll_once(&mut fut).await {
                        done(ctx.now().nanos());
                    } else {
                        // This task is gone when the flow completes: the
                        // wake must go to whoever polled last.
                        let ctx2 = ctx.clone();
                        ctx.spawn(async move {
                            fut.await;
                            done(ctx2.now().nanos());
                        });
                    }
                }
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "a transfer never woke its task");
    let log = log.borrow().clone();
    (log, bw.stats())
}

/// What the reference says a trace does: the observed `(instant, flow)`
/// list and the statistics.
struct Expected {
    log: Vec<(u64, u32)>,
    bytes_moved: u64,
    flows_served: u64,
    peak_concurrency: usize,
    busy_ns: u64,
}

/// How close (in ns) a departure may lie to a tick before the draw is
/// set aside: which side of the tick a float lands on is not the model's
/// business. Float noise here is below 1e-8 ns.
const TICK_MARGIN: f64 = 1e-6;

/// The naive reference. Every live flow holds its residual bytes; at
/// every event — an arrival, or the first tick on or after the moment
/// some flow empties — every flow is credited `min(rate / n, cap)` times
/// the elapsed time and the emptied ones leave. O(n) per event, no
/// classes' clocks, no tags, no heap. `None` when a departure lies
/// within [`TICK_MARGIN`] of a tick.
fn reference(trace: &Trace) -> Option<Expected> {
    struct Live {
        flow: usize,
        remaining: f64,
        cap: Option<f64>,
    }
    let flows = &trace.flows;
    // Bytes per nanosecond.
    let rate_of = |l: &Live, n: usize| {
        let fair = trace.rate / 1e9 / n as f64;
        l.cap.map_or(fair, |c| fair.min(c / 1e9))
    };
    let mut out = Expected {
        log: Vec::new(),
        bytes_moved: flows.iter().filter(|f| f.counted()).map(|f| f.bytes).sum(),
        flows_served: flows.iter().filter(|f| f.bytes > 0).count() as u64,
        peak_concurrency: 0,
        busy_ns: 0,
    };
    // Cap classes in the order the link first saw them: flows that empty
    // at one event are observed class by class, emptiest first, arrival
    // order among equals.
    let mut classes: Vec<Option<u64>> = Vec::new();
    let mut live: Vec<Live> = Vec::new();
    let mut now = 0u64;
    let mut arrivals = flows.iter().enumerate().peekable();
    loop {
        let n = live.len();
        let left = |l: &Live| l.remaining / rate_of(l, n);
        let soonest = live.iter().map(left).fold(f64::INFINITY, f64::min);
        if soonest.is_finite() && (soonest - soonest.round()).abs() < TICK_MARGIN {
            return None;
        }
        let tick = soonest.is_finite().then(|| now + soonest.ceil() as u64);
        // An arrival at the tick's instant runs first: its task has been
        // on the calendar since the start of the run.
        let arrival = arrivals.next_if(|(_, f)| tick.is_none_or(|t| f.arrival_ns <= t));
        let at = match (&arrival, tick) {
            (Some((_, f)), _) => f.arrival_ns,
            (None, Some(t)) => t,
            (None, None) => return Some(out),
        };
        let dt = (at - now) as f64;
        for l in live.iter_mut() {
            l.remaining -= dt * rate_of(l, n);
        }
        if n > 0 {
            out.busy_ns += at - now;
        }
        now = at;
        if let Some((i, f)) = arrival {
            if f.bytes == 0 {
                if !matches!(f.how, How::Dropped { .. }) {
                    out.log.push((now, i as u32));
                }
                continue;
            }
            let cap = f.cap.or(trace.link_cap);
            if !classes.contains(&cap.map(f64::to_bits)) {
                classes.push(cap.map(f64::to_bits));
            }
            live.push(Live {
                flow: i,
                remaining: f.bytes as f64,
                cap,
            });
            out.peak_concurrency = out.peak_concurrency.max(live.len());
        }
        let class = |l: &Live| classes.iter().position(|&c| c == l.cap.map(f64::to_bits));
        let mut gone: Vec<&Live> = live.iter().filter(|l| l.remaining <= 0.0).collect();
        gone.sort_by(|a, b| {
            (class(a).cmp(&class(b)))
                .then(a.remaining.total_cmp(&b.remaining))
                .then(a.flow.cmp(&b.flow))
        });
        let observed = gone
            .iter()
            .filter(|l| !matches!(flows[l.flow].how, How::Dropped { .. }));
        out.log.extend(observed.map(|l| (now, l.flow as u32)));
        live.retain(|l| l.remaining > 0.0);
    }
}

fn check(trace: &Trace) -> Result<(), TestCaseError> {
    let Some(want) = reference(trace) else {
        return Ok(());
    };
    let (log, stats) = run(trace);
    prop_assert_eq!(log, want.log);
    prop_assert_eq!(stats.bytes_moved, want.bytes_moved);
    prop_assert_eq!(stats.flows_served, want.flows_served);
    prop_assert_eq!(stats.peak_concurrency, want.peak_concurrency);
    prop_assert_eq!(stats.busy.nanos(), want.busy_ns);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn link_matches_the_fluid_reference(draw in draws()) {
        check(&trace(draw))?;
    }
}

/// One seeded draw of the oracle's own generator, at a round rate.
fn seeded(name: &str, rate: f64) -> Trace {
    let drawn = trace(draws().generate(&mut TestRng::deterministic(name)));
    Trace { rate, ..drawn }
}

#[test]
fn recorded_traces_replay_to_the_byte() {
    for (name, rate, want, stats) in RECORDED {
        let (log, got) = run(&seeded(name, rate));
        assert_eq!(log, want, "{name}: completion log");
        let (bytes_moved, flows_served, peak_concurrency, busy_ns) = stats;
        let want = BwStats {
            bytes_moved,
            flows_served,
            peak_concurrency,
            busy: SimDuration::from_nanos(busy_ns),
        };
        assert_eq!(got, want, "{name}: statistics");
    }
}

/// `(seed name, link rate, (instant ns, flow) in observed order,
/// (bytes_moved, flows_served, peak_concurrency, busy ns))`.
type Recorded = (
    &'static str,
    f64,
    &'static [(u64, u32)],
    (u64, u64, usize, u64),
);

const RECORDED: [Recorded; 3] = [
    (
        "bandwidth_oracle::recorded_1",
        1.0e9,
        &[
            (0, 0),
            (240403, 6),
            (331968, 2),
            (697755, 5),
            (796342, 19),
            (798919, 21),
            (798919, 22),
            (1045073, 14),
            (1171574, 26),
            (1315287, 27),
            (1830847, 3),
            (1849922, 16),
            (1886994, 25),
            (1976718, 12),
            (2028696, 7),
            (2069362, 28),
            (2093065, 20),
            (2431801, 8),
            (2459017, 13),
            (2579087, 23),
            (2593092, 11),
            (2595745, 29),
            (2606387, 17),
            (2610173, 10),
            (2639533, 9),
        ],
        (1012659, 29, 18, 2622954),
    ),
    (
        "bandwidth_oracle::recorded_3",
        3.2e9,
        &[
            (189451, 1),
            (339816, 3),
            (458700, 2),
            (548345, 4),
            (675600, 6),
            (739266, 10),
            (747699, 5),
            (824943, 9),
            (1128268, 13),
            (1232958, 15),
            (1241222, 12),
            (1304874, 14),
            (1315480, 16),
            (1442676, 18),
            (1444325, 20),
            (1478617, 17),
            (1552037, 21),
            (1633048, 23),
            (1800048, 25),
            (2030488, 27),
            (2077186, 24),
            (2155695, 28),
            (2167676, 26),
            (2195644, 30),
            (2560918, 29),
        ],
        (734598, 29, 6, 1868748),
    ),
    (
        "bandwidth_oracle::recorded_7",
        12.5e9,
        &[
            (38938, 1),
            (75421, 0),
            (175370, 5),
            (178104, 8),
            (180700, 11),
            (185361, 9),
            (240024, 4),
            (251674, 16),
            (261129, 12),
            (264374, 2),
            (295410, 13),
            (297661, 3),
            (306778, 32),
            (318231, 18),
            (343523, 14),
            (356354, 25),
            (369860, 29),
            (376483, 10),
            (390576, 26),
            (390648, 20),
            (391423, 30),
            (439294, 28),
            (649295, 34),
            (650269, 35),
        ],
        (874433, 35, 19, 481557),
    ),
];
