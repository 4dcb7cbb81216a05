//! Differential oracle for [`Background`], the calendar-driven load
//! stream, against the process it replaces.
//!
//! The reference is that process as it was written: an `async` loop that
//! sleeps a drawn lead, then forever moves a 1–32 MB burst through the
//! write or the read link (a fair coin), and sleeps the burst's own
//! duration scaled to the duty cycle and jittered 0.5–1.5×. It uses only
//! public API (`Ctx::spawn`, `Ctx::sleep`, `transfer_counted`) and shares
//! no code with the block it checks.
//!
//! Each case builds two links shaped like an OST's disk channels, starts
//! 1–8 streams at a drawn duty cycle from one RNG stream each, and adds a
//! few probe flows at drawn instants on either link. Both sides run to
//! the same deadline, and what must be equal is: every probe's completion
//! instant, both links' [`BwStats`], and the executor's
//! `events_processed` at the deadline. A stream that draws its sizes,
//! coin or jitter in another order, skips its lead, or sizes its gap from
//! anything but the burst's duration moves all three.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::RngExt;
use simcore::resource::{Background, BwStats, SharedBandwidth};
use simcore::{Ctx, Sim, SimDuration, SimTime};

/// The write and read channels of one OST, each flow capped at the burst
/// rate (`PfsSpec::default`).
const WRITE_BW: f64 = 2.0e9;
const READ_BW: f64 = 2.5e9;
const FLOW_CAP: f64 = 2.0e9;

/// How long each side runs.
const DEADLINE_NS: u64 = 1_000_000_000;

#[derive(Debug, Clone, Copy)]
struct Probe {
    at_ns: u64,
    bytes: u64,
    write: bool,
    /// A ceiling of its own (a class beside the streams'), or the link's.
    capped: bool,
}

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    intensity: f64,
    streams: u64,
    probes: Vec<Probe>,
}

fn cases() -> impl Strategy<Value = Case> {
    let probe = (
        0..DEADLINE_NS,
        1u64..8_000_000,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(at_ns, bytes, write, capped)| Probe {
            at_ns,
            bytes,
            write,
            capped,
        });
    (
        any::<u64>(),
        0.05f64..0.95,
        1u64..9,
        proptest::collection::vec(probe, 0..5),
    )
        .prop_map(|(seed, intensity, streams, probes)| Case {
            seed,
            intensity,
            streams,
            probes,
        })
}

/// The stream as a process: the loop `Background` replaces.
fn oracle_stream(
    ctx: &Ctx,
    write_bw: &SharedBandwidth,
    read_bw: &SharedBandwidth,
    case: &Case,
    s: u64,
) {
    let (write_bw, read_bw, ctx2) = (write_bw.clone(), read_bw.clone(), ctx.clone());
    let intensity = case.intensity;
    let mut rng = ctx.rng(s);
    ctx.spawn(async move {
        let lead: u64 = rng.random_range(0..20_000_000);
        ctx2.sleep(SimDuration::from_nanos(lead)).await;
        loop {
            let burst: u64 = rng.random_range(1_000_000..32_000_000);
            let t0 = ctx2.now();
            if rng.random_bool(0.5) {
                write_bw.transfer_counted(burst).await;
            } else {
                read_bw.transfer_counted(burst).await;
            }
            let busy = (ctx2.now() - t0).as_secs_f64();
            let idle = busy * (1.0 - intensity) / intensity;
            let jitter: f64 = rng.random_range(0.5..1.5);
            ctx2.sleep(SimDuration::from_secs_f64(idle * jitter)).await;
        }
    });
}

/// What one side did by the deadline.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Completion instant of each probe, in probe order; `None` if still
    /// in flight at the deadline.
    probes: Vec<Option<u64>>,
    write: BwStats,
    read: BwStats,
    events: u64,
}

fn run(case: &Case, oracle: bool) -> Outcome {
    let sim = Sim::new(case.seed);
    let ctx = sim.ctx();
    let write = SharedBandwidth::new(&ctx, WRITE_BW).with_flow_cap(FLOW_CAP);
    let read = SharedBandwidth::new(&ctx, READ_BW).with_flow_cap(FLOW_CAP);
    let mut streams = Vec::new();
    for s in 0..case.streams {
        if oracle {
            oracle_stream(&ctx, &write, &read, case, s);
        } else {
            streams.push(Background::start(
                &ctx,
                &write,
                &read,
                case.intensity,
                ctx.rng(s),
            ));
        }
    }
    let done = Rc::new(RefCell::new(vec![None; case.probes.len()]));
    for (i, &p) in case.probes.iter().enumerate() {
        let (ctx, done) = (ctx.clone(), done.clone());
        let link = if p.write { write.clone() } else { read.clone() };
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(p.at_ns)).await;
            let cap = p.capped.then_some(0.7e9);
            link.transfer_capped_counted(p.bytes, cap).await;
            done.borrow_mut()[i] = Some(ctx.now().nanos());
        });
    }
    let report = sim.run_until(SimTime::from_nanos(DEADLINE_NS));
    let probes = done.borrow().clone();
    Outcome {
        probes,
        write: write.stats(),
        read: read.stats(),
        events: report.events_processed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn background_oracle(case in cases()) {
        let want = run(&case, true);
        prop_assert!(want.write.flows_served + want.read.flows_served > 0);
        prop_assert_eq!(run(&case, false), want);
    }
}
