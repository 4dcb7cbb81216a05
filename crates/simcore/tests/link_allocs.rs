//! What a link costs the allocator.
//!
//! A `SharedBandwidth` stands for every NVMe channel, NIC port and
//! fabric stage of a simulated cluster — 66,561 of them at 16k pairs, of
//! which 50,177 carry traffic — so a call a link makes is paid tens of
//! thousands of times per run and every byte it keeps shows in
//! `peak_rss_mb`. It makes one call, when it is built: the block holds
//! its first cap class, that class's first pending entry and its first
//! flow slot in place, and its completion timer is a calendar entry that
//! points back at the block. Only a second concurrent flow or a second
//! cap class spills, once, into a `Vec` the link keeps.
//!
//! A `Background` load stream rides on two such links and costs the
//! executor as little: its gap is a calendar entry on its own block and
//! its burst's completion comes from the link, so a warm burst is two
//! events and nothing else.

use std::cell::Cell;
use std::rc::Rc;

use simcore::resource::{Background, SharedBandwidth, TransferFut};
use simcore::{work, Sim, SimDuration, SimTime};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, last_size};

/// Bytes of the one block behind a link, reference counts included.
/// Measured: 312 (the five blocks it replaces held 232 unused, about 600
/// after a first transfer).
const LINK_BLOCK_MAX: usize = 320;

/// Bytes of a transfer future: the link pointer, a slot and a
/// generation. Measured: 16.
const TRANSFER_FUT_MAX: usize = 16;

/// Allocator calls the first time a link holds two flows at once in one
/// cap class: its flow slab and that class's heap each spill into a
/// `Vec`. Measured: 2.
const SECOND_FLOW_CALLS_MAX: u64 = 2;

/// Allocator calls the first time a link sees a second cap class (the
/// class brings its first pending entry with it); the second flow's slot
/// has spilled before. Measured: 1.
const SECOND_CLASS_CALLS_MAX: u64 = 2;

/// Eight flows on two cap classes at once, to completion, `rounds` times.
async fn busy_rounds(bw: &SharedBandwidth, rounds: u64) {
    for round in 0..rounds {
        let flows: [TransferFut; 8] = std::array::from_fn(|i| {
            let cap = (i % 2 == 1).then_some(2e8);
            bw.transfer_capped_start(1_000 + round + i as u64, cap)
        });
        for f in flows {
            f.await;
        }
    }
}

/// What follows counts a link's calls, not the executor's: grow the
/// calendar (its heap, slots and tombstones), the wake queue and the
/// ready queue to what the busiest measurement below needs, on a link of
/// their own.
async fn warm_executor(ctx: &simcore::Ctx) {
    busy_rounds(&SharedBandwidth::new(ctx, 1e9), 200).await;
}

/// Run `body` as the only process of `sim` and return what it returns.
fn run_one<T: 'static>(sim: &Sim, body: impl std::future::Future<Output = T> + 'static) -> T {
    let h = sim.spawn(body);
    assert!(sim.run().is_clean());
    h.try_take().expect("the process finished")
}

#[test]
fn a_link_is_one_block_and_a_transfer_future_two_words() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let before = calls();
    let bw = SharedBandwidth::new(&ctx, 1e9);
    assert_eq!(calls() - before, 1, "a link is one allocator call");
    let block = last_size();
    assert!(block <= LINK_BLOCK_MAX, "link block is {block} B");
    assert_eq!(std::mem::size_of::<SharedBandwidth>(), 8);
    assert!(std::mem::size_of::<TransferFut>() <= TRANSFER_FUT_MAX);
    // A clone is a count, not a copy.
    let before = calls();
    let again = bw.clone().with_flow_cap(5e8);
    assert_eq!(calls() - before, 0);
    drop((bw, again));
}

#[test]
fn a_lone_flow_never_allocates() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let bw = SharedBandwidth::new(&ctx, 1e9);
    let (first, later) = run_one(&sim, async move {
        warm_executor(&ctx).await;
        // The first transfer through an idle link, to completion and
        // re-poll: class, heap entry, flow slot and timer, all in place.
        let before = calls();
        bw.transfer_counted(4_096).await;
        let first = calls() - before;
        let before = calls();
        for i in 0..10_000u64 {
            bw.transfer_capped(1_000 + i, None).await;
            // Let the link idle between two transfers.
            ctx.sleep(SimDuration::from_nanos(1 + i % 3)).await;
        }
        assert_eq!(bw.stats().flows_served, 10_001);
        (first, calls() - before)
    });
    assert_eq!(first, 0, "the first transfer through an idle link");
    assert_eq!(later, 0, "a lone flow repeated 10,000 times");
}

#[test]
fn a_second_flow_and_a_second_class_spill_once() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let bw = SharedBandwidth::new(&ctx, 1e9);
    let cost = Rc::new(Cell::new((0, 0, 0, 0)));
    let out = cost.clone();
    run_one(&sim, async move {
        warm_executor(&ctx).await;
        let before = calls();
        let a = bw.transfer_capped_start(10_000, None);
        let b = bw.transfer_capped_start(20_000, None);
        let second_flow = calls() - before;
        // A third and fourth flow fit what the second one reserved.
        let before = calls();
        let c = bw.transfer_capped_start(30_000, None);
        let d = bw.transfer_counted_start(40_000);
        let more_flows = calls() - before;
        for f in [a, b, c, d] {
            f.await;
        }

        let before = calls();
        let a = bw.transfer_capped_start(10_000, None);
        let b = bw.transfer_capped_start(10_000, Some(2e8));
        let second_class = calls() - before;
        for f in [a, b] {
            f.await;
        }

        // Both classes, four flows each: the vectors grow to that once,
        // and then the link is warm.
        busy_rounds(&bw, 1).await;
        let before = calls();
        busy_rounds(&bw, 1_000).await;
        out.set((second_flow, more_flows, second_class, calls() - before));
        assert_eq!(bw.stats().peak_concurrency, 8);
    });
    let (second_flow, more_flows, second_class, warm) = cost.get();
    assert!(
        (1..=SECOND_FLOW_CALLS_MAX).contains(&second_flow),
        "second concurrent flow: {second_flow} calls"
    );
    assert_eq!(more_flows, 0, "the spill is amortised");
    assert!(
        (1..=SECOND_CLASS_CALLS_MAX).contains(&second_class),
        "second cap class: {second_class} calls"
    );
    assert_eq!(warm, 0, "a warm link allocates nothing");
}

/// Streams alone on an OST's two disk channels, past warm-up: a burst
/// polls no task and queues no wake, and a lone stream's burst makes no
/// allocator call and is exactly two events — its completion on the link
/// and the end of the gap that follows. (Eight streams are not held to
/// the allocator count: the calendar's buckets keep reaching new
/// high-water marks under them for tens of thousands of bursts, one
/// 256 B bucket buffer between bursts 5,000 and 7,000 here. That is the
/// calendar's warm-up, not the stream's.)
#[test]
fn a_background_burst_costs_two_events_and_nothing_else() {
    for streams in [1, 8] {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let write = SharedBandwidth::new(&ctx, 2.0e9).with_flow_cap(2.0e9);
        let read = SharedBandwidth::new(&ctx, 2.5e9).with_flow_cap(2.0e9);
        let _streams: Vec<_> = (0..streams)
            .map(|s| Background::start(&ctx, &write, &read, 0.25, ctx.rng(s)))
            .collect();
        let bursts = || write.stats().flows_served + read.stats().flows_served;
        // Run until `n` more bursts completed, stopping within 100 µs of
        // the last: a lone stream is then in its gap, which at a duty
        // cycle of 0.25 lasts at least 1.5 times the 0.5 ms of a 1 MB
        // burst. Returns the events processed so far.
        let mut deadline = SimTime::ZERO;
        let mut run_bursts = |n: u64| {
            let target = bursts() + n;
            loop {
                deadline += SimDuration::from_micros(100);
                let events = sim.run_until(deadline).events_processed;
                if bursts() >= target {
                    return events;
                }
            }
        };
        let events0 = run_bursts(200);
        let (calls0, polls0, wakes0) = (calls(), work::polls(), work::wakes());
        let events = run_bursts(2_000) - events0;
        assert_eq!(work::polls() - polls0, 0, "{streams} streams: task polls");
        assert_eq!(work::wakes() - wakes0, 0, "{streams} streams: queued wakes");
        if streams == 1 {
            assert_eq!(calls() - calls0, 0, "one stream: allocator calls");
            assert_eq!(events, 4_000, "one stream: events in 2,000 bursts");
        }
    }
}
