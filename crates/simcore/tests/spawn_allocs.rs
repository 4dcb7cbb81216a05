//! What a spawn costs the allocator, and what the saving must not cost.
//!
//! `Ctx::spawn` is under every per-frame task of every backend (stripe
//! I/Os, ack publishers, evict passes), so a call it makes is paid
//! `pairs × frames` times and shows in the benchmark's
//! `allocs_per_event`. In steady state it makes one — the block that
//! holds the process and the place its result goes — because a task slot
//! keeps its waker block across tenants. That reuse is only sound while
//! no clone of the old tenant's waker survives; the second test holds
//! one and checks that it can neither wake the slot's next tenant nor
//! share a block with it. One block is only cheap while no handle
//! outlives its process by long; the third test spawns into a `JoinSet`,
//! where nothing does.

use std::cell::{Cell, RefCell};
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use simcore::{JoinSet, Sim, SimDuration, SimTime};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::calls;

const WHY_ONE: &str = "a steady-state spawn is one allocator call — join state and \
    process share a block; the waker block stays with the task slot";

#[test]
fn the_10_001st_spawn_costs_one_call_detached_or_joined() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cost = Rc::new(Cell::new((0, 0)));
    let last = cost.clone();
    sim.spawn(async move {
        for _ in 0..=10_000 {
            // Detached: the handle is dropped at once, the task runs and
            // finishes while this one sleeps.
            let before = calls();
            let c = ctx.clone();
            drop(ctx.spawn(async move { c.sleep(SimDuration::from_nanos(1)).await }));
            ctx.sleep(SimDuration::from_nanos(2)).await;
            let detached = calls() - before;
            // Joined: awaited through its handle.
            let before = calls();
            let c = ctx.clone();
            let child = ctx.spawn(async move {
                c.sleep(SimDuration::from_nanos(1)).await;
                7u32
            });
            assert_eq!(child.await, 7);
            last.set((detached, calls() - before));
        }
    });
    assert!(sim.run().is_clean());
    assert_eq!(cost.get(), (1, 1), "{WHY_ONE}");
}

#[test]
fn a_waker_kept_past_its_task_cannot_reach_the_slots_next_tenant() {
    let sim = Sim::new(0);
    // One task that parks its waker in `seen`, counts its polls in
    // `polls` and finishes once `done` is set; returns its spawn's cost.
    let tenant =
        |seen: &Rc<RefCell<Option<Waker>>>, polls: &Rc<Cell<u32>>, done: &Rc<Cell<bool>>| {
            let (seen, polls, done) = (seen.clone(), polls.clone(), done.clone());
            let before = calls();
            sim.spawn(poll_fn(move |cx| {
                polls.set(polls.get() + 1);
                *seen.borrow_mut() = Some(cx.waker().clone());
                if done.get() {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }));
            calls() - before
        };
    let (seen, polls, done) = (Rc::default(), Rc::default(), Rc::new(Cell::new(true)));

    // Warm-up tenants, each dropping the clone it took before the next is
    // spawned: the slot's block is re-labelled, a spawn is one call.
    for _ in 0..3 {
        tenant(&seen, &polls, &done);
        sim.run();
        seen.borrow_mut().take();
    }
    assert_eq!(tenant(&seen, &polls, &done), 1);
    sim.run();

    // This tenant's clone outlives it.
    let stale = seen.borrow_mut().take().expect("the tenant ran");
    polls.set(0);
    done.set(false);
    // The next tenant takes the same slot (the only vacant one) and must
    // get a block of its own: exactly here a spawn costs a second call.
    assert_eq!(tenant(&seen, &polls, &done), 2, "no fresh waker block");
    sim.run();
    assert_eq!(polls.get(), 1);
    let current = seen.borrow_mut().take().expect("the tenant ran");
    assert!(!stale.will_wake(&current), "one block, two tenants");
    // The stale waker still names the finished task: its wake dies at
    // the slot's generation check.
    stale.wake_by_ref();
    sim.run();
    assert_eq!(
        polls.get(),
        1,
        "a stale wake reached the slot's next tenant"
    );
    // The tenant's own waker works.
    done.set(true);
    current.wake_by_ref();
    assert!(sim.run().is_clean());
    assert_eq!(polls.get(), 2);
}

/// A role spawned into a `JoinSet` is one call like any spawn, and —
/// what makes the shared block affordable for an ensemble that runs to
/// the end — everything it captured is gone when it completes, not when
/// the set is collected.
#[test]
fn a_join_set_member_costs_one_call_and_drops_its_captures_at_completion() {
    struct Counted(Rc<Cell<u32>>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    // Four finished tasks leave four vacant slots, each with its waker
    // block: vacant slots keep one per live task, and eight are live.
    for _ in 0..8 {
        let c = ctx.clone();
        sim.spawn(async move { c.sleep(SimDuration::from_nanos(1_000)).await });
    }
    for _ in 0..4 {
        sim.spawn(async {});
    }
    sim.run_until(SimTime::ZERO);
    let drops = Rc::new(Cell::new(0));
    let set = JoinSet::with_capacity(4);
    for i in 0..4u64 {
        let (c, captured) = (ctx.clone(), Counted(drops.clone()));
        let before = calls();
        set.spawn(&ctx, async move {
            c.sleep(SimDuration::from_nanos(10 * (i + 1))).await;
            drop(captured);
            i
        });
        assert_eq!(calls() - before, 1, "{WHY_ONE}");
    }
    sim.run_until(SimTime::from_nanos(25));
    assert!(!set.all_finished());
    assert_eq!(set.unfinished(), [2, 3]);
    assert_eq!(drops.get(), 2, "a capture outlived its process");
    assert!(sim.run().is_clean());
    assert!(set.all_finished());
    assert_eq!(drops.get(), 4);
    let results: Vec<(SimTime, u64)> = set.into_results().collect();
    let expect = (0..4u64).map(|i| (SimTime::from_nanos(10 * (i + 1)), i));
    assert_eq!(results, expect.collect::<Vec<_>>());
}
