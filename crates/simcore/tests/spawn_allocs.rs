//! What a spawn costs the allocator, and what waking by task id must
//! not cost.
//!
//! `Ctx::spawn` is under every per-frame task of every backend (stripe
//! I/Os, ack publishers, evict passes), so a call it makes is paid
//! `pairs × frames` times and shows in the benchmark's
//! `allocs_per_event`. It makes one — the block that holds the process
//! and the place its result goes — because a task slot holds nothing
//! else: a parked task is its id, which costs no block. What that must
//! not cost is a wake reaching the wrong task: a registration left
//! behind by a finished task, or by a simulation that is gone, must
//! reach nothing. One block is only cheap while no handle outlives its
//! process by long; the last test spawns into a `JoinSet`, where nothing
//! does.

use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;

use simcore::sync::{channel, oneshot};
use simcore::{timeout, JoinSet, Sim, SimDuration, SimTime};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::calls;

const WHY_ONE: &str = "a spawn is one allocator call — join state and process share \
    a block, and a task slot holds nothing else";

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

/// Every slot of a run on a recycled arena is fresh — the slab was
/// emptied, generations restart at zero — and its spawns cost one call
/// each: the slab and the ready queue kept their capacity, and a slot
/// holds nothing but the task. A cold run pays more only where one of
/// the two grows.
#[test]
fn every_spawn_costs_one_call_fresh_slots_and_recycled_runs_included() {
    const TASKS: u64 = 1_000;
    // `TASKS` tasks live at once, each in a slot of its own.
    let spawn_all = |sim: &Sim| -> Vec<u64> {
        let spawn = |i: u64| {
            let c = sim.ctx();
            let before = calls();
            drop(sim.spawn(async move { c.sleep(SimDuration::from_nanos(1 + i)).await }));
            calls() - before
        };
        (0..TASKS).map(spawn).collect()
    };
    let sim = Sim::new(0);
    let cold = spawn_all(&sim);
    assert!(sim.run().is_clean());
    // Each of the two is allocated at four and doubles to 1,024: nine calls.
    let grew = cold.iter().filter(|&&c| c > 1).count();
    assert!(
        cold.iter().all(|&c| c >= 1) && grew <= 2 * 9,
        "{grew} spawns paid more than one call"
    );
    let mut arena = sim.into_arena();
    for _ in 0..3 {
        let sim = Sim::with_arena(0, arena);
        let costs = spawn_all(&sim);
        assert!(costs.iter().all(|&c| c == 1), "{WHY_ONE}: {costs:?}");
        assert!(sim.run().is_clean());
        arena = sim.into_arena();
    }
}

/// `fut`, counting its polls in `polls`.
fn counted<F: Future + Unpin>(
    polls: &Rc<Cell<u32>>,
    mut fut: F,
) -> impl Future<Output = F::Output> {
    let polls = polls.clone();
    poll_fn(move |cx| {
        polls.set(polls.get() + 1);
        Pin::new(&mut fut).poll(cx)
    })
}

/// A task parked on a channel stops waiting (its timer wins) and
/// finishes, leaving its registration with the channel. The slot's next
/// tenant carries a new generation, so the send that wakes the stale
/// registration dies at the generation check and never polls the tenant.
#[test]
fn a_stale_registration_cannot_reach_the_slots_next_tenant() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let (tx, mut rx) = channel::<u32>();
    let gave_up = sim.spawn(async move {
        let patience = SimDuration::from_nanos(5);
        timeout(&ctx, patience, rx.recv()).await.is_err()
    });
    assert!(sim.run().is_clean());
    assert_eq!(gave_up.try_take(), Some(true));
    // The tenant takes the finished task's slot, the only vacant one.
    let polls = Rc::new(Cell::new(0));
    let (go, wait) = oneshot::<()>();
    let tenant = sim.spawn(counted(&polls, wait));
    sim.run();
    assert_eq!(polls.get(), 1);
    tx.send(7);
    sim.run();
    assert_eq!(polls.get(), 1, "a stale wake polled the slot's next tenant");
    // The tenant's own registration works.
    go.send(()).unwrap();
    assert!(sim.run().is_clean());
    assert_eq!((polls.get(), tenant.try_take()), (2, Some(Ok(()))));
}

/// A wake from outside any task, between two slices of a run, waits in
/// the wake queue and is delivered when the next slice starts, at the
/// instant the last one stopped.
#[test]
fn a_wake_between_two_slices_is_delivered_at_the_next() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let (tx, mut rx) = channel::<u32>();
    let got = sim.spawn(async move { (rx.recv().await, ctx.now()) });
    // A later timer, so the first slice stops at its deadline.
    let ctx = sim.ctx();
    sim.spawn(async move { ctx.sleep(SimDuration::from_nanos(100)).await });
    let ns = SimTime::from_nanos;
    assert_eq!(sim.run_until(ns(10)).deadlocked_tasks, 2);
    tx.send(3);
    assert_eq!(got.try_take(), None);
    assert_eq!(sim.run_until(ns(20)).deadlocked_tasks, 1);
    assert_eq!(got.try_take(), Some((Some(3), ns(10))));
    assert!(sim.run().is_clean());
}

/// A registration can outlive its simulation. A wake through it then
/// does nothing: not after the `Sim` is dropped, and not from a task of
/// the run that recycled it, whose first task has the very id the stale
/// registration names (slot 0, generation 0).
#[test]
fn a_wake_after_the_sim_is_gone_is_a_no_op() {
    // Leaves one task parked on a channel's receiver.
    let park = |sim: &Sim| {
        let (tx, mut rx) = channel::<u32>();
        sim.spawn(async move { rx.recv().await });
        assert_eq!(sim.run().deadlocked_tasks, 1);
        tx
    };
    let sim = Sim::new(0);
    let tx = park(&sim);
    drop(sim);
    tx.send(1);

    let sim = Sim::new(0);
    let tx = park(&sim);
    let sim = Sim::with_arena(0, sim.into_arena());
    let polls = Rc::new(Cell::new(0));
    let (go, wait) = oneshot::<()>();
    sim.spawn(counted(&polls, wait));
    sim.spawn(async move { tx.send(1) });
    sim.run();
    assert_eq!(
        polls.get(),
        1,
        "a recycled simulation's wake polled this run's task"
    );
    go.send(()).unwrap();
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
    // Four finished tasks leave four vacant slots beside eight live
    // ones, so the set's spawns grow nothing.
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
