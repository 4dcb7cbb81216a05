//! Work counters of the executor: task polls, and wakes through a
//! simulation's wake queue.
//!
//! Each is a plain thread-local count, read like
//! [`crate::intern::probes`]: a simulation runs on one thread, so what a
//! run did is the difference of two reads around it on that thread. The
//! counters only count; nothing reads them back into a run, so no
//! trajectory depends on them.

use std::cell::Cell;

thread_local! {
    static POLLS: Cell<u64> = const { Cell::new(0) };
    static WAKES: Cell<u64> = const { Cell::new(0) };
}

/// Task polls on this thread, every simulation summed: one per process
/// taken off the ready queue and polled, however it ends.
pub fn polls() -> u64 {
    POLLS.with(Cell::get)
}

/// Wakes pushed onto a simulation's wake queue on this thread (a
/// primitive of this crate woke its waiter, or a link its transfer),
/// every simulation summed. A timer that fires readies its task without
/// the queue and is not counted.
pub fn wakes() -> u64 {
    WAKES.with(Cell::get)
}

pub(crate) fn count_poll() {
    POLLS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_wake() {
    WAKES.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::oneshot;
    use crate::{Sim, SimDuration};

    #[test]
    fn polls_and_queued_wakes_are_counted() {
        let sim = Sim::new(0);
        let (tx, rx) = oneshot::<u32>();
        let (polls0, wakes0) = (polls(), wakes());
        let got = sim.spawn(async move { rx.await.ok() });
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(5)).await;
            let _ = tx.send(7);
        });
        sim.run();
        assert_eq!(got.try_take(), Some(Some(7)));
        // The receiver parks, is woken through the queue by the send and
        // finishes: two polls, one wake. The sender parks on its timer,
        // which readies it without the queue: two polls, no wake.
        assert_eq!((polls() - polls0, wakes() - wakes0), (4, 1));
    }
}
