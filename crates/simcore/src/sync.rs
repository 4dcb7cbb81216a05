//! Simulation-aware synchronization primitives.
//!
//! These mirror the async primitives of a production runtime but operate
//! entirely inside one simulated process group: waking a waiter costs zero
//! simulated time (the caller models any real cost explicitly with
//! [`crate::Ctx::sleep`] or a [`crate::resource`]).
//!
//! All primitives are `!Send` (the simulator is single-threaded) and
//! cancellation-safe: dropping a pending wait future removes it from the
//! wait queue and, for [`Semaphore`], returns any permits that were granted
//! but never observed.
//!
//! A waiter is parked by its task id, never by the poll's
//! `Waker`: these primitives must be awaited by a simulation's tasks.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::Parked;

// ---------------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------------

/// Create a oneshot channel: a single value, sent once.
pub fn oneshot<T>() -> (OneSender<T>, OneReceiver<T>) {
    let st = Rc::new(RefCell::new(OneState {
        value: None,
        receiver: None,
        closed: false,
    }));
    (OneSender { st: st.clone() }, OneReceiver { st })
}

struct OneState<T> {
    value: Option<T>,
    receiver: Option<Parked>,
    closed: bool,
}

/// Sending half of a oneshot channel.
pub struct OneSender<T> {
    st: Rc<RefCell<OneState<T>>>,
}

/// Receiving half of a oneshot channel.
pub struct OneReceiver<T> {
    st: Rc<RefCell<OneState<T>>>,
}

/// Error returned when the sending half was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "oneshot sender dropped without sending")
    }
}
impl std::error::Error for RecvError {}

impl<T> OneSender<T> {
    /// Deliver the value, waking the receiver. Returns the value back if
    /// the receiver was dropped.
    pub fn send(self, value: T) -> Result<(), T> {
        let mut st = self.st.borrow_mut();
        if Rc::strong_count(&self.st) == 1 {
            return Err(value); // receiver gone
        }
        st.value = Some(value);
        if let Some(receiver) = st.receiver.take() {
            receiver.wake();
        }
        Ok(())
    }
}

impl<T> Drop for OneSender<T> {
    fn drop(&mut self) {
        let mut st = self.st.borrow_mut();
        st.closed = true;
        if let Some(receiver) = st.receiver.take() {
            receiver.wake();
        }
    }
}

impl<T> Future for OneReceiver<T> {
    type Output = Result<T, RecvError>;
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.st.borrow_mut();
        if let Some(v) = st.value.take() {
            return Poll::Ready(Ok(v));
        }
        if st.closed {
            return Poll::Ready(Err(RecvError));
        }
        st.receiver = Some(Parked::current());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// mpsc (unbounded)
// ---------------------------------------------------------------------------

/// Create an unbounded multi-producer single-consumer channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let st = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        receiver: None,
        senders: 1,
    }));
    (Sender { st: st.clone() }, Receiver { st })
}

struct ChanState<T> {
    queue: VecDeque<T>,
    receiver: Option<Parked>,
    senders: usize,
}

/// Sending half of an unbounded channel.
pub struct Sender<T> {
    st: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    st: Rc<RefCell<ChanState<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.st.borrow_mut().senders += 1;
        Sender {
            st: self.st.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.st.borrow_mut();
        st.senders -= 1;
        if st.senders == 0 {
            if let Some(receiver) = st.receiver.take() {
                receiver.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue a message, waking the receiver if it is parked.
    pub fn send(&self, value: T) {
        let mut st = self.st.borrow_mut();
        st.queue.push_back(value);
        if let Some(receiver) = st.receiver.take() {
            receiver.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// Await the next message. Resolves to `None` once every sender has
    /// been dropped and the queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.st.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.rx.st.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if st.senders == 0 {
            return Poll::Ready(None);
        }
        st.receiver = Some(Parked::current());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitState {
    Queued,
    Granted,
    Cancelled,
}

struct SemWaiter {
    amount: u64,
    state: WaitState,
    task: Parked,
}

struct SemState {
    permits: u64,
    waiters: VecDeque<Rc<RefCell<SemWaiter>>>,
    peak_queue: usize,
}

/// A counting semaphore with FIFO wakeups.
///
/// FIFO ordering means a large request at the head of the queue blocks
/// later small requests (no barging), which models fair device queues.
#[derive(Clone)]
pub struct Semaphore {
    st: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Create a semaphore holding `permits` initial permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            st: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                peak_queue: 0,
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.st.borrow().permits
    }

    /// Number of parked waiters.
    pub fn queue_len(&self) -> usize {
        self.st.borrow().waiters.len()
    }

    /// Largest queue length observed so far.
    pub fn peak_queue(&self) -> usize {
        self.st.borrow().peak_queue
    }

    /// Acquire `amount` permits; the returned guard releases them on drop.
    pub fn acquire(&self, amount: u64) -> Acquire {
        Acquire {
            sem: self.clone(),
            amount,
            waiter: None,
        }
    }

    /// Return `amount` permits and hand them to queued waiters in order.
    pub fn add_permits(&self, amount: u64) {
        let mut st = self.st.borrow_mut();
        let st = &mut *st;
        st.permits += amount;
        while let Some(front) = st.waiters.front() {
            let mut w = front.borrow_mut();
            match w.state {
                WaitState::Cancelled => {}
                WaitState::Queued if st.permits >= w.amount => {
                    st.permits -= w.amount;
                    w.state = WaitState::Granted;
                    w.task.wake();
                }
                _ => break,
            }
            drop(w);
            st.waiters.pop_front();
        }
    }
}

/// RAII permit returned by [`Semaphore::acquire`].
pub struct Permit {
    sem: Semaphore,
    amount: u64,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.add_permits(self.amount);
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    amount: u64,
    waiter: Option<Rc<RefCell<SemWaiter>>>,
}

impl Future for Acquire {
    type Output = Permit;
    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Permit> {
        let amount = self.amount;
        if let Some(waiter) = &self.waiter {
            let mut w = waiter.borrow_mut();
            match w.state {
                WaitState::Granted => {
                    w.state = WaitState::Cancelled; // consumed; Drop must not refund
                    drop(w);
                    self.waiter = None;
                    return Poll::Ready(Permit {
                        sem: self.sem.clone(),
                        amount,
                    });
                }
                WaitState::Queued => {
                    w.task = Parked::current();
                    return Poll::Pending;
                }
                WaitState::Cancelled => unreachable!("poll after cancellation"),
            }
        }
        let mut st = self.sem.st.borrow_mut();
        if st.waiters.is_empty() && st.permits >= amount {
            st.permits -= amount;
            drop(st);
            return Poll::Ready(Permit {
                sem: self.sem.clone(),
                amount,
            });
        }
        let waiter = Rc::new(RefCell::new(SemWaiter {
            amount,
            state: WaitState::Queued,
            task: Parked::current(),
        }));
        st.waiters.push_back(waiter.clone());
        let qlen = st.waiters.len();
        st.peak_queue = st.peak_queue.max(qlen);
        drop(st);
        self.waiter = Some(waiter);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(waiter) = self.waiter.take() {
            // The waiter stays queued, a tombstone, until an
            // `add_permits` pops it.
            let state = std::mem::replace(&mut waiter.borrow_mut().state, WaitState::Cancelled);
            // If permits were granted but the future was dropped before
            // observing them, refund so they are not leaked.
            if state == WaitState::Granted {
                self.sem.add_permits(self.amount);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

struct NotifyWaiter {
    notified: bool,
    task: Parked,
}

/// Edge-triggered notification: waiters park until a notify call.
#[derive(Clone, Default)]
pub struct Notify {
    st: Rc<RefCell<Vec<Rc<RefCell<NotifyWaiter>>>>>,
}

impl Notify {
    /// Create an empty notifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake every currently-parked waiter.
    pub fn notify_all(&self) {
        let waiters = std::mem::take(&mut *self.st.borrow_mut());
        for w in waiters {
            let mut w = w.borrow_mut();
            w.notified = true;
            w.task.wake();
        }
    }

    /// Park until the next notification.
    pub fn wait(&self) -> Wait {
        Wait {
            notify: self.clone(),
            waiter: None,
        }
    }
}

/// Future returned by [`Notify::wait`].
pub struct Wait {
    notify: Notify,
    waiter: Option<Rc<RefCell<NotifyWaiter>>>,
}

impl Future for Wait {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        match &self.waiter {
            Some(w) => {
                let mut w = w.borrow_mut();
                if w.notified {
                    Poll::Ready(())
                } else {
                    w.task = Parked::current();
                    Poll::Pending
                }
            }
            None => {
                let w = Rc::new(RefCell::new(NotifyWaiter {
                    notified: false,
                    task: Parked::current(),
                }));
                self.notify.st.borrow_mut().push(w.clone());
                self.waiter = Some(w);
                Poll::Pending
            }
        }
    }
}

impl Drop for Wait {
    fn drop(&mut self) {
        if let Some(w) = self.waiter.take() {
            // Leave the list, so the next notify neither wakes a task
            // that stopped waiting nor keeps this waiter.
            let mut st = self.notify.st.borrow_mut();
            st.retain(|x| !Rc::ptr_eq(x, &w));
        }
    }
}

// ---------------------------------------------------------------------------
// SharedLock
// ---------------------------------------------------------------------------

/// How a [`SharedLock`] is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Shared (read): compatible with other shared holders.
    Shared,
    /// Exclusive (write): compatible with nothing.
    Exclusive,
}

#[derive(Default)]
struct LockState {
    readers: u32,
    writer: bool,
    queue: Notify,
}

/// A shared/exclusive lock: any number of shared holders or one
/// exclusive one. A refused acquire parks until the next release, which
/// wakes every waiter, and tries again. The advisory `flock` of a local
/// filesystem and a distributed lock server's grants are both this lock.
#[derive(Clone, Default)]
pub struct SharedLock {
    st: Rc<RefCell<LockState>>,
}

impl SharedLock {
    /// Take the lock as `kind`, parking while an incompatible holder has
    /// it. Resolves to whether the acquire had to park.
    #[allow(clippy::manual_async_fn)] // each argument stored once
    pub fn acquire(&self, kind: LockKind) -> impl Future<Output = bool> + '_ {
        async move {
            let mut parked = false;
            loop {
                let wait = {
                    let mut st = self.st.borrow_mut();
                    let compatible = match kind {
                        LockKind::Shared => !st.writer,
                        LockKind::Exclusive => !st.writer && st.readers == 0,
                    };
                    if compatible {
                        match kind {
                            LockKind::Shared => st.readers += 1,
                            LockKind::Exclusive => st.writer = true,
                        }
                        return parked;
                    }
                    st.queue.wait()
                };
                parked = true;
                wait.await;
            }
        }
    }

    /// Give back a hold of `kind` and wake every waiter. Panics if no
    /// such hold is out.
    pub fn release(&self, kind: LockKind) {
        let mut st = self.st.borrow_mut();
        match kind {
            LockKind::Shared => {
                assert!(st.readers > 0, "shared release without a shared hold");
                st.readers -= 1;
            }
            LockKind::Exclusive => {
                assert!(st.writer, "exclusive release without the exclusive hold");
                st.writer = false;
            }
        }
        st.queue.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn oneshot_delivers_value() {
        let sim = Sim::new(0);
        let (tx, rx) = oneshot::<u32>();
        let ctx = sim.ctx();
        let h = sim.spawn(rx);
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(5)).await;
            tx.send(9).unwrap();
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Ok(9));
    }

    #[test]
    fn oneshot_sender_drop_errors() {
        let sim = Sim::new(0);
        let (tx, rx) = oneshot::<u32>();
        let h = sim.spawn(rx);
        drop(tx);
        sim.run();
        assert_eq!(h.try_take().unwrap(), Err(RecvError));
    }

    #[test]
    fn channel_fifo_and_close() {
        let sim = Sim::new(0);
        let (tx, mut rx) = channel::<u32>();
        let h = sim.spawn(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        let ctx = sim.ctx();
        sim.spawn(async move {
            for i in 0..5 {
                tx.send(i);
                ctx.sleep(SimDuration::from_nanos(1)).await;
            }
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn channel_multiple_senders() {
        let sim = Sim::new(0);
        let (tx, mut rx) = channel::<u32>();
        let tx2 = tx.clone();
        tx.send(1);
        tx2.send(2);
        drop(tx);
        drop(tx2);
        let h = sim.spawn(async move {
            let mut n = 0;
            while rx.recv().await.is_some() {
                n += 1;
            }
            n
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 2);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new(0);
        let sem = Semaphore::new(2);
        let active = Rc::new(Cell::new(0u32));
        let peak = Rc::new(Cell::new(0u32));
        for _ in 0..10 {
            let sem = sem.clone();
            let ctx = sim.ctx();
            let active = active.clone();
            let peak = peak.clone();
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
                active.set(active.get() + 1);
                peak.set(peak.get().max(active.get()));
                ctx.sleep(SimDuration::from_nanos(10)).await;
                active.set(active.get() - 1);
            });
        }
        assert!(sim.run().is_clean());
        assert_eq!(peak.get(), 2);
    }

    #[test]
    fn semaphore_fifo_order() {
        let sim = Sim::new(0);
        let sem = Semaphore::new(0);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..4u32 {
            let sem = sem.clone();
            let order = order.clone();
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
                order.borrow_mut().push(i);
            });
        }
        let sem2 = sem.clone();
        let ctx = sim.ctx();
        sim.spawn(async move {
            for _ in 0..4 {
                ctx.sleep(SimDuration::from_nanos(1)).await;
                sem2.add_permits(1);
            }
        });
        assert!(sim.run().is_clean());
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn semaphore_large_request_blocks_smaller_later_ones() {
        let sim = Sim::new(0);
        let sem = Semaphore::new(2);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        {
            // Occupy both permits briefly.
            let sem = sem.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                let _p = sem.acquire(2).await;
                ctx.sleep(SimDuration::from_nanos(10)).await;
            });
        }
        {
            let sem = sem.clone();
            let ctx = sim.ctx();
            let order = order.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(1)).await;
                let _p = sem.acquire(2).await; // queued first
                order.borrow_mut().push("big");
            });
        }
        {
            let sem = sem.clone();
            let ctx = sim.ctx();
            let order = order.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(2)).await;
                let _p = sem.acquire(1).await; // must not barge past "big"
                order.borrow_mut().push("small");
            });
        }
        assert!(sim.run().is_clean());
        assert_eq!(*order.borrow(), vec!["big", "small"]);
    }

    #[test]
    fn semaphore_cancelled_waiter_is_skipped() {
        let sim = Sim::new(0);
        let sem = Semaphore::new(0);
        let got: Rc<Cell<bool>> = Rc::default();
        // First waiter times out (future dropped).
        {
            let sem = sem.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                let acq = sem.acquire(1);
                // Poor man's timeout: race the acquire against a timer.
                let sleep = ctx.sleep(SimDuration::from_nanos(5));
                let mut acq = Box::pin(acq);
                let mut sleep = Box::pin(sleep);
                std::future::poll_fn(|cx| {
                    if Pin::new(&mut acq).poll(cx).is_ready() {
                        return Poll::Ready(());
                    }
                    Pin::new(&mut sleep).poll(cx)
                })
                .await;
            });
        }
        {
            let sem = sem.clone();
            let got = got.clone();
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
                got.set(true);
            });
        }
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(10)).await;
            sem.add_permits(1);
        });
        assert!(sim.run().is_clean());
        assert!(got.get());
    }

    /// An abandoned waiter (a timed-out RPC attempt) stays queued as a
    /// tombstone; grants skip it and still go in arrival order.
    #[test]
    fn a_dropped_queued_acquire_keeps_fifo_order() {
        let sim = Sim::new(0);
        let sem = Semaphore::new(0);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..3u32 {
            let (sem, order, ctx) = (sem.clone(), order.clone(), sim.ctx());
            sim.spawn(async move {
                let patience = SimDuration::from_nanos(if i == 1 { 5 } else { 1_000 });
                if let Ok(_permit) = crate::timeout(&ctx, patience, sem.acquire(1)).await {
                    order.borrow_mut().push(i);
                }
            });
        }
        sim.run_until(crate::SimTime::from_nanos(10));
        assert_eq!(sem.queue_len(), 3);
        // Granted from outside any task; the first waiter's permit, handed
        // back, goes past the tombstone to the third.
        sem.add_permits(1);
        assert!(sim.run().is_clean());
        assert_eq!(*order.borrow(), [0, 2]);
        assert_eq!(sem.queue_len(), 0);
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let sim = Sim::new(0);
        let n = Notify::new();
        let count = Rc::new(Cell::new(0));
        for _ in 0..3 {
            let n = n.clone();
            let count = count.clone();
            sim.spawn(async move {
                n.wait().await;
                count.set(count.get() + 1);
            });
        }
        let (ctx, n2, seen) = (sim.ctx(), n.clone(), count.clone());
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(1)).await;
            assert_eq!(seen.get(), 0);
            n2.notify_all();
        });
        assert!(sim.run().is_clean());
        assert_eq!(count.get(), 3);
    }
}
