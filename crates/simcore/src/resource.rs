//! Contended resources: FIFO servers and fair-share bandwidth links.
//!
//! [`FifoResource`] models a server pool with a fixed number of service
//! slots (e.g. metadata-server worker threads): requests queue FIFO and
//! each occupies a slot for its service time.
//!
//! [`SharedBandwidth`] models a processor-sharing link or device channel
//! (an NVMe write stream, a NIC port, an OST disk): all in-flight transfers
//! progress simultaneously at `rate / n`, so a transfer that overlaps
//! others slows down and speeds back up as the set of flows changes. This
//! is the standard fluid model for TCP-like and device-bandwidth fairness
//! and is what produces realistic contention curves in the experiments.
//! Internally it tracks per-cap-class virtual service clocks with
//! precomputed finish tags (O(log n) per join/completion) rather than
//! crediting every in-flight flow on every event; see DESIGN.md.
//!
//! [`Background`] is load on a pair of such links that no process
//! generates: a stream of bursts and idle gaps driven by the calendar,
//! as the "other jobs" on a shared file system's disks.
//!
//! # What a link costs
//!
//! One allocator call, for good: a [`SharedBandwidth`] is an `Rc` to one
//! block of 312 bytes — the `Ctx`, then the state — and a link that
//! carries one flow at a time on one cap class never asks for more. A
//! 16k-pair leaf/spine run builds 66,561 links and every modelled byte
//! crosses one (an NVMe channel) to five (a cross-leaf message) of
//! them, so the block is laid out for the two things that run pays:
//! resident bytes, and the first touch of a link the cache has not seen
//! since its last transfer.
//!
//! *What is inline.* The state holds its first cap class, that class's
//! first pending entry and its first flow slot in place, through one
//! container, `Inline`: element 0 in the block, the rest in a `Vec` that
//! is empty until a second element exists. The pending heap, the flow
//! slab's free list and the class lookup index it exactly as they would
//! index a `Vec`, so there is one algorithm and no lone-flow path. One
//! element and not two, because that is what the links are: NVMe
//! channels, NIC ports and leaf up/down links serve one cap class and
//! one flow at a time (at 16k pairs 50,177 links are used and three of
//! them ever hold two flows at once); a second inline element would add
//! 24–88 bytes to every block to spare those three a `Vec`.
//!
//! *When it spills.* A second concurrent flow spills the flow slab and —
//! if it is in the same class — that class's heap; a second cap class
//! spills the class list. Each spill is one amortised `Vec`, kept for the
//! life of the link, so a warm link allocates nothing however many
//! flows it holds (`tests/link_allocs.rs` pins all of this).
//!
//! *Why the timer targets the block.* The provisional "next completion"
//! event is retired and re-armed on every join and completion. The
//! calendar entry is a weak pointer to the link's own allocation
//! (`TimerTarget`); which class and tag it completes is read back from
//! the block when it fires. There is no closure beside the link to
//! allocate, to keep a reference count on, or to miss the cache on.
//! The link keeps the entry's slot and generation, not a handle, and
//! moves it with one call into the executor (`Ctx::rearm`), which
//! borrows the core once to retire the old entry and file the new one;
//! a link that empties only retires. The retired entry is a tombstone
//! that costs nothing more: the calendar drops it the first time it
//! would move it.
//!
//! *Who waits on a flow.* A flow slot names its waiter: a task, parked
//! by a [`TransferFut`], or a [`Background`] stream, which has no future.
//! A stream's burst costs the link what a task's transfer does — a join
//! and a completion — and the completion vacates the slot and hands the
//! stream its idle gap to arm, with no wake and no poll.
//!
//! *Order.* The state is `repr(C)`: scalars a join and a completion
//! read, the statistics they write, the first flow slot (all a poll
//! needs, with the cell's flag and the `Ctx`, inside the first three
//! cache lines), then the first class with its first pending entry. Two
//! of the three spill vectors come last.

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::{Rc, Weak};

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use rand::rngs::StdRng;
use rand::RngExt;

use crate::executor::{Ctx, TaskId, TimerTarget};
use crate::sync::Semaphore;
use crate::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------------
// FifoResource
// ---------------------------------------------------------------------------

/// A server pool with `slots` parallel servers and FIFO admission.
#[derive(Clone)]
pub struct FifoResource {
    ctx: Ctx,
    sem: Semaphore,
}

impl FifoResource {
    /// Create a resource with `slots` parallel service slots.
    pub fn new(ctx: &Ctx, slots: u64) -> Self {
        assert!(slots >= 1, "resource needs at least one slot");
        FifoResource {
            ctx: ctx.clone(),
            sem: Semaphore::new(slots),
        }
    }

    /// Queue for a slot, hold it for `service`, then release it.
    pub fn request(&self, service: SimDuration) -> impl Future<Output = ()> + '_ {
        async move {
            let _permit = self.sem.acquire(1).await;
            self.ctx.sleep(service).await;
        }
    }
}

// ---------------------------------------------------------------------------
// SharedBandwidth
// ---------------------------------------------------------------------------

/// Aggregate statistics for a [`SharedBandwidth`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BwStats {
    /// Bytes fully transferred.
    pub bytes_moved: u64,
    /// Transfers completed.
    pub flows_served: u64,
    /// Largest number of simultaneous flows observed.
    pub peak_concurrency: usize,
    /// Total time during which at least one flow was active.
    pub busy: SimDuration,
}

/// First element in place, the rest in a `Vec` that stays empty until a
/// second element exists: the storage behind a link's cap classes, each
/// class's pending heap and the flow slab (see "What a link costs").
/// Elements keep the indices a `Vec` would give them — `0` is `first`,
/// `i` is `rest[i - 1]` — and only the tail is ever removed, so `first`
/// is vacant only when the container is empty.
#[repr(C)]
struct Inline<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Inline<T> {
    const fn new() -> Self {
        Inline {
            first: None,
            rest: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.first.is_some() as usize + self.rest.len()
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn first(&self) -> Option<&T> {
        self.first.as_ref()
    }

    fn push(&mut self, value: T) {
        match self.first {
            None => self.first = Some(value),
            Some(_) => self.rest.push(value),
        }
    }

    fn pop(&mut self) -> Option<T> {
        self.rest.pop().or_else(|| self.first.take())
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(&self.rest)
    }
}

impl<T> std::ops::Index<usize> for Inline<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        match i.checked_sub(1) {
            None => self.first.as_ref().expect("index into an empty container"),
            Some(r) => &self.rest[r],
        }
    }
}

impl<T> std::ops::IndexMut<usize> for Inline<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        match i.checked_sub(1) {
            None => self.first.as_mut().expect("index into an empty container"),
            Some(r) => &mut self.rest[r],
        }
    }
}

/// A transfer waiting for its virtual finish tag to be reached.
///
/// Min-ordered by `(fin, seq)`; the monotonically assigned sequence
/// number both breaks ties deterministically (arrival order) and makes
/// the ordering total despite the float tag. `slot` indexes the flow
/// slab, which holds the waiter state; slots are reused, which is why
/// they cannot double as the heap tie-break.
#[derive(Clone, Copy)]
struct Pending {
    /// Virtual finish tag: the class service level `s` at which every
    /// byte of this flow has been delivered.
    fin: f64,
    seq: u64,
    slot: u32,
    /// Bytes added to [`BwStats::bytes_moved`] when this flow completes
    /// (zero for transfers started through the uncounted entry points).
    counted_bytes: u64,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.fin.total_cmp(&other.fin).is_eq() && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.fin
            .total_cmp(&other.fin)
            .then(self.seq.cmp(&other.seq))
    }
}

/// 4-ary implicit min-heap of pending flows, keyed by `(fin, seq)`.
///
/// Same rationale as the executor's calendar heap: a heavily shared link
/// (a spine tier under 100k+ concurrent pairs) holds thousands of
/// in-flight flows, and the 4-ary layout halves the levels — and so the
/// cache lines — touched per join and completion. Pop order is the total
/// `(fin, seq)` order (`seq` is unique), identical to any correct
/// priority queue, so heap arity cannot perturb completion order.
struct PendingHeap {
    v: Inline<Pending>,
}

impl PendingHeap {
    const D: usize = 4;

    const fn new() -> Self {
        PendingHeap { v: Inline::new() }
    }

    fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    fn peek(&self) -> Option<&Pending> {
        self.v.first()
    }

    fn push(&mut self, e: Pending) {
        self.v.push(e);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::D;
            let pa = self.v[parent];
            if pa.cmp(&e).is_le() {
                break;
            }
            self.v[i] = pa;
            i = parent;
        }
        self.v[i] = e;
    }

    fn pop(&mut self) -> Option<Pending> {
        // The tail takes the root's place and sinks.
        let e = self.v.pop()?;
        let n = self.v.len();
        if n == 0 {
            return Some(e);
        }
        let top = self.v[0];
        let mut i = 0;
        loop {
            let first = i * Self::D + 1;
            if first >= n {
                break;
            }
            let last = (first + Self::D).min(n);
            let mut min_j = first;
            for j in first + 1..last {
                if self.v[j].cmp(&self.v[min_j]).is_lt() {
                    min_j = j;
                }
            }
            if e.cmp(&self.v[min_j]).is_le() {
                break;
            }
            self.v[i] = self.v[min_j];
            i = min_j;
        }
        self.v[i] = e;
        Some(top)
    }
}

/// Sentinel for "flow free list empty".
const NO_FREE: u32 = u32::MAX;

/// Waiter bookkeeping for one in-flight transfer, held in a dense slab
/// indexed by the `u32` slot in [`Pending`] and [`TfState::Waiting`]: one
/// direct index on every poll and completion.
struct FlowSlot {
    /// Bumped when the slot is vacated; [`TfState::Waiting`] carries the
    /// generation it was issued so protocol bugs surface as panics
    /// instead of cross-flow wakes.
    gen: u32,
    state: FlowState,
}

enum FlowState {
    Vacant {
        next_free: u32,
    },
    /// Transfer modeled, future not yet parked (or re-polled).
    InFlight,
    /// Future polled and parked: wake this task on completion.
    Parked(TaskId),
    /// A [`Background`] stream's burst: on completion the slot is vacated
    /// and the stream arms its idle gap. No future, no task.
    Background(Weak<Background>),
    /// Completed before the future was (re)polled; the next poll (or the
    /// future's drop) vacates the slot.
    Finished,
    /// Future dropped while the modeled flow was still in flight; the
    /// flow still completes (and is counted), then the slot is vacated.
    Abandoned,
}

/// All flows sharing one resolved per-flow rate ceiling.
///
/// Every flow in a class progresses at the same instantaneous rate
/// `min(fair, cap)`, so the class's cumulative per-flow service `s`
/// (bytes delivered to each member since the class was created) is a
/// shared virtual clock: a flow joining at service level `s0` with `b`
/// bytes finishes exactly when `s` reaches `s0 + b`, and finish order
/// within the class is tag order. Real links here have only a handful of
/// distinct caps (uncapped, burst, sustained), so the per-event work is
/// O(#classes) + O(log n) heap maintenance instead of an O(n) credit
/// sweep over every in-flight flow.
#[repr(C)]
struct Class {
    /// Resolved per-flow ceiling (explicit cap or the link default).
    cap: Option<f64>,
    /// Cumulative per-flow service in bytes — the class virtual clock.
    s: f64,
    queue: PendingHeap,
}

/// A link's state. `repr(C)`: the order below is the order in memory
/// (see "What a link costs"; `hot_state_leads_the_block` pins it).
#[repr(C)]
struct BwInner {
    rate: f64, // bytes/sec aggregate
    last_update: SimTime,
    n_total: usize,
    /// Monotonic arrival counter, used only for the heap tie-break.
    next_seq: u64,
    flow_cap: Option<f64>,
    /// The calendar entry `(slot, generation)` of the provisional
    /// next-completion event; retired (cancelled) whenever the flow set
    /// changes instead of firing as a stale no-op.
    timer: Option<(u32, u32)>,
    /// `(class index, finish tag)` the armed timer will complete: the
    /// calendar entry carries only a pointer to the block, and
    /// [`TimerTarget::fire`] reads its parameters back from here.
    armed: (usize, f64),
    stats: BwStats,
    flow_free: u32,
    /// Dense per-flow waiter slab; see [`FlowSlot`].
    flows: Inline<FlowSlot>,
    /// Cap classes in creation order (deterministic iteration).
    classes: Inline<Class>,
}

impl BwInner {
    fn class_rate(&self, cap: Option<f64>) -> f64 {
        let fair = self.rate / self.n_total.max(1) as f64;
        match cap {
            Some(c) => fair.min(c),
            None => fair,
        }
    }

    /// Advance every class virtual clock across the interval since
    /// `last_update`. O(#classes), independent of the flow count.
    fn advance(&mut self, now: SimTime) {
        let elapsed = now - self.last_update;
        self.last_update = now;
        if elapsed == SimDuration::ZERO || self.n_total == 0 {
            return;
        }
        let dt = elapsed.as_secs_f64();
        for i in 0..self.classes.len() {
            if self.classes[i].queue.is_empty() {
                continue;
            }
            let r = self.class_rate(self.classes[i].cap);
            self.classes[i].s += dt * r;
        }
        self.stats.busy += elapsed;
    }

    /// Allocate a flow slot for `waiter`, returning `(slot, gen)`.
    fn alloc_flow(&mut self, waiter: FlowState) -> (u32, u32) {
        let slot = if self.flow_free != NO_FREE {
            let s = self.flow_free;
            let FlowState::Vacant { next_free } = self.flows[s as usize].state else {
                unreachable!("flow free list points at a live slot");
            };
            self.flow_free = next_free;
            self.flows[s as usize].state = waiter;
            s
        } else {
            let s = u32::try_from(self.flows.len()).expect("flow slab overflow");
            self.flows.push(FlowSlot {
                gen: 0,
                state: waiter,
            });
            s
        };
        (slot, self.flows[slot as usize].gen)
    }

    /// Vacate a flow slot and bump its generation.
    fn free_flow(&mut self, slot: u32) {
        let s = &mut self.flows[slot as usize];
        debug_assert!(!matches!(s.state, FlowState::Vacant { .. }));
        s.state = FlowState::Vacant {
            next_free: self.flow_free,
        };
        s.gen = s.gen.wrapping_add(1);
        self.flow_free = slot;
    }

    /// Index of the class for `cap`, creating it on first use.
    fn class_index(&mut self, cap: Option<f64>) -> usize {
        let key = cap.map(f64::to_bits);
        let found = |c: &Class| c.cap.map(f64::to_bits) == key;
        if let Some(i) = self.classes.iter().position(found) {
            return i;
        }
        self.classes.push(Class {
            cap,
            s: 0.0,
            queue: PendingHeap::new(),
        });
        self.classes.len() - 1
    }
}

/// The one allocation of a link: the handle to the simulation, then the
/// state. The calendar fires this block ([`TimerTarget`]).
#[repr(C)]
struct Link {
    ctx: Ctx,
    inner: RefCell<BwInner>,
}

/// A processor-sharing bandwidth resource.
///
/// All active transfers progress at `rate / n` bytes per second (optionally
/// capped per flow). The implementation tracks *virtual service time*
/// rather than per-flow residual bytes: each cap class keeps a cumulative
/// service clock and every flow a precomputed virtual finish tag, so a
/// join or completion costs O(log n) and advancing the clocks is O(1) in
/// the flow count. Completion happens on the exact finish tag — the event
/// is scheduled with ceiling rounding so the tag has been reached when it
/// fires — with no residual-byte epsilon.
#[derive(Clone)]
pub struct SharedBandwidth {
    link: Rc<Link>,
}

impl SharedBandwidth {
    /// Create a link with the given aggregate rate in bytes/second.
    pub fn new(ctx: &Ctx, rate_bytes_per_sec: f64) -> Self {
        assert!(
            rate_bytes_per_sec > 0.0 && rate_bytes_per_sec.is_finite(),
            "bandwidth must be positive and finite"
        );
        let inner = BwInner {
            rate: rate_bytes_per_sec,
            last_update: SimTime::ZERO,
            n_total: 0,
            next_seq: 0,
            flow_cap: None,
            timer: None,
            armed: (0, 0.0),
            stats: BwStats::default(),
            flow_free: NO_FREE,
            flows: Inline::new(),
            classes: Inline::new(),
        };
        SharedBandwidth {
            link: Rc::new(Link {
                ctx: ctx.clone(),
                inner: RefCell::new(inner),
            }),
        }
    }

    /// Additionally cap each individual flow at `cap` bytes/second.
    pub fn with_flow_cap(self, cap: f64) -> Self {
        assert!(cap > 0.0 && cap.is_finite());
        self.link.inner.borrow_mut().flow_cap = Some(cap);
        self
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> BwStats {
        self.link.inner.borrow().stats
    }

    /// Transfer `bytes` through the link, completing when the fair-share
    /// fluid model has delivered every byte.
    pub fn transfer(&self, bytes: u64) -> impl Future<Output = ()> + '_ {
        async move { self.transfer_capped(bytes, None).await }
    }

    /// Transfer with an explicit per-flow rate ceiling (e.g. a sustained
    /// client stream rate that is lower than the device's burst rate).
    pub fn transfer_capped(&self, bytes: u64, cap: Option<f64>) -> impl Future<Output = ()> + '_ {
        async move { self.start(bytes, cap, 0).await }
    }

    /// Join the flow set *now* and return a future resolving when the
    /// fluid model has delivered every byte. Splitting the synchronous
    /// join from the await lets a caller start several flows at the same
    /// instant (e.g. the tx and rx side of one message) and then await
    /// them in any order, with no helper tasks.
    pub fn transfer_capped_start(&self, bytes: u64, cap: Option<f64>) -> TransferFut {
        self.start(bytes, cap, 0)
    }

    /// [`SharedBandwidth::transfer_capped_start`] that also accounts the
    /// bytes in [`BwStats::bytes_moved`] once the flow completes.
    pub fn transfer_counted_start(&self, bytes: u64) -> TransferFut {
        self.start(bytes, None, bytes)
    }

    /// Transfer and account the byte count in [`BwStats::bytes_moved`].
    pub fn transfer_counted(&self, bytes: u64) -> impl Future<Output = ()> + '_ {
        async move { self.start(bytes, None, bytes).await }
    }

    /// [`SharedBandwidth::transfer_capped`] with byte accounting.
    pub fn transfer_capped_counted(
        &self,
        bytes: u64,
        cap: Option<f64>,
    ) -> impl Future<Output = ()> + '_ {
        async move { self.start(bytes, cap, bytes).await }
    }

    fn start(&self, bytes: u64, cap: Option<f64>, counted_bytes: u64) -> TransferFut {
        if bytes == 0 {
            self.link.inner.borrow_mut().stats.bytes_moved += counted_bytes;
            return TransferFut {
                state: TfState::Done,
            };
        }
        let (slot, gen) = self.join(bytes, cap, counted_bytes, FlowState::InFlight);
        TransferFut {
            state: TfState::Waiting {
                bw: self.clone(),
                slot,
                gen,
            },
        }
    }

    /// Join the flow set now with a flow of `bytes > 0` whose completion
    /// goes to `waiter`; returns its `(slot, gen)`.
    fn join(
        &self,
        bytes: u64,
        cap: Option<f64>,
        counted_bytes: u64,
        waiter: FlowState,
    ) -> (u32, u32) {
        let mut inner = self.link.inner.borrow_mut();
        let inner = &mut *inner;
        inner.advance(self.link.ctx.now());
        let (slot, gen) = inner.alloc_flow(waiter);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let ci = inner.class_index(cap.or(inner.flow_cap));
        let class = &mut inner.classes[ci];
        class.queue.push(Pending {
            fin: class.s + bytes as f64,
            seq,
            slot,
            counted_bytes,
        });
        inner.n_total += 1;
        inner.stats.peak_concurrency = inner.stats.peak_concurrency.max(inner.n_total);
        self.link.reschedule(inner);
        (slot, gen)
    }
}

impl Link {
    /// Complete every flow whose finish tag has been reached and move the
    /// timer to the next completion. Called after any flow-set change;
    /// the previously armed timer (if any) is retired in the same call
    /// that arms the next, so exactly one provisional completion event
    /// exists per link.
    fn reschedule(self: &Rc<Self>, inner: &mut BwInner) {
        let mut served = 0u64;
        let mut bytes_moved = 0u64;
        for ci in 0..inner.classes.len() {
            loop {
                let class = &mut inner.classes[ci];
                let Some(p) = class.queue.peek() else {
                    break;
                };
                if p.fin > class.s {
                    break;
                }
                let p = class.queue.pop().expect("peeked a pending flow");
                bytes_moved += p.counted_bytes;
                // Mark done first — the woken future's re-poll looks at
                // the slot state. Waking goes through the executor's one
                // wake queue, by task id, and touches neither the link
                // nor any allocation.
                let prev =
                    std::mem::replace(&mut inner.flows[p.slot as usize].state, FlowState::Finished);
                match prev {
                    FlowState::InFlight => {}
                    FlowState::Parked(task) => self.ctx.wake_task(task),
                    // Nobody polls a stream's burst: vacate here, then let
                    // the stream arm its gap. It touches no link, so the
                    // borrow held on this one is safe.
                    FlowState::Background(stream) => {
                        inner.free_flow(p.slot);
                        Background::burst_done(stream);
                    }
                    // Future already dropped: nobody will poll again,
                    // vacate the slot here.
                    FlowState::Abandoned => inner.free_flow(p.slot),
                    FlowState::Vacant { .. } | FlowState::Finished => {
                        unreachable!("completed flow in impossible state")
                    }
                }
                served += 1;
            }
        }
        inner.n_total -= served as usize;
        inner.stats.flows_served += served;
        inner.stats.bytes_moved += bytes_moved;
        if inner.n_total == 0 {
            inner.timer = self.ctx.rearm(inner.timer.take(), None);
            return;
        }
        // Earliest completion across classes: each class clock runs at
        // its own constant rate until the next flow-set change, so the
        // head tag's arrival time is exact.
        let mut best: Option<(f64, usize, f64)> = None;
        for (ci, class) in inner.classes.iter().enumerate() {
            let Some(p) = class.queue.peek() else {
                continue;
            };
            let secs = (p.fin - class.s) / inner.class_rate(class.cap);
            if best.is_none_or(|(b, _, _)| secs < b) {
                best = Some((secs, ci, p.fin));
            }
        }
        let (secs, ci, fin) = best.expect("flows in flight but no class has one");
        inner.armed = (ci, fin);
        // Weak: the calendar does not keep the link alive.
        let target: Weak<Link> = Rc::downgrade(self);
        let delay = SimDuration::from_secs_f64_ceil(secs);
        inner.timer = self.ctx.rearm(inner.timer.take(), Some((delay, target)));
    }
}

impl TimerTarget for Link {
    /// The head flow of the armed class has reached the armed tag.
    fn fire(self: Rc<Self>) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.timer = None;
        inner.advance(self.ctx.now());
        // The timer fired, so the flow set is unchanged since it was
        // armed and every class rate held constant: in exact arithmetic
        // the target clock has reached `fin` (the delay was
        // ceiling-rounded). Nudge past any float-ulp shortfall so the
        // completion pops on an exact tag comparison.
        let (ci, fin) = inner.armed;
        let class = &mut inner.classes[ci];
        if class.s < fin {
            class.s = fin;
        }
        self.reschedule(inner);
    }
}

enum TfState {
    Done,
    Waiting {
        bw: SharedBandwidth,
        slot: u32,
        gen: u32,
    },
}

/// Future for one in-flight transfer, returned by the
/// [`SharedBandwidth`] transfer methods.
///
/// Completion is delivered through the link's own flow slab (slot →
/// waiting task), not a per-transfer channel, so starting and finishing
/// a transfer allocates nothing beyond the heap entry. Dropping the
/// future abandons the wait; the modeled flow still runs to completion
/// and is counted in the link statistics.
pub struct TransferFut {
    state: TfState,
}

impl Future for TransferFut {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let TfState::Waiting { bw, slot, gen } = &self.state else {
            return Poll::Ready(());
        };
        let (slot, gen) = (*slot, *gen);
        let task = bw.link.ctx.current_task();
        let mut inner = bw.link.inner.borrow_mut();
        let fs = &mut inner.flows[slot as usize];
        // The slot is vacated only by this future's own poll/drop, so a
        // generation mismatch is a protocol bug, not a race.
        assert_eq!(fs.gen, gen, "transfer future polled a reused flow slot");
        if matches!(fs.state, FlowState::Finished) {
            inner.free_flow(slot);
            drop(inner);
            self.state = TfState::Done;
            Poll::Ready(())
        } else {
            fs.state = FlowState::Parked(task);
            drop(inner);
            // Woken by task id on completion, as every task is.
            let _ = cx;
            Poll::Pending
        }
    }
}

impl Drop for TransferFut {
    fn drop(&mut self) {
        if let TfState::Waiting { bw, slot, gen } = &self.state {
            let mut inner = bw.link.inner.borrow_mut();
            let fs = &mut inner.flows[*slot as usize];
            assert_eq!(fs.gen, *gen, "transfer future dropped a reused flow slot");
            match fs.state {
                // Completed but never re-polled: vacate now.
                FlowState::Finished => inner.free_flow(*slot),
                // Still in flight: the modeled flow runs to completion
                // and the completion path vacates the slot.
                FlowState::InFlight | FlowState::Parked(_) => {
                    fs.state = FlowState::Abandoned;
                }
                FlowState::Vacant { .. } | FlowState::Abandoned | FlowState::Background(_) => {
                    unreachable!("live transfer future over a dead slot")
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Background
// ---------------------------------------------------------------------------

/// Bytes of one background burst, drawn uniformly.
const BURST_BYTES: Range<u64> = 1_000_000..32_000_000;
/// Nanoseconds from a stream's start to its first burst, drawn uniformly:
/// streams started together do not burst together.
const LEAD_NS: Range<u64> = 0..20_000_000;
/// Factor on the duty-cycle idle gap, drawn uniformly per gap.
const JITTER: Range<f64> = 0.5..1.5;

/// One client stream of a background job on a pair of disk channels
/// (a write and a read link, as an OST has). After a drawn lead it moves
/// a burst of 1–32 MB through one of the two, chosen by a fair coin, then
/// idles for the burst's own duration scaled to the duty cycle
/// `intensity` and jittered 0.5–1.5×, and again, for as long as it lives.
/// The burst's duration is what the contended link gave it, so a stream
/// holds its duty cycle however busy the disk is. Its draws come in a
/// fixed order: the lead, then per burst the size, the coin and the
/// jitter.
///
/// A stream is a block, not a process. Its idle gap is a calendar entry
/// on the block itself (the timer path a link uses) and a burst's
/// completion comes straight from the link's flow slab, so a burst costs
/// one join, one completion and two calendar entries: no task poll, no
/// queued wake, no allocation. The calendar and the link hold the stream
/// weakly; it runs while its `Rc` lives.
pub struct Background {
    ctx: Ctx,
    write: SharedBandwidth,
    read: SharedBandwidth,
    intensity: f64,
    rng: RefCell<StdRng>,
    /// When the current burst joined its link.
    started: Cell<SimTime>,
}

impl Background {
    /// Start a stream on `write` and `read` at duty cycle `intensity`,
    /// in `(0, 1)`, drawing from `rng`: its lead is drawn now.
    pub fn start(
        ctx: &Ctx,
        write: &SharedBandwidth,
        read: &SharedBandwidth,
        intensity: f64,
        mut rng: StdRng,
    ) -> Rc<Background> {
        assert!(
            intensity > 0.0 && intensity < 1.0,
            "a background stream's duty cycle is in (0, 1), not {intensity}"
        );
        let lead = rng.random_range(LEAD_NS);
        let stream = Rc::new(Background {
            ctx: ctx.clone(),
            write: write.clone(),
            read: read.clone(),
            intensity,
            rng: RefCell::new(rng),
            started: Cell::new(SimTime::ZERO),
        });
        // A zero lead bursts at once and arms no entry, as the process's
        // zero-length sleep did.
        if lead == 0 {
            stream.burst();
        } else {
            let target: Weak<Background> = Rc::downgrade(&stream);
            ctx.fire_after(SimDuration::from_nanos(lead), target);
        }
        stream
    }

    /// Join one of the two links with the next burst.
    fn burst(self: &Rc<Self>) {
        let (bytes, write) = {
            let mut rng = self.rng.borrow_mut();
            (rng.random_range(BURST_BYTES), rng.random_bool(0.5))
        };
        self.started.set(self.ctx.now());
        let link = if write { &self.write } else { &self.read };
        link.join(
            bytes,
            None,
            bytes,
            FlowState::Background(Rc::downgrade(self)),
        );
    }

    /// The burst completed: arm the idle gap, sized from its duration.
    /// This runs inside the completing link's borrow. A zero gap would
    /// start the next burst here and borrow a link again; with
    /// `intensity < 1` and bursts of at least 1 MB it cannot occur.
    fn burst_done(stream: Weak<Background>) {
        // A dropped stream's last burst ends it.
        let Some(this) = stream.upgrade() else {
            return;
        };
        let busy = (this.ctx.now() - this.started.get()).as_secs_f64();
        let idle = busy * (1.0 - this.intensity) / this.intensity;
        let jitter: f64 = this.rng.borrow_mut().random_range(JITTER);
        let gap = SimDuration::from_secs_f64(idle * jitter);
        assert!(gap > SimDuration::ZERO, "background gap rounds to zero");
        this.ctx.fire_after(gap, stream);
    }
}

impl TimerTarget for Background {
    /// The idle gap (or the lead) is over.
    fn fire(self: Rc<Self>) {
        self.burst();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;

    fn secs(ns: u64) -> f64 {
        ns as f64 / 1e9
    }

    #[test]
    fn solo_transfer_takes_size_over_rate() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let bw = SharedBandwidth::new(&ctx, 1_000_000_000.0); // 1 GB/s
        let ctx2 = ctx.clone();
        let h = sim.spawn(async move {
            bw.transfer(500_000_000).await; // 0.5 GB -> 0.5 s
            ctx2.now()
        });
        sim.run();
        let t = h.try_take().unwrap();
        assert!((t.as_secs_f64() - 0.5).abs() < 1e-6, "took {t}");
    }

    #[test]
    fn two_equal_flows_each_take_twice_as_long() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let bw = SharedBandwidth::new(&ctx, 1_000_000_000.0);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let bw = bw.clone();
            let ctx = ctx.clone();
            handles.push(sim.spawn(async move {
                bw.transfer(500_000_000).await;
                ctx.now()
            }));
        }
        sim.run();
        for h in handles {
            let t = h.try_take().unwrap();
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "took {t}");
        }
    }

    #[test]
    fn staggered_arrival_shares_only_while_overlapping() {
        // Flow A (1000 bytes) starts at t=0 on a 1000 B/s link.
        // Flow B (1000 bytes) starts at t=0.5s.
        // 0.0-0.5: A alone, moves 500.
        // 0.5-1.5: both at 500 B/s, A finishes at 1.5 having moved 1000.
        // 1.5-2.0: B alone at 1000 B/s, finishes at 2.0.
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let bw = SharedBandwidth::new(&ctx, 1000.0);
        let a = {
            let bw = bw.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                bw.transfer(1000).await;
                ctx.now().as_secs_f64()
            })
        };
        let b = {
            let bw = bw.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(500)).await;
                bw.transfer(1000).await;
                ctx.now().as_secs_f64()
            })
        };
        sim.run();
        assert!((a.try_take().unwrap() - 1.5).abs() < 1e-6);
        assert!((b.try_take().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn flow_cap_limits_a_lone_flow() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let bw = SharedBandwidth::new(&ctx, 4000.0).with_flow_cap(1000.0);
        let ctx2 = ctx.clone();
        let h = sim.spawn(async move {
            bw.transfer(1000).await;
            ctx2.now().as_secs_f64()
        });
        sim.run();
        assert!((h.try_take().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let bw = SharedBandwidth::new(&ctx, 1000.0);
        let ctx2 = ctx.clone();
        let h = sim.spawn(async move {
            bw.transfer(0).await;
            ctx2.now()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn throughput_never_exceeds_rate() {
        // Many random flows; total bytes / makespan must be <= rate.
        let sim = Sim::new(3);
        let ctx = sim.ctx();
        let bw = SharedBandwidth::new(&ctx, 10_000.0);
        let total = Rc::new(Cell::new(0u64));
        let mut rng = ctx.rng(0);
        for _ in 0..50 {
            let bytes: u64 = rng.random_range(1..5_000);
            let start_ns: u64 = rng.random_range(0..1_000_000_000);
            let bw = bw.clone();
            let ctx = ctx.clone();
            let total = total.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(start_ns)).await;
                bw.transfer_counted(bytes).await;
                total.set(total.get() + bytes);
            });
        }
        let report = sim.run();
        assert!(report.is_clean());
        let rate_observed = total.get() as f64 / report.end_time.as_secs_f64();
        assert!(
            rate_observed <= 10_000.0 * (1.0 + 1e-6),
            "observed {rate_observed}"
        );
        assert_eq!(bw.stats().flows_served, 50);
        assert_eq!(bw.stats().bytes_moved, total.get());
    }

    #[test]
    fn busy_time_counts_only_active_intervals() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let bw = SharedBandwidth::new(&ctx, 1000.0);
        {
            let bw = bw.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                bw.transfer(500).await; // 0.5 s busy
                ctx.sleep(SimDuration::from_secs(2)).await; // idle
                bw.transfer(500).await; // 0.5 s busy
            });
        }
        sim.run();
        let busy = bw.stats().busy.as_secs_f64();
        assert!((busy - 1.0).abs() < 1e-6, "busy {busy}");
    }

    #[test]
    fn fifo_resource_serializes_beyond_slots() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let res = FifoResource::new(&ctx, 2);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let res = res.clone();
            let ctx = ctx.clone();
            handles.push(sim.spawn(async move {
                res.request(SimDuration::from_secs(1)).await;
                ctx.now().as_secs_f64()
            }));
        }
        sim.run();
        let mut ends: Vec<f64> = handles.into_iter().map(|h| h.try_take().unwrap()).collect();
        ends.sort_by(f64::total_cmp);
        assert_eq!(ends, vec![1.0, 1.0, 2.0, 2.0]);
    }

    /// The order "What a link costs" describes, in bytes from the start
    /// of the allocation: `Rc`'s two counts, the `Ctx`, the cell's flag,
    /// then the state in declaration order.
    #[test]
    fn hot_state_leads_the_block() {
        use std::mem::{offset_of, size_of};
        const RC_COUNTS: usize = 16;
        assert_eq!(offset_of!(Link, ctx), 0);
        let flag = size_of::<RefCell<BwInner>>() - size_of::<BwInner>();
        let state = RC_COUNTS + offset_of!(Link, inner) + flag;
        assert_eq!(state, 32);
        // A poll reads the flag, the `Ctx` and the first flow slot.
        let first_flow = state + offset_of!(BwInner, flows) + offset_of!(Inline<FlowSlot>, first);
        assert!(first_flow + size_of::<Option<FlowSlot>>() <= 3 * 64);
        // A join, a completion and the timer read on to the first class
        // and its first pending entry, and no further ...
        let first_pending = first_flow
            + (offset_of!(BwInner, classes) - offset_of!(BwInner, flows))
            + offset_of!(Class, queue)
            + offset_of!(Inline<Pending>, first);
        let hot_end = first_pending + size_of::<Option<Pending>>();
        assert!(hot_end <= 264, "hot state ends at byte {hot_end}");
        // ... because behind it lie only two of the three spill vectors.
        let block = RC_COUNTS + size_of::<Link>();
        assert_eq!(block - hot_end, 2 * size_of::<Vec<Pending>>());
        assert_eq!(block, 312);
    }

    #[test]
    fn proptest_secs_helper() {
        assert_eq!(secs(1_500_000_000), 1.5);
    }
}
