//! The discrete-event executor.
//!
//! A [`Sim`] owns an event calendar (a time-ordered priority queue) and a set
//! of *processes*: ordinary Rust futures polled by a single-threaded
//! executor whose notion of time is the simulation clock. A process blocks
//! by awaiting [`Ctx::sleep`] or any of the synchronization primitives in
//! [`crate::sync`]; the executor advances the clock to the next scheduled
//! event whenever every process is blocked.
//!
//! The calendar is one radix heap over the clock, which never runs
//! backwards; events at equal timestamps are processed in insertion
//! order, which makes runs fully deterministic for a fixed seed and spawn
//! order. The executor is one thread: parallelism lives one level up,
//! over independent runs (`mdflow::campaign`). DESIGN.md §12 has what was
//! measured against both and rejected.
//!
//! # What a spawn costs
//!
//! One allocator call, beside the growth of the executor's own slab and
//! queues: a `TaskBlock`, an `Rc` allocation
//! that holds where the process's output goes (the join state of its
//! [`JoinHandle`], or its place in a [`JoinSet`]) and then the process
//! itself. The executor and the handle share the block.
//!
//! The process lies in the block once and is polled where it lies. The
//! wrapper is hand-written, not `async move { let v = fut.await; .. }`:
//! rustc lays that block out as the captured `fut` *plus* the awaited
//! `fut`, two full copies of the process, which at 16k pairs made the
//! two role futures of a pair 10 KB instead of 5 and the task boxes a
//! third of peak RSS. The same holds for every detached per-frame task
//! (ack publishers, KVS request handlers), so the wrapper also halves
//! what a `spawn` writes. The price is one `unsafe` pin projection,
//! argued where it is made.
//!
//! What makes one block safe is that no handle outlives its process by
//! long. The process is dropped in place the moment the executor lets go
//! of the task, but the block's memory stays until the last reference
//! does, so a handle held to the end of a run keeps a finished future's
//! bytes resident (a runner that parked 32,768 role handles: 67 MB,
//! `peak_rss_mb` +21 % at 16k pairs; EXPERIMENTS.md, PR 17). The
//! runner's roles therefore finish into a [`JoinSet`] — nothing but the
//! executor refers to a member's block, so it is freed at completion —
//! and every other handle in the workspace is either dropped at spawn
//! (detached tasks: the block goes when the task does) or awaited at
//! once (`pfs` stripe I/O). A caller that must hold many handles for
//! long should use a set.
//!
//! A spawn makes no second call for a waker, because nothing wakes a
//! task through one: a poll's `Context` carries [`Waker::noop`]. A
//! primitive of this crate that parks a task records the task's id and a
//! weak handle to the running simulation (`Parked`), as [`Sleep`] and a
//! link's transfer do, and a wake pushes that id onto the core's wake
//! queue, a plain `Vec`. A wake that outlives its task dies at the task
//! slot's generation check, so it cannot reach the slot's next tenant; a
//! wake that outlives the simulation does nothing. A future that stores
//! the std `Waker` is never woken: this crate's primitives are the only
//! park points.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::{SimDuration, SimTime};

/// Dense task handle: the low 32 bits index the task slab, the high 32
/// bits carry the slot's generation at spawn time. Packing both into one
/// word keeps wake queues and calendar entries exactly as small as the
/// old sequential-id scheme while making stale wakes (a wake delivered
/// after the task completed and its slot was reused) recognizably dead:
/// completion bumps the slot generation, so a stale id fails the
/// generation check exactly where the old scheme missed the task map.
pub(crate) type TaskId = u64;

#[inline]
const fn task_slot(id: TaskId) -> u32 {
    id as u32
}

#[inline]
const fn task_gen(id: TaskId) -> u32 {
    (id >> 32) as u32
}

#[inline]
const fn task_id(slot: u32, gen: u32) -> TaskId {
    ((gen as u64) << 32) | slot as u64
}

/// What the calendar fires when an event's timestamp is reached.
enum EventKind {
    /// Ready a process by task id (a [`Sleep`] expired): the most common
    /// calendar entry by far goes straight onto the ready queue, not
    /// through the wake queue, and is not counted as a wake.
    WakeTask(TaskId),
    /// Run an arbitrary callback, boxed per arm ([`Ctx::call_after`]).
    Call(Box<dyn FnOnce()>),
    /// Fire a resource's own block ([`Ctx::fire_after`]): a weak pointer
    /// to the allocation that already holds the resource's state, so the
    /// provisional "next completion" timer a link retires and re-arms on
    /// every flow-set change costs no box per arm and no closure beside
    /// the link. An entry that outlives its resource fires into nothing.
    Fire(Weak<dyn TimerTarget>),
}

/// A resource block the calendar can fire; what the timer is for is
/// read out of the block's own state.
pub(crate) trait TimerTarget {
    /// The armed instant was reached.
    fn fire(self: Rc<Self>);
}

/// A calendar entry: 16 bytes and `Copy`. The payload lives in the slot
/// slab, so an entry can be cancelled in O(1) without digging through
/// the calendar: cancellation vacates the slot and bumps its generation,
/// turning the entry into a tombstone that is skipped when popped (and
/// swept early if tombstones pile up).
#[derive(Copy, Clone)]
struct Event {
    at: SimTime,
    slot: u32,
    gen: u32,
}

/// The event calendar: a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
/// 1990) over the monotone clock. An entry sits in the bucket of the
/// highest bit in which its `at` differs from `last`; a pop that finds
/// `due` spent takes the lowest non-empty bucket, sets `last` to its
/// least `at` and moves its entries, in order, into `due` and the
/// buckets below — at most once per bit of the key. Entries at one
/// instant always share a bucket, every bucket is a FIFO and every move
/// an in-order pass, so they pop in insertion order, the determinism
/// contract, without a sequence number.
struct Calendar {
    /// Every entry is at or after `last`.
    last: u64,
    /// Entries at `last`, in insertion order; the first `head` are popped.
    due: Vec<Event>,
    head: usize,
    /// `buckets[i]`: entries whose `at` first differs from `last` in bit `i`.
    buckets: [Vec<Event>; 64],
    /// Bit `i` set ⇔ `buckets[i]` is non-empty.
    mask: u64,
    /// Buffers a redistribution emptied, for the next bucket that fills:
    /// without them each bucket index would allocate on first use.
    spare: Vec<Vec<Event>>,
    /// Entries held, live and tombstones.
    len: usize,
    /// Entries moved between buckets (redistributions and rebases).
    moved: u64,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            last: 0,
            due: Vec::new(),
            head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            mask: 0,
            spare: Vec::new(),
            len: 0,
            moved: 0,
        }
    }
}

impl Calendar {
    fn push(&mut self, e: Event) {
        if e.at.nanos() < self.last {
            self.rebase(e.at.nanos());
        }
        self.place(e);
        self.len += 1;
    }

    /// File `e` relative to `last`, behind everything already there.
    #[inline]
    fn place(&mut self, e: Event) {
        let x = e.at.nanos() ^ self.last;
        if x == 0 {
            self.due.push(e);
            return;
        }
        let i = 63 - x.leading_zeros() as usize;
        let bucket = &mut self.buckets[i];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push(e);
        self.mask |= 1 << i;
    }

    /// The next entry in `(at, insertion)` order, left in place.
    fn peek(&mut self) -> Option<Event> {
        if self.head == self.due.len() && self.mask != 0 {
            self.redistribute();
        }
        self.due.get(self.head).copied()
    }

    fn pop(&mut self) -> Option<Event> {
        let e = self.peek()?;
        self.head += 1;
        self.len -= 1;
        if self.head == self.due.len() {
            self.due.clear();
            self.head = 0;
        }
        Some(e)
    }

    /// `due` is spent: empty the lowest non-empty bucket into `due` and the
    /// buckets below it, relative to its least `at`. Out of line, so `peek`
    /// inlines and reads a fresh entry by field: copied whole, it stalls on
    /// store forwarding.
    #[inline(never)]
    fn redistribute(&mut self) {
        let i = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        let mut from = std::mem::take(&mut self.buckets[i]);
        let least = from.iter().map(|e| e.at.nanos()).min();
        self.last = least.expect("a marked bucket is not empty");
        for &e in &from {
            self.place(e);
        }
        self.moved += from.len() as u64;
        from.clear();
        self.spare.push(from);
    }

    /// Cold path: a key below `last`, which only a push after a
    /// `run_until` stopped at its deadline can bring (the stop had
    /// already advanced `last` to the next entry). Re-place every entry
    /// relative to `key`, each bucket in order, so ties keep theirs.
    #[cold]
    fn rebase(&mut self, key: u64) {
        let mut all = std::mem::take(&mut self.due);
        all.drain(..self.head);
        self.head = 0;
        while self.mask != 0 {
            let i = self.mask.trailing_zeros() as usize;
            self.mask &= self.mask - 1;
            all.append(&mut self.buckets[i]);
        }
        self.last = key;
        for &e in &all {
            self.place(e);
        }
        self.moved += all.len() as u64;
        all.clear();
        self.due = all;
    }

    /// Keep the entries `live` accepts, each bucket in order.
    fn retain(&mut self, live: impl Fn(&Event) -> bool) {
        self.due.drain(..self.head);
        self.head = 0;
        self.due.retain(&live);
        self.len = self.due.len();
        let mut mask = self.mask;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.buckets[i].retain(&live);
            self.len += self.buckets[i].len();
            if self.buckets[i].is_empty() {
                self.mask &= !(1 << i);
            }
        }
    }

    /// Empty, as a new calendar, with every buffer's capacity kept.
    fn clear(&mut self) {
        self.due.clear();
        self.buckets.iter_mut().for_each(Vec::clear);
        (self.last, self.head, self.mask, self.len, self.moved) = (0, 0, 0, 0, 0);
    }
}

/// Carries the seed to [`Sim::with_config`]. Kept, with its two inert
/// setters, only because the frozen `perf/` probe
/// `cluster_fabric_leafspine` builds its simulation through it
/// (DESIGN.md §12 lists the frozen names); everything else calls
/// [`Sim::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// RNG seed; determines every [`Ctx::rng`] stream.
    pub seed: u64,
}

impl SimConfig {
    /// The configuration [`Sim::new`] uses: `seed` and nothing else.
    pub fn new(seed: u64) -> SimConfig {
        SimConfig { seed }
    }

    /// Frozen for `perf/`: takes the argument and ignores it — there is one calendar.
    pub fn with_shards(self, _shards: u32) -> SimConfig {
        self
    }

    /// Frozen for `perf/`: takes the argument and ignores it (a no-op since PR 15).
    pub fn with_lookahead(self, _lookahead: SimDuration) -> SimConfig {
        self
    }
}

thread_local! {
    /// The simulation whose run loop is on this thread, if any: where
    /// [`Parked::current`] finds the task being polled.
    static RUNNING: RefCell<Weak<RefCell<Core>>> = const { RefCell::new(Weak::new()) };
}

/// A parked task, by id, in the simulation that polled it: what a
/// primitive of this crate keeps to wake a waiter.
pub(crate) struct Parked {
    core: Weak<RefCell<Core>>,
    task: TaskId,
}

impl Parked {
    /// The task being polled now. Panics outside a simulation's run.
    pub(crate) fn current() -> Parked {
        RUNNING.with_borrow(|core| {
            let sim = core.upgrade();
            let sim = sim.expect("simcore primitive polled outside a simulation's run");
            let task = sim.borrow().current;
            Parked {
                core: core.clone(),
                task,
            }
        })
    }

    pub(crate) fn wake(&self) {
        wake(&self.core, self.task);
    }
}

/// Queue a wake for `task`, to be readied at the next dispatch. A wake
/// for a finished task dies at the slot's generation check; one for a
/// simulation that is gone does nothing.
fn wake(core: &Weak<RefCell<Core>>, task: TaskId) {
    crate::work::count_wake();
    if let Some(core) = core.upgrade() {
        core.borrow_mut().woken.push(task);
    }
}

/// A spawned process: the executor's reference to its [`TaskBlock`].
struct Task {
    block: Rc<dyn Runnable>,
}

impl Drop for Task {
    /// The executor is done with the process — it completed, or the
    /// simulation is being torn down around it: what it captured goes
    /// now, whoever still holds a [`JoinHandle`] to the block.
    fn drop(&mut self) {
        self.block.drop_process();
    }
}

/// Slab slot holding one spawned process. Vacated (and its generation
/// bumped) when the process completes, so wakes carrying the old id are
/// skipped instead of hitting the slot's next tenant.
struct TaskSlot {
    gen: u32,
    state: TaskState,
}

enum TaskState {
    Vacant {
        next_free: u32,
    },
    /// Parked between polls (or queued in `ready`).
    Parked(Task),
    /// Taken out by the dispatch loop for the duration of one poll.
    Polling,
}

/// Slab slot holding the payload of one scheduled calendar entry.
struct Slot {
    /// Bumped every time the slot is disarmed (fired or cancelled), so a
    /// calendar entry carrying a stale generation is recognizably dead
    /// even if the slot has since been reused.
    gen: u32,
    state: SlotState,
}

enum SlotState {
    Vacant { next_free: u32 },
    Armed(EventKind),
}

/// Sentinel for "free list empty".
const NO_FREE: u32 = u32::MAX;

/// Tombstones are swept eagerly only once at least this many have piled
/// up; below the floor, lazy deletion on pop is cheaper than a sweep.
const COMPACT_FLOOR: usize = 64;

/// Snapshot of event-calendar internals, for health checks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStats {
    /// Live (armed, unexpired) entries in the calendar.
    pub pending: usize,
    /// Cancelled entries whose tombstones have not yet been popped or
    /// compacted away. Bounded by `max(pending, compaction floor)`.
    pub tombstones: usize,
    /// Number of tombstone-triggered sweeps so far.
    pub compactions: u64,
    /// Entries moved between calendar buckets so far: the calendar's
    /// work beyond one push and one pop per entry. Deterministic.
    pub moved: u64,
}

pub(crate) struct Core {
    now: SimTime,
    /// Live entries and tombstones.
    calendar: Calendar,
    slots: Vec<Slot>,
    free_head: u32,
    tombstones: usize,
    compactions: u64,
    tasks: Vec<TaskSlot>,
    task_free: u32,
    /// Spawned-but-not-completed processes (what `tasks.len()` was when
    /// tasks lived in a map keyed by a never-reused id).
    live_tasks: usize,
    ready: VecDeque<TaskId>,
    /// Tasks woken since the last dispatch, in wake order. They join
    /// `ready` at the next dispatch, behind whatever was spawned or
    /// readied by a timer before it.
    woken: Vec<TaskId>,
    /// Task currently being polled; only meaningful during dispatch.
    current: TaskId,
    seed: u64,
    events_processed: u64,
    tasks_spawned: u64,
}

impl Core {
    fn push_event(&mut self, at: SimTime, kind: EventKind) -> (u32, u32) {
        let slot = if self.free_head != NO_FREE {
            let s = self.free_head;
            let SlotState::Vacant { next_free } = self.slots[s as usize].state else {
                unreachable!("free list points at an armed slot");
            };
            self.free_head = next_free;
            self.slots[s as usize].state = SlotState::Armed(kind);
            s
        } else {
            let s = u32::try_from(self.slots.len()).expect("calendar slab overflow");
            self.slots.push(Slot {
                gen: 0,
                state: SlotState::Armed(kind),
            });
            s
        };
        let gen = self.slots[slot as usize].gen;
        self.calendar.push(Event { at, slot, gen });
        (slot, gen)
    }

    /// Disarm `(slot, gen)` and return its payload (so the caller can drop
    /// it outside the core borrow). No-op `None` if the entry already fired
    /// or was already cancelled. The calendar entry becomes a tombstone.
    fn cancel_entry(&mut self, slot: u32, gen: u32) -> Option<EventKind> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.gen != gen || matches!(s.state, SlotState::Vacant { .. }) {
            return None;
        }
        let state = std::mem::replace(
            &mut s.state,
            SlotState::Vacant {
                next_free: self.free_head,
            },
        );
        s.gen = s.gen.wrapping_add(1);
        self.free_head = slot;
        self.tombstones += 1;
        self.maybe_compact();
        match state {
            SlotState::Armed(kind) => Some(kind),
            SlotState::Vacant { .. } => unreachable!(),
        }
    }

    /// Take the payload of a live entry that just popped off the calendar.
    fn take_fired(&mut self, slot: u32) -> EventKind {
        let s = &mut self.slots[slot as usize];
        let state = std::mem::replace(
            &mut s.state,
            SlotState::Vacant {
                next_free: self.free_head,
            },
        );
        s.gen = s.gen.wrapping_add(1);
        self.free_head = slot;
        match state {
            SlotState::Armed(kind) => kind,
            SlotState::Vacant { .. } => unreachable!("fired event points at a vacant slot"),
        }
    }

    fn is_stale(&self, e: &Event) -> bool {
        self.slots[e.slot as usize].gen != e.gen
    }

    /// Discard tombstones at the head of the calendar and return the
    /// timestamp of the next *live* entry, or `None` when the calendar
    /// is dry. Discarded tombstones neither advance the clock nor count
    /// as processed events.
    fn next_live(&mut self) -> Option<SimTime> {
        loop {
            let e = self.calendar.peek()?;
            if !self.is_stale(&e) {
                return Some(e.at);
            }
            self.calendar.pop();
            self.tombstones -= 1;
        }
    }

    /// Sweep the tombstones out of the calendar once they outnumber live
    /// entries (and exceed the floor). Keeps wasted capacity — and
    /// pop-path skip work — proportional to the live entry count.
    fn maybe_compact(&mut self) {
        let live = self.calendar.len - self.tombstones;
        if self.tombstones >= COMPACT_FLOOR && self.tombstones > live {
            let (slots, calendar) = (&self.slots, &mut self.calendar);
            calendar.retain(|e| slots[e.slot as usize].gen == e.gen);
            self.tombstones = 0;
            self.compactions += 1;
        }
    }

    /// Allocate a task slot, returning the packed id. The generation is
    /// whatever the slot carries (0 for fresh slots, bumped per reuse).
    fn insert_task(&mut self, block: Rc<dyn Runnable>) -> TaskId {
        let slot = if self.task_free != NO_FREE {
            let s = self.task_free;
            let TaskState::Vacant { next_free } = self.tasks[s as usize].state else {
                unreachable!("task free list points at an occupied slot");
            };
            self.task_free = next_free;
            s
        } else {
            let s = u32::try_from(self.tasks.len()).expect("task slab overflow");
            self.tasks.push(TaskSlot {
                gen: 0,
                state: TaskState::Vacant { next_free: NO_FREE },
            });
            s
        };
        let s = &mut self.tasks[slot as usize];
        let id = task_id(slot, s.gen);
        s.state = TaskState::Parked(Task { block });
        self.live_tasks += 1;
        self.tasks_spawned += 1;
        id
    }

    /// Take the task out for polling. `None` for stale ids (the task
    /// completed — possibly long ago, with the slot since reused) and
    /// for duplicate wakes of an id already consumed this dispatch.
    fn take_task(&mut self, id: TaskId) -> Option<Task> {
        let s = self.tasks.get_mut(task_slot(id) as usize)?;
        if s.gen != task_gen(id) {
            return None;
        }
        match std::mem::replace(&mut s.state, TaskState::Polling) {
            TaskState::Parked(t) => Some(t),
            other => {
                s.state = other;
                None
            }
        }
    }

    /// Append the tasks woken since the last dispatch to `ready`.
    fn drain_wakes(&mut self) {
        self.ready.extend(self.woken.drain(..));
    }

    /// Re-park a task that returned `Pending`.
    fn park_task(&mut self, id: TaskId, task: Task) {
        let s = &mut self.tasks[task_slot(id) as usize];
        debug_assert!(matches!(s.state, TaskState::Polling));
        s.state = TaskState::Parked(task);
    }

    /// Retire a completed task: vacate the slot and bump its generation
    /// so in-flight wakes for this id die at the generation check.
    fn finish_task(&mut self, id: TaskId) {
        let slot = task_slot(id);
        let s = &mut self.tasks[slot as usize];
        debug_assert!(matches!(s.state, TaskState::Polling));
        s.state = TaskState::Vacant {
            next_free: self.task_free,
        };
        s.gen = s.gen.wrapping_add(1);
        self.task_free = slot;
        self.live_tasks -= 1;
    }

    fn calendar_stats(&self) -> CalendarStats {
        CalendarStats {
            pending: self.calendar.len - self.tombstones,
            tombstones: self.tombstones,
            compactions: self.compactions,
            moved: self.calendar.moved,
        }
    }
}

/// Summary of a completed [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time at which the run stopped.
    pub end_time: SimTime,
    /// Number of calendar events processed.
    pub events_processed: u64,
    /// Total number of processes spawned over the run.
    pub tasks_spawned: u64,
    /// Processes still blocked when the calendar ran dry. Non-zero means
    /// the simulation deadlocked (a process awaits something that can no
    /// longer happen).
    pub deadlocked_tasks: usize,
}

impl RunReport {
    /// True if every spawned process ran to completion.
    pub fn is_clean(&self) -> bool {
        self.deadlocked_tasks == 0
    }
}

/// A discrete-event simulation instance.
///
/// ```
/// use simcore::{Sim, SimDuration};
///
/// let sim = Sim::new(42);
/// let ctx = sim.ctx();
/// sim.spawn(async move {
///     ctx.sleep(SimDuration::from_millis(5)).await;
///     assert_eq!(ctx.now().nanos(), 5_000_000);
/// });
/// let report = sim.run();
/// assert!(report.is_clean());
/// assert_eq!(report.end_time.nanos(), 5_000_000);
/// ```
pub struct Sim {
    core: Rc<RefCell<Core>>,
}

impl Sim {
    /// Create a simulation with the given RNG seed. The seed determines
    /// every stream returned by [`Ctx::rng`], so identical programs with
    /// identical seeds produce identical trajectories.
    pub fn new(seed: u64) -> Self {
        Sim::with_arena(seed, SimArena::new())
    }

    /// Frozen for `perf/`: [`Sim::new`] with the seed `cfg` carries.
    pub fn with_config(cfg: SimConfig) -> Self {
        Sim::new(cfg.seed)
    }

    /// A cheap, clonable handle for use inside processes.
    pub fn ctx(&self) -> Ctx {
        Ctx {
            core: Rc::downgrade(&self.core),
        }
    }

    /// Spawn a root process. Equivalent to `self.ctx().spawn(fut)`.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.ctx().spawn(fut)
    }

    /// Run until the calendar is empty or `deadline` is reached.
    pub fn run_until(&self, deadline: SimTime) -> RunReport {
        self.run_loop(Some(deadline))
    }

    /// Run until every event has fired and every runnable process has been
    /// polled to completion.
    pub fn run(&self) -> RunReport {
        self.run_loop(None)
    }

    /// Snapshot of event-calendar internals (live entries, tombstones,
    /// compactions, moves). Intended for health checks: after any amount of timer
    /// churn, `tombstones` must stay within the compaction bound.
    pub fn calendar_stats(&self) -> CalendarStats {
        self.core.borrow().calendar_stats()
    }

    fn run_loop(&self, deadline: Option<SimTime>) -> RunReport {
        let outer = RUNNING.replace(Rc::downgrade(&self.core));
        // Nothing wakes a task through the `Context` (module docs).
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            // Dispatch every runnable process at the current instant.
            loop {
                let (id, task, now) = {
                    let mut core = self.core.borrow_mut();
                    core.drain_wakes();
                    let Some(id) = core.ready.pop_front() else {
                        break;
                    };
                    // A task may be woken multiple times or woken after
                    // completion; in both cases the slab take misses
                    // (duplicate wake this dispatch, or stale generation).
                    match core.take_task(id) {
                        Some(t) => {
                            core.current = id;
                            (id, t, core.now)
                        }
                        None => continue,
                    }
                };
                // The clock cannot move during a poll, so `now` is the
                // completion instant.
                crate::work::count_poll();
                match task.block.poll(&mut cx, now) {
                    Poll::Ready(()) => {
                        // `task` drops at scope end, outside the core
                        // borrow, and takes the finished process with it.
                        self.core.borrow_mut().finish_task(id);
                    }
                    Poll::Pending => {
                        self.core.borrow_mut().park_task(id, task);
                    }
                }
            }

            // All processes blocked: advance the clock to the next live
            // event. Cancelled entries are skimmed by `next_live` — they
            // neither advance the clock nor count as processed events.
            let ev = {
                let mut core = self.core.borrow_mut();
                let core = &mut *core;
                match core.next_live() {
                    None => None,
                    // Stop at the deadline; one already passed leaves
                    // the clock where it is.
                    Some(at) if deadline.is_some_and(|d| at > d) => {
                        core.now = core.now.max(deadline.unwrap());
                        None
                    }
                    Some(_) => {
                        let e = core.calendar.pop().expect("next_live saw it");
                        core.now = e.at;
                        core.events_processed += 1;
                        Some(core.take_fired(e.slot))
                    }
                }
            };
            match ev {
                Some(kind) => match kind {
                    EventKind::WakeTask(id) => self.core.borrow_mut().ready.push_back(id),
                    // Callbacks run with the core unborrowed so they may
                    // schedule further events or wake tasks.
                    EventKind::Call(f) => f(),
                    EventKind::Fire(target) => {
                        if let Some(target) = target.upgrade() {
                            target.fire();
                        }
                    }
                },
                None => {
                    // Calendar dry (or deadline passed); if a straggler wake
                    // arrived during the last callback, keep going.
                    let mut core = self.core.borrow_mut();
                    core.drain_wakes();
                    if core.ready.is_empty() {
                        break;
                    }
                }
            }
        }
        RUNNING.set(outer);
        let core = self.core.borrow();
        RunReport {
            end_time: core.now,
            events_processed: core.events_processed,
            tasks_spawned: core.tasks_spawned,
            deadlocked_tasks: core.live_tasks,
        }
    }
}

impl Default for Sim {
    fn default() -> Self {
        Sim::new(0)
    }
}

/// Recycled executor allocations: the event calendar, slot slab, task
/// slab, ready queue and wake queue of a finished [`Sim`], emptied but
/// with their capacities kept. Clearing the task slab drops every slot
/// outright, so slot generations restart at zero exactly as in a cold
/// [`Sim::new`].
///
/// A sweep that executes thousands of short runs back to back pays a
/// measurable allocation tax rebuilding these containers from scratch
/// every run; threading one `SimArena` through [`Sim::into_arena`] /
/// [`Sim::with_arena`] makes every run after the first start with
/// warmed capacities. Recycling is *behaviorally invisible*: all
/// counters (time, the calendar's key, task ids, RNG seed derivation)
/// restart from the same state as [`Sim::new`], so a warm run's event
/// trajectory is identical to a cold run's.
///
/// Arenas hold (cleared) task and callback storage, which is not
/// `Send`: keep each arena on the worker thread that uses it.
#[derive(Default)]
pub struct SimArena {
    calendar: Calendar,
    slots: Vec<Slot>,
    tasks: Vec<TaskSlot>,
    ready: VecDeque<TaskId>,
    woken: Vec<TaskId>,
}

impl SimArena {
    /// An empty arena (no pre-warmed capacity); equivalent to starting
    /// from [`Sim::new`] on first use.
    pub(crate) fn new() -> SimArena {
        SimArena::default()
    }
}

impl Sim {
    /// Create a simulation seeded with `seed`, reusing the container
    /// capacities of `arena`. Behaviorally identical to [`Sim::new`]:
    /// every counter restarts from zero, so trajectories do not depend
    /// on which (if any) arena a run recycled.
    pub fn with_arena(seed: u64, arena: SimArena) -> Sim {
        let SimArena {
            calendar,
            slots,
            tasks,
            ready,
            woken,
        } = arena;
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                calendar,
                slots,
                free_head: NO_FREE,
                tombstones: 0,
                compactions: 0,
                tasks,
                task_free: NO_FREE,
                live_tasks: 0,
                ready,
                woken,
                current: 0,
                seed,
                events_processed: 0,
                tasks_spawned: 0,
            })),
        }
    }

    /// Tear the simulation down and recover its allocations for reuse
    /// by [`Sim::with_arena`].
    ///
    /// Still-pending tasks and calendar entries are dropped, exactly as
    /// dropping the `Sim` would drop them: the core's strong count is
    /// already zero when their destructors run, so timer/guard `Drop`
    /// impls observe a dead simulation and no-op.
    ///
    /// Panics if anything other than this `Sim` still holds a strong
    /// reference to the executor core (nothing in this workspace does;
    /// processes and resources hold weak [`Ctx`] handles).
    pub fn into_arena(self) -> SimArena {
        let core = Rc::try_unwrap(self.core)
            .unwrap_or_else(|_| panic!("Sim::into_arena: outstanding strong core references"))
            .into_inner();
        let Core {
            mut calendar,
            mut slots,
            mut tasks,
            mut ready,
            mut woken,
            ..
        } = core;
        // Dropping tasks releases any resources their futures captured;
        // slot payloads may hold callbacks that also capture resources.
        // Both drop with the core already dead.
        tasks.clear();
        slots.clear();
        calendar.clear();
        ready.clear();
        woken.clear();
        SimArena {
            calendar,
            slots,
            tasks,
            ready,
            woken,
        }
    }
}

/// Handle to the simulation, usable from inside processes.
///
/// Holds a weak reference so that processes (which capture `Ctx`) do not
/// keep the executor core alive in a reference cycle. Every method but
/// [`Ctx::try_now`] panics if used after the owning [`Sim`] has been
/// dropped.
#[derive(Clone)]
pub struct Ctx {
    core: Weak<RefCell<Core>>,
}

impl Ctx {
    fn core(&self) -> Rc<RefCell<Core>> {
        self.core
            .upgrade()
            .expect("simulation context used after Sim was dropped")
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core().borrow().now
    }

    /// Current simulated time, or `None` once the owning [`Sim`] is
    /// dropped: the clock read for destructors, which may run while a
    /// dead simulation's tasks are torn down.
    pub fn try_now(&self) -> Option<SimTime> {
        Some(self.core.upgrade()?.borrow().now)
    }

    /// Seed this simulation was created with.
    pub(crate) fn seed(&self) -> u64 {
        self.core().borrow().seed
    }

    /// A deterministic RNG for a named stream. Different streams are
    /// statistically independent; the same `(seed, stream)` pair always
    /// yields the same sequence.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed() ^ splitmix64(stream)))
    }

    /// Spawn a process. The returned [`JoinHandle`] can be awaited for the
    /// process's output; dropping it detaches the process.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        JoinHandle {
            block: self.spawn_block(JoinCell::default(), fut),
        }
    }

    /// Frozen for `perf/`: [`Ctx::spawn`]; the first argument is ignored — there is one calendar.
    pub fn spawn_on<T: 'static>(
        &self,
        _shard: u32,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        self.spawn(fut)
    }

    /// Place `fut` and the `sink` its output goes to in one block and
    /// hand the block to the executor: the one allocator call of a spawn.
    fn spawn_block<S, F>(&self, sink: S, fut: F) -> Rc<TaskBlock<S, RefCell<Option<F>>>>
    where
        S: Sink<F::Output> + 'static,
        F: Future + 'static,
    {
        let block = Rc::new(TaskBlock {
            sink,
            process: RefCell::new(Some(fut)),
        });
        let core = self.core();
        let mut core = core.borrow_mut();
        let id = core.insert_task(block.clone());
        core.ready.push_back(id);
        block
    }

    /// Sleep for `d` simulated time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        let deadline = self.now() + d;
        Sleep {
            core: self.core.clone(),
            deadline,
            entry: None,
        }
    }

    /// Schedule `f` to run after `d` simulated time, outside any process.
    /// Primarily for event-driven resources. The returned handle cancels
    /// the callback in O(1); it may be dropped freely if cancellation is
    /// never needed.
    pub fn call_after(&self, d: SimDuration, f: impl FnOnce() + 'static) -> TimerHandle {
        self.schedule(d, EventKind::Call(Box::new(f)))
    }

    /// [`Ctx::call_after`] for a resource that re-arms one logical timer
    /// over and over: `target` is fired, and reads what for from itself.
    pub(crate) fn fire_after(&self, d: SimDuration, target: Weak<dyn TimerTarget>) -> TimerHandle {
        self.schedule(d, EventKind::Fire(target))
    }

    fn schedule(&self, d: SimDuration, kind: EventKind) -> TimerHandle {
        let core = self.core();
        let mut core = core.borrow_mut();
        let at = core.now + d;
        let (slot, gen) = core.push_event(at, kind);
        TimerHandle {
            core: self.core.clone(),
            slot,
            gen,
        }
    }

    /// Id of the task currently being polled. Only meaningful from
    /// inside a `Future::poll` running on this executor.
    pub(crate) fn current_task(&self) -> TaskId {
        self.core().borrow().current
    }

    /// Queue a wake for task `id`, as a [`Parked`] registration does.
    pub(crate) fn wake_task(&self, id: TaskId) {
        wake(&self.core, id);
    }
}

/// Handle to a scheduled [`Ctx::call_after`] callback.
///
/// Cancelling drops the callback immediately and tombstones its calendar
/// entry; an already-fired or already-cancelled handle is a no-op. This is
/// what lets event-driven resources retire a provisional "next completion"
/// event instead of letting it fire as a stale no-op.
#[derive(Clone)]
pub struct TimerHandle {
    core: Weak<RefCell<Core>>,
    slot: u32,
    gen: u32,
}

impl TimerHandle {
    /// Cancel the scheduled callback. Returns `true` if the callback had
    /// not yet fired (i.e. this call actually cancelled it).
    pub(crate) fn cancel(&self) -> bool {
        let Some(core) = self.core.upgrade() else {
            return false;
        };
        let cancelled = core.borrow_mut().cancel_entry(self.slot, self.gen);
        // The callback (and anything it captured) drops here, outside the
        // core borrow, so its Drop impls may touch the simulation.
        cancelled.is_some()
    }
}

/// SplitMix64 finalizer: a cheap bijection on `u64` with full avalanche.
/// The executor uses it to derive independent RNG stream seeds; the
/// campaign layer reuses it to derive collision-free per-run seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Future returned by [`Ctx::sleep`].
///
/// Dropping an unexpired `Sleep` (e.g. the losing arm of a
/// [`crate::race`] or [`crate::timeout`]) cancels its calendar entry, so
/// abandoned timers leave at most a tombstone behind instead of a live
/// entry that readies a task that stopped waiting.
pub struct Sleep {
    core: Weak<RefCell<Core>>,
    deadline: SimTime,
    /// `(slot, gen)` of the registered wake entry, if any. Stays set after
    /// the entry fires; the generation check makes the Drop cancel a no-op
    /// in that case.
    entry: Option<(u32, u32)>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let core = self
            .core
            .upgrade()
            .expect("Sleep polled after Sim was dropped");
        let mut core = core.borrow_mut();
        if core.now >= self.deadline {
            return Poll::Ready(());
        }
        if self.entry.is_none() {
            let deadline = self.deadline;
            let task = core.current;
            let entry = core.push_event(deadline, EventKind::WakeTask(task));
            drop(core);
            self.entry = Some(entry);
        }
        let _ = cx; // readied by the calendar entry
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        let Some((slot, gen)) = self.entry.take() else {
            return;
        };
        let Some(core) = self.core.upgrade() else {
            return;
        };
        core.borrow_mut().cancel_entry(slot, gen);
    }
}

/// Where a finished process leaves its output.
trait Sink<T> {
    /// Called once, at the completion instant `at`.
    fn complete(&self, value: T, at: SimTime);
}

/// The one allocation of a spawned process: the sink its output goes to,
/// then the process itself, polled where it lies (see "What a spawn
/// costs" in the module docs). The executor holds the block as
/// `Rc<dyn Runnable>`; a [`JoinHandle`] holds the same block with the
/// process type erased and reads only `sink`.
struct TaskBlock<S, P: ?Sized> {
    sink: S,
    /// `RefCell<Option<F>>`: `Some` from spawn until the executor lets go
    /// of the task, then `None` for as long as a handle keeps the block.
    process: P,
}

/// What the executor does with a block.
trait Runnable {
    /// Poll the process; on completion hand its output to the sink.
    fn poll(&self, cx: &mut Context<'_>, now: SimTime) -> Poll<()>;
    /// Drop the process (finished or not) in place.
    fn drop_process(&self);
}

impl<S: Sink<F::Output>, F: Future> Runnable for TaskBlock<S, RefCell<Option<F>>> {
    fn poll(&self, cx: &mut Context<'_>, now: SimTime) -> Poll<()> {
        let mut slot = self.process.borrow_mut();
        let fut = slot.as_mut().expect("task polled after it was dropped");
        // SAFETY: the process is structurally pinned in its block. It was
        // moved into the `Rc` allocation by `spawn_block` before its
        // first poll and never moves again: the block type is private to
        // this module, nothing here takes the value back out of the `Rc`
        // (`try_unwrap`, `into_inner`, `get_mut`) or out of the `Option`
        // (`take`, `replace`, `swap`), and the `RefCell` hands out `&mut
        // F` only here, where it is re-pinned at once. It is dropped
        // where it lies — by `drop_process` assigning `None` over it, or
        // by the block's own drop glue — and the allocation is not freed
        // before that, since dropping the last `Rc` runs the glue first.
        let fut = unsafe { Pin::new_unchecked(fut) };
        let value = match fut.poll(cx) {
            Poll::Ready(v) => v,
            Poll::Pending => return Poll::Pending,
        };
        drop(slot);
        self.sink.complete(value, now);
        Poll::Ready(())
    }

    fn drop_process(&self) {
        // Assignment drops the old value in place.
        *self.process.borrow_mut() = None;
    }
}

/// The erased tail of a block as a [`JoinHandle`] sees it.
trait Erased {}
impl<P> Erased for P {}

struct JoinInner<T> {
    value: Option<T>,
    joiner: Option<Parked>,
    finished: bool,
}

/// The sink of a process spawned for a [`JoinHandle`].
struct JoinCell<T>(RefCell<JoinInner<T>>);

impl<T> Default for JoinCell<T> {
    fn default() -> Self {
        JoinCell(RefCell::new(JoinInner {
            value: None,
            joiner: None,
            finished: false,
        }))
    }
}

impl<T> Sink<T> for JoinCell<T> {
    fn complete(&self, value: T, _at: SimTime) {
        let mut st = self.0.borrow_mut();
        st.value = Some(value);
        st.finished = true;
        if let Some(joiner) = st.joiner.take() {
            joiner.wake();
        }
    }
}

/// Awaitable handle to a spawned process. It shares the process's block:
/// what the process captured is dropped when it completes, but the
/// block's memory is the handle's until it drops — hold handles for as
/// long as a result is awaited, and collect long-lived ensembles through
/// a [`JoinSet`].
pub struct JoinHandle<T> {
    block: Rc<TaskBlock<JoinCell<T>, dyn Erased>>,
}

impl<T> JoinHandle<T> {
    /// Take the result if the process has completed (non-blocking).
    pub fn try_take(&self) -> Option<T> {
        self.block.sink.0.borrow_mut().value.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<T> {
        let mut st = self.block.sink.0.borrow_mut();
        if let Some(v) = st.value.take() {
            return Poll::Ready(v);
        }
        assert!(
            !st.finished,
            "JoinHandle polled after its value was already taken"
        );
        st.joiner = Some(Parked::current());
        Poll::Pending
    }
}

/// What every member of a [`JoinSet`] shares.
struct SetShared<T> {
    /// By spawn index: completion instant and output, once finished.
    results: RefCell<Vec<Option<(SimTime, T)>>>,
    finished: Cell<usize>,
}

/// The sink of a process spawned into a [`JoinSet`].
struct SetMember<T> {
    set: Rc<SetShared<T>>,
    index: usize,
}

impl<T> Sink<T> for SetMember<T> {
    fn complete(&self, value: T, at: SimTime) {
        self.set.results.borrow_mut()[self.index] = Some((at, value));
        self.set.finished.set(self.set.finished.get() + 1);
    }
}

/// A group of processes spawned for their results: each finishes into
/// the set — output and completion instant, by spawn index — instead of
/// into a [`JoinHandle`] of its own. Nothing but the executor refers to
/// a member, so its block is freed the moment it completes, and "has
/// everyone finished?" is a counter compare. This is how a runner holds
/// an ensemble of tens of thousands of long-lived roles.
pub struct JoinSet<T> {
    shared: Rc<SetShared<T>>,
}

impl<T: 'static> JoinSet<T> {
    /// An empty set with room for `n` members.
    pub fn with_capacity(n: usize) -> Self {
        JoinSet {
            shared: Rc::new(SetShared {
                results: RefCell::new(Vec::with_capacity(n)),
                finished: Cell::new(0),
            }),
        }
    }

    /// [`Ctx::spawn`] into the set; the member's spawn index is the
    /// number of members spawned before it.
    pub fn spawn(&self, ctx: &Ctx, fut: impl Future<Output = T> + 'static) {
        let index = {
            let mut results = self.shared.results.borrow_mut();
            results.push(None);
            results.len() - 1
        };
        let set = self.shared.clone();
        ctx.spawn_block(SetMember { set, index }, fut);
    }

    /// Members spawned so far.
    pub(crate) fn len(&self) -> usize {
        self.shared.results.borrow().len()
    }

    /// True once every member has completed.
    pub fn all_finished(&self) -> bool {
        self.shared.finished.get() == self.len()
    }

    /// Spawn indices of the members still running.
    pub fn unfinished(&self) -> Vec<usize> {
        let results = self.shared.results.borrow();
        let running = results.iter().enumerate().filter(|(_, r)| r.is_none());
        running.map(|(i, _)| i).collect()
    }

    /// Completion instant and output of every member, in spawn order.
    /// Panics if a member is still running.
    pub fn into_results(self) -> impl Iterator<Item = (SimTime, T)> {
        let results = std::mem::take(&mut *self.shared.results.borrow_mut());
        (results.into_iter()).map(|r| r.expect("JoinSet member still running"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_at_time_zero() {
        let sim = Sim::new(0);
        let report = sim.run();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events_processed, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_micros(7)).await;
            ctx.now()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap().nanos(), 7_000);
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        sim.spawn(async move {
            for _ in 0..10 {
                ctx.sleep(SimDuration::from_nanos(3)).await;
            }
            assert_eq!(ctx.now().nanos(), 30);
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn concurrent_processes_interleave_by_time() {
        let sim = Sim::new(0);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for (i, delay) in [(1u32, 30u64), (2, 10), (3, 20)] {
            let ctx = sim.ctx();
            let order = order.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(delay)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![2, 3, 1]);
    }

    #[test]
    fn ties_broken_in_spawn_order() {
        let sim = Sim::new(0);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..5u32 {
            let ctx = sim.ctx();
            let order = order.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(10)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let ctx2 = ctx.clone();
        let h = sim.spawn(async move {
            let inner = ctx2.spawn(async move { 41 + 1 });
            inner.await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(42));
    }

    #[test]
    fn join_waits_for_sleeping_child() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let c = ctx.clone();
            let child = ctx.spawn(async move {
                c.sleep(SimDuration::from_millis(3)).await;
                c.now()
            });
            child.await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap().nanos(), 3_000_000);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let done = Rc::new(Cell::new(false));
        let done2 = done.clone();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_secs(100)).await;
            done2.set(true);
        });
        let report = sim.run_until(SimTime::from_nanos(50));
        assert_eq!(report.end_time.nanos(), 50);
        assert!(!done.get());
        assert_eq!(report.deadlocked_tasks, 1);
        // Resuming finishes the run.
        let report = sim.run();
        assert!(done.get());
        assert!(report.is_clean());
        assert_eq!(report.end_time.nanos(), 100_000_000_000);
    }

    /// A deadline already passed dispatches what is ready and leaves the
    /// clock where it is: time that has passed is not handed out again.
    #[test]
    fn run_until_never_moves_the_clock_backwards() {
        let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        sim.spawn(async move { ctx.sleep(SimDuration::from_millis(100)).await });
        assert_eq!(sim.run_until(ms(10)).end_time, ms(10));
        assert_eq!(sim.run_until(ms(5)).end_time, ms(10));
        let ctx = sim.ctx();
        let woke = sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            ctx.now()
        });
        // Polls the new task, which arms its sleep from 10 ms.
        assert_eq!(sim.run_until(ms(5)).end_time, ms(10));
        assert!(sim.run().is_clean());
        assert_eq!(woke.try_take(), Some(ms(11)));
    }

    #[test]
    fn deadlocked_task_is_reported() {
        let sim = Sim::new(0);
        sim.spawn(async move {
            std::future::pending::<()>().await;
        });
        let report = sim.run();
        assert_eq!(report.deadlocked_tasks, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn call_after_runs_at_scheduled_time() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let hit = Rc::new(Cell::new(0u64));
        let hit2 = hit.clone();
        let ctx2 = ctx.clone();
        ctx.call_after(SimDuration::from_nanos(25), move || {
            hit2.set(ctx2.now().nanos());
        });
        sim.run();
        assert_eq!(hit.get(), 25);
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        use rand::RngExt;
        let sim = Sim::new(7);
        let ctx = sim.ctx();
        let a1: u64 = ctx.rng(1).random();
        let a2: u64 = ctx.rng(1).random();
        let b: u64 = ctx.rng(2).random();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        let sim2 = Sim::new(7);
        let c: u64 = sim2.ctx().rng(1).random();
        assert_eq!(a1, c);
    }

    #[test]
    fn determinism_across_identical_runs() {
        fn run_once() -> (u64, u64) {
            let sim = Sim::new(99);
            for i in 0..20u64 {
                let ctx = sim.ctx();
                sim.spawn(async move {
                    use rand::RngExt;
                    let mut rng = ctx.rng(i);
                    for _ in 0..5 {
                        let d: u64 = rng.random_range(1..1000);
                        ctx.sleep(SimDuration::from_nanos(d)).await;
                    }
                });
            }
            let r = sim.run();
            (r.end_time.nanos(), r.events_processed)
        }
        assert_eq!(run_once(), run_once());
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn clock_is_monotone_and_runs_deterministic(
                delays in proptest::collection::vec(
                    proptest::collection::vec(0u64..10_000, 1..8), 1..12),
                seed in any::<u64>(),
            ) {
                fn run(delays: &[Vec<u64>], seed: u64) -> (u64, u64) {
                    let sim = Sim::new(seed);
                    let monotone = Rc::new(RefCell::new((SimTime::ZERO, true)));
                    for ds in delays {
                        let ctx = sim.ctx();
                        let ds = ds.clone();
                        let mono = monotone.clone();
                        sim.spawn(async move {
                            for d in ds {
                                ctx.sleep(SimDuration::from_nanos(d)).await;
                                let mut m = mono.borrow_mut();
                                if ctx.now() < m.0 {
                                    m.1 = false;
                                }
                                m.0 = ctx.now();
                            }
                        });
                    }
                    let report = sim.run();
                    assert!(monotone.borrow().1, "clock went backwards");
                    (report.end_time.nanos(), report.events_processed)
                }
                let a = run(&delays, seed);
                let b = run(&delays, seed);
                prop_assert_eq!(a, b);
                // The makespan is the longest single-process chain or more.
                let longest: u64 = delays.iter().map(|d| d.iter().sum::<u64>()).max().unwrap();
                prop_assert!(a.0 >= longest);
            }
        }
    }

    #[test]
    fn arena_recycling_preserves_trajectories() {
        // A run on a recycled arena must match a cold run event for
        // event — including when the previous run left pending tasks
        // and armed timers behind (run_until stopping mid-flight).
        fn workload(sim: &Sim) -> (u64, u64, u64) {
            // Trajectory fingerprint: the sum of every observed wake
            // time, which is sensitive to each drawn sleep duration.
            let wake_sum = Rc::new(RefCell::new(0u64));
            for i in 0..50u64 {
                let ctx = sim.ctx();
                let wake_sum = wake_sum.clone();
                sim.spawn(async move {
                    use rand::RngExt;
                    let mut rng = ctx.rng(i);
                    for _ in 0..4 {
                        let d: u64 = rng.random_range(1..500);
                        ctx.sleep(SimDuration::from_nanos(d)).await;
                        *wake_sum.borrow_mut() += ctx.now().nanos();
                    }
                });
            }
            // A never-finishing background task with an armed far-future
            // timer, like the PFS interference processes.
            let ctx = sim.ctx();
            sim.spawn(async move {
                loop {
                    ctx.sleep(SimDuration::from_secs(3600)).await;
                }
            });
            let r = sim.run_until(SimTime::from_nanos(1_000_000));
            let sum = *wake_sum.borrow();
            (r.end_time.nanos(), r.events_processed, sum)
        }

        let cold_sim = Sim::new(77);
        let cold = workload(&cold_sim);
        let mut arena = cold_sim.into_arena();
        for _ in 0..3 {
            let sim = Sim::with_arena(77, arena);
            assert_eq!(workload(&sim), cold);
            arena = sim.into_arena();
        }
        // Different seed on the same arena still diverges (the arena
        // carries no seed state).
        let sim = Sim::with_arena(78, arena);
        assert_ne!(workload(&sim), cold);
    }

    /// The calendar's work is deterministic, so it is pinned: a change to
    /// how entries are filed shows here as a count, not as host time.
    /// A thousand in flight at once, delays from 1 ns to 2^32 ns: 4.7
    /// moves per pop, where the bound is one per bit of the key.
    #[test]
    fn calendar_moves_are_pinned() {
        let sim = Sim::new(0);
        for i in 0..1_000u64 {
            let ctx = sim.ctx();
            sim.spawn(async move {
                for k in 0..8u64 {
                    let d = 1 + splitmix64(i << 3 | k) % (1 << (4 * k + 4));
                    ctx.sleep(SimDuration::from_nanos(d)).await;
                }
            });
        }
        assert_eq!(sim.run().events_processed, 8_000);
        assert_eq!(sim.calendar_stats().moved, 37_337);
    }

    #[test]
    fn many_tasks_scale() {
        let sim = Sim::new(0);
        for i in 0..10_000u64 {
            let ctx = sim.ctx();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(i % 97)).await;
            });
        }
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(report.tasks_spawned, 10_000);
    }

    /// Executor-health check: heavy timer churn (timeouts cancelling
    /// long sleeps every iteration) must keep calendar tombstones within
    /// the compaction bound at every observation point, trigger actual
    /// compactions, and never let a cancelled timer fire and drag the
    /// clock out to its stale deadline.
    #[test]
    fn calendar_tombstones_stay_bounded_under_timer_churn() {
        use crate::combinators::timeout;

        let sim = Sim::new(0);
        for _ in 0..200 {
            let ctx = sim.ctx();
            sim.spawn(async move {
                for _ in 0..30 {
                    // The 1 s sleep always loses and is cancelled on drop,
                    // leaving a far-future tombstone in the calendar.
                    let _ = timeout(
                        &ctx,
                        SimDuration::from_nanos(10),
                        ctx.sleep(SimDuration::from_secs(1)),
                    )
                    .await;
                }
            });
        }
        // Monitor task: the bound must hold mid-run, not just at the end.
        let worst = Rc::new(Cell::new((0usize, 0usize)));
        {
            let ctx = sim.ctx();
            let worst = worst.clone();
            sim.spawn(async move {
                loop {
                    ctx.sleep(SimDuration::from_nanos(7)).await;
                    let st = ctx.core().borrow().calendar_stats();
                    assert!(
                        st.tombstones <= COMPACT_FLOOR.max(st.pending),
                        "tombstones {} exceed bound (pending {})",
                        st.tombstones,
                        st.pending
                    );
                    let (t, _) = worst.get();
                    if st.tombstones > t {
                        worst.set((st.tombstones, st.pending));
                    }
                    if st.pending <= 1 {
                        break; // only this monitor's sleep remains
                    }
                }
            });
        }
        let report = sim.run();
        assert!(report.is_clean());
        let st = sim.calendar_stats();
        assert!(
            st.compactions > 0,
            "6000 cancelled timers should have forced at least one compaction"
        );
        assert_eq!(st.pending, 0);
        assert!(st.tombstones <= COMPACT_FLOOR);
        // 6000 timeouts of 10 ns each; the cancelled 1 s sleeps must not
        // have advanced the clock anywhere near their stale deadlines.
        assert!(
            report.end_time < SimTime::from_nanos(1_000_000),
            "stale timers advanced the clock: ended at {:?}",
            report.end_time
        );
        assert!(worst.get().0 > 0, "monitor never saw churn");
    }

    /// Order-sensitive fingerprint of a 64-task workload: every wake
    /// folds `(now, task, step)` into a running hash in execution order,
    /// so any reordering — not just a timing change — alters the result.
    /// `shards` spawns task `i` through the frozen `spawn_on(i % shards, ..)`.
    fn wake_order_fingerprint(sim: &Sim, shards: Option<u32>) -> (u64, u64, u64) {
        let hash = Rc::new(Cell::new(0xfeed_beefu64));
        for i in 0..64u64 {
            let ctx = sim.ctx();
            let hash = hash.clone();
            let process = async move {
                use rand::RngExt;
                let mut rng = ctx.rng(i);
                for step in 0..6u64 {
                    let d: u64 = rng.random_range(1..700);
                    ctx.sleep(SimDuration::from_nanos(d)).await;
                    let mixed = splitmix64(ctx.now().nanos() ^ (i << 24) ^ step);
                    hash.set(hash.get().rotate_left(7) ^ mixed);
                }
            };
            match shards {
                Some(n) => drop(sim.ctx().spawn_on(i as u32 % n, process)),
                None => drop(sim.spawn(process)),
            }
        }
        let report = sim.run();
        (report.end_time.nanos(), report.events_processed, hash.get())
    }

    /// The frozen setters and `spawn_on` are inert: whatever shard
    /// count, lookahead and placement `perf/` asks for, the workload
    /// replays the plain `Sim::new` / `spawn` trajectory bit for bit.
    #[test]
    fn shard_count_is_trajectory_neutral() {
        let serial = wake_order_fingerprint(&Sim::new(42), None);
        for shards in [2u32, 4, 7, 33] {
            let cfg = SimConfig::new(42)
                .with_shards(shards)
                .with_lookahead(SimDuration::from_micros(7));
            assert_eq!(
                wake_order_fingerprint(&Sim::with_config(cfg), Some(shards)),
                serial,
                "shards={shards} diverged from the plain calendar"
            );
        }
    }

    /// A block holds the process once. Beside it: the sink (for a set
    /// member the set's `Rc` and its index), the borrow flag of the cell
    /// the process lies in and the `Option`'s tag (a coroutine offers no
    /// niche) — four words, plus the two reference counts every `Rc`
    /// allocation starts with. (`async move { fut.await; .. }` laid the
    /// process out twice — as a capture and as the awaited value.)
    #[test]
    fn task_block_is_the_process_plus_four_words() {
        fn overhead<F: Future>(_: &F) -> usize {
            std::mem::size_of::<TaskBlock<SetMember<F::Output>, RefCell<Option<F>>>>()
                - std::mem::size_of::<F>()
        }
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let big = async move {
            let pad = [7u8; 1000];
            ctx.sleep(SimDuration::from_nanos(1)).await;
            pad[0]
        };
        assert!(std::mem::size_of_val(&big) >= 1000);
        assert!(overhead(&big) <= 32, "overhead {} B", overhead(&big));
        assert!(overhead(&std::future::ready(0u64)) <= 32);
    }

    #[test]
    fn dropped_handle_detaches_the_process() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let done = Rc::new(Cell::new(false));
        let done2 = done.clone();
        drop(sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(5)).await;
            done2.set(true);
            17u32
        }));
        assert!(sim.run().is_clean());
        assert!(done.get());
    }

    /// What a process captured goes when it completes, handle held or
    /// not; what it returned stays with the handle.
    #[test]
    fn captures_drop_at_completion_and_the_result_with_the_handle() {
        struct Counted(Rc<Cell<u32>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let (captured, result) = (Counted(drops.clone()), Counted(drops.clone()));
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(5)).await;
            let _held = &captured;
            result
        });
        let ctx = sim.ctx();
        sim.spawn(async move { ctx.sleep(SimDuration::from_nanos(50)).await });
        sim.run_until(SimTime::from_nanos(10));
        assert_eq!(drops.get(), 1, "the capture outlived its process");
        // Neither tearing the simulation down nor recycling it reaches
        // the result: the join state is the handle's.
        drop(sim.into_arena());
        assert_eq!(drops.get(), 1);
        drop(h);
        assert_eq!(drops.get(), 2);
    }

    /// A task awaiting another task's handle is polled twice — parked on
    /// the first, woken once by the completion — and not again.
    #[test]
    fn joiner_is_woken_exactly_once() {
        struct CountPolls<F>(F, Rc<Cell<u32>>);
        impl<F: Future + Unpin> Future for CountPolls<F> {
            type Output = F::Output;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
                self.1.set(self.1.get() + 1);
                Pin::new(&mut self.0).poll(cx)
            }
        }
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let child = sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(10)).await;
            ctx.sleep(SimDuration::from_nanos(10)).await;
            "done"
        });
        let polls = Rc::new(Cell::new(0));
        let ctx = sim.ctx();
        let joiner = sim.spawn({
            let polls = polls.clone();
            async move {
                let v = CountPolls(child, polls).await;
                // Outlive the join, so a second (spurious) wake would show.
                ctx.sleep(SimDuration::from_nanos(100)).await;
                v
            }
        });
        assert!(sim.run().is_clean());
        assert_eq!(joiner.try_take(), Some("done"));
        assert_eq!(polls.get(), 2);
    }

    /// Wakes wait apart from the ready queue and join it at the next
    /// dispatch, so a task spawned after a wake within one poll is
    /// polled before the task that wake readied.
    #[test]
    fn a_spawn_after_a_wake_in_one_poll_runs_first() {
        let sim = Sim::new(0);
        let order: Rc<RefCell<Vec<&str>>> = Rc::default();
        let (tx, rx) = crate::sync::oneshot::<()>();
        let log = order.clone();
        sim.spawn(async move {
            let _ = rx.await;
            log.borrow_mut().push("woken");
        });
        let (ctx, log) = (sim.ctx(), order.clone());
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(1)).await;
            let _ = tx.send(());
            ctx.spawn(async move { log.borrow_mut().push("spawned") });
        });
        assert!(sim.run().is_clean());
        assert_eq!(*order.borrow(), ["spawned", "woken"]);
    }

    /// Tearing a simulation down with parked tasks drops every value a
    /// process captured or held exactly once, through either exit.
    #[test]
    fn parked_tasks_drop_their_captures_exactly_once() {
        struct Counted(Rc<Cell<u32>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        // Half the handles are dropped at once, half outlive the `Sim`.
        let park = |sim: &Sim, drops: &Rc<Cell<u32>>| {
            let mut kept = Vec::new();
            for i in 0..8u64 {
                let ctx = sim.ctx();
                let captured = Counted(drops.clone());
                let h = sim.spawn(async move {
                    let held = Counted(captured.0.clone());
                    ctx.sleep(SimDuration::from_secs(1 + i)).await;
                    drop((captured, held));
                });
                if i % 2 == 1 {
                    kept.push(h);
                }
            }
            // Finishes the first process, leaves seven parked mid-sleep.
            let report = sim.run_until(SimTime::from_nanos(1_500_000_000));
            assert_eq!(report.deadlocked_tasks, 7);
            assert_eq!(drops.get(), 2);
            kept
        };

        let drops = Rc::new(Cell::new(0));
        let sim = Sim::new(0);
        let kept = park(&sim, &drops);
        drop(sim);
        assert_eq!(drops.get(), 16);
        drop(kept);
        assert_eq!(drops.get(), 16);

        let drops = Rc::new(Cell::new(0));
        let sim = Sim::new(0);
        let kept = park(&sim, &drops);
        let arena = sim.into_arena();
        assert_eq!(drops.get(), 16);
        drop(kept);
        // The recycled arena starts a clean simulation.
        let sim = Sim::with_arena(0, arena);
        park(&sim, &Rc::new(Cell::new(0)));
    }

    /// The wrapper polls the process where it lies: an `async` block that
    /// holds a borrow of its own local across awaits is self-referential
    /// and `!Unpin`, and only works if it never moves after its first
    /// poll.
    #[test]
    fn self_referential_process_runs_in_place() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let mut cells = [0u64; 32];
            let mut sum = 0;
            for (i, cell) in cells.iter_mut().enumerate() {
                // `cell` points into `cells`, a field of this very future.
                ctx.sleep(SimDuration::from_nanos(3)).await;
                *cell = ctx.now().nanos() + i as u64;
                sum += *cell;
            }
            let first: &u64 = &cells[0];
            ctx.sleep(SimDuration::from_nanos(1)).await;
            (*first, sum, cells[31])
        });
        assert!(sim.run().is_clean());
        let expect: u64 = (0..32u64).map(|i| 3 * (i + 1) + i).sum();
        assert_eq!(h.try_take(), Some((3, expect, 96 + 31)));
    }

    /// Differential oracle: random schedules, cancels, tombstone churn and
    /// deadline slices on the calendar against one `BinaryHeap` that holds
    /// the whole contract — fire in `(at, insertion)` order, skip
    /// cancelled entries, end a slice at its deadline only if something
    /// live lies beyond, never move the clock back. Delays are drawn
    /// log-uniform up to 2^40 ns, so every bucket below that fills, and a
    /// few reach past 2^63;
    /// bursts put eight or more entries at one instant; an undercut stops
    /// at a deadline and then schedules below the next live entry, which
    /// is what takes the calendar's `rebase`. A case is two schedules: the
    /// second runs on the arena recycled from the first, which is
    /// abandoned mid-flight, and must do a cold calendar's work to the move.
    mod calendar_oracle {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// What firing an entry cancels: every entry whose `seq` is in
        /// `(start..end).step_by(step)`, whatever state it is in.
        type Reap = (usize, usize, usize);
        const NOTHING: Reap = (0, 0, 1);

        #[derive(Default)]
        struct Reference {
            /// Keyed `(at, seq)`: `seq` is the insertion order.
            heap: BinaryHeap<Reverse<(u64, u64)>>,
            /// By `seq`: scheduled and neither fired nor cancelled yet.
            armed: Vec<bool>,
            /// By `seq`.
            reaps: Vec<Reap>,
            now: u64,
            fired: Vec<u64>,
        }

        impl Reference {
            fn run(&mut self, deadline: Option<u64>) {
                while let Some(&Reverse((at, seq))) = self.heap.peek() {
                    if self.armed[seq as usize] {
                        if let Some(d) = deadline.filter(|&d| at > d) {
                            self.now = self.now.max(d);
                            return;
                        }
                        (self.now, self.armed[seq as usize]) = (at, false);
                        self.fired.push(seq);
                        let (start, end, step) = self.reaps[seq as usize];
                        (start..end)
                            .step_by(step)
                            .for_each(|s| self.armed[s] = false);
                    }
                    self.heap.pop();
                }
            }

            fn next_live(&self) -> Option<u64> {
                let live = self.heap.iter().filter(|e| self.armed[e.0 .1 as usize]);
                live.map(|e| e.0 .0).min()
            }
        }

        /// `0..2^40`, every bit length equally likely.
        fn log_uniform() -> impl Strategy<Value = u64> {
            (0u32..41, any::<u64>()).prop_map(|(bits, x)| x & ((1 << bits) - 1))
        }

        fn ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u64)>> {
            proptest::collection::vec((0u8..21, log_uniform()), len)
        }

        /// Replay `ops` on `sim` against a fresh reference, comparing
        /// clock and live count after every step and the firing order at
        /// the end. `drain` runs the calendar dry first; without it the
        /// simulation is left with whatever is still scheduled.
        fn replay(sim: &Sim, ops: &[(u8, u64)], drain: bool) {
            let ctx = sim.ctx();
            let log = Rc::new(RefCell::new(Vec::new()));
            // Nothing else schedules, so a handle's index is its
            // entry's `seq`.
            let handles = Rc::new(RefCell::new(Vec::<TimerHandle>::new()));
            let schedule = |r: &mut Reference, delay: u64, reap: Reap| {
                let (seq, log, victims) = (r.armed.len() as u64, log.clone(), handles.clone());
                let fire = move || {
                    log.borrow_mut().push(seq);
                    let (start, end, step) = reap;
                    for s in (start..end).step_by(step) {
                        victims.borrow()[s].cancel();
                    }
                };
                let h = ctx.call_after(SimDuration::from_nanos(delay), fire);
                handles.borrow_mut().push(h);
                r.heap.push(Reverse((r.now + delay, seq)));
                r.armed.push(true);
                r.reaps.push(reap);
            };
            // Eight to sixteen entries at one instant.
            let burst = |r: &mut Reference, delay: u64, n: u64| {
                (0..8 + n % 9).for_each(|_| schedule(r, delay, NOTHING));
            };
            let cancel = |r: &mut Reference, seq: usize| {
                let armed = std::mem::take(&mut r.armed[seq]);
                let cancelled = handles.borrow()[seq].cancel();
                assert_eq!(cancelled, armed, "cancel of entry {seq}");
            };
            // A deadline below `now` is one already passed.
            let run_until = |r: &mut Reference, deadline: u64| {
                sim.run_until(SimTime::from_nanos(deadline));
                r.run(Some(deadline));
            };
            let undercut = |r: &mut Reference, x: u64| {
                let room = r.next_live().map_or(x, |at| at - r.now);
                burst(r, x % room.max(1), x >> 7);
            };
            let check = |r: &Reference| {
                assert_eq!(sim.ctx().now().nanos(), r.now);
                let live = r.armed.iter().filter(|&&a| a).count();
                assert_eq!(sim.calendar_stats().pending, live);
                live
            };
            // Far-future timers that outnumber the live entries by the
            // floor: cancelling them all must sweep the calendar.
            let victims = |r: &mut Reference| {
                let (first, n) = (r.armed.len(), check(r) + COMPACT_FLOOR);
                (0..n).for_each(|_| schedule(r, 1 << 20, NOTHING));
                first..first + n
            };
            let mut r = Reference::default();
            for (i, &(kind, x)) in ops.iter().enumerate() {
                let compactions = sim.calendar_stats().compactions;
                if i == ops.len() / 3 {
                    // Churn between slices.
                    victims(&mut r).for_each(|seq| cancel(&mut r, seq));
                    assert!(sim.calendar_stats().compactions > compactions);
                } else if i == 2 * ops.len() / 3 {
                    // The same churn mid-slice: one callback cancels them
                    // all, so the calendar is swept between two pops of one
                    // `run_until`. Nothing drawn earlier can cancel the
                    // callback, and no callback schedules.
                    let doomed = victims(&mut r);
                    schedule(&mut r, x % 64, (doomed.start, doomed.end, 1));
                    let deadline = r.now + 64;
                    run_until(&mut r, deadline);
                    assert!(sim.calendar_stats().compactions > compactions);
                }
                let now = r.now;
                match kind {
                    0..=5 => schedule(&mut r, x, NOTHING),
                    // A third of every handle issued so far — live, fired
                    // or cancelled — goes when this one fires.
                    6 => {
                        let issued = r.armed.len();
                        schedule(&mut r, x, (x as usize % 3, issued, 3));
                    }
                    // Any handle ever issued.
                    7..=11 if !r.armed.is_empty() => {
                        let seq = x as usize % r.armed.len();
                        cancel(&mut r, seq);
                    }
                    12 | 13 => burst(&mut r, x, x >> 7),
                    // Past bit 63: only the last drain reaches it.
                    14 => schedule(&mut r, 1 << 63 | x, NOTHING),
                    15 => run_until(&mut r, now.saturating_sub(x)),
                    // Stop at a deadline, then undercut the next live entry.
                    16 => {
                        run_until(&mut r, now + x / 8);
                        undercut(&mut r, x);
                    }
                    // The same just short of a burst whose head is
                    // cancelled: the stop pops tombstones off that instant.
                    17 => {
                        let head = r.armed.len();
                        burst(&mut r, 1 + x % 4, x >> 7);
                        (head..head + 4).for_each(|seq| cancel(&mut r, seq));
                        run_until(&mut r, now);
                        undercut(&mut r, x);
                    }
                    _ => run_until(&mut r, now + x / 8),
                }
                check(&r);
            }
            if drain {
                // Every move files an entry strictly lower, so running dry
                // moves each held entry at most once per bit of the horizon.
                let held = sim.calendar_stats();
                let horizon = r.heap.iter().map(|e| e.0 .0).max().unwrap_or(0);
                let report = sim.run();
                r.run(None);
                assert_eq!(check(&r), 0);
                assert_eq!(report.events_processed, r.fired.len() as u64);
                let moved = sim.calendar_stats().moved - held.moved;
                let bits = u64::from(64 - horizon.leading_zeros());
                let bound = (held.pending + held.tombstones) as u64 * bits;
                assert!(moved <= bound, "{moved} moves draining, bound {bound}");
            }
            assert_eq!(&*log.borrow(), &r.fired);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn calendar_matches_one_binary_heap(first in ops(20..200), second in ops(40..400)) {
                let sim = Sim::new(0);
                replay(&sim, &first, false);
                // Live entries, tombstones and armed callbacks are still in
                // the calendar; the recycled one must show none of them,
                // and then do exactly a cold calendar's work.
                let sim = Sim::with_arena(0, sim.into_arena());
                let cold = Sim::new(0);
                prop_assert_eq!(sim.calendar_stats(), cold.calendar_stats());
                replay(&sim, &second, true);
                replay(&cold, &second, true);
                prop_assert_eq!(sim.calendar_stats(), cold.calendar_stats());
            }
        }
    }
}
