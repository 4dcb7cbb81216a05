//! # faults — seeded, deterministic fault injection
//!
//! The paper evaluates DYAD on healthy runs only; production MD campaigns
//! on Corona see node reboots, flaky NVMe devices, fabric flaps and
//! overloaded Lustre servers mid-campaign. This crate supplies the three
//! pieces every other layer builds recovery semantics on:
//!
//! * [`FaultPlan`] — a schedule of [`FaultEvent`]s, either hand-written or
//!   generated probabilistically from a [`ChaosSpec`] and a seed. The plan
//!   is pure data: generating it twice from the same spec and seed yields
//!   a byte-identical [`FaultPlan::describe`] listing.
//! * [`FaultBoard`] — the armed runtime form. [`FaultBoard::arm`] turns
//!   each event into simulator timers ([`Ctx::call_after`])
//!   that flip shared state on and off; subsystems consult the board on
//!   their hot paths (`node_up`, `nvme_factor`, `mds_stall_until`, …) and
//!   block on [`FaultBoard::hold_until_up`] while their node is down.
//! * [`RetryPolicy`] — exponential backoff with a multiplicative jitter
//!   band and per-attempt timeouts, used by transport and KVS retries.
//!
//! Everything is deterministic: fault times come from the plan, jitter
//! comes from caller-provided [`Ctx::rng`] streams, and an *empty* plan
//! arms nothing — zero timers, zero RNG draws — so a run with no faults
//! is event-for-event identical to a run without the fault layer at all.

#![warn(missing_docs)]
// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::sync::Notify;
use simcore::{Ctx, SimDuration, SimTime};

/// One class of injected failure. Every variant carries the window length
/// for which the condition holds; the instant it starts comes from the
/// enclosing [`FaultEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The node's services vanish (RPCs to it fail) and frames staged on
    /// its managed burst-buffer allocation are lost. After `down_for` the
    /// node restarts and registered recovery hooks run.
    NodeCrash {
        /// Crashed node (cluster index).
        node: u32,
        /// Outage length before the restart hook fires.
        down_for: SimDuration,
    },
    /// The node's NVMe serves reads/writes `factor`× slower.
    NvmeDegrade {
        /// Affected node.
        node: u32,
        /// Service-time multiplier (> 1 slows the device).
        factor: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// The node's NVMe returns I/O errors for new operations.
    NvmeError {
        /// Affected node.
        node: u32,
        /// Window length.
        duration: SimDuration,
    },
    /// The fabric link to the node flaps: traffic to and from it fails.
    LinkDown {
        /// Node whose NIC/link is down.
        node: u32,
        /// Window length.
        duration: SimDuration,
    },
    /// One Lustre OST serves bulk I/O `factor`× slower (degraded RAID
    /// rebuild, overloaded OSS, …).
    OstDegrade {
        /// OST index (0-based, dense).
        ost: u32,
        /// Service-time multiplier (> 1 slows the target).
        factor: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// The Lustre MDS stops answering; metadata ops stall until the
    /// window ends.
    MdsStall {
        /// Window length.
        duration: SimDuration,
    },
    /// Every KVS broker answers slowly — each request is held an extra
    /// `delay`, long enough to trip client per-attempt timeouts.
    KvsDelay {
        /// Extra per-request service delay while the window is open.
        delay: SimDuration,
        /// Window length.
        duration: SimDuration,
    },
    /// A KVS broker shard dies permanently: it answers every request
    /// with a shard-down error (including flushing parked waits) for the
    /// rest of the run. Replicated meshes fail over; a single broker
    /// terminates through the typed-failure path.
    KvsShardCrash {
        /// Shard index (0 = the legacy single broker).
        shard: u32,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::NodeCrash { node, down_for } => {
                write!(f, "node_crash node={node} down_for={}ns", down_for.nanos())
            }
            FaultKind::NvmeDegrade {
                node,
                factor,
                duration,
            } => write!(
                f,
                "nvme_degrade node={node} factor={factor:.3} for={}ns",
                duration.nanos()
            ),
            FaultKind::NvmeError { node, duration } => {
                write!(f, "nvme_error node={node} for={}ns", duration.nanos())
            }
            FaultKind::LinkDown { node, duration } => {
                write!(f, "link_down node={node} for={}ns", duration.nanos())
            }
            FaultKind::OstDegrade {
                ost,
                factor,
                duration,
            } => write!(
                f,
                "ost_degrade ost={ost} factor={factor:.3} for={}ns",
                duration.nanos()
            ),
            FaultKind::MdsStall { duration } => {
                write!(f, "mds_stall for={}ns", duration.nanos())
            }
            FaultKind::KvsDelay { delay, duration } => write!(
                f,
                "kvs_delay delay={}ns for={}ns",
                delay.nanos(),
                duration.nanos()
            ),
            FaultKind::KvsShardCrash { shard } => {
                write!(f, "kvs_shard_crash shard={shard}")
            }
        }
    }
}

/// A fault scheduled at an absolute simulation offset.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault starts, relative to simulation start.
    pub at: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

/// Probabilistic chaos generator parameters: expected number of events per
/// class over a horizon. [`FaultPlan::generate`] expands a spec + seed
/// into a concrete, reproducible schedule.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Schedule horizon; all events start inside `[0, horizon)`.
    pub horizon: SimDuration,
    /// Number of compute nodes eligible for node/NVMe/link faults.
    pub n_nodes: u32,
    /// Number of OSTs eligible for `OstDegrade` (0 disables the class).
    pub n_osts: u32,
    /// Expected event count per enabled class over the horizon.
    pub events_per_class: f64,
    /// Mean fault window as a fraction of the horizon (windows are drawn
    /// uniformly in `[0.5, 1.5] × mean`).
    pub mean_window_frac: f64,
    /// Number of KVS broker shards eligible for `KvsShardCrash`
    /// (0 disables the class — the legacy single broker is never killed
    /// by a generated plan, only by a scheduled one).
    pub n_kvs_shards: u32,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            horizon: SimDuration::from_secs(1),
            n_nodes: 2,
            n_osts: 0,
            events_per_class: 1.0,
            mean_window_frac: 0.1,
            n_kvs_shards: 0,
        }
    }
}

/// An ordered schedule of faults. Pure data; arm it with
/// [`FaultBoard::arm`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: arming it creates no timers and changes nothing.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from explicit events (sorted by start time on build,
    /// ties kept in push order).
    pub fn scheduled(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Add one event, keeping the schedule sorted.
    pub fn push(&mut self, at: SimDuration, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
    }

    /// Expand a [`ChaosSpec`] into a concrete schedule. Same spec + seed
    /// ⇒ byte-identical plan; the draw order is fixed (class by class,
    /// event by event) so adding a class never perturbs earlier classes.
    pub fn generate(spec: &ChaosSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFAu64.rotate_left(56));
        let horizon_ns = spec.horizon.nanos().max(1);
        let mean_window = spec.horizon.mul_f64(spec.mean_window_frac.max(0.0));
        let mut events = Vec::new();
        let n_events = spec.events_per_class.round().max(0.0) as u32;
        let window = |rng: &mut StdRng| {
            let frac: f64 = rng.random_range(0.5..1.5);
            mean_window.mul_f64(frac).max(SimDuration::from_micros(1))
        };
        for class in 0..8u32 {
            for _ in 0..n_events {
                let at = SimDuration::from_nanos(rng.random_range(0..horizon_ns));
                let kind = match class {
                    0 if spec.n_nodes > 0 => FaultKind::NodeCrash {
                        node: rng.random_range(0..spec.n_nodes),
                        down_for: window(&mut rng),
                    },
                    1 if spec.n_nodes > 0 => FaultKind::NvmeDegrade {
                        node: rng.random_range(0..spec.n_nodes),
                        factor: rng.random_range(2.0..8.0),
                        duration: window(&mut rng),
                    },
                    2 if spec.n_nodes > 0 => FaultKind::NvmeError {
                        node: rng.random_range(0..spec.n_nodes),
                        duration: window(&mut rng),
                    },
                    3 if spec.n_nodes > 0 => FaultKind::LinkDown {
                        node: rng.random_range(0..spec.n_nodes),
                        duration: window(&mut rng),
                    },
                    4 if spec.n_osts > 0 => FaultKind::OstDegrade {
                        ost: rng.random_range(0..spec.n_osts),
                        factor: rng.random_range(2.0..6.0),
                        duration: window(&mut rng),
                    },
                    5 if spec.n_osts > 0 => FaultKind::MdsStall {
                        duration: window(&mut rng),
                    },
                    6 => FaultKind::KvsDelay {
                        delay: SimDuration::from_millis(rng.random_range(5..50)),
                        duration: window(&mut rng),
                    },
                    // Appended after every pre-existing class: the draw
                    // order is sequential, so plans generated without
                    // shards (n_kvs_shards = 0) keep their exact events.
                    7 if spec.n_kvs_shards > 0 => FaultKind::KvsShardCrash {
                        shard: rng.random_range(0..spec.n_kvs_shards),
                    },
                    _ => continue,
                };
                events.push(FaultEvent { at, kind });
            }
        }
        FaultPlan::scheduled(events)
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Canonical one-event-per-line text form. Byte-stable for a given
    /// plan — the chaos suite compares these across same-seed reruns.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{} {}\n", e.at.nanos(), e.kind));
        }
        out
    }
}

/// Counters for faults actually injected (a scheduled fault may be a
/// no-op if, say, its node index exceeds the topology).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total fault windows opened.
    pub injected: u64,
    /// Node crash windows opened.
    pub crashes: u64,
    /// Node restarts completed.
    pub restarts: u64,
    /// KVS broker shards killed.
    pub kvs_shard_crashes: u64,
}

/// Recovery-hook callback invoked with the node index at crash / restart
/// instants.
pub(crate) type NodeHook = Box<dyn Fn(u32)>;

#[derive(Default)]
struct BoardInner {
    node_down: Vec<u32>,   // outage nesting depth per node
    link_down: Vec<u32>,   // link flap nesting depth per node
    nvme_error: Vec<u32>,  // error-window nesting depth per node
    nvme_factor: Vec<f64>, // multiplicative slowdown per node (1.0 = healthy)
    ost_factor: Vec<f64>,  // multiplicative slowdown per OST
    mds_stall_until: Option<SimTime>,
    kvs_delay: Option<SimDuration>,
    kvs_delay_depth: u32,
    // Permanently-dead broker shards, grown on demand (true = dead).
    kvs_shard_down: Vec<bool>,
    stats: FaultStats,
    crash_hooks: Vec<NodeHook>,
    restart_hooks: Vec<NodeHook>,
    kvs_shard_hooks: Vec<NodeHook>,
}

/// Armed runtime fault state, shared by every subsystem of one run.
///
/// Cloning is cheap (an `Rc`). All mutation happens from simulator timers
/// armed by [`FaultBoard::arm`]; subsystems only read, except through the
/// registered recovery hooks.
#[derive(Clone)]
pub struct FaultBoard {
    ctx: Ctx,
    inner: Rc<RefCell<BoardInner>>,
    up: Rc<Vec<Notify>>, // per-node restart signal
}

impl FaultBoard {
    /// Build an idle board for a topology of `n_nodes` nodes and `n_osts`
    /// OSTs. Nothing fires until [`FaultBoard::arm`].
    pub fn new(ctx: &Ctx, n_nodes: usize, n_osts: usize) -> Self {
        FaultBoard {
            ctx: ctx.clone(),
            inner: Rc::new(RefCell::new(BoardInner {
                node_down: vec![0; n_nodes],
                link_down: vec![0; n_nodes],
                nvme_error: vec![0; n_nodes],
                nvme_factor: vec![1.0; n_nodes],
                ost_factor: vec![1.0; n_osts],
                ..BoardInner::default()
            })),
            up: Rc::new((0..n_nodes).map(|_| Notify::new()).collect()),
        }
    }

    /// Register a hook that runs at the instant a node crashes (before
    /// any retry observes the outage). Used by staging to mark frames on
    /// the node's burst-buffer allocation as lost.
    pub fn on_crash(&self, hook: impl Fn(u32) + 'static) {
        self.inner.borrow_mut().crash_hooks.push(Box::new(hook));
    }

    /// Register a hook that runs at the instant a node restarts. Used by
    /// staging to re-publish spilled frames.
    pub fn on_restart(&self, hook: impl Fn(u32) + 'static) {
        self.inner.borrow_mut().restart_hooks.push(Box::new(hook));
    }

    /// Register a hook that runs at the instant a KVS broker shard is
    /// killed (invoked with the shard index). The mesh servers use it to
    /// flush parked waiters so no client hangs on a dead shard.
    pub fn on_kvs_shard_crash(&self, hook: impl Fn(u32) + 'static) {
        self.inner.borrow_mut().kvs_shard_hooks.push(Box::new(hook));
    }

    /// Arm every event in `plan` as simulator timers. An empty plan arms
    /// nothing. Call once, before `Sim::run`.
    pub fn arm(&self, plan: &FaultPlan) {
        for e in plan.events() {
            let board = self.clone();
            let kind = e.kind.clone();
            self.ctx.call_after(e.at, move || board.apply(kind));
        }
    }

    fn apply(&self, kind: FaultKind) {
        let n_nodes = self.inner.borrow().node_down.len() as u32;
        let n_osts = self.inner.borrow().ost_factor.len() as u32;
        {
            let mut b = self.inner.borrow_mut();
            b.stats.injected += 1;
        }
        match kind {
            FaultKind::NodeCrash { node, down_for } if node < n_nodes => {
                let hooks_run = {
                    let mut b = self.inner.borrow_mut();
                    b.stats.crashes += 1;
                    b.node_down[node as usize] += 1;
                    b.node_down[node as usize] == 1
                };
                if hooks_run {
                    let hooks = std::mem::take(&mut self.inner.borrow_mut().crash_hooks);
                    for h in &hooks {
                        h(node);
                    }
                    self.inner.borrow_mut().crash_hooks = hooks;
                }
                let board = self.clone();
                self.ctx.call_after(down_for, move || board.restart(node));
            }
            FaultKind::NvmeDegrade {
                node,
                factor,
                duration,
            } if node < n_nodes => {
                {
                    let mut b = self.inner.borrow_mut();
                    b.nvme_factor[node as usize] *= factor.max(1.0);
                }
                let board = self.clone();
                self.ctx.call_after(duration, move || {
                    board.inner.borrow_mut().nvme_factor[node as usize] /= factor.max(1.0);
                });
            }
            FaultKind::NvmeError { node, duration } if node < n_nodes => {
                {
                    let mut b = self.inner.borrow_mut();
                    b.nvme_error[node as usize] += 1;
                }
                let board = self.clone();
                self.ctx.call_after(duration, move || {
                    board.inner.borrow_mut().nvme_error[node as usize] -= 1;
                });
            }
            FaultKind::LinkDown { node, duration } if node < n_nodes => {
                {
                    let mut b = self.inner.borrow_mut();
                    b.link_down[node as usize] += 1;
                }
                let board = self.clone();
                self.ctx.call_after(duration, move || {
                    board.inner.borrow_mut().link_down[node as usize] -= 1;
                });
            }
            FaultKind::OstDegrade {
                ost,
                factor,
                duration,
            } if ost < n_osts => {
                {
                    let mut b = self.inner.borrow_mut();
                    b.ost_factor[ost as usize] *= factor.max(1.0);
                }
                let board = self.clone();
                self.ctx.call_after(duration, move || {
                    board.inner.borrow_mut().ost_factor[ost as usize] /= factor.max(1.0);
                });
            }
            FaultKind::MdsStall { duration } => {
                let until = self.ctx.now() + duration;
                {
                    let mut b = self.inner.borrow_mut();
                    b.mds_stall_until = Some(match b.mds_stall_until {
                        Some(t) if t > until => t,
                        _ => until,
                    });
                }
                let board = self.clone();
                self.ctx.call_after(duration, move || {
                    let now = board.ctx.now();
                    let mut b = board.inner.borrow_mut();
                    if b.mds_stall_until.is_some_and(|t| t <= now) {
                        b.mds_stall_until = None;
                    }
                });
            }
            FaultKind::KvsDelay { delay, duration } => {
                {
                    let mut b = self.inner.borrow_mut();
                    b.kvs_delay_depth += 1;
                    b.kvs_delay = Some(match b.kvs_delay {
                        Some(d) if d > delay => d,
                        _ => delay,
                    });
                }
                let board = self.clone();
                self.ctx.call_after(duration, move || {
                    let mut b = board.inner.borrow_mut();
                    b.kvs_delay_depth -= 1;
                    if b.kvs_delay_depth == 0 {
                        b.kvs_delay = None;
                    }
                });
            }
            FaultKind::KvsShardCrash { shard } => {
                {
                    let mut b = self.inner.borrow_mut();
                    b.stats.kvs_shard_crashes += 1;
                    if b.kvs_shard_down.len() <= shard as usize {
                        b.kvs_shard_down.resize(shard as usize + 1, false);
                    }
                    b.kvs_shard_down[shard as usize] = true;
                }
                // Permanent: no close timer. Run the flush hooks so
                // waiters parked in the dead shard fail typed now.
                let hooks = std::mem::take(&mut self.inner.borrow_mut().kvs_shard_hooks);
                for h in &hooks {
                    h(shard);
                }
                self.inner.borrow_mut().kvs_shard_hooks = hooks;
            }
            // Out-of-range targets: counted as injected, otherwise no-ops.
            _ => {}
        }
    }

    fn restart(&self, node: u32) {
        let back_up = {
            let mut b = self.inner.borrow_mut();
            b.stats.restarts += 1;
            b.node_down[node as usize] -= 1;
            b.node_down[node as usize] == 0
        };
        if back_up {
            let hooks = std::mem::take(&mut self.inner.borrow_mut().restart_hooks);
            for h in &hooks {
                h(node);
            }
            self.inner.borrow_mut().restart_hooks = hooks;
            self.up[node as usize].notify_all();
        }
    }

    /// Is the node's software stack running?
    pub fn node_up(&self, node: u32) -> bool {
        self.inner
            .borrow()
            .node_down
            .get(node as usize)
            .is_none_or(|d| *d == 0)
    }

    /// Can traffic flow between two nodes right now? (Both ends up and
    /// neither link flapped.)
    pub fn reachable(&self, a: u32, b: u32) -> bool {
        let inner = self.inner.borrow();
        let ok = |n: u32| {
            inner.node_down.get(n as usize).is_none_or(|d| *d == 0)
                && inner.link_down.get(n as usize).is_none_or(|d| *d == 0)
        };
        ok(a) && ok(b)
    }

    /// Park until the node's stack is running again; returns immediately
    /// if it already is. Models a paused job step during an outage.
    pub fn hold_until_up(&self, node: u32) -> impl Future<Output = ()> + '_ {
        async move {
            while !self.node_up(node) {
                self.up[node as usize].wait().await;
            }
        }
    }

    /// Current NVMe service-time multiplier for the node (1.0 = healthy).
    pub fn nvme_factor(&self, node: u32) -> f64 {
        *self
            .inner
            .borrow()
            .nvme_factor
            .get(node as usize)
            .unwrap_or(&1.0)
    }

    /// Is the node's NVMe currently returning I/O errors?
    pub fn nvme_error(&self, node: u32) -> bool {
        self.inner
            .borrow()
            .nvme_error
            .get(node as usize)
            .is_some_and(|d| *d > 0)
    }

    /// Current service-time multiplier for an OST (1.0 = healthy).
    pub fn ost_factor(&self, ost: u32) -> f64 {
        *self
            .inner
            .borrow()
            .ost_factor
            .get(ost as usize)
            .unwrap_or(&1.0)
    }

    /// If the MDS is stalled, the instant the stall lifts.
    pub fn mds_stall_until(&self) -> Option<SimTime> {
        let b = self.inner.borrow();
        match b.mds_stall_until {
            Some(t) if t > self.ctx.now() => Some(t),
            _ => None,
        }
    }

    /// Extra per-request service delay every KVS broker pays, if a delay
    /// window is open.
    pub fn kvs_delay(&self) -> Option<SimDuration> {
        self.inner.borrow().kvs_delay
    }

    /// Is the KVS broker shard still alive? (Shards die permanently;
    /// there is no restart for a killed broker.)
    pub fn kvs_shard_up(&self, shard: u32) -> bool {
        !self
            .inner
            .borrow()
            .kvs_shard_down
            .get(shard as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Snapshot of injection counters.
    pub fn stats(&self) -> FaultStats {
        self.inner.borrow().stats
    }
}

/// Exponential backoff with jitter and per-attempt timeouts.
///
/// Attempt `k` (0-based) waits `min(cap, base · 2ᵏ)` scaled by a uniform
/// jitter draw in `[1 − jitter_frac, 1 + jitter_frac]` before retrying.
/// `max_attempts` bounds the total number of attempts (first try
/// included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Nominal delay before the first retry.
    pub base: SimDuration,
    /// Upper bound on the nominal (pre-jitter) delay.
    pub cap: SimDuration,
    /// Total attempts allowed, first try included. Must be ≥ 1.
    pub max_attempts: u32,
    /// Half-width of the multiplicative jitter band, in `[0, 1]`.
    pub jitter_frac: f64,
    /// Per-attempt timeout for the guarded operation.
    pub attempt_timeout: SimDuration,
}

impl RetryPolicy {
    /// Defaults tuned for the simulated fabric: first retry after 100 µs,
    /// capped at 50 ms, 8 attempts, ±25 % jitter, 20 ms per attempt.
    pub fn transport_default() -> Self {
        RetryPolicy {
            base: SimDuration::from_micros(100),
            cap: SimDuration::from_millis(50),
            max_attempts: 8,
            jitter_frac: 0.25,
            attempt_timeout: SimDuration::from_millis(20),
        }
    }

    /// The nominal (pre-jitter) backoff before retry `attempt` (0-based):
    /// `min(cap, base · 2^attempt)`, monotone non-decreasing in `attempt`.
    pub(crate) fn nominal_backoff(&self, attempt: u32) -> SimDuration {
        let mult = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let shifted = self.base.nanos().saturating_mul(mult);
        SimDuration::from_nanos(shifted.min(self.cap.nanos()))
    }

    /// The jittered backoff before retry `attempt`: the nominal delay
    /// scaled by a uniform draw in `[1 − jitter_frac, 1 + jitter_frac]`.
    /// With `jitter_frac == 0` no RNG draw is made.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let nominal = self.nominal_backoff(attempt);
        let j = self.jitter_frac.clamp(0.0, 1.0);
        if j == 0.0 {
            return nominal;
        }
        let scale: f64 = rng.random_range((1.0 - j)..(1.0 + j));
        nominal.mul_f64(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    fn plan_one(at_ms: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_millis(at_ms),
            kind,
        }])
    }

    #[test]
    fn generate_is_seed_deterministic_and_seed_sensitive() {
        let spec = ChaosSpec {
            n_nodes: 4,
            n_osts: 3,
            events_per_class: 2.0,
            ..ChaosSpec::default()
        };
        let a = FaultPlan::generate(&spec, 42);
        let b = FaultPlan::generate(&spec, 42);
        let c = FaultPlan::generate(&spec, 43);
        assert_eq!(a.describe(), b.describe());
        assert_ne!(a.describe(), c.describe());
        assert!(!a.is_empty());
        // Sorted by start time.
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn empty_plan_arms_no_timers() {
        let sim = Sim::new(0);
        let board = FaultBoard::new(&sim.ctx(), 2, 0);
        board.arm(&FaultPlan::empty());
        let report = sim.run();
        assert_eq!(report.events_processed, 0);
        assert_eq!(board.stats(), FaultStats::default());
    }

    #[test]
    fn crash_window_opens_and_closes() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 2, 0);
        board.arm(&plan_one(
            10,
            FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_millis(5),
            },
        ));
        let b2 = board.clone();
        let h = sim.spawn(async move {
            let ctx = ctx;
            ctx.sleep(SimDuration::from_millis(12)).await;
            let mid = b2.node_up(1);
            b2.hold_until_up(1).await;
            (mid, ctx.now().nanos())
        });
        sim.run();
        let (mid, t) = h.try_take().unwrap();
        assert!(!mid);
        assert_eq!(t, 15_000_000);
        assert_eq!(board.stats().crashes, 1);
        assert_eq!(board.stats().restarts, 1);
        assert!(board.node_up(1));
    }

    #[test]
    fn crash_and_restart_hooks_fire_once_each() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 2, 0);
        let log: Rc<RefCell<Vec<(u32, &'static str)>>> = Default::default();
        let l1 = log.clone();
        board.on_crash(move |n| l1.borrow_mut().push((n, "crash")));
        let l2 = log.clone();
        board.on_restart(move |n| l2.borrow_mut().push((n, "restart")));
        board.arm(&plan_one(
            1,
            FaultKind::NodeCrash {
                node: 0,
                down_for: SimDuration::from_millis(2),
            },
        ));
        sim.run();
        assert_eq!(*log.borrow(), vec![(0, "crash"), (0, "restart")]);
    }

    #[test]
    fn degrade_windows_scale_and_restore() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 1, 2);
        let mut plan = FaultPlan::empty();
        plan.push(
            SimDuration::from_millis(1),
            FaultKind::NvmeDegrade {
                node: 0,
                factor: 4.0,
                duration: SimDuration::from_millis(2),
            },
        );
        plan.push(
            SimDuration::from_millis(1),
            FaultKind::OstDegrade {
                ost: 1,
                factor: 3.0,
                duration: SimDuration::from_millis(2),
            },
        );
        board.arm(&plan);
        let b2 = board.clone();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(2)).await;
            (b2.nvme_factor(0), b2.ost_factor(1))
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (4.0, 3.0));
        assert_eq!(board.nvme_factor(0), 1.0);
        assert_eq!(board.ost_factor(1), 1.0);
    }

    #[test]
    fn link_flap_breaks_reachability_both_ways() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 3, 0);
        board.arm(&plan_one(
            1,
            FaultKind::LinkDown {
                node: 1,
                duration: SimDuration::from_millis(1),
            },
        ));
        let b2 = board.clone();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_micros(1500)).await;
            (b2.reachable(0, 1), b2.reachable(1, 2), b2.reachable(0, 2))
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (false, false, true));
        assert!(board.reachable(0, 1));
    }

    #[test]
    fn kvs_and_mds_windows_expose_delays() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 1, 1);
        let mut plan = FaultPlan::empty();
        plan.push(
            SimDuration::from_millis(1),
            FaultKind::KvsDelay {
                delay: SimDuration::from_millis(7),
                duration: SimDuration::from_millis(3),
            },
        );
        plan.push(
            SimDuration::from_millis(1),
            FaultKind::MdsStall {
                duration: SimDuration::from_millis(4),
            },
        );
        board.arm(&plan);
        let b2 = board.clone();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(2)).await;
            (b2.kvs_delay(), b2.mds_stall_until())
        });
        sim.run();
        let (delay, stall) = h.try_take().unwrap();
        assert_eq!(delay, Some(SimDuration::from_millis(7)));
        assert_eq!(stall, Some(SimTime::from_nanos(5_000_000)));
        assert_eq!(board.kvs_delay(), None);
        assert_eq!(board.mds_stall_until(), None);
    }

    #[test]
    fn kvs_shard_crash_is_permanent_and_fires_hooks_once() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 2, 0);
        let log: Rc<RefCell<Vec<u32>>> = Default::default();
        let l = log.clone();
        board.on_kvs_shard_crash(move |s| l.borrow_mut().push(s));
        board.arm(&plan_one(5, FaultKind::KvsShardCrash { shard: 2 }));
        assert!(board.kvs_shard_up(2), "alive before the event");
        sim.run();
        assert!(!board.kvs_shard_up(2), "dead after the event, forever");
        assert!(board.kvs_shard_up(0), "other shards unaffected");
        assert_eq!(*log.borrow(), vec![2]);
        assert_eq!(board.stats().kvs_shard_crashes, 1);
        assert_eq!(board.stats().restarts, 0, "shards never restart");
    }

    #[test]
    fn generated_plans_without_shards_are_unperturbed_by_the_new_class() {
        // Class 7 draws are appended after every pre-existing class, so
        // the same (spec, seed) with n_kvs_shards = 0 must reproduce the
        // exact schedule PR 5 generated.
        let spec = ChaosSpec {
            n_nodes: 3,
            n_osts: 2,
            events_per_class: 2.0,
            ..ChaosSpec::default()
        };
        let plan = FaultPlan::generate(&spec, 0xD1AD);
        assert!(!plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::KvsShardCrash { .. })));
        let with_shards = FaultPlan::generate(
            &ChaosSpec {
                n_kvs_shards: 4,
                ..spec.clone()
            },
            0xD1AD,
        );
        // Every pre-existing event survives verbatim; only shard crashes
        // are added.
        let old: Vec<&FaultEvent> = plan.events().iter().collect();
        let kept: Vec<&FaultEvent> = with_shards
            .events()
            .iter()
            .filter(|e| !matches!(e.kind, FaultKind::KvsShardCrash { .. }))
            .collect();
        assert_eq!(old, kept);
        assert_eq!(with_shards.len(), plan.len() + 2);
    }

    #[test]
    fn backoff_without_jitter_is_nominal_and_capped() {
        let p = RetryPolicy {
            base: SimDuration::from_micros(100),
            cap: SimDuration::from_millis(1),
            max_attempts: 10,
            jitter_frac: 0.0,
            attempt_timeout: SimDuration::from_millis(5),
        };
        assert_eq!(p.nominal_backoff(0).nanos(), 100_000);
        assert_eq!(p.nominal_backoff(1).nanos(), 200_000);
        assert_eq!(p.nominal_backoff(3).nanos(), 800_000);
        assert_eq!(p.nominal_backoff(4).nanos(), 1_000_000); // capped
        assert_eq!(p.nominal_backoff(63).nanos(), 1_000_000);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.backoff(2, &mut rng), p.nominal_backoff(2));
    }
}

#[cfg(test)]
mod retry_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Nominal backoff is monotone non-decreasing and never exceeds
        // the cap, for any (base, cap, attempt) combination.
        #[test]
        fn nominal_backoff_is_monotone_and_capped(
            base_us in 1u64..10_000,
            cap_us in 1u64..1_000_000,
            attempt in 0u32..80,
        ) {
            let p = RetryPolicy {
                base: SimDuration::from_micros(base_us),
                cap: SimDuration::from_micros(cap_us),
                max_attempts: 8,
                jitter_frac: 0.0,
                attempt_timeout: SimDuration::from_millis(1),
            };
            let d = p.nominal_backoff(attempt);
            prop_assert!(d <= p.cap);
            if attempt > 0 {
                prop_assert!(d >= p.nominal_backoff(attempt - 1));
            }
            // Below the cap the law is exactly base · 2^attempt.
            let mult = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
            let exact = (base_us * 1_000).saturating_mul(mult);
            if exact < p.cap.nanos() {
                prop_assert_eq!(d.nanos(), exact);
            }
        }

        // Jittered backoff stays inside the configured multiplicative
        // band around the nominal delay.
        #[test]
        fn jitter_stays_in_band(
            base_us in 1u64..10_000,
            cap_us in 100u64..1_000_000,
            attempt in 0u32..40,
            jitter in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let p = RetryPolicy {
                base: SimDuration::from_micros(base_us),
                cap: SimDuration::from_micros(cap_us),
                max_attempts: 8,
                jitter_frac: jitter,
                attempt_timeout: SimDuration::from_millis(1),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let d = p.backoff(attempt, &mut rng).as_secs_f64();
            let nominal = p.nominal_backoff(attempt).as_secs_f64();
            // mul_f64 rounds to whole nanoseconds: allow half-ulp slack.
            let slack = 0.51e-9;
            prop_assert!(d >= nominal * (1.0 - jitter) - slack,
                "d={d} below band floor {}", nominal * (1.0 - jitter));
            prop_assert!(d <= nominal * (1.0 + jitter) + slack,
                "d={d} above band ceiling {}", nominal * (1.0 + jitter));
        }

        // A retry loop driven by the policy performs at most
        // `max_attempts` attempts for any policy parameters, and exactly
        // `max_attempts` when every attempt fails.
        #[test]
        fn attempts_never_exceed_limit(
            base_us in 1u64..1_000,
            cap_us in 1u64..10_000,
            max_attempts in 1u32..12,
            jitter in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let p = RetryPolicy {
                base: SimDuration::from_micros(base_us),
                cap: SimDuration::from_micros(cap_us),
                max_attempts,
                jitter_frac: jitter,
                attempt_timeout: SimDuration::from_millis(1),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            // Mirror the retry loop shape used by transport: attempt,
            // then back off unless the attempt budget is exhausted.
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                let failed = true; // worst case: everything fails
                if !failed || attempts >= p.max_attempts {
                    break;
                }
                let _ = p.backoff(attempts - 1, &mut rng);
            }
            prop_assert_eq!(attempts, p.max_attempts);
        }
    }
}
