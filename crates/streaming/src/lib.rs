//! # streaming — an ADIOS2 SST-style streaming data plane
//!
//! The paper's workflows move frames through files (XFS, Lustre) or the
//! DYAD managed directory in a strict 1:1 producer→consumer shape. This
//! extension points past that, following Poeschel et al.
//! (openPMD/ADIOS2 streaming) and Eisenhauer et al. (SST): a *streaming*
//! backend where producers publish **steps** and subscriber groups pull
//! them over the fabric, with flow control instead of unbounded staging.
//!
//! This crate is that backend, built as a peer of `dyad` on the same
//! substrates:
//!
//! * **Publishers** write each step (one MD frame) to node-local
//!   storage and publish `(owner, size)` step metadata to the [`kvs`] —
//!   the rendezvous path DYAD uses. The two backends differ only in
//!   protocol, not in plumbing: the plumbing is [`staging::plane`], of
//!   which this crate holds the [`PLANE`] row.
//! * A **bounded in-flight window** (`StreamWindow`) backpressures the
//!   publisher: at most `window` unacknowledged steps may be open.
//!   Release rides the *existing* staging consumption-ack keys
//!   ([`staging::ack_key`]): subscribers commit acks to the KVS for
//!   retention anyway, and the publisher watches those same keys, so
//!   there is no second ack channel to leak slots under faults.
//! * **Subscriber groups** are broadcast: every subscriber of a 1→K
//!   group consumes every step, and the step's window slot frees once
//!   all K have acked.
//! * **Fan-in groups** are K→1: one reducer consumes every step of its
//!   K publishers and merges them, one merge per leaf after the first
//!   (the reducer role lives in `mdflow::workflow`).
//! * Under a fault plan, a crashed subscriber's window slots can be
//!   **reclaimed** (`reclaim_on_crash`) instead of head-of-line
//!   stalling the publisher until the restart; the stalling variant is
//!   kept as the reference leg of that A/B.
//! * `try_publish` and `try_consume_step` return the plane's typed
//!   [`PlaneError`]; the fault board's absence is the infallible case,
//!   which `publish` and `consume_step` unwrap. How the window waits is
//!   the one policy here that differs under a board, selected on
//!   `Transport::faults()` like the plane's own.
//!
//! Every phase is wrapped in [`instrument`] regions (`stream_publish`,
//! `stream_window_wait`, `stream_sync`, `stream_get_data`, ...) so the
//! report layer can split movement from idle time exactly as it does
//! for the other three backends.

#![warn(missing_docs)]
// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use faults::FaultBoard;
use instrument::Recorder;
use kvs::KvsClient;
use localfs::LocalFs;
use rand::rngs::StdRng;
use simcore::{Ctx, SimDuration};
use staging::plane::{Backend, Plane, PlaneError, PlaneSpec, PlaneStats, Session};
use staging::{ack_key, StagingManager};
use transport::{AmId, Payload, Transport, TransportError};

/// The window stall inside `stream_publish`.
const WINDOW_WAIT: &str = "stream_window_wait";

/// Streaming's row of the staged plane (AM id "ST").
pub const PLANE: Backend = Backend {
    am: AmId(0x5354),
    managed_dir: "/stream",
    rng_salt: 0x5354_0000,
    ack_unstaged: true,
    put: "stream_publish",
    put_idle: &[WINDOW_WAIT, staging::plane::BACKPRESSURE],
    put_write: "stream_write",
    put_commit: "stream_commit",
    get: "stream_consume",
    get_flock: "stream_sync",
    get_sync: "stream_sync",
    get_data: "stream_get_data",
    get_store: "stream_cons_store",
    get_pfs: "stream_pfs_fallback",
};

// ---------------------------------------------------------------------------
// Bounded in-flight window
// ---------------------------------------------------------------------------

/// One acknowledging subscriber of an open step: the staging consumer id
/// it acks with, and the node it runs on (for crash reclaim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAcker {
    /// Staging consumer id the subscriber publishes acks under.
    pub consumer: String,
    /// Node the subscriber runs on.
    pub node: u32,
}

/// Waiters of one open (published but not fully acked) step.
#[derive(Debug, Clone)]
struct PendingStep {
    /// Managed path the step was published under.
    path: String,
    /// consumer id → node, for every ack still outstanding.
    waiting: BTreeMap<String, u32>,
}

/// The publisher-side bounded in-flight window: at most `capacity`
/// steps may be open (published but not acknowledged by each of its
/// ackers) at once. Pure bookkeeping — the async machinery around
/// it lives in [`StreamPublisher`] — so the safety invariant
/// (never more than `capacity` open steps) is property-testable without a
/// simulator.
#[derive(Debug, Clone)]
pub(crate) struct StreamWindow {
    capacity: usize,
    pending: BTreeMap<u64, PendingStep>,
}

impl StreamWindow {
    /// A window admitting `capacity >= 1` concurrent open steps.
    pub(crate) fn new(capacity: usize) -> StreamWindow {
        assert!(capacity >= 1, "window capacity must be at least 1");
        StreamWindow {
            capacity,
            pending: BTreeMap::new(),
        }
    }

    /// Whether another step may open without violating the bound.
    pub(crate) fn can_open(&self) -> bool {
        self.pending.len() < self.capacity
    }

    /// Open `step` (published under `path`), waiting on `ackers`.
    /// Panics if the window is full or the step is already open — the
    /// publisher must gate on [`StreamWindow::can_open`] first.
    pub(crate) fn open(&mut self, step: u64, path: &str, ackers: &[StreamAcker]) {
        assert!(
            self.can_open(),
            "window overflow: opening step {step} with {} already in flight",
            self.pending.len()
        );
        assert!(!ackers.is_empty(), "step {step} has no acking subscriber");
        let waiting: BTreeMap<String, u32> = ackers
            .iter()
            .map(|a| (a.consumer.clone(), a.node))
            .collect();
        let prev = self.pending.insert(
            step,
            PendingStep {
                path: path.to_string(),
                waiting,
            },
        );
        assert!(prev.is_none(), "step {step} opened twice");
    }

    /// Record `consumer`'s ack of `step`. Returns `true` when this ack
    /// freed the step's slot. Unknown steps and duplicate acks are
    /// ignored (acks are idempotent KVS keys).
    pub(crate) fn ack(&mut self, step: u64, consumer: &str) -> bool {
        let Some(p) = self.pending.get_mut(&step) else {
            return false;
        };
        p.waiting.remove(consumer);
        if p.waiting.is_empty() {
            self.pending.remove(&step);
            true
        } else {
            false
        }
    }

    /// Forget `step` entirely: a publish failed before the
    /// step became consumable, so no ack will ever arrive for it.
    /// Returns whether the step was open.
    pub(crate) fn abort(&mut self, step: u64) -> bool {
        self.pending.remove(&step).is_some()
    }

    /// Drop every outstanding ack whose node is reported down, freeing
    /// any step left with no waiters. Returns the number of waiter
    /// entries reclaimed (the subscriber-crash recovery path).
    pub(crate) fn reclaim_down(&mut self, down: impl Fn(u32) -> bool) -> u64 {
        let mut reclaimed = 0;
        let steps: Vec<u64> = self.pending.keys().copied().collect();
        for step in steps {
            let p = self.pending.get_mut(&step).expect("step present");
            let before = p.waiting.len();
            p.waiting.retain(|_, node| !down(*node));
            reclaimed += (before - p.waiting.len()) as u64;
            if p.waiting.is_empty() {
                self.pending.remove(&step);
            }
        }
        reclaimed
    }

    /// Forget every open step whose path `lost` names: its frame is gone,
    /// so no subscriber will ever ack it.
    fn forget_lost(&mut self, lost: impl Fn(&str) -> bool) {
        self.pending.retain(|_, p| !lost(&p.path));
    }

    /// Every outstanding `(step, path, waiters)`, oldest step first.
    pub(crate) fn entries(&self) -> Vec<(u64, String, Vec<StreamAcker>)> {
        self.pending
            .iter()
            .map(|(step, p)| {
                let waiters = p
                    .waiting
                    .iter()
                    .map(|(c, n)| StreamAcker {
                        consumer: c.clone(),
                        node: *n,
                    })
                    .collect();
                (*step, p.path.clone(), waiters)
            })
            .collect()
    }

    /// The oldest step's first outstanding `(step, path, consumer)` —
    /// the head-of-line ack the publisher parks on when full.
    pub(crate) fn oldest_waiter(&self) -> Option<(u64, String, String)> {
        self.pending.iter().next().map(|(step, p)| {
            let consumer = p.waiting.keys().next().expect("open step has waiters");
            (*step, p.path.clone(), consumer.clone())
        })
    }
}

// ---------------------------------------------------------------------------
// Spec + stats
// ---------------------------------------------------------------------------

/// Streaming tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// What streaming shares with every staged backend. The runner
    /// hands streaming the DYAD plane of the calibration (60 µs commit
    /// overhead), so the default's 40 µs is read only by callers that
    /// build a `StreamSpec` themselves: unit tests and `perf`'s
    /// streaming probe.
    pub plane: PlaneSpec,
    /// Bounded in-flight window: max unacked steps per publisher.
    pub window: u32,
    /// Under a fault plan, reclaim window slots held by subscribers on
    /// crashed nodes instead of head-of-line stalling until restart.
    pub reclaim_on_crash: bool,
    /// Poll interval of the window-stall loop under a fault board
    /// (without one the wait parks on a KVS watch and never polls).
    pub stall_poll: SimDuration,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            plane: PlaneSpec {
                commit_overhead: SimDuration::from_micros(40),
                ..PlaneSpec::default()
            },
            window: 4,
            reclaim_on_crash: true,
            stall_poll: SimDuration::from_millis(2),
        }
    }
}

/// Window counters of one node's publishers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Publishes that found the window full and had to wait.
    pub window_stalls: u64,
    /// Total nanoseconds spent stalled on a full window.
    pub window_stall_ns: u64,
    /// Outstanding-ack entries reclaimed from crashed subscribers.
    pub slots_reclaimed: u64,
    /// Window ack-refresh sweeps (KVS ack-key reads).
    pub ack_refreshes: u64,
}

// ---------------------------------------------------------------------------
// Per-node service
// ---------------------------------------------------------------------------

/// The per-node stream service: owns the node's managed directory,
/// serves remote step-fetch requests, and opens publisher/subscriber
/// sessions.
pub struct StreamService {
    plane: Plane,
    spec: StreamSpec,
    window: RefCell<WindowStats>,
}

impl StreamService {
    /// Start the stream service on `node` without staging retention
    /// (unit tests; the runner always passes a staging manager).
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: StreamSpec,
    ) -> Rc<StreamService> {
        Self::start_staged(ctx, tp, node, fs, kvs, spec, None)
    }

    /// Start the stream service on `node` under a [`StagingManager`]
    /// (see [`Plane::start`]): subscribers' consumption acks drive both
    /// retention *and* window release.
    pub fn start_staged(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: StreamSpec,
        staging: Option<Rc<StagingManager>>,
    ) -> Rc<StreamService> {
        Rc::new(StreamService {
            plane: Plane::start(ctx, tp, node, fs, kvs, staging, &PLANE, spec.plane),
            spec,
            window: RefCell::default(),
        })
    }

    /// Plane counters (steps published are its puts, steps consumed its
    /// gets).
    pub fn stats(&self) -> PlaneStats {
        self.plane.stats()
    }

    /// Window counters.
    pub fn window_stats(&self) -> WindowStats {
        *self.window.borrow()
    }

    /// Open a publisher session (owns a bounded in-flight window).
    pub fn publisher(self: &Rc<Self>) -> StreamPublisher {
        StreamPublisher {
            svc: self.clone(),
            window: StreamWindow::new(self.spec.window as usize),
        }
    }

    /// Open a subscriber session with an explicit consumption-ack id
    /// (the id the workflow registered on the publisher's staging
    /// manager — acks under this id drive retention and window release).
    pub fn subscriber(self: &Rc<Self>, id: &str) -> StreamSubscriber {
        StreamSubscriber {
            svc: self.clone(),
            session: self.plane.session(id, false),
        }
    }
}

// ---------------------------------------------------------------------------
// Publisher
// ---------------------------------------------------------------------------

/// Publisher-side session: the bounded window plus the publish path.
pub struct StreamPublisher {
    svc: Rc<StreamService>,
    window: StreamWindow,
}

impl StreamPublisher {
    /// Sweep the KVS ack keys of every pending step and release the
    /// fully-acked ones. Lazy: only called when the window looks full,
    /// so steady-state publishes cost no extra metadata traffic.
    fn refresh_acks(&mut self) -> impl Future<Output = Result<(), TransportError>> + '_ {
        async move {
            for (step, path, waiters) in self.window.entries() {
                for a in waiters {
                    let key = ack_key(&path, &a.consumer);
                    if self.svc.plane.kvs().try_lookup(&key).await?.is_some() {
                        self.window.ack(step, &a.consumer);
                    }
                }
            }
            self.svc.window.borrow_mut().ack_refreshes += 1;
            Ok(())
        }
    }

    /// Drop outstanding acks owed by subscribers on crashed nodes, and
    /// every step a crash of this node lost: its subscribers read the
    /// tombstone as a typed loss and never ack it, with or without
    /// `reclaim_on_crash`.
    fn reclaim_crashed(&mut self, board: Option<&FaultBoard>) {
        let Some(board) = board else {
            return;
        };
        let plane = &self.svc.plane;
        self.window.forget_lost(|path| plane.is_lost(path));
        if !self.svc.spec.reclaim_on_crash {
            return;
        }
        let reclaimed = self.window.reclaim_down(|node| !board.node_up(node));
        if reclaimed > 0 {
            self.svc.window.borrow_mut().slots_reclaimed += reclaimed;
        }
    }

    /// Block until the window admits another step; records a window
    /// stall if it actually waited. How it waits is selected on the
    /// fault board: without one it parks on the head-of-line ack's KVS
    /// watch (no polling); with one it polls every `stall_poll` (the
    /// watch could park on a key whose committer crashed). Each sweep
    /// under a board forgets the open steps whose frames a crash lost,
    /// and, when `reclaim_on_crash` is set, also reclaims crashed
    /// subscribers' slots.
    fn await_window<'a>(
        &'a mut self,
        rec: &'a Recorder,
    ) -> impl Future<Output = Result<(), TransportError>> + 'a {
        async move {
            let board = self.svc.plane.faults();
            self.reclaim_crashed(board.as_ref());
            if self.window.can_open() {
                return Ok(());
            }
            let w = rec.region(WINDOW_WAIT);
            let t0 = self.svc.plane.ctx().now();
            let mut stalled = false;
            let res: Result<(), TransportError> = async {
                loop {
                    self.refresh_acks().await?;
                    self.reclaim_crashed(board.as_ref());
                    if self.window.can_open() {
                        return Ok(());
                    }
                    stalled = true;
                    if board.is_some() {
                        let ctx = self.svc.plane.ctx();
                        ctx.sleep(self.svc.spec.stall_poll).await;
                    } else {
                        let (_, path, consumer) = self
                            .window
                            .oldest_waiter()
                            .expect("full window has a waiter");
                        let key = ack_key(&path, &consumer);
                        self.svc.plane.kvs().try_wait_key(&key).await?;
                    }
                }
            }
            .await;
            if stalled {
                let mut stats = self.svc.window.borrow_mut();
                stats.window_stalls += 1;
                stats.window_stall_ns += (self.svc.plane.ctx().now() - t0).nanos();
            }
            w.end();
            res
        }
    }

    /// Publish step `seq` under logical name `name`: wait for a window
    /// slot, then [`Plane::put`] the step (`jitter` is the caller's
    /// backoff stream under a fault board). `ackers` are the subscribers
    /// whose acks release the slot.
    ///
    /// Call tree: `stream_publish` → { `stream_window_wait`,
    /// `staging_backpressure`, `stream_write`, `stream_commit` }.
    pub fn try_publish<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
        seq: u64,
        step: &'a [Bytes],
        ackers: &'a [StreamAcker],
        jitter: Option<&'a mut StdRng>,
    ) -> impl Future<Output = Result<(), PlaneError>> + 'a {
        async move {
            let _g = rec.region(PLANE.put);
            self.await_window(rec).await?;
            let path = self.svc.plane.managed_path(name);
            self.window.open(seq, &path, ackers);
            let put = self.svc.plane.put(rec, path, step, jitter).await;
            if put.is_err() {
                // A step that was not written is tombstoned and one that was
                // not committed is invisible: nobody will ever ack either, so
                // recycle the slot for the caller's retry.
                self.window.abort(seq);
            }
            put
        }
    }

    /// [`StreamPublisher::try_publish`] for callers running without a
    /// fault board.
    pub fn publish<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
        seq: u64,
        step: Payload,
        ackers: &'a [StreamAcker],
    ) -> impl Future<Output = ()> + 'a {
        async move {
            self.try_publish(rec, name, seq, &step, ackers, None)
                .await
                .expect("publish cannot fail without a fault board (local write error?)")
        }
    }
}

// ---------------------------------------------------------------------------
// Subscriber
// ---------------------------------------------------------------------------

/// Subscriber-side session state (warm/cold synchronization plus the
/// consumption-ack identity).
pub struct StreamSubscriber {
    svc: Rc<StreamService>,
    session: Session,
}

impl StreamSubscriber {
    /// Consume a step by logical name ([`Session::get`]), returning its
    /// payload and asynchronously publishing the consumption ack that
    /// releases both staging retention and the publisher's window slot.
    ///
    /// Call tree: `stream_consume` → { `stream_sync`,
    /// `stream_get_data`, `stream_cons_store`, `read_single_buf` }.
    pub fn try_consume_step<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
    ) -> impl Future<Output = Result<Payload, PlaneError>> + 'a {
        self.session.get(&self.svc.plane, rec, name)
    }

    /// [`StreamSubscriber::try_consume_step`] for callers running
    /// without a fault board.
    pub fn consume_step<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
    ) -> impl Future<Output = Payload> + 'a {
        async move {
            self.try_consume_step(rec, name)
                .await
                .expect("consume_step cannot fail without a fault board (lost or evicted step?)")
        }
    }
}

#[cfg(test)]
#[path = "../../../tests/support/frames.rs"]
mod frames;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{is_patterned_frame, patterned_frame};
    use cluster::{Cluster, ClusterSpec};
    use kvs::{KvsClient, KvsServer, KvsSpec};
    use localfs::LocalFsSpec;
    use mdsim::Model;
    use rand::SeedableRng;
    use simcore::{Sim, SimTime};
    use transport::TransportSpec;

    struct Rig {
        tp: Transport,
        services: Vec<Rc<StreamService>>,
        #[allow(dead_code)]
        kvs_server: Rc<KvsServer>,
    }

    /// n nodes; KVS broker on node 0; stream service + local fs on
    /// every node.
    fn setup(sim: &Sim, n: usize, spec: StreamSpec) -> Rig {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(n));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let kvs_server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
        let services = (0..n as u32)
            .map(|i| {
                let fs = LocalFs::new(
                    &ctx,
                    cl.node(NodeId(i)).nvme.clone(),
                    LocalFsSpec::default(),
                );
                let kc = KvsClient::new(&ctx, &tp, NodeId(i), NodeId(0), KvsSpec::default());
                StreamService::start(&ctx, &tp, NodeId(i), fs, kc, spec)
            })
            .collect();
        Rig {
            tp,
            services,
            kvs_server,
        }
    }

    /// The JAC frame of `step` these tests publish, its body patterned.
    fn step_payload(step: u64) -> Payload {
        patterned_frame(Model::Jac, step, 5)
    }

    fn acker(consumer: &str, node: u32) -> StreamAcker {
        StreamAcker {
            consumer: consumer.to_string(),
            node,
        }
    }

    #[test]
    fn publish_then_consume_same_node() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 1, StreamSpec::default());
        let svc = rig.services[0].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let f = step_payload(880);
            let mut pb = svc.publisher();
            pb.publish(&rec, "g0/s0", 0, f, &[acker("c0", 0)]).await;
            let mut sub = svc.subscriber("c0");
            let got = sub.consume_step(&rec, "g0/s0").await;
            (is_patterned_frame(&got, Model::Jac, 880, 5), rec.finish())
        });
        sim.run();
        let (ok, profile) = h.try_take().unwrap();
        assert!(ok, "step corrupted");
        assert!(profile.node(&["stream_consume", "stream_sync"]).is_some());
        assert!(profile
            .node(&["stream_consume", "stream_get_data"])
            .is_none());
        assert!(profile
            .node(&["stream_consume", "read_single_buf"])
            .is_some());
    }

    #[test]
    fn window_bounds_publisher_ahead_of_subscriber() {
        // window = 1: the second publish must wait for the first step's
        // ack, which the subscriber only sends at t ≈ 300 ms.
        let sim = Sim::new(0);
        let spec = StreamSpec {
            window: 1,
            ..StreamSpec::default()
        };
        let rig = setup(&sim, 2, spec);
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut pb = prod.publisher();
            let f0 = step_payload(0);
            pb.publish(&rec, "w/0", 0, f0, &[acker("c0", 1)]).await;
            let f1 = step_payload(1);
            pb.publish(&rec, "w/1", 1, f1, &[acker("c0", 1)]).await;
            (ctx.now().as_secs_f64(), pb.window.pending.len())
        });
        let ctx2 = sim.ctx();
        let hc = sim.spawn(async move {
            ctx2.sleep(SimDuration::from_millis(300)).await;
            let rec = Recorder::new(&ctx2);
            let mut sub = cons.subscriber("c0");
            let got = sub.consume_step(&rec, "w/0").await;
            transport::payload_len(&got)
        });
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let (t_second_publish, open) = h.try_take().expect("publisher hung on the window");
        assert!(
            t_second_publish >= 0.3,
            "second publish at {t_second_publish}s beat the ack"
        );
        assert_eq!(open, 1, "window bound violated");
        assert_eq!(hc.try_take().unwrap(), Model::Jac.frame_bytes());
        assert!(rig.services[0].window_stats().window_stalls >= 1);
        assert!(rig.services[0].window_stats().window_stall_ns > 0);
    }

    #[test]
    fn broadcast_slot_needs_every_subscriber_ack() {
        // window = 1, two subscribers: the slot frees only after BOTH
        // ack, so the second publish lands after the slower (500 ms)
        // subscriber.
        let sim = Sim::new(0);
        let spec = StreamSpec {
            window: 1,
            ..StreamSpec::default()
        };
        let rig = setup(&sim, 3, spec);
        let prod = rig.services[0].clone();
        let ctx = sim.ctx();
        let h = {
            let prod = prod.clone();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let mut pb = prod.publisher();
                let ackers = [acker("c0", 1), acker("c1", 2)];
                let f0 = step_payload(0);
                pb.publish(&rec, "b/0", 0, f0, &ackers).await;
                let f1 = step_payload(1);
                pb.publish(&rec, "b/1", 1, f1, &ackers).await;
                ctx.now().as_secs_f64()
            })
        };
        for (i, delay_ms) in [(1u32, 100u64), (2, 500)] {
            let svc = rig.services[i as usize].clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(delay_ms)).await;
                let rec = Recorder::new(&ctx);
                let mut sub = svc.subscriber(&format!("c{}", i - 1));
                sub.consume_step(&rec, "b/0").await;
            });
        }
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let t = h.try_take().expect("publisher hung");
        assert!(t >= 0.5, "slot freed before the slow subscriber: {t}s");
    }

    #[test]
    fn reclaim_frees_window_held_by_crashed_subscriber() {
        // The only acker crashes without ever consuming; with
        // reclaim_on_crash the publisher recovers the slot during the
        // outage instead of head-of-line stalling until restart.
        let sim = Sim::new(1);
        let spec = StreamSpec {
            window: 1,
            ..StreamSpec::default()
        };
        let rig = setup(&sim, 2, spec);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 2, 1);
        rig.tp.set_faults(board.clone());
        let plan = faults::FaultPlan::scheduled(vec![faults::FaultEvent {
            at: SimDuration::from_millis(100),
            kind: faults::FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_secs(30),
            },
        }]);
        board.arm(&plan);
        let prod = rig.services[0].clone();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut pb = prod.publisher();
            let mut rng = StdRng::seed_from_u64(9);
            let f0 = step_payload(0);
            pb.try_publish(&rec, "r/0", 0, &f0, &[acker("c0", 1)], Some(&mut rng))
                .await
                .expect("publish 0");
            ctx.sleep(SimDuration::from_millis(300)).await;
            let f1 = step_payload(1);
            pb.try_publish(&rec, "r/1", 1, &f1, &[acker("c0", 1)], Some(&mut rng))
                .await
                .expect("publish 1");
            ctx.now().as_secs_f64()
        });
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let t = h.try_take().expect("reclaim never freed the window");
        assert!(t < 1.0, "reclaim took until {t}s");
        assert!(rig.services[0].window_stats().slots_reclaimed >= 1);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Bounded-window invariant: driving the window with any
        // interleaving of opens and (arbitrarily permuted, possibly
        // duplicated or bogus) acks never exceeds the capacity, and
        // acking everything drains it.
        #[test]
        fn window_never_exceeds_capacity(
            capacity in 1usize..6,
            ops in proptest::collection::vec((0u8..5, 0u64..32, 0u32..4), 1..200),
        ) {
            let mut w = StreamWindow::new(capacity);
            let ackers: Vec<StreamAcker> = (0..3)
                .map(|i| StreamAcker { consumer: format!("c{i}"), node: i })
                .collect();
            let mut next_step = 0u64;
            for (op, step, who) in ops {
                match op {
                    // Open when allowed (the publisher's gate).
                    0 => {
                        if w.can_open() {
                            let k = (who as usize % 3) + 1;
                            w.open(next_step, &format!("/s/{next_step}"), &ackers[..k]);
                            next_step += 1;
                        }
                    }
                    // Ack an arbitrary (step, consumer) — possibly
                    // unknown or duplicate.
                    1 | 2 => {
                        let _ = w.ack(step, &format!("c{}", who % 3));
                    }
                    // Reclaim an arbitrary node.
                    3 => {
                        let down = who % 3;
                        let _ = w.reclaim_down(|n| n == down);
                    }
                    // Lose an arbitrary step's frame, open or not.
                    _ => {
                        let lost = format!("/s/{step}");
                        w.forget_lost(|path| path == lost);
                        prop_assert!(!w.pending.contains_key(&step));
                    }
                }
                prop_assert!(w.pending.len() <= w.capacity);
            }
            // Drain: ack every outstanding waiter.
            for (step, _, waiters) in w.entries() {
                for a in waiters {
                    w.ack(step, &a.consumer);
                }
            }
            prop_assert!(w.pending.is_empty());
        }
    }
}
