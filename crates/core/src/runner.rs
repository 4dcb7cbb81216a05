//! Runs one repetition in four phases: `Testbed::build` wires the live
//! substrates from a snapshot, `spawn_ensemble` starts the roles on
//! them, `drive` advances the simulation until the workload finished,
//! `reduce` turns the substrates' counters and the roles' profiles
//! into [`RunMetrics`] (DESIGN.md "Runner").

// Each phase stays readable on its own: `clippy.toml` sets the
// threshold to 120 code lines.
#![warn(clippy::too_many_lines)]

use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use cluster::{Cluster, NodeId};
use dyad::{DyadConsumer, DyadService, DyadSpec};
use faults::FaultBoard;
use instrument::Profile;
use kvs::{KvsClient, KvsMesh};
use localfs::LocalFs;
use mdsim::StepClock;
use pfs::{LdlmClient, LdlmServer, LdlmSpec, ParallelFs};
use serde::Serialize;
use simcore::sync::channel;
use simcore::trace::Tracer;
use simcore::{Ctx, JoinSet, RunReport, Sim, SimDuration, SimTime};
use staging::plane::{PlaneSpec, PlaneStats};
use staging::{StagingManager, StagingSpec, StagingStats};
use streaming::{StreamAcker, StreamService, StreamSpec, StreamSubscriber, WindowStats};
use transport::Transport;

use crate::arena::{ClusterSnapshot, RunArena, RunTimings};
use crate::calibration::Calibration;
use crate::config::{ManualSync, Solution, StudyConfig, WorkflowConfig};
use crate::workflow::{
    file_consumer, file_producer, staged_consumer, staged_producer, KvsEnd, ManualEnd, ProcessArgs,
    RunShared, Storage, StreamRole,
};

/// Staging-lifecycle counters summed over every node's
/// [`StagingManager`] (all zero for non-DYAD solutions and for the
/// unbounded default).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StagingTotals {
    /// Frames fully retired (unlinked after all consumer acks).
    pub evicted_frames: u64,
    /// Bytes those retirements freed.
    pub evicted_bytes: u64,
    /// Still-needed frames spilled from NVMe to the PFS.
    pub spilled_frames: u64,
    /// Bytes spilled to the PFS.
    pub spilled_bytes: u64,
    /// Consumer-side cache copies dropped under pressure.
    pub cache_evictions: u64,
    /// Times a producer blocked at the high watermark.
    pub backpressure_stalls: u64,
    /// Total simulated seconds producers spent blocked.
    pub backpressure_stall_secs: f64,
    /// Consumes that fetched a spilled frame from the PFS.
    pub pfs_fallbacks: u64,
    /// Consumption acknowledgements committed to the KVS.
    pub acks_published: u64,
    /// Largest staged footprint of any single node, bytes.
    pub peak_staged_bytes: u64,
}

impl StagingTotals {
    fn absorb(&mut self, s: &StagingStats) {
        self.evicted_frames += s.retired_frames;
        self.evicted_bytes += s.retired_bytes;
        self.spilled_frames += s.spilled_frames;
        self.spilled_bytes += s.spilled_bytes;
        self.cache_evictions += s.cache_evictions;
        self.backpressure_stalls += s.backpressure_stalls;
        self.backpressure_stall_secs += s.backpressure_wait.as_secs_f64();
        self.pfs_fallbacks += s.pfs_fallbacks;
        self.acks_published += s.acks_published;
        self.peak_staged_bytes = self.peak_staged_bytes.max(s.peak_staged_bytes);
    }
}

/// Streaming data-plane counters summed over every node's
/// [`StreamService`] (all zero for the other solutions).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StreamTotals {
    /// Steps published across all groups.
    pub steps_published: u64,
    /// Steps consumed across all subscriber sessions.
    pub steps_consumed: u64,
    /// Bytes published.
    pub bytes_published: u64,
    /// Bytes consumed.
    pub bytes_consumed: u64,
    /// Publishes that found the bounded in-flight window full.
    pub window_stalls: u64,
    /// Simulated seconds publishers spent stalled on a full window.
    pub window_stall_secs: f64,
    /// Outstanding-ack entries reclaimed from crashed subscribers.
    pub slots_reclaimed: u64,
    /// Window ack-refresh sweeps (KVS ack-key reads).
    pub ack_refreshes: u64,
    /// Remote step fetches served by owner nodes.
    pub fetches_served: u64,
    /// Consumptions that parked in a KVS watch (cold syncs).
    pub cold_syncs: u64,
    /// Consumptions satisfied by the warm lookup fast path.
    pub warm_syncs: u64,
    /// Consumptions that found the step already node-local.
    pub local_hits: u64,
}

impl StreamTotals {
    fn absorb(&mut self, s: &PlaneStats, w: &WindowStats) {
        self.steps_published += s.puts;
        self.steps_consumed += s.gets;
        self.bytes_published += s.bytes_put;
        self.bytes_consumed += s.bytes_got;
        self.window_stalls += w.window_stalls;
        self.window_stall_secs += SimDuration::from_nanos(w.window_stall_ns).as_secs_f64();
        self.slots_reclaimed += w.slots_reclaimed;
        self.ack_refreshes += w.ack_refreshes;
        self.fetches_served += s.fetches_served;
        self.cold_syncs += s.cold_syncs;
        self.warm_syncs += s.warm_syncs;
        self.local_hits += s.local_hits;
    }
}

/// Fault-injection and recovery counters for one repetition — the
/// "recovery time" half of the movement/recovery split. All zero when
/// the run's [`crate::config::FaultConfig`] is disabled.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FaultTotals {
    /// Fault windows actually opened by the armed plan.
    pub injected: u64,
    /// Node crash windows.
    pub crashes: u64,
    /// Node restarts completed.
    pub restarts: u64,
    /// Transport-level RPC retry attempts (all clients).
    pub rpc_retries: u64,
    /// RPCs that exhausted their retry budget.
    pub rpc_giveups: u64,
    /// Simulated seconds spent in transport retry backoff — recovery
    /// time that would otherwise be misread as data-movement time.
    pub retry_backoff_secs: f64,
    /// Staged frames lost to node crashes before they could spill.
    pub frames_lost: u64,
    /// Spilled/lost frames re-published to the KVS by restart hooks.
    pub republished_frames: u64,
    /// Consumption acks dropped inside a fault window (the frame was
    /// consumed; only its retention ack never reached the broker).
    pub acks_dropped: u64,
    /// Producer-side whole-produce retries after a typed error.
    pub produce_outer_retries: u64,
    /// Consumer-side whole-consume retries after a typed error.
    pub consume_outer_retries: u64,
    /// Frames a producer gave up on (tombstoned, typed).
    pub produce_failures: u64,
    /// Frames a consumer gave up on (typed, never a hang).
    pub consume_failures: u64,
    /// Lost-frame tombstones consumers observed (typed `FrameLost`).
    pub frames_lost_observed: u64,
    /// Permanent KVS shard crashes injected (mesh runs).
    pub kvs_shard_crashes: u64,
}

/// Metadata-plane counters for one repetition, summed over every KVS
/// broker shard (all zero for solutions without a KVS).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct KvsTotals {
    /// Broker shards the run used (1 = a single broker).
    pub shards: u32,
    /// Replication factor (1 = unreplicated).
    pub replication: u32,
    /// Commits applied across all shards.
    pub commits: u64,
    /// Lookups served across all shards.
    pub lookups: u64,
    /// Server-side waits served across all shards.
    pub waits: u64,
    /// Replication deltas shipped between shards.
    pub deltas_sent: u64,
    /// Replication deltas applied at replicas.
    pub deltas_applied: u64,
    /// Deltas that arrived out of causal order and buffered.
    pub deltas_buffered: u64,
    /// Worst per-shard peak of requests queued or in service — the
    /// metadata-plane congestion signal the shard sweep gates on.
    pub peak_queue: u64,
}

/// Raw result of one repetition.
pub struct RunMetrics {
    /// One profile per producer process.
    pub producers: Vec<Profile>,
    /// One profile per consumer process.
    pub consumers: Vec<Profile>,
    /// Simulated makespan.
    pub makespan: SimTime,
    /// Discrete events processed (simulator health metric).
    pub events: u64,
    /// Staging-lifecycle counters (DYAD/streaming only).
    pub staging: StagingTotals,
    /// Streaming data-plane counters (zero for the other solutions).
    pub streaming: StreamTotals,
    /// Fault-injection and recovery counters (zero when disabled).
    pub faults: FaultTotals,
    /// Metadata-plane counters (zero for solutions without a KVS).
    pub kvs: KvsTotals,
}

/// Execute one repetition of `wf` with `seed`.
pub fn run_once(wf: &WorkflowConfig, cal: &Calibration, seed: u64) -> RunMetrics {
    let setup_started = Instant::now();
    let snap = ClusterSnapshot::new(wf, cal);
    run_prepared(&snap, Tracer::disabled(), Sim::new(seed), setup_started).metrics
}

/// [`run_once`] with Chrome-trace capture: every producer/consumer
/// region lands on its own timeline track. Export the returned tracer
/// with [`simcore::trace::Tracer::to_chrome_json`].
pub fn run_once_traced(wf: &WorkflowConfig, cal: &Calibration, seed: u64) -> (RunMetrics, Tracer) {
    let setup_started = Instant::now();
    let snap = ClusterSnapshot::new(wf, cal);
    let (metrics, _, tracer) = run_once_traced_snap(&snap, seed, setup_started);
    (metrics, tracer)
}

/// Traced run against a prepared snapshot, also returning the
/// wall-clock split. The cold-vs-warm identity fixtures
/// compare the returned tracer's Chrome JSON byte for byte.
pub fn run_once_traced_snap(
    snap: &ClusterSnapshot,
    seed: u64,
    setup_started: Instant,
) -> (RunMetrics, RunTimings, Tracer) {
    let tracer = Tracer::enabled();
    let out = run_prepared(snap, tracer.clone(), Sim::new(seed), setup_started);
    (out.metrics, out.timings, tracer)
}

/// Warm-start variant of [`run_once`]: execute one repetition against a
/// prepared [`ClusterSnapshot`], recycling the executor allocations in
/// `arena` between runs. Trajectory-identical to [`run_once`] with the
/// same seed (see the [`crate::arena`] module docs); this is what the
/// campaign executor drives, one arena per worker.
pub fn run_once_warm(
    snap: &ClusterSnapshot,
    seed: u64,
    arena: &mut RunArena,
) -> (RunMetrics, RunTimings) {
    let setup_started = Instant::now();
    let sim = Sim::with_arena(seed, std::mem::take(&mut arena.sim));
    let out = run_prepared(snap, Tracer::disabled(), sim, setup_started);
    arena.sim = out.arena;
    (out.metrics, out.timings)
}

/// What one simulated repetition hands back to its caller: the metrics,
/// the wall-clock setup/sim split, and the recovered executor arena.
struct RunOutput {
    metrics: RunMetrics,
    timings: RunTimings,
    arena: simcore::SimArena,
}

/// The shared run body. Both the cold path ([`run_once`], which prepares
/// a throwaway snapshot) and the warm path ([`run_once_warm`]) execute
/// exactly this code, which is what keeps their trajectories identical.
fn run_prepared(
    snap: &ClusterSnapshot,
    tracer: Tracer,
    sim: Sim,
    setup_started: Instant,
) -> RunOutput {
    let testbed = Testbed::build(&sim.ctx(), snap);
    let [producers, consumers] = spawn_ensemble(&testbed, snap, &tracer);
    // Everything up to here is setup; everything after is simulation.
    let setup_secs = setup_started.elapsed().as_secs_f64();
    let sim_started = Instant::now();
    let wf = &snap.workflow;
    let period = wf.frame_period_secs();
    let slice = SimDuration::from_secs_f64((wf.frames as f64 * period).max(1.0) / 4.0);
    let hard_stop =
        SimTime::from_nanos(((wf.frames + 16) as f64 * period.max(0.001) * 400.0 * 1e9) as u64);
    let report = drive(&sim, [&producers, &consumers], slice, hard_stop);
    let metrics = reduce(&testbed, [producers, consumers], report.events_processed);
    // Recover the executor allocations for the next warm run. Pending
    // background tasks and their timers drop here exactly as dropping
    // the Sim would drop them (the substrates hold weak Ctx handles, so
    // the core's strong count is already down to this one Sim).
    let arena = sim.into_arena();
    RunOutput {
        metrics,
        timings: RunTimings {
            setup_secs,
            sim_secs: sim_started.elapsed().as_secs_f64(),
            shard_load: Some(instrument::ShardLoad {
                shards: 1,
                imbalance: 1.0,
            }),
        },
        arena,
    }
}

/// The live substrates of one run, `Rc`-wired into one simulation: what
/// the roles are handed and what [`reduce`] reads the counters of.
/// [`Testbed::build`] is the one place the stack is wired, so every run
/// sees the fault board, the topology, the mesh and staging alike.
pub(crate) struct Testbed {
    ctx: Ctx,
    tp: Transport,
    /// Present when the snapshot carries a fault plan.
    board: Option<FaultBoard>,
    /// One per compute node.
    local_fs: Vec<LocalFs>,
    kvs_mesh: Option<KvsMesh>,
    pfs: Option<ParallelFs>,
    /// One per compute node of a backend that stages on NVMe.
    staging: Vec<Rc<StagingManager>>,
    /// The staged backends' per-node services: streaming's where groups
    /// are M:N, DYAD's otherwise, so at most one of the two is filled.
    dyad: Vec<Rc<DyadService>>,
    stream: Vec<Rc<StreamService>>,
    /// Lock service, for lock-based manual sync only.
    ldlm: Option<Rc<LdlmServer>>,
}

impl Testbed {
    /// Wire the stack `snap` describes into the simulation behind `ctx`.
    /// The order below is the order events are numbered in; every pinned
    /// schedule depends on it.
    pub(crate) fn build(ctx: &Ctx, snap: &ClusterSnapshot) -> Testbed {
        let (wf, cal) = (&snap.workflow, &snap.calibration);
        let row = wf.solution.row();
        let n_compute = snap.n_compute as u32;
        // Only this function needs the node table: the transport keeps
        // the fabric and each filesystem its node's NVMe device.
        let cluster = Cluster::build(ctx, &snap.spec);
        let tp = Transport::new(ctx, cluster.fabric().clone(), cal.transport);
        // Built only when the plan is non-empty: a disabled FaultConfig
        // arms zero timers and leaves every substrate byte-identical to
        // a build without the fault layer (the determinism fixtures pin
        // this). The plan itself is part of the snapshot (pure data,
        // seeded by the FaultConfig, shared by every repetition of the
        // point).
        let board = snap.fault_plan.as_ref().map(|_| {
            let board = FaultBoard::new(ctx, snap.n_total, cal.n_osts);
            tp.set_faults(board.clone());
            board
        });
        let local_fs = (0..n_compute)
            .map(|i| {
                let mut nvme = cluster.node(NodeId(i)).nvme.clone();
                let mut fs_probe = None;
                if let Some(board) = &board {
                    let b = board.clone();
                    nvme.set_slow_probe(Rc::new(move || b.nvme_factor(i)));
                    if row.device_errors {
                        let b = board.clone();
                        fs_probe = Some(Rc::new(move || b.nvme_error(i)) as Rc<dyn Fn() -> bool>);
                    }
                }
                let mut fs = LocalFs::new(ctx, nvme, cal.localfs);
                if let Some(p) = fs_probe {
                    fs.set_io_error_probe(p);
                }
                fs
            })
            .collect();
        // Metadata plane: a mesh of `kvs_shards` brokers, shard s
        // colocated on compute node (s % n_compute) — the single broker
        // of the paper's configuration is the one-shard mesh, on node 0.
        let kvs_mesh = row.needs_kvs.then(|| {
            let shard_nodes: Vec<NodeId> =
                (0..wf.kvs_shards).map(|s| NodeId(s % n_compute)).collect();
            KvsMesh::start(ctx, &tp, &shard_nodes, cal.kvs, wf.kvs_replication)
        });
        let pfs_nodes = snap.pfs_nodes.clone();
        let pfs = pfs_nodes.map(|(mds, osts)| ParallelFs::start(ctx, &tp, mds, osts, cal.pfs));
        let mut testbed = Testbed {
            ctx: ctx.clone(),
            tp,
            board,
            local_fs,
            kvs_mesh,
            pfs,
            staging: Vec::new(),
            dyad: Vec::new(),
            stream: Vec::new(),
            ldlm: None,
        };
        if row.stages_on_nvme {
            testbed.staging = (0..n_compute)
                .map(|i| testbed.staging_manager(snap, i))
                .collect();
        }
        (testbed.dyad, testbed.stream) = testbed.staged_services(snap);
        testbed.arm_faults(snap);
        // Colocated with the MDS for Lustre, with the KVS broker node
        // otherwise.
        if wf.manual_sync == ManualSync::LockBased {
            let node = match &testbed.pfs {
                Some(pfs) => pfs.mds().node(),
                None => NodeId(0),
            };
            let server = LdlmServer::start(ctx, &testbed.tp, node, LdlmSpec::default());
            testbed.ldlm = Some(server);
        }
        testbed
    }

    /// Compute node `i`'s staging manager: tracks the staged-frame
    /// lifecycle and (when the budget is finite) runs the evictor.
    fn staging_manager(&self, snap: &ClusterSnapshot, i: u32) -> Rc<StagingManager> {
        let (wf, cal) = (&snap.workflow, &snap.calibration);
        let spec = StagingSpec {
            budget_bytes: wf.staging.budget_bytes.unwrap_or(u64::MAX),
            low_watermark: cal.staging_low_watermark,
            high_watermark: cal.staging_high_watermark,
            evict_interval: cal.staging_evict_interval,
        };
        let pfs_client = if wf.staging.spill_to_pfs {
            self.pfs.as_ref().map(|p| p.client(&self.ctx, NodeId(i)))
        } else {
            None
        };
        let mgr = StagingManager::new(
            &self.ctx,
            NodeId(i),
            self.local_fs[i as usize].clone(),
            self.kvs_client(i),
            pfs_client,
            spec,
        );
        // Only burn evictor wake-ups when a pass can ever act.
        if mgr.is_bounded() {
            mgr.spawn_evictor();
        }
        mgr
    }

    /// Per-node services of the staged backends, both over one plane
    /// spec: streaming is the SST-style peer of DYAD on the same
    /// calibration constants, so its fanout=1 shape is a like-for-like
    /// comparison.
    fn staged_services(
        &self,
        snap: &ClusterSnapshot,
    ) -> (Vec<Rc<DyadService>>, Vec<Rc<StreamService>>) {
        let (wf, cal) = (&snap.workflow, &snap.calibration);
        let plane = PlaneSpec {
            warm_sync: wf.dyad_warm_sync,
            ..cal.dyad.plane
        };
        let dyad_spec = DyadSpec { plane, ..cal.dyad };
        let stream_spec = StreamSpec {
            plane,
            window: wf.streaming.window,
            reclaim_on_crash: wf.streaming.reclaim_on_crash,
            ..StreamSpec::default()
        };
        // What node `i`'s service starts from.
        let parts = |i: usize| {
            let (fs, kvs) = (self.local_fs[i].clone(), self.kvs_client(i as u32));
            (NodeId(i as u32), fs, kvs, Some(self.staging[i].clone()))
        };
        let (ctx, tp) = (&self.ctx, &self.tp);
        let nodes = 0..self.staging.len();
        if wf.solution.row().groups {
            let start = |i| {
                let (n, fs, kvs, st) = parts(i);
                StreamService::start_staged(ctx, tp, n, fs, kvs, stream_spec, st)
            };
            (Vec::new(), nodes.map(start).collect())
        } else {
            let start = |i| {
                let (n, fs, kvs, st) = parts(i);
                DyadService::start_staged(ctx, tp, n, fs, kvs, dyad_spec, st)
            };
            (nodes.map(start).collect(), Vec::new())
        }
    }

    /// Crash/restart lifecycle: a node crash loses that node's staged
    /// NVMe frames (spilled copies survive on the PFS); the restart hook
    /// re-publishes what survived and tombstones what did not. Hooks are
    /// registered before the plan is armed so the first event sees them.
    fn arm_faults(&self, snap: &ClusterSnapshot) {
        let (Some(board), Some(plan)) = (&self.board, &snap.fault_plan) else {
            return;
        };
        for (i, mgr) in self.staging.iter().enumerate() {
            let m = mgr.clone();
            board.on_crash(move |n| {
                if n == i as u32 {
                    m.on_node_crash();
                }
            });
            let m = mgr.clone();
            let hctx = self.ctx.clone();
            board.on_restart(move |n| {
                if n == i as u32 {
                    let m = m.clone();
                    hctx.spawn(async move { m.on_node_restart().await });
                }
            });
        }
        board.arm(plan);
    }

    /// A KVS client on compute node `node`.
    fn kvs_client(&self, node: u32) -> KvsClient {
        let mesh = self.kvs_mesh.as_ref().expect("solution has a KVS");
        mesh.client(&self.ctx, &self.tp, NodeId(node))
    }

    /// What a role on `node` writes frames through when its backend has
    /// no staged plane: the PFS where the run has one, the node's local
    /// filesystem otherwise.
    fn storage(&self, node: u32) -> Storage {
        match &self.pfs {
            Some(fs) => Storage::Pfs(fs.client(&self.ctx, NodeId(node))),
            None => Storage::Local(self.local_fs[node as usize].clone()),
        }
    }

    /// A lock-service client on `node`, when the run has a lock service.
    fn ldlm_client(&self, node: u32) -> Option<LdlmClient> {
        let server = self.ldlm.as_ref()?;
        Some(LdlmClient::new(&self.tp, NodeId(node), server.node()))
    }
}

/// One side of the ensemble. Its roles finish into a join set — profile
/// and completion instant by spawn index — so a finished role keeps
/// nothing but its numbers (no task block, no handle), and "is everyone
/// done?" is a counter compare.
struct Roles {
    /// "producer" or "consumer".
    side: &'static str,
    set: JoinSet<Profile>,
    /// Compute node of each member, by spawn index.
    nodes: Vec<u32>,
}

impl Roles {
    fn with_capacity(side: &'static str, n: usize) -> Roles {
        Roles {
            side,
            set: JoinSet::with_capacity(n),
            nodes: Vec::with_capacity(n),
        }
    }

    /// Spawn `role`, which runs on compute node `node`.
    fn spawn(&mut self, ctx: &Ctx, node: u32, role: impl Future<Output = Profile> + 'static) {
        self.nodes.push(node);
        self.set.spawn(ctx, role);
    }

    /// Every member's profile in spawn order, and when the last finished.
    fn collect(self) -> (Vec<Profile>, SimTime) {
        let mut last = SimTime::ZERO;
        let profiles = self.set.into_results().map(|(at, profile)| {
            last = last.max(at);
            profile
        });
        (profiles.collect(), last)
    }
}

/// What the roles of one run are started from: the run-constant part of
/// their [`ProcessArgs`], shared by every role.
struct RoleArgs {
    run: Rc<RunShared>,
    /// The frame period: what staggers are fractions of.
    period: SimDuration,
    /// Consumers launch this long after their producer.
    consumer_delay: SimDuration,
}

impl RoleArgs {
    fn new(testbed: &Testbed, snap: &ClusterSnapshot, tracer: &Tracer) -> RoleArgs {
        let (wf, cal) = (&snap.workflow, &snap.calibration);
        let period = SimDuration::from_secs_f64(wf.frame_period_secs());
        let run = RunShared {
            ctx: testbed.ctx.clone(),
            frames: wf.frames,
            model: wf.model,
            tracer: tracer.clone(),
            faults: testbed.board.clone(),
            stride: wf.stride,
            clock: StepClock {
                ms_per_step: wf.model.ms_per_step(),
                jitter: cal.md_jitter,
            },
            schedule: wf.schedule.clone(),
            serialize_cpu: cal.serialize_cpu,
            analytics: period,
            deserialize_cpu: cal.deserialize_cpu,
        };
        RoleArgs {
            run: Rc::new(run),
            period,
            consumer_delay: period.mul_f64(cal.consumer_launch_delay),
        }
    }

    /// Producer `idx` of the ensemble, on `node`.
    fn producer(&self, idx: u32, node: u32, stagger: SimDuration) -> ProcessArgs {
        ProcessArgs {
            run: self.run.clone(),
            pair: idx,
            node,
            start_offset: stagger,
            rng_stream: 0x9000 + idx as u64,
        }
    }

    /// Consumer `idx` of the ensemble, on `node`.
    fn consumer(&self, idx: u32, node: u32, stagger: SimDuration) -> ProcessArgs {
        ProcessArgs {
            start_offset: stagger + self.consumer_delay,
            rng_stream: 0xC000 + idx as u64,
            ..self.producer(idx, node, stagger)
        }
    }
}

/// Start every role of the snapshot's ensemble on `testbed`: group by
/// group, publishers before subscribers (a pair is the 1 → 1 group), so
/// process `i` of a side is the `i`-th spawned. Returns the producer and
/// the consumer side.
fn spawn_ensemble(testbed: &Testbed, snap: &ClusterSnapshot, tracer: &Tracer) -> [Roles; 2] {
    let (wf, cal, ctx) = (&snap.workflow, &snap.calibration, &testbed.ctx);
    let args = RoleArgs::new(testbed, snap, tracer);
    let period = args.period;
    // The retention contract must be in place before the first frame
    // lands: each publisher node's evictor holds what its publishers
    // stage until every registered consumer acknowledged it.
    for (node, dir, consumer) in &snap.registrations {
        testbed.staging[*node as usize].register_consumer(dir, consumer);
    }
    let ens = snap.ensemble;
    let mut producers = Roles::with_capacity("producer", ens.publishers() as usize);
    let mut consumers = Roles::with_capacity("consumer", ens.subscribers() as usize);
    for g in 0..ens.groups {
        // Low-discrepancy launch stagger across one frame period, per
        // group: real ensembles never start in lockstep, and
        // phase-locked groups would otherwise collide on every shared
        // resource at once.
        let stagger = period.mul_f64((g as f64 * 0.618_033_988_75).fract());
        // The group's members, by their side's spawn index.
        let pubs = g * ens.pubs..(g + 1) * ens.pubs;
        let subs = g * ens.subs..(g + 1) * ens.subs;
        let role = StreamRole::new(&ens, g, 0);
        // A pair is its group's one publisher and one subscriber.
        let pn = ens.publisher_node(pubs.start);
        let cn = ens.subscriber_node(subs.start);
        let pair_args = || (args.producer(g, pn, stagger), args.consumer(g, cn, stagger));
        match wf.solution {
            Solution::Dyad => {
                let (pargs, cargs) = pair_args();
                let psvc = testbed.dyad[pn as usize].clone();
                producers.spawn(ctx, pn, staged_producer(pargs, psvc, role));
                let csvc = testbed.dyad[cn as usize].clone();
                consumers.spawn(ctx, cn, staged_consumer::<DyadConsumer>(cargs, csvc, role));
            }
            // The manual baselines differ only in the storage they are
            // handed.
            Solution::Xfs | Solution::Lustre => {
                let (pargs, cargs) = pair_args();
                let (pstore, cstore) = (testbed.storage(pn), testbed.storage(cn));
                let (ready_tx, ready_rx) = channel();
                let (done_tx, done_rx) = channel();
                let end = |node, tx, rx| ManualEnd {
                    mode: wf.manual_sync,
                    tx,
                    rx,
                    ldlm: testbed.ldlm_client(node),
                    poll: cal.manual_poll_interval,
                };
                let role = file_producer(pargs, pstore, end(pn, ready_tx, done_rx));
                producers.spawn(ctx, pn, role);
                let role = file_consumer(cargs, cstore, end(cn, done_tx, ready_rx));
                consumers.spawn(ctx, cn, role);
            }
            Solution::DyadOnPfs => {
                let (pargs, cargs) = pair_args();
                let (pstore, cstore) = (testbed.storage(pn), testbed.storage(cn));
                let end = |node| KvsEnd {
                    kvs: testbed.kvs_client(node),
                    warm_sync: wf.dyad_warm_sync,
                    warmed: false,
                };
                producers.spawn(ctx, pn, file_producer(pargs, pstore, end(pn)));
                consumers.spawn(ctx, cn, file_consumer(cargs, cstore, end(cn)));
            }
            // One publisher per group leaf and one subscriber per group
            // member (or the single fan-in reducer).
            Solution::Streaming => {
                let session = |(j, c)| StreamAcker {
                    consumer: role.session_id(j as u32),
                    node: ens.subscriber_node(c),
                };
                let ackers: Vec<StreamAcker> = subs.clone().enumerate().map(session).collect();
                for (leaf, p) in pubs.enumerate() {
                    let pn = ens.publisher_node(p);
                    let end = (testbed.stream[pn as usize].publisher(), ackers.clone());
                    let role = StreamRole::new(&ens, g, leaf as u32);
                    let pargs = args.producer(p, pn, stagger);
                    producers.spawn(ctx, pn, staged_producer(pargs, end, role));
                }
                for (j, c) in subs.enumerate() {
                    let cn = ens.subscriber_node(c);
                    let plane = testbed.stream[cn as usize].clone();
                    let role = StreamRole::new(&ens, g, j as u32);
                    let cargs = args.consumer(c, cn, stagger);
                    let role = staged_consumer::<StreamSubscriber>(cargs, plane, role);
                    consumers.spawn(ctx, cn, role);
                }
            }
        }
    }
    [producers, consumers]
}

/// Who is still running, for the stall diagnostics: how many of each
/// side, and the first eight by side, spawn index and node.
fn stall_summary(sides: [&Roles; 2]) -> String {
    let mut counts = Vec::new();
    let mut first = Vec::new();
    for roles in sides {
        let unfinished = roles.set.unfinished();
        counts.push(format!(
            "{} of {} {}s",
            unfinished.len(),
            roles.nodes.len(),
            roles.side
        ));
        for i in unfinished {
            first.push(format!("{} {i} (node {})", roles.side, roles.nodes[i]));
        }
    }
    let more = if first.len() > 8 { ", …" } else { "" };
    first.truncate(8);
    format!(
        "{} unfinished: {}{more}",
        counts.join(" and "),
        first.join(", ")
    )
}

/// Advance `sim` until every role of both `sides` finished. The PFS
/// interference processes never terminate, so the clock advances a
/// `slice` at a time and stops as soon as the workload is done (the
/// workload, not the background noise, defines the run).
///
/// # Panics
/// Naming who is unfinished ([`stall_summary`]): when the calendar
/// drains under parked roles — nothing is left that could wake them —
/// and when the workload is still running at `hard_stop`.
fn drive(sim: &Sim, sides: [&Roles; 2], slice: SimDuration, hard_stop: SimTime) -> RunReport {
    let mut deadline = SimTime::ZERO + slice;
    loop {
        let report = sim.run_until(deadline);
        if sides.iter().all(|roles| roles.set.all_finished()) {
            return report;
        }
        assert!(
            sim.calendar_stats().pending > 0,
            "calendar drained with {}",
            stall_summary(sides)
        );
        assert!(
            deadline < hard_stop,
            "workload failed to finish by the hard stop — deadlock? {}",
            stall_summary(sides)
        );
        deadline += slice;
    }
}

/// Collect a finished run: the roles' profiles, and the substrates'
/// counters summed over nodes.
fn reduce(testbed: &Testbed, [producers, consumers]: [Roles; 2], events: u64) -> RunMetrics {
    // Makespan = when the workload finished, not when the horizon cut
    // off the (never-terminating) background-interference processes.
    let (producers, last_producer) = producers.collect();
    let (consumers, last_consumer) = consumers.collect();
    let mut streaming = StreamTotals::default();
    for svc in &testbed.stream {
        streaming.absorb(&svc.stats(), &svc.window_stats());
    }
    let mut staging = StagingTotals::default();
    let mut faults = FaultTotals::default();
    for mgr in &testbed.staging {
        let s = mgr.stats();
        staging.absorb(&s);
        faults.frames_lost += s.frames_lost;
        faults.republished_frames += s.republished_frames;
        faults.acks_dropped += s.acks_dropped;
        // Retention invariant: nothing retires before every registered
        // consumer acknowledged it (cheap; guards every study we run).
        for r in mgr.retire_log() {
            assert_eq!(
                r.acks_seen, r.required_acks,
                "frame {} retired before all acks",
                r.path
            );
        }
    }
    if let Some(board) = &testbed.board {
        let s = board.stats();
        faults.injected = s.injected;
        faults.crashes = s.crashes;
        faults.restarts = s.restarts;
        faults.kvs_shard_crashes = s.kvs_shard_crashes;
        let t = testbed.tp.stats();
        faults.rpc_retries = t.rpc_retries;
        faults.rpc_giveups = t.rpc_giveups;
        faults.retry_backoff_secs = SimDuration::from_nanos(t.retry_backoff_ns).as_secs_f64();
        let sum = |key: &str| -> u64 {
            let profiles = producers.iter().chain(consumers.iter());
            profiles.map(|p| p.sum_metric(key)).sum::<f64>().round() as u64
        };
        faults.produce_outer_retries = sum("produce_outer_retries");
        faults.consume_outer_retries = sum("consume_outer_retries");
        faults.produce_failures = sum("produce_failures");
        faults.consume_failures = sum("consume_failures");
        faults.frames_lost_observed = sum("frames_lost_observed");
    }
    let kvs = testbed
        .kvs_mesh
        .as_ref()
        .map_or_else(KvsTotals::default, |mesh| {
            let s = mesh.stats();
            KvsTotals {
                shards: mesh.shards(),
                replication: mesh.topology().replication(),
                commits: s.commits,
                lookups: s.lookups,
                waits: s.waits,
                deltas_sent: s.deltas_sent,
                deltas_applied: s.deltas_applied,
                deltas_buffered: s.deltas_buffered,
                peak_queue: s.peak_queue,
            }
        });
    RunMetrics {
        producers,
        consumers,
        makespan: last_producer.max(last_consumer),
        events,
        staging,
        streaming,
        faults,
        kvs,
    }
}

/// Execute a full study (all repetitions, across
/// [`crate::campaign::default_jobs`] workers) and reduce it to a
/// [`crate::report::StudyReport`].
pub fn run_study(study: &StudyConfig) -> crate::report::StudyReport {
    crate::campaign::run_study_jobs(study, crate::campaign::default_jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;
    use mdsim::Model;

    fn small(solution: Solution, pairs: u32, placement: Placement) -> WorkflowConfig {
        WorkflowConfig::new(solution, pairs, placement).with_frames(6)
    }

    #[test]
    fn dyad_single_node_completes() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Dyad, 2, Placement::SingleNode);
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.producers.len(), 2);
        assert_eq!(m.consumers.len(), 2);
        // 6 frames at ~0.82 s plus pipeline drain.
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn xfs_single_node_completes_serialized() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Xfs, 1, Placement::SingleNode);
        let m = run_once(&wf, &cal, 1);
        // Coarse sync serializes: ~2 periods per frame.
        let t = m.makespan.as_secs_f64();
        assert!(t > 9.0 && t < 12.0, "makespan {t}");
    }

    #[test]
    fn lustre_two_nodes_completes() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Lustre, 2, Placement::Split { pairs_per_node: 8 });
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.producers.len(), 2);
        let t = m.makespan.as_secs_f64();
        assert!(t > 9.0 && t < 13.0, "makespan {t}");
    }

    #[test]
    fn dyad_two_nodes_pipelines() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 });
        let m = run_once(&wf, &cal, 1);
        // Pipelined: ~1 period per frame (plus one-frame drain).
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn dyad_on_pfs_ablation_completes() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::DyadOnPfs,
            2,
            Placement::Split { pairs_per_node: 8 },
        );
        let m = run_once(&wf, &cal, 1);
        let t = m.makespan.as_secs_f64();
        // DYAD sync pipelines even over PFS storage.
        assert!(t > 4.9 && t < 8.5, "makespan {t}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cal = Calibration::corona();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 });
        let a = run_once(&wf, &cal, 42);
        let b = run_once(&wf, &cal, 42);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn bounded_staging_is_deterministic_and_exercises_the_lifecycle() {
        // Satellite of the staging tentpole: same seed + same budget ⇒
        // identical makespans AND identical eviction/spill history; and
        // a ~3-frame budget must actually trigger the evictor.
        let cal = Calibration::quiet();
        let budget = 3 * Model::Jac.frame_bytes();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 })
            .with_frames(12)
            .with_staging_budget(budget)
            .with_spill(true);
        let a = run_once(&wf, &cal, 9);
        let b = run_once(&wf, &cal, 9);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.staging.evicted_frames, b.staging.evicted_frames);
        assert_eq!(a.staging.spilled_frames, b.staging.spilled_frames);
        assert_eq!(a.staging.backpressure_stalls, b.staging.backpressure_stalls);
        assert!(
            a.staging.evicted_frames > 0,
            "a 3-frame budget never retired anything: {:?}",
            a.staging
        );
        assert_eq!(a.staging.acks_published, 2 * 12);
    }

    #[test]
    fn unbounded_staging_matches_legacy_dyad_timing() {
        // The default (no budget) must reproduce the paper's DYAD
        // numbers: no evictions, no stalls, same makespan window as
        // `dyad_two_nodes_pipelines`.
        let cal = Calibration::quiet();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 });
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.staging.evicted_frames, 0);
        assert_eq!(m.staging.spilled_frames, 0);
        assert_eq!(m.staging.backpressure_stalls, 0);
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn different_models_work() {
        let cal = Calibration::quiet();
        for model in [Model::ApoA1, Model::Stmv] {
            let wf = small(Solution::Dyad, 1, Placement::Split { pairs_per_node: 8 })
                .with_model(model)
                .with_frames(3);
            let m = run_once(&wf, &cal, 7);
            assert_eq!(m.producers.len(), 1);
        }
    }

    #[test]
    fn streaming_one_to_one_pipelines_like_dyad() {
        // fanout = fanin = 1 is the near-DYAD shape: same staging, same
        // KVS rendezvous, bounded window never binds at depth 4.
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            2,
            Placement::Split { pairs_per_node: 8 },
        );
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.producers.len(), 2);
        assert_eq!(m.consumers.len(), 2);
        assert_eq!(m.streaming.steps_published, 2 * 6);
        assert_eq!(m.streaming.steps_consumed, 2 * 6);
        assert_eq!(m.streaming.bytes_published, m.streaming.bytes_consumed);
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn streaming_broadcast_fanout_delivers_to_every_subscriber() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            1,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_fanout(3);
        let m = run_once(&wf, &cal, 2);
        assert_eq!(m.producers.len(), 1);
        assert_eq!(m.consumers.len(), 3);
        // Every subscriber consumed every step.
        assert_eq!(m.streaming.steps_published, 6);
        assert_eq!(m.streaming.steps_consumed, 3 * 6);
        assert_eq!(m.streaming.bytes_consumed, 3 * m.streaming.bytes_published);
        // Staging retention honored the 3-ack contract (checked by the
        // retire-log assertion in run_prepared) and all acks landed.
        assert_eq!(m.staging.acks_published, 3 * 6);
    }

    #[test]
    fn streaming_fanin_reduction_completes() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            1,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_fanin(4);
        let m = run_once(&wf, &cal, 4);
        assert_eq!(m.producers.len(), 4);
        assert_eq!(m.consumers.len(), 1);
        // The reducer consumed every leaf's steps; byte conservation
        // through the tree is asserted inside the reducer body.
        assert_eq!(m.streaming.steps_published, 4 * 6);
        assert_eq!(m.streaming.steps_consumed, 4 * 6);
        let reduced: f64 = m.consumers[0].sum_metric("reduced_steps");
        assert_eq!(reduced as u64, 6);
    }

    #[test]
    fn streaming_window_binds_and_is_deterministic() {
        // Window depth 1 with slow analytics forces publisher stalls;
        // the stall accounting must be seed-stable.
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            2,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_stream_window(1);
        let a = run_once(&wf, &cal, 5);
        let b = run_once(&wf, &cal, 5);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.streaming.window_stalls, b.streaming.window_stalls);
        assert_eq!(a.streaming.window_stall_secs, b.streaming.window_stall_secs);
    }

    #[test]
    fn stall_summary_counts_each_side_and_names_the_first_eight() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let mut producers = Roles::with_capacity("producer", 3);
        let mut consumers = Roles::with_capacity("consumer", 10);
        // Producer 1 and consumer 0 finish; everyone else waits forever.
        for (i, node) in [0, 0, 1].into_iter().enumerate() {
            producers.spawn(&ctx, node, async move {
                if i != 1 {
                    std::future::pending::<()>().await;
                }
                Profile::default()
            });
        }
        for i in 0..10u32 {
            consumers.spawn(&ctx, 2 + i, async move {
                if i != 0 {
                    std::future::pending::<()>().await;
                }
                Profile::default()
            });
        }
        sim.run();
        assert_eq!(
            stall_summary([&producers, &consumers]),
            "2 of 3 producers and 9 of 10 consumers unfinished: producer 0 (node 0), \
             producer 2 (node 1), consumer 1 (node 3), consumer 2 (node 4), \
             consumer 3 (node 5), consumer 4 (node 6), consumer 5 (node 7), \
             consumer 6 (node 8), …"
        );
    }

    /// One side whose members run `role(i)` on node `i`, and an empty
    /// other side.
    fn sides<F: Future<Output = ()> + 'static>(
        ctx: &Ctx,
        n: u32,
        role: impl Fn(u32) -> F,
    ) -> [Roles; 2] {
        let mut producers = Roles::with_capacity("producer", n as usize);
        for i in 0..n {
            let body = role(i);
            producers.spawn(ctx, i, async move {
                body.await;
                Profile::default()
            });
        }
        [producers, Roles::with_capacity("consumer", 0)]
    }

    const SLICE: SimDuration = SimDuration::from_millis(100);

    #[test]
    #[should_panic(
        expected = "calendar drained with 1 of 2 producers and 0 of 0 consumers unfinished: \
                    producer 1 (node 1)"
    )]
    fn drive_fails_at_once_when_the_calendar_drains_under_a_parked_role() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        // Producer 0 sleeps and finishes; producer 1 waits on nothing
        // that will ever happen. The hard stop is an hour away: the
        // drained calendar, not the clock, ends the run.
        let [p, c] = sides(&ctx, 2, |i| {
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(250)).await;
                if i == 1 {
                    std::future::pending::<()>().await;
                }
            }
        });
        drive(
            &sim,
            [&p, &c],
            SLICE,
            SimTime::from_nanos(3_600_000_000_000),
        );
    }

    #[test]
    #[should_panic(expected = "workload failed to finish by the hard stop — deadlock? \
                    1 of 1 producers and 0 of 0 consumers unfinished: producer 0 (node 0)")]
    fn drive_stops_a_role_that_sleeps_forever_at_the_hard_stop() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let [p, c] = sides(&ctx, 1, |_| {
            let ctx = ctx.clone();
            async move {
                loop {
                    ctx.sleep(SimDuration::from_millis(30)).await;
                }
            }
        });
        drive(&sim, [&p, &c], SLICE, SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn drive_returns_when_the_roles_finish_and_leaves_background_tasks_pending() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        // Background noise that never terminates, as PFS interference.
        let noise = ctx.clone();
        ctx.spawn(async move {
            loop {
                noise.sleep(SimDuration::from_millis(7)).await;
            }
        });
        let [p, c] = sides(&ctx, 3, |i| {
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(100 * u64::from(i + 1)))
                    .await
            }
        });
        let report = drive(&sim, [&p, &c], SLICE, SimTime::from_nanos(1_000_000_000));
        // The slice the last role finished in, not the hard stop.
        assert_eq!(report.end_time, SimTime::ZERO + SLICE * 3);
        assert_eq!(report.deadlocked_tasks, 1);
        assert!(sim.calendar_stats().pending > 0);
        let (profiles, last) = p.collect();
        assert_eq!(profiles.len(), 3);
        assert_eq!(last, SimTime::from_nanos(300_000_000));
    }

    #[test]
    #[should_panic(expected = "XFS cannot move data between nodes")]
    fn xfs_multi_node_is_rejected() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Xfs, 2, Placement::Split { pairs_per_node: 8 });
        let _ = run_once(&wf, &cal, 1);
    }
}

#[cfg(test)]
mod race_tests {
    use super::*;
    use crate::config::Placement;

    #[test]
    fn seed_sweep_single_node_dyad_never_corrupts() {
        // Regression for a race where a same-node consumer could observe
        // a frame file between the producer's create() and its final
        // write, reading a partial payload. The consumer asserts frame
        // integrity, so any corruption panics.
        let cal = Calibration::corona();
        let wf = WorkflowConfig::new(Solution::Dyad, 2, Placement::SingleNode).with_frames(20);
        for seed in 0..200 {
            let m = run_once(&wf, &cal, seed);
            assert_eq!(m.consumers.len(), 2, "seed {seed}");
        }
    }
}
