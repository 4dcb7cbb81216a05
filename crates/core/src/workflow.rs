//! Producer and consumer process bodies — §IV-C's "point-to-point
//! MD-inspired workflow".
//!
//! A producer emulates an MD simulation: it sleeps for one stride of MD
//! steps (Table II durations, with jitter), serializes a frame, and
//! writes it through the configured data-management solution. A consumer
//! reads each frame, deserializes/validates it, and sleeps for its
//! analytics (the paper sets the analytics duration equal to the frame
//! period so producer and consumer are rate-matched).
//!
//! Region names match the paper's Caliper annotations so the Thicket
//! layer can reproduce Figures 9 and 10:
//!
//! * producers: `md_sim`, then `produce` → { `write_single_buf`,
//!   `explicit_sync` } for the manual baselines, or DYAD's
//!   `dyad_produce` tree;
//! * consumers: `consume` → { `explicit_sync`, `read_single_buf` } or
//!   DYAD's `dyad_consume` tree, then `analytics`.
//!
//! **Coarse-grained manual sync** (the paper's baseline protocol) fully
//! serializes each pair: the consumer waits for the write to complete
//! (its `explicit_sync` ≈ one frame period of idle time) and the
//! producer does not start the next stride until the consumer finished
//! its analytics. The producer's wait lives in the `serialized_wait`
//! region — *outside* `produce` — mirroring how the paper's production
//! time shows no significant idle while consumption idle dominates
//! (DESIGN.md §2 discusses this interpretation).
//!
//! Every role has **one frame loop**, fault runs included. The DYAD,
//! DYAD-on-PFS and streaming roles wrap each data-plane operation in
//! `recovering`: with no fault board it runs the operation once, inline;
//! with one it is the boxed freeze/retry/backoff loop (DESIGN.md §8).

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use dyad::{DyadConsumer, DyadService, FrameLocation, FrameMeta};
use faults::FaultBoard;
use instrument::{Profile, Recorder};
use kvs::KvsClient;
use localfs::LocalFs;
use mdsim::{Model, StepClock};
use pfs::{LdlmClient, LockMode, PfsClient};
use rand::rngs::StdRng;
use simcore::sync::{channel, Receiver, Sender};
use simcore::trace::Tracer;
use simcore::{Ctx, SimDuration};
use staging::plane::{retry_policy, PlaneError};
use streaming::StreamAcker;
use transport::Payload;

use crate::config::{Ensemble, ManualSync, StreamingConfig, WorkflowConfig};
use crate::schedule::{FrameSchedule, ScheduleGen};

/// Storage backend for the manual (XFS/Lustre) baselines.
#[derive(Clone)]
pub enum Storage {
    /// Node-local XFS-like filesystem.
    Local(LocalFs),
    /// Lustre-like parallel filesystem client.
    Pfs(PfsClient),
}

impl Storage {
    /// Write a frame rope to `path` (create, write segments, close).
    pub(crate) fn write_frame<'a>(
        &'a self,
        path: &'a str,
        frame: Payload,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            match self {
                Storage::Local(fs) => {
                    let fd = fs.create(path).await.expect("create");
                    for seg in frame {
                        fs.write_bytes(fd, seg).await.expect("write");
                    }
                    fs.close(fd).await.expect("close");
                }
                Storage::Pfs(c) => {
                    let fd = c.create(path).await.expect("create");
                    c.write_segments(fd, frame).await.expect("write");
                    c.close(fd).await.expect("close");
                }
            }
        }
    }

    /// Read the whole frame at `path` as a rope.
    pub(crate) fn read_frame<'a>(&'a self, path: &'a str) -> impl Future<Output = Payload> + 'a {
        async move {
            match self {
                Storage::Local(fs) => {
                    let fd = fs.open(path).await.expect("open");
                    let data = fs.read_segments(fd).await.expect("read");
                    let _ = fs.close(fd).await;
                    data
                }
                Storage::Pfs(c) => {
                    let fd = c.open(path).await.expect("open");
                    let data = c.read_segments(fd).await.expect("read");
                    let _ = c.close(fd).await;
                    data
                }
            }
        }
    }

    /// Make sure the parent directory exists (local fs only; the PFS
    /// namespace is flat).
    pub(crate) fn ensure_dir<'a>(&'a self, dir: &'a str) -> impl Future<Output = ()> + 'a {
        async move {
            if let Storage::Local(fs) = self {
                let _ = fs.mkdir_p(dir).await;
            }
        }
    }

    /// Probe whether `path` exists, charging one metadata operation (a
    /// `stat`, as a polling workflow manager would issue).
    pub(crate) fn probe<'a>(&'a self, path: &'a str) -> impl Future<Output = bool> + 'a {
        async move {
            match self {
                Storage::Local(fs) => fs.stat(path).await.is_ok(),
                Storage::Pfs(c) => c.stat(path).await.is_ok(),
            }
        }
    }

    /// Write an empty `.done` marker next to a frame (the Pegasus-style
    /// completion convention for polling synchronization).
    pub(crate) fn write_marker<'a>(&'a self, path: &'a str) -> impl Future<Output = ()> + 'a {
        async move {
            let marker = format!("{path}.done");
            match self {
                Storage::Local(fs) => {
                    let fd = fs.create(&marker).await.expect("marker create");
                    fs.close(fd).await.expect("marker close");
                }
                Storage::Pfs(c) => {
                    let fd = c.create(&marker).await.expect("marker create");
                    c.close(fd).await.expect("marker close");
                }
            }
        }
    }
}

/// Per-pair rendezvous used by the manual baselines: `ready` announces a
/// written frame; `done` releases the producer for the next stride.
pub(crate) struct PairSync {
    /// Producer side.
    pub ready_tx: Sender<u64>,
    /// Producer side.
    pub done_rx: Receiver<u64>,
    /// Consumer side.
    pub ready_rx: Receiver<u64>,
    /// Consumer side.
    pub done_tx: Sender<u64>,
}

/// Build the two channels for one pair.
pub(crate) fn pair_sync() -> PairSync {
    let (ready_tx, ready_rx) = channel();
    let (done_tx, done_rx) = channel();
    PairSync {
        ready_tx,
        done_rx,
        ready_rx,
        done_tx,
    }
}

/// What every role of one run reads and none changes, built once per run
/// and shared: a role's task block holds one pointer to it, not a copy of
/// each field per pair.
pub struct RunShared {
    /// Simulation handle.
    pub ctx: Ctx,
    /// Frames each pair moves.
    pub frames: u64,
    /// The model whose frames producers emit and consumers check.
    pub model: Model,
    /// Optional Chrome-trace sink (disabled by default).
    pub tracer: Tracer,
    /// Fault board when injection is armed for this run. `None` keeps
    /// the process bodies byte-identical to the fault-free build.
    pub faults: Option<FaultBoard>,
    /// MD stride (steps per frame).
    pub stride: u64,
    /// Per-step timing.
    pub clock: StepClock,
    /// Optional variable-rate schedule (overrides `stride` × `clock`).
    pub schedule: Option<FrameSchedule>,
    /// CPU cost of serializing a frame.
    pub serialize_cpu: SimDuration,
    /// Analytics duration per frame (the frame period).
    pub analytics: SimDuration,
    /// CPU cost of deserializing a frame header.
    pub deserialize_cpu: SimDuration,
}

/// Everything a producer process needs.
pub struct ProducerArgs {
    /// What the run's roles share.
    pub run: Rc<RunShared>,
    /// Pair index (path namespace).
    pub pair: u32,
    /// The compute-node index this process runs on (fault freezes).
    pub node: u32,
    /// Launch offset (ensembles never start in lockstep; staggering
    /// reproduces the phase spread a real job launcher produces).
    pub start_offset: SimDuration,
}

/// Where a producer's MD-phase durations come from: one jittered stride
/// of Table II steps per frame, or the run's variable-rate schedule.
enum MdPhase<'a> {
    Stride(StdRng),
    Schedule(ScheduleGen<'a>),
}

impl MdPhase<'_> {
    /// The next frame's MD-phase duration.
    fn next(&mut self, run: &RunShared) -> SimDuration {
        match self {
            MdPhase::Stride(rng) => {
                SimDuration::from_secs_f64(run.clock.stride_secs(run.stride, rng))
            }
            MdPhase::Schedule(g) => g.next_gap(),
        }
    }
}

/// Process `idx` of `side`'s recorder, on its own timeline track when
/// the run is traced. An untraced run — every run but a handful — reads
/// no track, so none is formatted.
fn recorder(run: &RunShared, side: &str, idx: u32) -> Recorder {
    let track = if run.tracer.is_enabled() {
        format!("{side}-{idx:03}")
    } else {
        String::new()
    };
    Recorder::traced(&run.ctx, run.tracer.clone(), &track)
}

/// What every producer role starts from: its recorder and its MD-phase
/// source.
fn producer_setup(args: &ProducerArgs, rng_stream: u64) -> (Recorder, MdPhase<'_>) {
    let run = &*args.run;
    let rec = recorder(run, "producer", args.pair);
    let md = match &run.schedule {
        Some(s) => MdPhase::Schedule(s.generator(run.ctx.rng(rng_stream ^ 0x5C4E))),
        None => MdPhase::Stride(run.ctx.rng(rng_stream)),
    };
    (rec, md)
}

/// The `md_sim` and `serialize` phases of `frame`; returns its rope.
fn simulate_frame<'a, 'r>(
    run: &'a RunShared,
    rec: &'a Recorder,
    md: &'a mut MdPhase<'r>,
    frame: u64,
) -> impl Future<Output = Payload> + use<'a, 'r> {
    async move {
        let g = rec.region("md_sim");
        run.ctx.sleep(md.next(run)).await;
        g.end();
        let g = rec.region("serialize");
        run.ctx.sleep(run.serialize_cpu).await;
        let payload = run.model.frame_segments(frame);
        g.end();
        payload
    }
}

/// Frame path for `(pair, frame)` in a run's namespace.
pub(crate) fn frame_path(pair: u32, frame: u64) -> String {
    format!("frames/p{pair:04}/f{frame:05}")
}

/// The directory a frame or step name lies in. Directories are cut from
/// the names the roles write, never spelled a second time.
fn parent_dir(mut name: String) -> String {
    name.truncate(
        name.rfind('/')
            .expect("frame and step names have a directory"),
    );
    name
}

/// The directory of `pair`'s frames.
pub(crate) fn frame_dir(pair: u32) -> String {
    parent_dir(frame_path(pair, 0))
}

/// The consumption-ack id of `pair`'s consumer: what its DYAD session
/// acks under and the producer node's staging manager has registered.
pub(crate) fn pair_session_id(pair: u32) -> String {
    format!("c{pair}")
}

/// The staging retention contract of an ensemble, as `(publisher node,
/// managed directory, consumer id)`: the node's evictor holds whatever
/// lands under the directory until that consumer acknowledged it. One
/// entry per publisher and session that acks it — a pair's consumer, a
/// fan-out group's every subscriber, a fan-in group's reducer once per
/// leaf. Empty for a backend that does not stage.
pub(crate) fn registrations(wf: &WorkflowConfig, ens: &Ensemble) -> Vec<(u32, String, String)> {
    let row = wf.solution.row();
    let Some(plane) = row.plane.filter(|_| row.stages_on_nvme) else {
        return Vec::new();
    };
    let mut regs = Vec::with_capacity(ens.publishers() as usize);
    for g in 0..ens.groups {
        let role = StreamRole::new(&wf.streaming, g);
        for l in 0..ens.pubs {
            let node = ens.publisher_node(g * ens.pubs + l);
            let mut register = |dir: String, consumer: String| {
                regs.push((node, plane.managed_path(&dir), consumer));
            };
            if row.groups {
                for j in 0..role.sessions() {
                    register(role.step_dir(l), role.session_id(j));
                }
            } else {
                register(frame_dir(g), pair_session_id(g));
            }
        }
    }
    regs
}

/// DLM lock resource name for `(pair, frame)`.
pub(crate) fn lock_path(pair: u32, frame: u64) -> String {
    format!("locks/p{pair:04}/f{frame:05}")
}

/// Which half of a pair an operation under [`recovering`] belongs to:
/// names its `<side>_outer_retries` / `<side>_failures` counters of
/// [`crate::runner::FaultTotals`].
#[derive(Clone, Copy)]
enum Side {
    Produce,
    Consume,
}

impl Side {
    /// `(name, outer-retries counter, failures counter)`.
    fn keys(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Side::Produce => ("produce", "produce_outer_retries", "produce_failures"),
            Side::Consume => ("consume", "consume_outer_retries", "consume_failures"),
        }
    }
}

/// Run one data-plane operation under the run's fault model. `op`
/// gets the backoff-jitter stream (fault runs only) and returns a typed
/// error; `terminal` names the counter of an error no retry can cure,
/// which ends the operation with `None`.
///
/// With no fault board the operation runs once, inline — no rng is
/// built and nothing is boxed — and an error is a simulator bug. With
/// one, a crashed node runs nothing (freeze until the restart) and
/// whatever outlasts the operation's own retry budget (dead owners,
/// broker outages) is re-run here with [`retry_policy`]'s backoff: every
/// fault window is finite by construction, so this terminates. The loop
/// is boxed so the (large, rarely-live) recovery state machine does not
/// inflate every fault-free process task.
fn recovering<'a, T, E: std::fmt::Display>(
    run: &'a RunShared,
    node: u32,
    rec: &'a Recorder,
    side: Side,
    jitter_stream: u64,
    mut op: impl AsyncFnMut(Option<&mut StdRng>) -> Result<T, E> + 'a,
    terminal: impl Fn(&E) -> Option<&'static str> + 'a,
) -> impl Future<Output = Option<T>> + 'a {
    async move {
        let Some(board) = &run.faults else {
            return match op(None).await {
                Ok(v) => Some(v),
                Err(e) => panic!("{} failed without a fault board: {e}", side.keys().0),
            };
        };
        Box::pin(async {
            let (_, outer_retries, failures) = side.keys();
            let mut frng = run.ctx.rng(jitter_stream);
            let mut outer = 0u32;
            loop {
                board.hold_until_up(node).await;
                let e = match op(Some(&mut frng)).await {
                    Ok(v) => return Some(v),
                    Err(e) => e,
                };
                if let Some(counter) = terminal(&e) {
                    rec.annotate(counter, 1.0);
                    return None;
                }
                outer += 1;
                if outer >= 64 {
                    rec.annotate(failures, 1.0);
                    return None;
                }
                rec.annotate(outer_retries, 1.0);
                let pause = retry_policy().backoff(outer.min(9), &mut frng);
                run.ctx.sleep(pause).await;
            }
        })
        .await
    }
}

/// The staged plane's errors no retry can cure, by the counter each is
/// reported under: a put whose frame is unwritable (tombstoned by the
/// plane, so consumers see a typed loss) and a get of a tombstoned frame
/// (nothing to analyze — the role moves to the next frame).
fn terminal(e: &PlaneError) -> Option<&'static str> {
    match e {
        PlaneError::Storage { .. } => Some("produce_failures"),
        PlaneError::Lost { .. } => Some("frames_lost_observed"),
        PlaneError::Transport(_) | PlaneError::Unresolvable { .. } => None,
    }
}

/// One plane get under the run's fault model; `salt` keys the
/// backoff-jitter stream (frame or step index, plus the leaf for
/// reducers).
fn consume_recovering<'a>(
    args: &'a ConsumerArgs,
    rec: &'a Recorder,
    salt: u64,
    get: impl AsyncFnMut(Option<&mut StdRng>) -> Result<Payload, PlaneError> + 'a,
) -> impl Future<Output = Option<Payload>> + 'a {
    recovering(
        &args.run,
        args.node,
        rec,
        Side::Consume,
        args.rng_stream ^ 0xFA17 ^ salt,
        get,
        terminal,
    )
}

/// DYAD producer process. Returns its Caliper-style profile.
pub fn producer_dyad(
    args: ProducerArgs,
    svc: Rc<DyadService>,
    rng_stream: u64,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut md) = producer_setup(&args, rng_stream);
        args.run.ctx.sleep(args.start_offset).await;
        for frame in 0..args.run.frames {
            let payload = simulate_frame(&args.run, &rec, &mut md, frame).await;
            let path = frame_path(args.pair, frame);
            // Device-error windows are absorbed inside `try_produce`.
            recovering(
                &args.run,
                args.node,
                &rec,
                Side::Produce,
                rng_stream ^ 0xFA17,
                async |rng| svc.try_produce(&rec, &path, &payload, rng).await,
                terminal,
            )
            .await;
        }
        rec.finish()
    }
}

/// Manual-baseline producer process (XFS or Lustre).
///
/// `ldlm` must be provided when `mode` is [`ManualSync::LockBased`].
pub fn producer_manual(
    args: ProducerArgs,
    storage: Storage,
    sync: (Sender<u64>, Receiver<u64>),
    mode: ManualSync,
    ldlm: Option<LdlmClient>,
    rng_stream: u64,
) -> impl Future<Output = Profile> {
    async move {
        let (ready_tx, mut done_rx) = sync;
        let (rec, mut md) = producer_setup(&args, rng_stream);
        args.run.ctx.sleep(args.start_offset).await;
        storage.ensure_dir(&frame_dir(args.pair)).await;
        for frame in 0..args.run.frames {
            if let Some(board) = &args.run.faults {
                // A crashed node runs nothing: freeze until the restart.
                board.hold_until_up(args.node).await;
            }
            let payload = simulate_frame(&args.run, &rec, &mut md, frame).await;
            let path = frame_path(args.pair, frame);
            {
                let g = rec.region("produce");
                if mode == ManualSync::LockBased {
                    let s = rec.region("explicit_sync");
                    ldlm.as_ref()
                        .expect("LockBased needs an LDLM client")
                        .lock(&lock_path(args.pair, frame), LockMode::Exclusive)
                        .await;
                    s.end();
                }
                {
                    let w = rec.region("write_single_buf");
                    storage.write_frame(&path, payload).await;
                    w.end();
                }
                {
                    // Announce availability. For the channel-based barrier
                    // this is a cheap send; for polling it is the `.done`
                    // marker write. The *wait* half (if any) is below.
                    let s = rec.region("explicit_sync");
                    match mode {
                        ManualSync::Polling => {
                            storage.write_marker(&path).await;
                        }
                        ManualSync::LockBased => {
                            ldlm.as_ref()
                                .expect("LockBased needs an LDLM client")
                                .unlock(&lock_path(args.pair, frame), LockMode::Exclusive)
                                .await;
                        }
                        ManualSync::Coarse | ManualSync::Fine => ready_tx.send(frame),
                    }
                    s.end();
                }
                g.end();
            }
            if matches!(mode, ManualSync::Coarse | ManualSync::Fine) {
                // Coarse/fine serialization: hold the next stride until the
                // consumer releases us. Deliberately not part of `produce`
                // (see module docs). Polling producers never block.
                let g = rec.region("serialized_wait");
                let released = done_rx.recv().await;
                assert_eq!(released, Some(frame), "pair sync out of step");
                g.end();
            }
        }
        rec.finish()
    }
}

/// Everything a consumer process needs.
pub struct ConsumerArgs {
    /// What the run's roles share.
    pub run: Rc<RunShared>,
    /// Pair index.
    pub pair: u32,
    /// The compute-node index this process runs on (fault freezes).
    pub node: u32,
    /// Launch offset (paired with the producer's).
    pub start_offset: SimDuration,
    /// RNG stream for the analytics jitter.
    pub rng_stream: u64,
}

/// What every consumer role starts from: its recorder and analytics rng.
fn consumer_setup(args: &ConsumerArgs) -> (Recorder, StdRng) {
    let rec = recorder(&args.run, "consumer", args.pair);
    (rec, args.run.ctx.rng(args.rng_stream))
}

/// The `analytics` phase of one delivered frame: one jittered analytics
/// duration.
fn analytics<'a>(
    run: &'a RunShared,
    rec: &'a Recorder,
    rng: &'a mut StdRng,
) -> impl Future<Output = ()> + 'a {
    async move {
        use rand::RngExt;
        let g = rec.region("analytics");
        let mut d = run.analytics;
        let jitter = run.clock.jitter;
        if jitter > 0.0 {
            d = d.mul_f64(rng.random_range(1.0 - jitter..1.0 + jitter));
        }
        run.ctx.sleep(d).await;
        g.end();
    }
}

/// DYAD consumer process.
pub fn consumer_dyad(args: ConsumerArgs, svc: Rc<DyadService>) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut rng) = consumer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        // Ack id must match what the runner registered on the producer
        // node's staging manager, or frames would never become retireable.
        let mut session: DyadConsumer = svc.consumer_with_id(&pair_session_id(args.pair));
        for frame in 0..args.run.frames {
            let path = frame_path(args.pair, frame);
            let get = consume_recovering(&args, &rec, frame, async |_| {
                session.try_consume(&rec, &path).await
            });
            // A typed loss has nothing to analyze; move to the next frame.
            let Some(data) = get.await else { continue };
            deserialize_frame(&args, &rec, &data, frame).await;
            analytics(&args.run, &rec, &mut rng).await;
        }
        rec.finish()
    }
}

/// Manual-baseline consumer process (XFS or Lustre).
pub fn consumer_manual(
    args: ConsumerArgs,
    storage: Storage,
    sync: (Receiver<u64>, Sender<u64>),
    mode: ManualSync,
    ldlm: Option<LdlmClient>,
    poll_interval: SimDuration,
) -> impl Future<Output = Profile> {
    async move {
        let (mut ready_rx, done_tx) = sync;
        let (rec, mut rng) = consumer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        for frame in 0..args.run.frames {
            if let Some(board) = &args.run.faults {
                board.hold_until_up(args.node).await;
            }
            let path = frame_path(args.pair, frame);
            let data = {
                let g = rec.region("consume");
                {
                    // The manual barrier: wait until the producer has
                    // written this frame. This is the idle time the paper
                    // measures for XFS/Lustre consumption.
                    let s = rec.region("explicit_sync");
                    match mode {
                        ManualSync::Polling => {
                            let marker = format!("{path}.done");
                            let mut polls = 0f64;
                            while !storage.probe(&marker).await {
                                polls += 1.0;
                                args.run.ctx.sleep(poll_interval).await;
                            }
                            rec.annotate("sync_polls", polls);
                        }
                        ManualSync::LockBased => {
                            // Take the read lock, check the frame landed; if
                            // the producer has not even locked yet, back off
                            // and retry (the startup race every lock-based
                            // protocol has to handle).
                            let ldlm = ldlm.as_ref().expect("LockBased needs an LDLM client");
                            let lock = lock_path(args.pair, frame);
                            let mut retries = 0f64;
                            loop {
                                ldlm.lock(&lock, LockMode::ProtectedRead).await;
                                let present = storage.probe(&path).await;
                                ldlm.unlock(&lock, LockMode::ProtectedRead).await;
                                if present {
                                    break;
                                }
                                retries += 1.0;
                                args.run.ctx.sleep(poll_interval).await;
                            }
                            rec.annotate("lock_retries", retries);
                        }
                        ManualSync::Coarse | ManualSync::Fine => {
                            let ready = ready_rx.recv().await;
                            assert_eq!(ready, Some(frame), "pair sync out of step");
                        }
                    }
                    s.end();
                }
                let r = rec.region("read_single_buf");
                let data = storage.read_frame(&path).await;
                r.end();
                g.end();
                data
            };
            deserialize_frame(&args, &rec, &data, frame).await;
            if mode == ManualSync::Fine {
                // Fine-grained ablation: release the producer before the
                // analytics so the next stride overlaps with it.
                done_tx.send(frame);
            }
            analytics(&args.run, &rec, &mut rng).await;
            if mode == ManualSync::Coarse {
                // The paper's coarse-grained barrier: the producer stays
                // blocked until the consumer has completely finished.
                done_tx.send(frame);
            }
        }
        // Polling mode never uses the channel; drop it silently.
        drop(done_tx);
        rec.finish()
    }
}

/// DYAD-sync-over-PFS ablation: producer writes through Lustre but
/// publishes availability through the KVS (no manual barrier).
pub fn producer_dyad_on_pfs(
    args: ProducerArgs,
    storage: Storage,
    kvs: KvsClient,
    owner: cluster::NodeId,
    rng_stream: u64,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut md) = producer_setup(&args, rng_stream);
        args.run.ctx.sleep(args.start_offset).await;
        for frame in 0..args.run.frames {
            if let Some(board) = &args.run.faults {
                board.hold_until_up(args.node).await;
            }
            let payload = simulate_frame(&args.run, &rec, &mut md, frame).await;
            let size = transport::payload_len(&payload);
            let path = frame_path(args.pair, frame);
            {
                let g = rec.region(dyad::PLANE.put);
                {
                    let w = rec.region(dyad::PLANE.put_write);
                    storage.write_frame(&path, payload).await;
                    w.end();
                }
                {
                    let c = rec.region(dyad::PLANE.put_commit);
                    let meta = FrameMeta {
                        owner,
                        size,
                        location: FrameLocation::Pfs,
                    };
                    // A broker outage that outlasts the client's own retry
                    // budget is waited out here, like DYAD's commit.
                    recovering(
                        &args.run,
                        args.node,
                        &rec,
                        Side::Produce,
                        rng_stream ^ 0xFA17,
                        async |_| kvs.try_commit(&path, meta.encode()).await,
                        |_| None,
                    )
                    .await;
                    c.end();
                }
                g.end();
            }
        }
        rec.finish()
    }
}

/// DYAD-sync-over-PFS ablation consumer.
pub fn consumer_dyad_on_pfs(
    args: ConsumerArgs,
    storage: Storage,
    kvs: KvsClient,
    warm_sync: bool,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut rng) = consumer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        let mut warmed = false;
        for frame in 0..args.run.frames {
            if let Some(board) = &args.run.faults {
                board.hold_until_up(args.node).await;
            }
            let path = frame_path(args.pair, frame);
            let data = {
                let g = rec.region(dyad::PLANE.get);
                {
                    let f = rec.region(dyad::PLANE.get_sync);
                    let warm = warmed && warm_sync;
                    // Warm: one cheap lookup; cold (or not yet published): the
                    // parked watch. A frame whose metadata stays unreachable
                    // past the outer budget is a counted failure — skip it.
                    let synced = recovering(
                        &args.run,
                        args.node,
                        &rec,
                        Side::Consume,
                        args.rng_stream ^ 0xFA17 ^ frame,
                        async |_| {
                            if warm && kvs.try_lookup(&path).await?.is_some() {
                                return Ok(());
                            }
                            kvs.try_wait_key(&path).await.map(drop)
                        },
                        |_: &transport::TransportError| None,
                    )
                    .await;
                    if synced.is_none() {
                        continue;
                    }
                    warmed = true;
                    f.end();
                }
                let r = rec.region(staging::plane::READ);
                let data = storage.read_frame(&path).await;
                r.end();
                g.end();
                data
            };
            deserialize_frame(&args, &rec, &data, frame).await;
            analytics(&args.run, &rec, &mut rng).await;
        }
        rec.finish()
    }
}

// ---------------------------------------------------------------------------
// Streaming (SST-style) process bodies
// ---------------------------------------------------------------------------

/// Streaming-group role shared by the publisher/subscriber bodies:
/// which group and its topology shape. A step is one MD frame.
#[derive(Clone, Copy)]
pub struct StreamRole {
    /// Group index (the streaming analogue of a pair).
    pub group: u32,
    /// Subscribers per fan-out group.
    pub fanout: u32,
    /// Publishers per fan-in group.
    pub fanin: u32,
    /// This publisher's leaf index within a fan-in group (0 otherwise).
    pub leaf: u32,
}

impl StreamRole {
    /// Member 0 of `group` under `s` (publishers set their own `leaf`).
    pub(crate) fn new(s: &StreamingConfig, group: u32) -> StreamRole {
        StreamRole {
            group,
            fanout: s.fanout,
            fanin: s.fanin,
            leaf: 0,
        }
    }

    /// Logical step name for `(leaf, step)`; fan-in groups get a
    /// per-leaf namespace so every publisher owns its own sequence.
    pub(crate) fn step_name(&self, leaf: u32, step: u64) -> String {
        if self.fanin > 1 {
            format!("steps/g{:04}/l{leaf:02}/s{step:05}", self.group)
        } else {
            format!("steps/g{:04}/s{step:05}", self.group)
        }
    }

    /// The directory of `leaf`'s steps.
    pub(crate) fn step_dir(&self, leaf: u32) -> String {
        parent_dir(self.step_name(leaf, 0))
    }

    /// Distinct consumption-ack ids in the group ([`Self::session_id`]
    /// of members `0..sessions()`).
    pub(crate) fn sessions(&self) -> u32 {
        if self.fanin > 1 {
            1
        } else {
            self.fanout
        }
    }

    /// The consumption-ack id of group member `sub_idx`: what its session
    /// acks under, the publisher's window waits on and the publisher
    /// node's staging manager has registered. A fan-in group has only
    /// its reducer.
    pub(crate) fn session_id(&self, sub_idx: u32) -> String {
        if self.fanin > 1 {
            format!("g{}r", self.group)
        } else {
            format!("g{}s{sub_idx}", self.group)
        }
    }
}

/// Streaming publisher process: the SST-style writer side of one group.
/// Each published step is one MD frame; the bounded in-flight window
/// gates publication on the acks of every member of `group_ackers`.
pub fn publisher_stream(
    args: ProducerArgs,
    svc: Rc<streaming::StreamService>,
    role: StreamRole,
    group_ackers: Vec<StreamAcker>,
    rng_stream: u64,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut md) = producer_setup(&args, rng_stream);
        args.run.ctx.sleep(args.start_offset).await;
        let mut publisher = svc.publisher();
        for step in 0..args.run.frames {
            let payload = simulate_frame(&args.run, &rec, &mut md, step).await;
            let name = role.step_name(role.leaf, step);
            // Window stalls and device errors are absorbed inside
            // `try_publish`.
            recovering(
                &args.run,
                args.node,
                &rec,
                Side::Produce,
                rng_stream ^ 0xFA17 ^ step,
                async |rng| {
                    publisher
                        .try_publish(&rec, &name, step, &payload, &group_ackers, rng)
                        .await
                },
                terminal,
            )
            .await;
        }
        rec.finish()
    }
}

/// Streaming fan-out subscriber process: member `sub_idx` of a group of
/// [`StreamRole::fanout`], consuming every step under its own session id.
pub fn subscriber_stream(
    args: ConsumerArgs,
    svc: Rc<streaming::StreamService>,
    role: StreamRole,
    sub_idx: u32,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut rng) = consumer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        let mut session = svc.subscriber(&role.session_id(sub_idx));
        for step in 0..args.run.frames {
            let name = role.step_name(0, step);
            let get = consume_recovering(&args, &rec, step, async |_| {
                session.try_consume_step(&rec, &name).await
            });
            // A typed loss has nothing to analyze; move to the next step.
            let Some(data) = get.await else { continue };
            deserialize_frame(&args, &rec, &data, step).await;
            analytics(&args.run, &rec, &mut rng).await;
        }
        rec.finish()
    }
}

/// Streaming fan-in reducer: consumes one step from every leaf
/// publisher, merges the leaves when all arrived (one deserialize
/// charge per leaf after the first), then runs the analytics phase.
pub fn reducer_stream(
    args: ConsumerArgs,
    svc: Rc<streaming::StreamService>,
    role: StreamRole,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut rng) = consumer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        let mut session = svc.subscriber(&role.session_id(0));
        for step in 0..args.run.frames {
            let mut delivered = 0;
            let mut head: Option<Payload> = None;
            for leaf in 0..role.fanin {
                let name = role.step_name(leaf, step);
                let salt = step ^ (u64::from(leaf) << 32);
                let get = consume_recovering(&args, &rec, salt, async |_| {
                    session.try_consume_step(&rec, &name).await
                });
                let Some(data) = get.await else { continue };
                delivered += 1;
                if head.is_none() {
                    head = Some(data);
                }
            }
            // Every leaf lost: nothing to reduce for this step index.
            let Some(head) = head else { continue };
            deserialize_frame(&args, &rec, &head, step).await;
            if delivered == role.fanin {
                let g = rec.region("stream_reduce");
                args.run
                    .ctx
                    .sleep(args.run.deserialize_cpu.mul_f64(f64::from(role.fanin - 1)))
                    .await;
                rec.annotate("reduced_steps", 1.0);
                g.end();
            } else {
                // A lost leaf leaves a partial reduction — typed, visible.
                rec.annotate("partial_reductions", 1.0);
            }
            analytics(&args.run, &rec, &mut rng).await;
        }
        rec.finish()
    }
}

/// Deserialize a delivered frame: charge the CPU cost, then check it is
/// the run's model's frame for `frame`, header and length — what
/// catches a frame delivered for the wrong step or cut short.
fn deserialize_frame<'a>(
    args: &'a ConsumerArgs,
    rec: &'a Recorder,
    data: &'a [Bytes],
    frame: u64,
) -> impl Future<Output = ()> + 'a {
    async move {
        let g = rec.region("deserialize");
        args.run.ctx.sleep(args.run.deserialize_cpu).await;
        if let Err(e) = args.run.model.check_frame(data, frame) {
            panic!("consumer {} rejected frame {frame}: {e}", args.pair);
        }
        g.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Placement, Solution};

    /// What the roles of `wf`'s ensemble do with names, from the
    /// functions their bodies call: `(node, managed path)` of a frame or
    /// step every publisher writes, and every session id a consumer role
    /// opens.
    fn names_in_use(wf: &WorkflowConfig, ens: &Ensemble) -> (Vec<(u32, String)>, Vec<String>) {
        let plane = wf.solution.row().plane.expect("a staged backend");
        let (mut written, mut opened) = (Vec::new(), Vec::new());
        for g in 0..ens.groups {
            let role = StreamRole::new(&wf.streaming, g);
            for l in 0..ens.pubs {
                let name = match wf.solution {
                    // `publisher_stream`, step 0 of leaf `l`.
                    Solution::Streaming => role.step_name(l, 0),
                    // `producer_dyad`, frame 0.
                    _ => frame_path(g, 0),
                };
                let node = ens.publisher_node(g * ens.pubs + l);
                written.push((node, plane.managed_path(&name)));
            }
            for j in 0..ens.subs {
                opened.push(match wf.solution {
                    // `subscriber_stream(.., j)`; `reducer_stream` opens
                    // member 0's.
                    Solution::Streaming => role.session_id(j),
                    // `consumer_dyad`.
                    _ => pair_session_id(g),
                });
            }
        }
        (written, opened)
    }

    #[test]
    fn every_registration_names_a_directory_written_to_and_a_session_opened() {
        let split = Placement::Split { pairs_per_node: 2 };
        let streaming = || WorkflowConfig::new(Solution::Streaming, 3, split);
        // (shape, registrations per group)
        let shapes = [
            (WorkflowConfig::new(Solution::Dyad, 5, split), 1),
            (streaming().with_fanout(3), 3),
            (streaming().with_fanin(4), 4),
        ];
        for (wf, per_group) in shapes {
            let ens = wf.ensemble();
            let regs = registrations(&wf, &ens);
            assert_eq!(regs.len(), (wf.pairs * per_group) as usize, "{wf:?}");
            let (written, opened) = names_in_use(&wf, &ens);
            for (node, dir, consumer) in &regs {
                assert!(
                    written
                        .iter()
                        .any(|(n, path)| n == node && path.starts_with(&format!("{dir}/"))),
                    "nothing is written under {dir} on node {node}: {written:?}"
                );
                assert!(
                    opened.contains(consumer),
                    "nobody opens {consumer}: {opened:?}"
                );
            }
            // And nobody acks under an id no manager waits for.
            for id in &opened {
                assert!(regs.iter().any(|(_, _, c)| c == id), "{id} is unregistered");
            }
        }
        // A backend that does not stage registers nothing.
        let lustre = WorkflowConfig::new(Solution::Lustre, 4, split);
        assert!(registrations(&lustre, &lustre.ensemble()).is_empty());
    }
}
