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
//! Frames move through files ([`file_producer`], [`file_consumer`]: XFS,
//! Lustre, DYAD-on-PFS, each pair synchronized by a [`Handshake`]; a
//! crashed node freezes at the top of each frame) or through the staged
//! plane ([`staged_producer`], [`staged_consumer`]: DYAD, streaming;
//! each operation runs under `recovering`, once and inline without a
//! fault board, as the boxed freeze/retry/backoff loop with one,
//! DESIGN.md §8). One producer loop and one consumer loop per way.
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

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]
// Each frame loop stays readable on its own: `clippy.toml` sets the
// threshold to 120 code lines.
#![warn(clippy::too_many_lines)]

use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use dyad::{DyadConsumer, DyadService, FrameLocation, FrameMeta};
use faults::FaultBoard;
use instrument::{Profile, Recorder};
use kvs::KvsClient;
use localfs::LocalFs;
use mdsim::{Model, StepClock};
use pfs::{LdlmClient, LockMode, PfsClient};
use rand::rngs::StdRng;
use simcore::sync::{Receiver, Sender};
use simcore::trace::Tracer;
use simcore::{Ctx, SimDuration};
use staging::plane::{retry_policy, PlaneError, READ};
use streaming::{StreamAcker, StreamPublisher, StreamService, StreamSubscriber};
use transport::{Payload, TransportError};

use crate::config::{Ensemble, ManualSync, WorkflowConfig};
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
}

/// The `.done` marker of the frame at `path`: the Pegasus-style
/// completion convention a polling consumer probes for.
fn done_marker(path: &str) -> String {
    format!("{path}.done")
}

/// What every role of one run reads and none changes, built once per run
/// and shared: a role's task block holds one pointer to it, not a copy of
/// each field per pair.
pub(crate) struct RunShared {
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

/// Everything a producer or consumer process needs.
pub struct ProcessArgs {
    /// What the run's roles share.
    pub(crate) run: Rc<RunShared>,
    /// Index on its side (a pair's, or a streaming member's).
    pub(crate) pair: u32,
    /// The compute-node index this process runs on (fault freezes).
    pub(crate) node: u32,
    /// Launch offset (ensembles never start in lockstep; staggering
    /// reproduces the phase spread a real job launcher produces).
    pub(crate) start_offset: SimDuration,
    /// RNG stream of its MD-phase or analytics jitter, and the key of its
    /// backoff-jitter streams.
    pub(crate) rng_stream: u64,
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

/// What every producer loop starts from: its recorder and its MD-phase
/// source.
fn producer_setup(args: &ProcessArgs) -> (Recorder, MdPhase<'_>) {
    let run = &*args.run;
    let rec = recorder(run, "producer", args.pair);
    let md = match &run.schedule {
        Some(s) => MdPhase::Schedule(s.generator(run.ctx.rng(args.rng_stream ^ 0x5C4E))),
        None => MdPhase::Stride(run.ctx.rng(args.rng_stream)),
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
        let role = StreamRole::new(ens, g, 0);
        for l in 0..ens.pubs {
            let node = ens.publisher_node(g * ens.pubs + l);
            let mut register = |dir: String, consumer: String| {
                regs.push((node, plane.managed_path(&dir), consumer));
            };
            if row.groups {
                for j in 0..ens.subs {
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

/// Run one data-plane operation of `args`' process under the run's
/// fault model. `op` gets the backoff-jitter stream (fault runs only;
/// `salt` keys it off the process's stream) and returns a typed error;
/// `terminal` names the counter of an error no retry can cure, which
/// ends the operation with `None`.
///
/// With no fault board the operation runs once, inline, and an error is
/// a simulator bug. With one, a crashed node runs nothing (freeze until
/// the restart) and whatever outlasts the operation's own retry budget
/// is re-run here with [`retry_policy`]'s backoff; every fault window is
/// finite, so this terminates. The loop is boxed so the rarely-live
/// recovery state machine does not inflate every fault-free task.
fn recovering<'a, T, E: std::fmt::Display>(
    args: &'a ProcessArgs,
    rec: &'a Recorder,
    side: Side,
    salt: u64,
    mut op: impl AsyncFnMut(Option<&mut StdRng>) -> Result<T, E> + 'a,
    terminal: impl Fn(&E) -> Option<&'static str> + 'a,
) -> impl Future<Output = Option<T>> + 'a {
    async move {
        let run = &*args.run;
        let Some(board) = &run.faults else {
            return match op(None).await {
                Ok(v) => Some(v),
                Err(e) => panic!("{} failed without a fault board: {e}", side.keys().0),
            };
        };
        Box::pin(async {
            let (_, outer_retries, failures) = side.keys();
            let mut frng = run.ctx.rng(args.rng_stream ^ 0xFA17 ^ salt);
            let mut outer = 0u32;
            loop {
                board.hold_until_up(args.node).await;
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

/// What every consumer loop starts from: its recorder and analytics rng.
fn consumer_setup(args: &ProcessArgs) -> (Recorder, StdRng) {
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

/// Deserialize a delivered frame: charge the CPU cost, then check it is
/// the run's model's frame for `frame`, header and length — what
/// catches a frame delivered for the wrong step or cut short.
fn deserialize_frame<'a>(
    args: &'a ProcessArgs,
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

// ---------------------------------------------------------------------------
// Frames through files: XFS, Lustre, DYAD-on-PFS
// ---------------------------------------------------------------------------

/// The manual baselines' synchronization region, on either side.
const EXPLICIT_SYNC: &str = "explicit_sync";

/// The regions of a file loop, as [`crate::report::reduce_run`] reads
/// them: `put` ⊃ { `write`, `announce` }, `get` ⊃ { `sync`, [`READ`] }.
pub struct FileRegions {
    pub(crate) put: &'static str,
    pub(crate) write: &'static str,
    pub(crate) announce: &'static str,
    pub(crate) get: &'static str,
    pub(crate) sync: &'static str,
}

/// The manual baselines' regions.
pub(crate) const MANUAL_REGIONS: FileRegions = FileRegions {
    put: "produce",
    write: "write_single_buf",
    announce: EXPLICIT_SYNC,
    get: "consume",
    sync: EXPLICIT_SYNC,
};

/// One frame of a file loop, as its [`Handshake`] sees it.
pub struct FileFrame<'a> {
    args: &'a ProcessArgs,
    rec: &'a Recorder,
    storage: &'a Storage,
    path: String,
    frame: u64,
}

impl<'a> FileFrame<'a> {
    fn new(args: &'a ProcessArgs, rec: &'a Recorder, storage: &'a Storage, frame: u64) -> Self {
        let path = frame_path(args.pair, frame);
        FileFrame {
            args,
            rec,
            storage,
            path,
            frame,
        }
    }
}

/// How a file loop's producer tells its consumer that a frame landed,
/// and how the consumer waits for it: each process of a pair holds one
/// end. `None` from a hook gives the frame up (a counted failure).
pub trait Handshake {
    /// The regions the loops open.
    const REGIONS: FileRegions;

    /// Producer: inside the put region, before the write.
    fn before_write<'a>(&'a self, _: &'a FileFrame) -> impl Future<Output = ()> + 'a {
        async {}
    }

    /// Producer: announce the frame just written.
    fn announce<'a>(&'a mut self, f: &'a FileFrame) -> impl Future<Output = Option<()>> + 'a;

    /// Producer: after the put region, before the next stride.
    fn after_put<'a>(&'a mut self, _: &'a FileFrame) -> impl Future<Output = ()> + 'a {
        async {}
    }

    /// Consumer: wait until the frame landed.
    fn await_frame<'a>(&'a mut self, f: &'a FileFrame) -> impl Future<Output = Option<()>> + 'a;

    /// Consumer: the frame was read and deserialized and, when
    /// `analyzed`, its analytics ran too.
    fn release(&self, _frame: u64, _analyzed: bool) {}
}

/// One end of a manual-baseline pair (XFS or Lustre): the protocol, the
/// pair's channels (the producer sends `ready` and receives `done`, the
/// consumer the reverse), the lock client of
/// [`ManualSync::LockBased`] and the consumer's poll interval.
pub struct ManualEnd {
    pub(crate) mode: ManualSync,
    pub(crate) tx: Sender<u64>,
    pub(crate) rx: Receiver<u64>,
    pub(crate) ldlm: Option<LdlmClient>,
    pub(crate) poll: SimDuration,
}

impl ManualEnd {
    fn ldlm(&self) -> &LdlmClient {
        self.ldlm.as_ref().expect("LockBased needs an LDLM client")
    }
}

impl Handshake for ManualEnd {
    const REGIONS: FileRegions = MANUAL_REGIONS;

    fn before_write<'a>(&'a self, f: &'a FileFrame) -> impl Future<Output = ()> + 'a {
        async move {
            if self.mode == ManualSync::LockBased {
                let s = f.rec.region(EXPLICIT_SYNC);
                let lock = lock_path(f.args.pair, f.frame);
                self.ldlm().lock(&lock, LockMode::Exclusive).await;
                s.end();
            }
        }
    }

    /// A send for the channel barriers, the `.done` marker for polling,
    /// the unlock for locks; the wait half is [`Handshake::after_put`].
    fn announce<'a>(&'a mut self, f: &'a FileFrame) -> impl Future<Output = Option<()>> + 'a {
        async move {
            match self.mode {
                ManualSync::Polling => {
                    let marker = done_marker(&f.path);
                    match f.storage {
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
                ManualSync::LockBased => {
                    let lock = lock_path(f.args.pair, f.frame);
                    self.ldlm().unlock(&lock, LockMode::Exclusive).await;
                }
                ManualSync::Coarse | ManualSync::Fine => self.tx.send(f.frame),
            }
            Some(())
        }
    }

    /// Coarse/fine serialization: hold the next stride until the
    /// consumer releases this frame. Deliberately not part of `produce`
    /// (see module docs). Polling and lock producers never block.
    fn after_put<'a>(&'a mut self, f: &'a FileFrame) -> impl Future<Output = ()> + 'a {
        async move {
            if matches!(self.mode, ManualSync::Coarse | ManualSync::Fine) {
                let g = f.rec.region("serialized_wait");
                let released = self.rx.recv().await;
                assert_eq!(released, Some(f.frame), "pair sync out of step");
                g.end();
            }
        }
    }

    /// The manual barrier: the idle time the paper measures for
    /// XFS/Lustre consumption.
    fn await_frame<'a>(&'a mut self, f: &'a FileFrame) -> impl Future<Output = Option<()>> + 'a {
        async move {
            let ctx = &f.args.run.ctx;
            match self.mode {
                ManualSync::Polling => {
                    let marker = done_marker(&f.path);
                    let mut polls = 0f64;
                    while !f.storage.probe(&marker).await {
                        polls += 1.0;
                        ctx.sleep(self.poll).await;
                    }
                    f.rec.annotate("sync_polls", polls);
                }
                ManualSync::LockBased => {
                    // Take the read lock, check the frame landed; if the
                    // producer has not even locked yet, back off and retry
                    // (the startup race every lock-based protocol has to
                    // handle).
                    let lock = lock_path(f.args.pair, f.frame);
                    let mut retries = 0f64;
                    loop {
                        self.ldlm().lock(&lock, LockMode::ProtectedRead).await;
                        let present = f.storage.probe(&f.path).await;
                        self.ldlm().unlock(&lock, LockMode::ProtectedRead).await;
                        if present {
                            break;
                        }
                        retries += 1.0;
                        ctx.sleep(self.poll).await;
                    }
                    f.rec.annotate("lock_retries", retries);
                }
                ManualSync::Coarse | ManualSync::Fine => {
                    let ready = self.rx.recv().await;
                    assert_eq!(ready, Some(f.frame), "pair sync out of step");
                }
            }
            Some(())
        }
    }

    /// Fine-grained sync releases the producer before the analytics, so
    /// the next stride overlaps with it; the paper's coarse-grained
    /// barrier only once the consumer has completely finished.
    fn release(&self, frame: u64, analyzed: bool) {
        if matches!(
            (self.mode, analyzed),
            (ManualSync::Fine, false) | (ManualSync::Coarse, true)
        ) {
            self.tx.send(frame);
        }
    }
}

/// One end of a DYAD-on-PFS pair, the ablation that keeps DYAD's
/// synchronization and moves the bytes through Lustre: the producer
/// commits each frame's metadata to the KVS; the consumer finds it with
/// the parked watch or, once `warmed` and when `warm_sync`, one lookup.
pub struct KvsEnd {
    pub(crate) kvs: KvsClient,
    pub(crate) warm_sync: bool,
    pub(crate) warmed: bool,
}

impl Handshake for KvsEnd {
    const REGIONS: FileRegions = FileRegions {
        put: dyad::PLANE.put,
        write: dyad::PLANE.put_write,
        announce: dyad::PLANE.put_commit,
        get: dyad::PLANE.get,
        sync: dyad::PLANE.get_sync,
    };

    /// A broker outage that outlasts the client's own retry budget is
    /// waited out here, like DYAD's commit.
    fn announce<'a>(&'a mut self, f: &'a FileFrame) -> impl Future<Output = Option<()>> + 'a {
        let meta = FrameMeta {
            owner: NodeId(f.args.node),
            // Every frame of a model is this long (consumers check it).
            size: f.args.run.model.frame_bytes(),
            location: FrameLocation::Pfs,
        };
        let kvs = &self.kvs;
        let commit = async move |_: Option<&mut StdRng>| {
            kvs.try_commit(&f.path, meta.encode()).await.map(drop)
        };
        recovering(f.args, f.rec, Side::Produce, 0, commit, |_| None)
    }

    /// A frame whose metadata stays unreachable past the outer budget is
    /// a counted failure.
    fn await_frame<'a>(&'a mut self, f: &'a FileFrame) -> impl Future<Output = Option<()>> + 'a {
        let (kvs, warm) = (&self.kvs, self.warmed && self.warm_sync);
        let warmed = &mut self.warmed;
        let sync = async move |_: Option<&mut StdRng>| {
            if !(warm && kvs.try_lookup(&f.path).await?.is_some()) {
                kvs.try_wait_key(&f.path).await?;
            }
            *warmed = true;
            Ok(())
        };
        let terminal = |_: &TransportError| None;
        recovering(f.args, f.rec, Side::Consume, f.frame, sync, terminal)
    }
}

/// The file path's producer: writes each frame to `storage` and
/// announces it through `sync`.
pub fn file_producer<H: Handshake>(
    args: ProcessArgs,
    storage: Storage,
    mut sync: H,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut md) = producer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        if let Storage::Local(fs) = &storage {
            // The PFS namespace is flat; a local one needs the directory.
            let _ = fs.mkdir_p(&frame_dir(args.pair)).await;
        }
        for frame in 0..args.run.frames {
            if let Some(board) = &args.run.faults {
                // A crashed node runs nothing: freeze until the restart.
                board.hold_until_up(args.node).await;
            }
            let payload = simulate_frame(&args.run, &rec, &mut md, frame).await;
            let f = FileFrame::new(&args, &rec, &storage, frame);
            let g = rec.region(H::REGIONS.put);
            sync.before_write(&f).await;
            let w = rec.region(H::REGIONS.write);
            storage.write_frame(&f.path, payload).await;
            w.end();
            let s = rec.region(H::REGIONS.announce);
            sync.announce(&f).await;
            s.end();
            g.end();
            sync.after_put(&f).await;
        }
        rec.finish()
    }
}

/// The file path's consumer: waits through `sync` until each frame
/// landed, then reads it from `storage`.
pub fn file_consumer<H: Handshake>(
    args: ProcessArgs,
    storage: Storage,
    mut sync: H,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut rng) = consumer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        for frame in 0..args.run.frames {
            let f = FileFrame::new(&args, &rec, &storage, frame);
            if let Some(board) = &args.run.faults {
                board.hold_until_up(args.node).await;
            }
            let g = rec.region(H::REGIONS.get);
            let s = rec.region(H::REGIONS.sync);
            if sync.await_frame(&f).await.is_none() {
                continue;
            }
            s.end();
            let r = rec.region(READ);
            let data = storage.read_frame(&f.path).await;
            r.end();
            g.end();
            deserialize_frame(&args, &rec, &data, f.frame).await;
            sync.release(f.frame, false);
            analytics(&args.run, &rec, &mut rng).await;
            sync.release(f.frame, true);
        }
        rec.finish()
    }
}

// ---------------------------------------------------------------------------
// Frames through the staged plane: DYAD, streaming
// ---------------------------------------------------------------------------

/// A staged process's place in its group (a DYAD pair is the 1 → 1
/// group; a streaming step is one MD frame).
#[derive(Clone, Copy)]
pub struct StreamRole {
    /// Group index (the streaming analogue of a pair).
    pub group: u32,
    /// Publishers per group: above 1, its subscriber is a reducer.
    pub fanin: u32,
    /// Index within the group on its side: a publisher's leaf, a
    /// subscriber's member.
    pub member: u32,
}

impl StreamRole {
    /// Member `member` of `group` of `ens`.
    pub(crate) fn new(ens: &Ensemble, group: u32, member: u32) -> StreamRole {
        let fanin = ens.pubs;
        StreamRole {
            group,
            fanin,
            member,
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

/// The name of a frame of a group's leaf on the staged plane.
type NameFn = fn(&StreamRole, u32, u64) -> String;
/// A DYAD pair's names: the frame paths of its one leaf.
const PAIR_FRAMES: NameFn = |role, _, frame| frame_path(role.group, frame);

/// A staged get's result.
type Got = Result<Payload, PlaneError>;

/// A staged producer's end of the plane: DYAD's node service, or a
/// streaming publisher and the sessions whose acks free its window.
pub trait Publish {
    /// Whether a frame's backoff jitter is drawn from a stream of its own
    /// (streaming) or from one stream for every frame (DYAD).
    const SALTED: bool;
    /// Where a frame goes.
    const NAME: NameFn;

    /// Put `frame` under `name`, absorbing device errors and window stalls.
    fn put<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
        frame: u64,
        payload: &'a [Bytes],
        jitter: Option<&'a mut StdRng>,
    ) -> impl Future<Output = Result<(), PlaneError>> + 'a;
}

impl Publish for Rc<DyadService> {
    const SALTED: bool = false;
    const NAME: NameFn = PAIR_FRAMES;

    fn put<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
        _: u64,
        payload: &'a [Bytes],
        jitter: Option<&'a mut StdRng>,
    ) -> impl Future<Output = Result<(), PlaneError>> + 'a {
        self.try_produce(rec, name, payload, jitter)
    }
}

impl Publish for (StreamPublisher, Vec<StreamAcker>) {
    const SALTED: bool = true;
    const NAME: NameFn = StreamRole::step_name;

    fn put<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
        step: u64,
        payload: &'a [Bytes],
        jitter: Option<&'a mut StdRng>,
    ) -> impl Future<Output = Result<(), PlaneError>> + 'a {
        let (publisher, ackers) = self;
        publisher.try_publish(rec, name, step, payload, ackers, jitter)
    }
}

/// A staged consumer's session: DYAD's or a streaming subscriber's. It
/// is opened once the consumer launched, so thousands of sessions cost
/// no run setup.
pub trait Subscribe: Sized {
    /// The node service the session is opened on.
    type Plane;
    /// Where a frame comes from.
    const NAME: NameFn;

    /// Open `role`'s session on `plane`, acking under the id its
    /// publishers' staging managers registered.
    fn open(plane: Self::Plane, role: &StreamRole) -> Self;

    /// Get the frame named `name`.
    fn get<'a>(&'a mut self, rec: &'a Recorder, name: &'a str) -> impl Future<Output = Got> + 'a;
}

impl Subscribe for DyadConsumer {
    type Plane = Rc<DyadService>;
    const NAME: NameFn = PAIR_FRAMES;

    fn open(plane: Self::Plane, role: &StreamRole) -> Self {
        plane.consumer_with_id(&pair_session_id(role.group))
    }

    fn get<'a>(&'a mut self, rec: &'a Recorder, name: &'a str) -> impl Future<Output = Got> + 'a {
        self.try_consume(rec, name)
    }
}

impl Subscribe for StreamSubscriber {
    type Plane = Rc<StreamService>;
    const NAME: NameFn = StreamRole::step_name;

    fn open(plane: Self::Plane, role: &StreamRole) -> Self {
        plane.subscriber(&role.session_id(role.member))
    }

    fn get<'a>(&'a mut self, rec: &'a Recorder, name: &'a str) -> impl Future<Output = Got> + 'a {
        self.try_consume_step(rec, name)
    }
}

/// The staged path's producer: puts each frame through `end`.
pub fn staged_producer<P: Publish>(
    args: ProcessArgs,
    mut end: P,
    role: StreamRole,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut md) = producer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        for frame in 0..args.run.frames {
            let payload = simulate_frame(&args.run, &rec, &mut md, frame).await;
            let name = P::NAME(&role, role.member, frame);
            let salt = if P::SALTED { frame } else { 0 };
            let put =
                async |rng: Option<&mut StdRng>| end.put(&rec, &name, frame, &payload, rng).await;
            recovering(&args, &rec, Side::Produce, salt, put, terminal).await;
        }
        rec.finish()
    }
}

/// The staged path's consumer: gets each frame of every leaf of
/// `role`'s group through the session it opens on `plane`; from two
/// leaves up it is a fan-in reducer, which merges the leaves when all
/// arrived (one deserialize charge per leaf after the first). A typed
/// loss has nothing to analyze: a frame every leaf lost is skipped.
pub fn staged_consumer<S: Subscribe>(
    args: ProcessArgs,
    plane: S::Plane,
    role: StreamRole,
) -> impl Future<Output = Profile> {
    async move {
        let (rec, mut rng) = consumer_setup(&args);
        args.run.ctx.sleep(args.start_offset).await;
        let mut session = S::open(plane, &role);
        for frame in 0..args.run.frames {
            let (mut head, mut complete): (Option<Payload>, _) = (None, true);
            for leaf in 0..role.fanin {
                let name = S::NAME(&role, leaf, frame);
                let salt = frame ^ (u64::from(leaf) << 32);
                let get = async |_: Option<&mut StdRng>| session.get(&rec, &name).await;
                let data = recovering(&args, &rec, Side::Consume, salt, get, terminal).await;
                complete &= data.is_some();
                head = head.or(data);
            }
            let Some(data) = &head else { continue };
            deserialize_frame(&args, &rec, data, frame).await;
            if role.fanin > 1 && complete {
                let g = rec.region("stream_reduce");
                let merge = args.run.deserialize_cpu.mul_f64(f64::from(role.fanin - 1));
                args.run.ctx.sleep(merge).await;
                rec.annotate("reduced_steps", 1.0);
                g.end();
            } else if role.fanin > 1 {
                // A lost leaf leaves a partial reduction — typed, visible.
                rec.annotate("partial_reductions", 1.0);
            }
            analytics(&args.run, &rec, &mut rng).await;
        }
        rec.finish()
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
            let role = StreamRole::new(ens, g, 0);
            for l in 0..ens.pubs {
                // `staged_producer`, frame 0.
                let name = match wf.solution {
                    Solution::Streaming => <(StreamPublisher, Vec<StreamAcker>)>::NAME(&role, l, 0),
                    _ => <Rc<DyadService>>::NAME(&role, l, 0),
                };
                let node = ens.publisher_node(g * ens.pubs + l);
                written.push((node, plane.managed_path(&name)));
            }
            // The sessions the runner opens for `staged_consumer`.
            for j in 0..ens.subs {
                opened.push(match wf.solution {
                    Solution::Streaming => role.session_id(j),
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
