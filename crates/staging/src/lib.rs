//! # staging — bounded NVMe staging lifecycle management
//!
//! The paper's DYAD results assume every frame stays on node-local NVMe
//! for the whole campaign. Corona's NVMe is 3.5 TB/node; an STMV
//! campaign at 28.5 MiB/frame with 8 producer/consumer pairs per node
//! (plus consumer-side cache copies) outgrows that within a few thousand
//! frames. This crate adds the production concern the paper motivates
//! but never ran: a per-node staged-data lifecycle manager sitting
//! between `dyad` and `localfs`/`pfs`.
//!
//! Every staged frame moves through a lifecycle:
//!
//! ```text
//! written → published → consumed-by-all-registered-consumers → retireable
//! ```
//!
//! Consumption is tracked with **acknowledgement keys** committed through
//! the same Flux-like [`kvs`] that carries frame metadata: consumer `c`
//! acks frame `p` by committing `__staging/ack/c<p>`. A background
//! **evictor** process (plain simulated time, one per node) enforces a
//! configurable staging budget with low/high watermarks:
//!
//! * above the low watermark it *retires* fully-acked frames
//!   (oldest-first), unlinking the local file, the KVS metadata, and the
//!   ack keys;
//! * if retirement cannot reach the low watermark it *spills*
//!   still-needed frames to the Lustre-like [`pfs`], republishing their
//!   metadata with [`FrameLocation::Pfs`] so consumer refetches fall
//!   back KVS → NVMe-RDMA → PFS transparently;
//! * producers exceeding the **high** watermark block in
//!   [`StagingManager::admit`] until the evictor frees space
//!   (backpressure), so the workflow degrades gracefully instead of
//!   dying with `NoSpace`.
//!
//! Frame metadata ([`FrameMeta`]) lives here rather than in `dyad`
//! because the evictor rewrites it on spill; `dyad` re-exports it.
//!
//! [`plane`] is the data plane the lifecycle serves: the one put / get
//! body `dyad` and `streaming` both run.

#![warn(missing_docs)]
// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

pub mod plane;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;

use bytes::{Buf, BufMut, Bytes};
use cluster::NodeId;
use kvs::KvsClient;
use localfs::LocalFs;
use pfs::PfsClient;
use simcore::intern::{intern, interned, FxHashMap, Symbol};
use simcore::sync::Notify;
use simcore::{race, Ctx, SimDuration};
use transport::TransportError;

/// Where a published frame's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameLocation {
    /// On the owner's node-local NVMe (managed directory).
    Nvme,
    /// Spilled to (or written directly on) the parallel filesystem.
    Pfs,
    /// Tombstone: every copy of the bytes is gone (owner crashed before
    /// a spill, or the spill copy itself was dropped). Consumers surface
    /// a typed frame-lost error instead of blocking forever.
    Lost,
}

/// Frame metadata stored in the KVS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Node that produced the frame (and holds it while on NVMe).
    pub owner: NodeId,
    /// Payload size in bytes.
    pub size: u64,
    /// Current home of the bytes.
    pub location: FrameLocation,
}

impl FrameMeta {
    /// Encode for the KVS value.
    pub fn encode(&self) -> Bytes {
        Bytes::build(13, |b| {
            b.put_u32(self.owner.0);
            b.put_u64(self.size);
            b.put_u8(match self.location {
                FrameLocation::Nvme => 0,
                FrameLocation::Pfs => 1,
                FrameLocation::Lost => 2,
            });
        })
    }

    /// Decode from a KVS value.
    pub(crate) fn decode(mut raw: Bytes) -> FrameMeta {
        let owner = NodeId(raw.get_u32());
        let size = raw.get_u64();
        let location = match raw.get_u8() {
            0 => FrameLocation::Nvme,
            2 => FrameLocation::Lost,
            _ => FrameLocation::Pfs,
        };
        FrameMeta {
            owner,
            size,
            location,
        }
    }
}

/// Staging-manager tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct StagingSpec {
    /// NVMe bytes the workflow may stage on this node. `u64::MAX`
    /// means unbounded (the paper's setup): the evictor never acts.
    pub budget_bytes: u64,
    /// Fraction of the budget the evictor frees down to.
    pub low_watermark: f64,
    /// Fraction of the budget above which producers block.
    pub high_watermark: f64,
    /// Period of the background evictor pass.
    pub evict_interval: SimDuration,
}

impl Default for StagingSpec {
    fn default() -> Self {
        StagingSpec {
            budget_bytes: u64::MAX,
            low_watermark: 0.7,
            high_watermark: 0.9,
            evict_interval: SimDuration::from_millis(200),
        }
    }
}

/// Why a frame is on this node's NVMe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// Produced here; the KVS metadata points at this copy.
    Produced,
    /// Consumer-side cache copy of a remote frame; evictable without
    /// acks (a refetch can always rebuild it).
    Cache,
}

/// Lifecycle state of a tracked frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// Bytes written to NVMe, metadata not yet committed.
    Written,
    /// Metadata committed; consumers can find it.
    Published,
    /// Moved to the PFS; local copy gone.
    Spilled,
    /// Every copy gone (node crash before spill, or spill copy dropped).
    /// Not consumable and holds no bytes; the evictor must skip it.
    Lost,
}

#[derive(Debug, Clone)]
struct Staged {
    path: Symbol,
    size: u64,
    kind: FrameKind,
    state: FrameState,
    seq: u64,
    /// The frame's spill copy on the PFS is whole, as every spilled
    /// frame's is. A spill whose republish failed keeps it: the next
    /// pass retries only the republish, and retirement unlinks it.
    spill_copied: bool,
}

/// One retirement decision, kept for auditing: the evictor must never
/// remove a frame before every registered consumer acked it, and tests
/// assert exactly that over this log.
#[derive(Debug, Clone)]
pub struct RetireRecord {
    /// Managed path of the retired frame.
    pub path: String,
    /// Registered consumers covering this path at retirement time.
    pub required_acks: usize,
    /// Ack keys observed present.
    pub acks_seen: usize,
    /// True when the copy removed was a spilled PFS copy.
    pub was_spilled: bool,
}

/// Counters exposed to `mdflow::report`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagingStats {
    /// Frames ever tracked (produced + cached).
    pub frames_tracked: u64,
    /// Bytes of tracked frames currently on NVMe.
    pub staged_bytes: u64,
    /// High-water mark of `staged_bytes`.
    pub peak_staged_bytes: u64,
    /// Fully-acked frames retired.
    pub retired_frames: u64,
    /// Bytes retired.
    pub retired_bytes: u64,
    /// Still-needed frames spilled to the PFS.
    pub spilled_frames: u64,
    /// Bytes spilled.
    pub spilled_bytes: u64,
    /// Consumer-side cache copies evicted.
    pub cache_evictions: u64,
    /// `admit` calls that blocked on the high watermark.
    pub backpressure_stalls: u64,
    /// Total time producers spent blocked.
    pub backpressure_wait: SimDuration,
    /// Consumer fetches served from the PFS after a spill.
    pub pfs_fallbacks: u64,
    /// Consumption acks committed through this manager.
    pub acks_published: u64,
    /// Consumption acks whose commit failed inside a fault window.
    pub acks_dropped: u64,
    /// Frames whose every copy was lost (crash before spill, or the
    /// spill copy dropped).
    pub frames_lost: u64,
    /// Bytes of lost frames.
    pub lost_bytes: u64,
    /// Metadata re-commits performed on node restart (spilled frames
    /// re-pointed at the PFS, lost frames tombstoned).
    pub republished_frames: u64,
}

#[derive(Default)]
struct Inner {
    // Paths are interned once on track; every later lifecycle hit
    // (publish, ack, evict scan) keys on the 4-byte symbol.
    // Spilled and lost frames stay here: a restart republishes them and a
    // dropped spill copy turns one lost.
    frames: FxHashMap<Symbol, Staged>,
    /// The age index of exactly the frames whose bytes are on this node's
    /// NVMe ([`FrameState::Written`] or [`FrameState::Published`]), by
    /// tracking order: the evictor walks it oldest-first. Every move off
    /// the device removes the entry — spill, crash loss, retirement,
    /// cache eviction — so a pass costs time in the frames on the device,
    /// not in every frame the run ever staged.
    order: BTreeMap<u64, Symbol>,
    next_seq: u64,
    /// `(path prefix, consumer id)` registrations.
    consumers: Vec<(String, String)>,
    /// Bytes producers currently blocked in [`StagingManager::admit`]
    /// are waiting to write — extra pressure the evictor must relieve.
    pending_demand: u64,
    stats: StagingStats,
    retire_log: Vec<RetireRecord>,
    /// Retired frames whose KVS keys a broker outage kept from being
    /// unlinked; every evictor pass retries them first.
    unlink_backlog: Vec<Symbol>,
}

/// Per-node staged-data lifecycle manager.
///
/// One per compute node; `dyad` calls into it on every produce/consume
/// and the background evictor (see [`StagingManager::spawn_evictor`])
/// enforces the budget.
pub struct StagingManager {
    ctx: Ctx,
    node: NodeId,
    fs: LocalFs,
    kvs: KvsClient,
    pfs: Option<PfsClient>,
    spec: StagingSpec,
    inner: RefCell<Inner>,
    /// Producer hit the high watermark — wake the evictor early.
    pressure: Notify,
    /// Evictor freed space — wake blocked producers.
    release: Notify,
}

/// The KVS key consumer `consumer` commits to ack frame `path`.
pub fn ack_key(path: &str, consumer: &str) -> String {
    // `path` starts with '/', giving "__staging/ack/<consumer>/<path>".
    // `concat` sizes the string before it writes (one allocator call).
    ["__staging/ack/", consumer, path].concat()
}

/// Where frame `path` lives on the PFS after a spill.
pub(crate) fn spill_path(path: &str) -> String {
    ["/spill", path].concat()
}

impl StagingManager {
    /// Create a manager for `node`. `pfs` enables spilling; without it
    /// the evictor can only retire fully-acked frames.
    pub fn new(
        ctx: &Ctx,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        pfs: Option<PfsClient>,
        spec: StagingSpec,
    ) -> Rc<StagingManager> {
        assert!(
            spec.low_watermark <= spec.high_watermark,
            "low watermark above high"
        );
        Rc::new(StagingManager {
            ctx: ctx.clone(),
            node,
            fs,
            kvs,
            pfs,
            spec,
            inner: RefCell::default(),
            pressure: Notify::new(),
            release: Notify::new(),
        })
    }

    /// The PFS client used for spills/fallback fetches, if any.
    pub(crate) fn pfs_client(&self) -> Option<&PfsClient> {
        self.pfs.as_ref()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StagingStats {
        self.inner.borrow().stats
    }

    /// The audit log of every retirement decision.
    pub fn retire_log(&self) -> Vec<RetireRecord> {
        self.inner.borrow().retire_log.clone()
    }

    /// Whether a finite budget is being enforced.
    pub fn is_bounded(&self) -> bool {
        self.spec.budget_bytes != u64::MAX
    }

    fn high_bytes(&self) -> u64 {
        (self.spec.budget_bytes as f64 * self.spec.high_watermark) as u64
    }

    fn low_bytes(&self) -> u64 {
        (self.spec.budget_bytes as f64 * self.spec.low_watermark) as u64
    }

    /// Declare that `consumer` will consume every frame under `prefix`.
    /// The evictor refuses to retire such frames until the consumer's
    /// ack key appears.
    pub fn register_consumer(&self, prefix: &str, consumer: &str) {
        self.inner
            .borrow_mut()
            .consumers
            .push((prefix.to_string(), consumer.to_string()));
    }

    /// The ack key of the first registration at or after `*next` that
    /// covers `path`, moving `*next` past it; `None` after the last.
    /// Each key is built under a short borrow, so callers walk the
    /// registrations across awaits without copying them: the list only
    /// grows, by `push`, so an index stays valid.
    fn next_ack_key(&self, next: &mut usize, path: &str) -> Option<String> {
        let inner = self.inner.borrow();
        let (i, (_, consumer)) = (inner.consumers.iter().enumerate())
            .skip(*next)
            .find(|(_, (prefix, _))| path.starts_with(prefix.as_str()))?;
        *next = i + 1;
        Some(ack_key(path, consumer))
    }

    /// True when writing `incoming` bytes at `path` must wait in
    /// [`StagingManager::admit`]: they would cross the high watermark,
    /// and `path` is not already on the device. A put retried after its
    /// metadata commit failed rewrites bytes already counted, in state
    /// [`FrameState::Written`], which no evictor pass frees; waiting on
    /// them would wait forever. Cheap and non-blocking — callers use it
    /// to decide whether to open a backpressure instrumentation region.
    pub(crate) fn would_block(&self, path: &str, incoming: u64) -> bool {
        self.is_bounded()
            && self.fs.statvfs().used_bytes + incoming > self.high_bytes()
            && !self.on_device(path)
    }

    /// Whether `path` is tracked with its bytes on this node's NVMe.
    /// Looks the path up without interning it.
    fn on_device(&self, path: &str) -> bool {
        interned(path)
            .and_then(|p| self.inner.borrow().frames.get(&p).map(|f| f.state))
            .is_some_and(|s| matches!(s, FrameState::Written | FrameState::Published))
    }

    /// Has any tracked frame still on local NVMe (i.e. could an evictor
    /// pass possibly free space)? Spilled frames live on the PFS and
    /// lost frames hold no bytes anywhere — neither is in the index.
    fn has_local_frames(&self) -> bool {
        !self.inner.borrow().order.is_empty()
    }

    /// Producer-side admission control: block while staging `incoming`
    /// more bytes would exceed the high watermark, waking the evictor
    /// and waiting for it to free space. Guarantees progress: when no
    /// tracked frame remains on NVMe there is nothing the evictor could
    /// free, so the write is admitted (it may still hit `NoSpace` at
    /// the filesystem, exactly as a real over-committed node would).
    pub fn admit(&self, incoming: u64) -> impl Future<Output = ()> + '_ {
        async move {
            if !self.is_bounded() {
                return;
            }
            let mut stalled = false;
            let start = self.ctx.now();
            loop {
                let used = self.fs.statvfs().used_bytes;
                if used + incoming <= self.high_bytes() || !self.has_local_frames() {
                    break;
                }
                if !stalled {
                    stalled = true;
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.backpressure_stalls += 1;
                    // Publish the demand so the evictor can see pressure
                    // even when current usage sits below the low watermark
                    // (small budgets: one frame can span the whole
                    // low..high hysteresis band).
                    inner.pending_demand += incoming;
                }
                self.pressure.notify_all();
                // Wake on release, or re-check after one evictor period in
                // case the pass could not reach the watermark.
                race(
                    self.release.wait(),
                    self.ctx.sleep(self.spec.evict_interval),
                )
                .await;
            }
            if stalled {
                let waited = self.ctx.now() - start;
                let mut inner = self.inner.borrow_mut();
                inner.stats.backpressure_wait += waited;
                inner.pending_demand -= incoming;
            }
        }
    }

    fn track(&self, path: &str, size: u64, kind: FrameKind, state: FrameState) {
        let path = intern(path);
        let mut inner = self.inner.borrow_mut();
        if inner.frames.contains_key(&path) {
            return; // idempotent (refetch of an evicted cache copy)
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.order.insert(seq, path);
        inner.frames.insert(
            path,
            Staged {
                path,
                size,
                kind,
                state,
                seq,
                spill_copied: false,
            },
        );
        inner.stats.frames_tracked += 1;
        inner.stats.staged_bytes += size;
        inner.stats.peak_staged_bytes = inner.stats.peak_staged_bytes.max(inner.stats.staged_bytes);
    }

    /// A producer finished writing `path` (post-rename, pre-commit).
    pub fn frame_written(&self, path: &str, size: u64) {
        self.track(path, size, FrameKind::Produced, FrameState::Written);
    }

    /// The frame's KVS metadata was committed — it is now visible to
    /// consumers and enters the retention lifecycle.
    pub fn frame_published(&self, path: &str) {
        let mut inner = self.inner.borrow_mut();
        if let Some(f) = inner.frames.get_mut(&intern(path)) {
            if f.state == FrameState::Written {
                f.state = FrameState::Published;
            }
        }
    }

    /// A consumer-side cache copy of a remote frame landed on this
    /// node's NVMe. Tracked as [`FrameKind::Cache`]: evictable without
    /// acks once the budget tightens.
    pub(crate) fn cache_inserted(&self, path: &str, size: u64) {
        self.track(path, size, FrameKind::Cache, FrameState::Published);
    }

    /// Commit the consumption acknowledgement for (`path`, `consumer`).
    /// A commit that fails inside a fault window is counted
    /// (`acks_dropped`), not fatal: the frame is merely retained longer.
    pub(crate) fn try_publish_ack<'a>(
        &'a self,
        path: &'a str,
        consumer: &'a str,
    ) -> impl Future<Output = Result<(), TransportError>> + 'a {
        async move {
            let res = self
                .kvs
                .try_commit(&ack_key(path, consumer), Bytes::from_static(b"1"))
                .await;
            let mut inner = self.inner.borrow_mut();
            match res {
                Ok(_) => inner.stats.acks_published += 1,
                Err(_) => inner.stats.acks_dropped += 1,
            }
            res.map(|_| ())
        }
    }

    /// `StagingManager::try_publish_ack` without a fault board.
    pub fn publish_ack<'a>(
        &'a self,
        path: &'a str,
        consumer: &'a str,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            self.try_publish_ack(path, consumer)
                .await
                .expect("publish_ack cannot fail without a fault board")
        }
    }

    /// Note a consumer fetch that fell back to the PFS copy.
    pub(crate) fn note_pfs_fallback(&self) {
        self.inner.borrow_mut().stats.pfs_fallbacks += 1;
    }

    /// Lifecycle state of a tracked frame, if tracked.
    pub(crate) fn frame_state(&self, path: &str) -> Option<FrameState> {
        self.inner
            .borrow()
            .frames
            .get(&intern(path))
            .map(|f| f.state)
    }

    /// The node hosting this manager crashed: frames whose only copy
    /// was the local NVMe managed directory are lost (the crash took
    /// the staged data with it); consumer-side cache copies are dropped
    /// (refetchable). Spilled frames keep their PFS copy. Synchronous —
    /// safe to call from a fault-board crash hook; the doomed local
    /// files are unlinked by a spawned cleanup task.
    pub fn on_node_crash(self: &Rc<Self>) {
        let mut doomed = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let mut cache_gone = Vec::new();
            for f in inner.frames.values_mut() {
                if !matches!(f.state, FrameState::Written | FrameState::Published) {
                    continue;
                }
                doomed.push(f.path);
                match f.kind {
                    FrameKind::Produced => {
                        f.state = FrameState::Lost;
                        inner.order.remove(&f.seq);
                        inner.stats.staged_bytes -= f.size;
                        inner.stats.frames_lost += 1;
                        inner.stats.lost_bytes += f.size;
                    }
                    FrameKind::Cache => cache_gone.push((f.path, f.seq, f.size)),
                }
            }
            for (path, seq, size) in cache_gone {
                inner.stats.staged_bytes -= size;
                inner.stats.cache_evictions += 1;
                inner.order.remove(&seq);
                inner.frames.remove(&path);
            }
        }
        if !doomed.is_empty() {
            let mgr = self.clone();
            self.ctx.spawn(async move {
                for p in doomed {
                    let _ = mgr.fs.unlink(p.resolve()).await;
                }
            });
        }
    }

    /// The node restarted: re-publish metadata so consumers make
    /// progress — spilled frames are re-pointed at their PFS copy and
    /// lost frames are tombstoned ([`FrameLocation::Lost`]) so waiting
    /// consumers surface a typed error instead of blocking forever.
    pub async fn on_node_restart(&self) {
        let to_publish: Vec<(Symbol, u64, FrameState)> = {
            let inner = self.inner.borrow();
            inner
                .frames
                .values()
                .filter(|f| {
                    f.kind == FrameKind::Produced
                        && matches!(f.state, FrameState::Spilled | FrameState::Lost)
                })
                .map(|f| (f.path, f.size, f.state))
                .collect()
        };
        for (path, size, state) in to_publish {
            let location = match state {
                FrameState::Spilled => FrameLocation::Pfs,
                _ => FrameLocation::Lost,
            };
            if self.republish(path.resolve(), size, location).await {
                self.inner.borrow_mut().stats.republished_frames += 1;
            }
        }
    }

    /// Point `path`'s KVS metadata at `location`; `false` if unreachable.
    async fn republish(&self, path: &str, size: u64, location: FrameLocation) -> bool {
        let meta = FrameMeta {
            owner: self.node,
            size,
            location,
        };
        self.kvs.try_commit(path, meta.encode()).await.is_ok()
    }

    /// A spilled frame's PFS copy is gone (dropped by a crash or an
    /// external unlink). The frame becomes `FrameState::Lost` and its
    /// metadata is tombstoned so consumer fetches fail typed rather
    /// than reading a missing file.
    pub async fn mark_spill_lost(&self, path: &str) {
        let size = {
            let mut inner = self.inner.borrow_mut();
            let Some(f) = inner.frames.get_mut(&intern(path)) else {
                return;
            };
            if f.state != FrameState::Spilled {
                return;
            }
            f.state = FrameState::Lost;
            let size = f.size;
            inner.stats.frames_lost += 1;
            inner.stats.lost_bytes += size;
            size
        };
        self.republish(path, size, FrameLocation::Lost).await;
    }

    /// Spawn the background evictor: a per-node process in simulated
    /// time that runs a pass every `evict_interval`, or sooner when a
    /// producer signals watermark pressure. Runs for the lifetime of
    /// the simulation (drive it with `run_until`, as the runner does).
    pub fn spawn_evictor(self: &Rc<Self>) {
        let mgr = self.clone();
        let ctx = self.ctx.clone();
        self.ctx.spawn(async move {
            loop {
                race(ctx.sleep(mgr.spec.evict_interval), mgr.pressure.wait()).await;
                mgr.evict_pass().await;
            }
        });
    }

    /// Acks present for `path` right now (an unreachable broker shows none).
    async fn count_acks(&self, path: &str) -> (usize, usize) {
        let (mut seen, mut required, mut next) = (0, 0, 0);
        while let Some(key) = self.next_ack_key(&mut next, path) {
            required += 1;
            if let Ok(Some(_)) = self.kvs.try_lookup(&key).await {
                seen += 1;
            }
        }
        (seen, required)
    }

    /// Unlink a retired frame's KVS metadata and ack keys. `false` when
    /// the broker is unreachable and nothing was unlinked; past the
    /// metadata, a failed unlink only leaks an ack key.
    async fn unlink_keys(&self, path: &str) -> bool {
        if self.kvs.try_unlink(path).await.is_err() {
            return false;
        }
        let mut next = 0;
        while let Some(key) = self.next_ack_key(&mut next, path) {
            let _ = self.kvs.try_unlink(&key).await;
        }
        true
    }

    /// Remove every trace of a fully-consumed frame: the data copy
    /// (NVMe or PFS), the KVS metadata, and the ack keys. Every consumer
    /// has acked, so the data goes regardless; if the broker drops out
    /// before the keys can follow, they wait in the backlog.
    async fn retire(&self, frame: &Staged, acks_seen: usize, required: usize) {
        let path = frame.path.resolve();
        if matches!(frame.state, FrameState::Written | FrameState::Published) {
            let _ = self.fs.unlink(path).await;
        }
        // A spilled frame's copy, or one a failed republish left behind.
        if frame.spill_copied {
            if let Some(pfs) = &self.pfs {
                let _ = pfs.unlink(&spill_path(path)).await;
            }
        }
        let keys_left = frame.kind == FrameKind::Produced && !self.unlink_keys(path).await;
        let mut inner = self.inner.borrow_mut();
        let was_spilled = frame.state == FrameState::Spilled;
        if matches!(frame.state, FrameState::Written | FrameState::Published) {
            inner.stats.staged_bytes -= frame.size;
        }
        inner.stats.retired_frames += 1;
        inner.stats.retired_bytes += frame.size;
        inner.retire_log.push(RetireRecord {
            path: path.to_string(),
            required_acks: required,
            acks_seen,
            was_spilled,
        });
        inner.order.remove(&frame.seq);
        inner.frames.remove(&frame.path);
        if keys_left {
            inner.unlink_backlog.push(frame.path);
        }
    }

    /// Move a still-needed frame to the PFS and republish its metadata
    /// so consumer refetches find it there. The copy is written once: if
    /// the republish fails, a later pass retries only the republish.
    async fn spill(&self, frame: &Staged) -> bool {
        let Some(pfs) = &self.pfs else { return false };
        let path = frame.path.resolve();
        if !frame.spill_copied {
            if !self.copy_to_pfs(pfs, path).await {
                return false;
            }
            if let Some(f) = self.inner.borrow_mut().frames.get_mut(&frame.path) {
                f.spill_copied = true;
            }
        }
        // Republish before unlinking the local copy: a consumer that
        // reads the updated metadata goes straight to the PFS; one that
        // raced ahead with the old metadata gets a not-found from the
        // owner's data service and retries through the KVS.
        // Not republished: the NVMe copy stays for a later pass.
        if !self.republish(path, frame.size, FrameLocation::Pfs).await {
            return false;
        }
        let _ = self.fs.unlink(path).await;
        let mut inner = self.inner.borrow_mut();
        inner.stats.staged_bytes -= frame.size;
        inner.stats.spilled_frames += 1;
        inner.stats.spilled_bytes += frame.size;
        inner.order.remove(&frame.seq);
        if let Some(f) = inner.frames.get_mut(&frame.path) {
            f.state = FrameState::Spilled;
        }
        true
    }

    /// Copy `path` from NVMe to its spill path on the PFS; `true` when the
    /// copy is whole: read, written and closed.
    async fn copy_to_pfs(&self, pfs: &PfsClient, path: &str) -> bool {
        let Ok(fd) = self.fs.open(path).await else {
            return false;
        };
        let segs = self.fs.read_segments(fd).await;
        let _ = self.fs.close(fd).await;
        let Ok(segs) = segs else { return false };
        let Ok(sfd) = pfs.create(&spill_path(path)).await else {
            return false;
        };
        let written = pfs.write_segments(sfd, segs).await.is_ok();
        pfs.close(sfd).await.is_ok() && written
    }

    /// Drop a consumer-side cache copy (rebuildable via refetch).
    async fn evict_cache(&self, frame: &Staged) {
        let _ = self.fs.unlink(frame.path.resolve()).await;
        let mut inner = self.inner.borrow_mut();
        inner.stats.staged_bytes -= frame.size;
        inner.stats.cache_evictions += 1;
        inner.order.remove(&frame.seq);
        inner.frames.remove(&frame.path);
    }

    /// Oldest-first snapshot of frames currently on local NVMe: the
    /// index holds no spilled frame (bytes are on the PFS) and no lost
    /// one (bytes are nowhere — retiring or spilling one would corrupt
    /// the byte accounting and re-publish garbage).
    fn local_frames_oldest_first(&self) -> Vec<Staged> {
        let inner = self.inner.borrow();
        inner
            .order
            .values()
            .map(|p| {
                let f = &inner.frames[p];
                debug_assert!(
                    matches!(f.state, FrameState::Written | FrameState::Published),
                    "{p:?} is indexed in state {:?}",
                    f.state
                );
                f.clone()
            })
            .collect()
    }

    /// One evictor pass: retire fully-acked frames first, then spill
    /// (or drop cache copies of) still-needed ones until usage reaches
    /// the low watermark.
    pub(crate) async fn evict_pass(&self) {
        let backlog = std::mem::take(&mut self.inner.borrow_mut().unlink_backlog);
        for p in backlog {
            if !self.unlink_keys(p.resolve()).await {
                self.inner.borrow_mut().unlink_backlog.push(p);
            }
        }
        let bounded = self.is_bounded();
        // Pressure = usage above the low watermark, or blocked
        // producers whose pending writes would cross the high one (a
        // tight budget can block a producer while usage still sits
        // below low — the demand term closes that livelock).
        let demand = self.inner.borrow().pending_demand;
        let under_pressure = |used: u64| {
            bounded && (used > self.low_bytes() || used.saturating_add(demand) > self.high_bytes())
        };

        let used0 = self.fs.statvfs().used_bytes;
        if !under_pressure(used0) {
            return;
        }

        // Whether this pass took a frame off the device.
        let mut freed = false;
        // Phase 1 — retirement: published, fully-acked frames go first.
        for frame in self.local_frames_oldest_first() {
            let used = self.fs.statvfs().used_bytes;
            if !under_pressure(used) {
                break;
            }
            if frame.state != FrameState::Published {
                continue;
            }
            match frame.kind {
                FrameKind::Produced => {
                    let (seen, required) = self.count_acks(frame.path.resolve()).await;
                    if required > 0 && seen == required {
                        self.retire(&frame, seen, required).await;
                        freed = true;
                    }
                }
                FrameKind::Cache => {
                    // Cache copies already served their consumer at
                    // least once only if acked by this node's own
                    // consumers — without that knowledge, treat them
                    // as pressure-only evictable (phase 2).
                }
            }
        }

        // Phase 2 — pressure relief: drop cache copies, then spill
        // still-needed produced frames to the PFS.
        for frame in self.local_frames_oldest_first() {
            if !under_pressure(self.fs.statvfs().used_bytes) {
                break;
            }
            match frame.kind {
                FrameKind::Cache => {
                    self.evict_cache(&frame).await;
                    freed = true;
                }
                FrameKind::Produced => {
                    if frame.state == FrameState::Published {
                        freed |= self.spill(&frame).await;
                    }
                }
            }
        }

        // Unblock producers once below the high watermark (hysteresis:
        // the pass above aims for low, producers re-check against high).
        // A pass that freed nothing stays quiet: a producer it woke would
        // find what it left and start the next pass at once, at the same
        // instant when the pass had nothing to wait on, and so forever.
        // A blocked producer re-checks after its own period instead.
        if freed && self.fs.statvfs().used_bytes <= self.high_bytes() {
            self.release.notify_all();
        }
    }
}

#[cfg(test)]
mod tests;
