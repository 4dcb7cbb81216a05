//! The staged data plane: the one mechanism the paper's DYAD result
//! rests on, shared by every backend that stages frames on node-local
//! NVMe.
//!
//! * **put** — write the frame to the node's managed directory (atomic
//!   `tmp`+rename), then publish `(owner, size)` to the [`kvs`];
//! * **get** — find the frame: a flock probe when it is node-local, else
//!   resolve the owner through the KVS (one cheap lookup once the session
//!   is warm, a parked watch when it is cold), fetch it over the
//!   [`transport`] bulk RPC this module's handler answers, stage it into
//!   the local cache and read it back — falling back to the PFS spill
//!   copy when the evictor moved the frame or its owner is down.
//!
//! A backend is a `const` [`Backend`] row — region names, AM id, managed
//! directory, rng salt: data, not branches — plus whatever protocol it
//! layers on top (`streaming`'s window and groups). `dyad` and
//! `streaming` each hold a [`Plane`] and a row and nothing else of this.
//!
//! Each operation has one body returning a typed [`PlaneError`]. The
//! fault board's absence is the infallible case: every substrate op
//! underneath is then a single attempt that cannot fail, no timer is
//! armed and no jitter drawn. The policies that differ under a board
//! (put: local-write retry; get: re-resolve backoff, attempt bound)
//! select on `Endpoint::faults()` and nothing else.

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use faults::RetryPolicy;
use instrument::Recorder;
use kvs::KvsClient;
use localfs::{FsResult, LocalFs, LockKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::intern::FxHashSet;
use simcore::resource::FifoResource;
use simcore::{Ctx, SimDuration};
use transport::{AmId, Bulk, Endpoint, Payload, Transport, TransportError};

use crate::{ack_key, spill_path, FrameLocation, FrameMeta, StagingManager};

/// What differs between the backends of the staged plane. The region
/// names are what pinned traces, Thicket queries and `mdflow::report`
/// key on.
#[derive(Debug)]
pub struct Backend {
    /// AM id of the per-node data service.
    pub am: AmId,
    /// Root of the managed directory on every node's local fs.
    pub managed_dir: &'static str,
    /// Salt of the per-session backoff-jitter stream.
    pub rng_salt: u64,
    /// Whether a get acks through the KVS even without a staging manager
    /// (a streaming publisher's window watches the ack keys).
    pub ack_unstaged: bool,
    /// The whole publish operation; opened by the backend, which may put
    /// protocol of its own (a window wait) inside it before [`Plane::put`].
    pub put: &'static str,
    /// Children of `put` that are synchronization, not data movement.
    pub put_idle: &'static [&'static str],
    /// The node-local write.
    pub put_write: &'static str,
    /// The metadata commit.
    pub put_commit: &'static str,
    /// The whole consume operation.
    pub get: &'static str,
    /// The flock probe of a node-local frame.
    pub get_flock: &'static str,
    /// Owner resolution through the KVS (warm lookup or cold wait).
    pub get_sync: &'static str,
    /// The bulk fetch from the owner.
    pub get_data: &'static str,
    /// Staging the fetched copy into the local cache.
    pub get_store: &'static str,
    /// Reading the PFS spill copy.
    pub get_pfs: &'static str,
}

impl Backend {
    /// The managed path for a logical frame name.
    pub fn managed_path(&self, name: &str) -> String {
        // `concat` sizes the string before it writes (one allocator call).
        [self.managed_dir, "/", name.trim_start_matches('/')].concat()
    }
}

/// The staging admission stall inside [`Backend::put`].
pub const BACKPRESSURE: &str = "staging_backpressure";
/// The final local read inside [`Backend::get`].
pub const READ: &str = "read_single_buf";

/// Plane tuning parameters, the same for every backend.
#[derive(Debug, Clone, Copy)]
pub struct PlaneSpec {
    /// CPU overhead of global-namespace management per put (the metadata
    /// bookkeeping the paper blames for DYAD's 1.4× slower production).
    pub commit_overhead: SimDuration,
    /// Service threads in the per-node data service.
    pub service_threads: u64,
    /// Request-processing time in the data service (excluding I/O).
    pub service_time: SimDuration,
    /// Enable the warm lookup fast path (disable to force KVS waits on
    /// every access — the synchronization ablation).
    pub warm_sync: bool,
}

impl Default for PlaneSpec {
    /// DYAD's calibration.
    fn default() -> Self {
        PlaneSpec {
            commit_overhead: SimDuration::from_micros(60),
            service_threads: 4,
            service_time: SimDuration::from_micros(10),
            warm_sync: true,
        }
    }
}

/// Errors of [`Plane::put`] and [`Session::get`]. Most arise only under
/// a fault plan; a tombstoned or unresolvable frame and a failed local
/// write are typed without one too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneError {
    /// Every copy of the frame is gone: the owner crashed before the
    /// frame could spill, or the spill copy itself was dropped.
    Lost {
        /// Managed path of the lost frame.
        path: String,
    },
    /// A transport-level failure survived the retry budget.
    Transport(TransportError),
    /// Local storage kept failing (NVMe device-error window outlasted
    /// the retry budget); the frame's `Lost` tombstone is committed, so
    /// its consumers see [`PlaneError::Lost`].
    Storage {
        /// Managed path of the frame being written.
        path: String,
    },
    /// The frame could not be resolved to a live copy within the get
    /// retry budget.
    Unresolvable {
        /// Managed path of the frame.
        path: String,
        /// Fetch attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for PlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaneError::Lost { path } => write!(f, "frame {path} lost (no surviving copy)"),
            PlaneError::Transport(e) => write!(f, "transport failure: {e}"),
            PlaneError::Storage { path } => write!(f, "local storage failure writing {path}"),
            PlaneError::Unresolvable { path, attempts } => {
                write!(f, "frame {path} unresolvable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for PlaneError {}

impl From<TransportError> for PlaneError {
    fn from(e: TransportError) -> Self {
        PlaneError::Transport(e)
    }
}

/// Retry policy shaping the plane's own recovery loops (get re-resolve,
/// put write retry) and the roles' outer ones. Wider than the transport
/// policy: node outages last milliseconds-to-seconds, so the cap and
/// budget stretch further.
pub const fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        base: SimDuration::from_millis(1),
        cap: SimDuration::from_millis(500),
        max_attempts: 12,
        jitter_frac: 0.25,
        attempt_timeout: SimDuration::from_millis(100),
    }
}

/// Operation counters for one node's plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Frames put through this node.
    pub puts: u64,
    /// Frames got through this node.
    pub gets: u64,
    /// Bytes put.
    pub bytes_put: u64,
    /// Bytes got.
    pub bytes_got: u64,
    /// Gets that parked in a KVS watch (cold syncs).
    pub cold_syncs: u64,
    /// Gets satisfied by the warm fast path.
    pub warm_syncs: u64,
    /// Gets that found the data already node-local.
    pub local_hits: u64,
    /// Remote fetches served *by* this node (owner side).
    pub fetches_served: u64,
}

#[derive(Default)]
struct Inner {
    stats: PlaneStats,
    dirs_made: FxHashSet<String>,
}

/// One node's share of the staged plane: owns the node's managed
/// directory and serves remote fetch requests for it.
pub struct Plane {
    ctx: Ctx,
    node: NodeId,
    fs: LocalFs,
    kvs: KvsClient,
    ep: Endpoint,
    staging: Option<Rc<StagingManager>>,
    row: &'static Backend,
    spec: PlaneSpec,
    inner: Rc<RefCell<Inner>>,
}

impl Plane {
    /// Start the plane on `node` and register the data-service handler
    /// that answers fetches from other nodes. Under a [`StagingManager`]
    /// puts pass admission control (backpressure) and register in the
    /// staged-frame lifecycle; gets publish acknowledgements and fall
    /// back to the PFS copy when the evictor spilled a frame. Without one
    /// frames stay on NVMe forever (the paper's configuration).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        staging: Option<Rc<StagingManager>>,
        row: &'static Backend,
        spec: PlaneSpec,
    ) -> Plane {
        let inner = Rc::new(RefCell::new(Inner::default()));
        let service = FifoResource::new(ctx, spec.service_threads);
        let (hfs, hinner) = (fs.clone(), inner.clone());
        tp.register_am(
            node,
            row.am,
            Rc::new(move |(hdr, _payload): Bulk| {
                let (fs, inner, service) = (hfs.clone(), hinner.clone(), service.clone());
                async move {
                    service.request(spec.service_time).await;
                    // The header is the managed path. An empty payload
                    // tells the client this node does not hold the file,
                    // which is also the answer to a header that is no path.
                    let data = match std::str::from_utf8(&hdr) {
                        Ok(path) => try_read_local(&fs, path).await.unwrap_or_default(),
                        Err(_) => Vec::new(),
                    };
                    inner.borrow_mut().stats.fetches_served += 1;
                    (Bytes::new(), data)
                }
            }),
        );
        Plane {
            ctx: ctx.clone(),
            node,
            fs,
            kvs,
            ep: tp.endpoint(node),
            staging,
            row,
            spec,
            inner,
        }
    }

    /// The node this plane runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Simulation handle.
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// The metadata client.
    pub fn kvs(&self) -> &KvsClient {
        &self.kvs
    }

    /// The fault board, when one is attached to the transport.
    pub fn faults(&self) -> Option<faults::FaultBoard> {
        self.ep.faults()
    }

    /// Operation counters.
    pub fn stats(&self) -> PlaneStats {
        self.inner.borrow().stats
    }

    /// The managed path for a logical frame name.
    pub fn managed_path(&self, name: &str) -> String {
        self.row.managed_path(name)
    }

    fn ensure_dirs<'a>(&'a self, path: &'a str) -> impl Future<Output = ()> + 'a {
        async move {
            let Some((dir, _)) = path.rsplit_once('/') else {
                return;
            };
            if self.inner.borrow().dirs_made.contains(dir) {
                return;
            }
            // Remembered only once made: a device-error window can fail the
            // first `mkdir_p`, and the write's retry must then make it again.
            if self.fs.mkdir_p(dir).await.is_ok() {
                self.inner.borrow_mut().dirs_made.insert(dir.to_string());
            }
        }
    }

    /// Write a frame (or a fetched copy of one) to the managed directory
    /// with atomic `tmp`+rename publication, so a same-node reader can
    /// never observe a partially written file. On failure (device-error
    /// window) the tmp file is removed so a retry starts clean.
    fn write_atomic<'a>(
        &'a self,
        path: &'a str,
        tmp: &'a str,
        frame: &'a [Bytes],
    ) -> impl Future<Output = FsResult<()>> + 'a {
        async move {
            self.ensure_dirs(path).await;
            let res: FsResult<()> = async {
                let fd = self.fs.create(tmp).await?;
                for seg in frame {
                    self.fs.write_bytes(fd, seg.clone()).await?;
                }
                self.fs.close(fd).await?;
                self.fs.rename(tmp, path).await?;
                Ok(())
            }
            .await;
            if res.is_err() {
                let _ = self.fs.unlink(tmp).await;
            }
            res
        }
    }

    /// Publish `path` as `size` bytes at `location` on this node: the
    /// KVS commit's own future, with no state of this layer around it.
    fn commit_meta<'a>(
        &'a self,
        path: &'a str,
        size: u64,
        location: FrameLocation,
    ) -> impl Future<Output = Result<u64, TransportError>> + 'a {
        let meta = FrameMeta {
            owner: self.node,
            size,
            location,
        };
        self.kvs.try_commit(path, meta.encode())
    }

    /// Put a frame at managed `path`: write to node-local storage, then
    /// publish metadata to the KVS. The caller holds the
    /// [`Backend::put`] region open around the call.
    ///
    /// Call tree: { `staging_backpressure`, `put_write`, `put_commit` }.
    ///
    /// Under a fault board, local writes retry through NVMe device-error
    /// windows per [`retry_policy`], backing off on `jitter` — the
    /// caller's stream, because its outer recovery loop draws from the
    /// same one; a board without it is a caller bug. Without a board a
    /// failed write is final and `jitter` is never touched. The metadata
    /// commit retries through broker outages inside the KVS client. Fails
    /// typed once the budget is exhausted: `Storage` once the frame's
    /// `Lost` tombstone is committed, `Transport` when the tombstone (or
    /// the metadata) could not be.
    pub fn put<'a>(
        &'a self,
        rec: &'a Recorder,
        path: String,
        frame: &'a [Bytes],
        mut jitter: Option<&'a mut StdRng>,
    ) -> impl Future<Output = Result<(), PlaneError>> + 'a {
        async move {
            let size = transport::payload_len(frame);
            jitter = (self.ep.faults())
                .map(|_| jitter.expect("under a fault board the caller passes its jitter stream"));
            // Admission control: above the staging high watermark the
            // producer blocks here until the evictor frees space. The stall
            // is its own region so `report` can split it out of production
            // time as idle rather than movement.
            if let Some(st) = &self.staging {
                if st.would_block(&path, size) {
                    let b = rec.region(BACKPRESSURE);
                    st.admit(size).await;
                    b.end();
                }
            }
            let tmp = format!("{path}.tmp");
            let mut attempts = 0;
            loop {
                attempts += 1;
                let w = rec.region(self.row.put_write);
                let res = self.write_atomic(&path, &tmp, frame).await;
                w.end();
                match (res, jitter.as_deref_mut()) {
                    (Ok(()), _) => break,
                    (Err(_), Some(rng)) if attempts < retry_policy().max_attempts => {
                        rec.annotate("produce_retries", 1.0);
                        let pause = retry_policy().backoff(attempts - 1, rng);
                        self.ctx.sleep(pause).await;
                    }
                    (Err(_), _) => {
                        // The frame can never appear: publish a Lost
                        // tombstone so consumers surface a typed `Lost`
                        // instead of parking forever on a key that will
                        // never be committed. A tombstone that cannot be
                        // committed either fails the put as `Transport`,
                        // which the caller retries whole.
                        self.commit_meta(&path, size, FrameLocation::Lost).await?;
                        return Err(PlaneError::Storage { path });
                    }
                }
            }
            if let Some(st) = &self.staging {
                st.frame_written(&path, size);
            }
            let c = rec.region(self.row.put_commit);
            // Global-namespace bookkeeping (hashing, path registration).
            self.ctx.sleep(self.spec.commit_overhead).await;
            let committed = self.commit_meta(&path, size, FrameLocation::Nvme).await;
            c.end();
            committed?;
            if let Some(st) = &self.staging {
                st.frame_published(&path);
            }
            let mut inner = self.inner.borrow_mut();
            inner.stats.puts += 1;
            inner.stats.bytes_put += size;
            Ok(())
        }
    }

    /// Open a get session (tracks warm/cold synchronization state, one
    /// per consumer process). `id` is the consumption-ack id the workflow
    /// registered on the producer's staging manager; `cold_sync_poll`
    /// selects client-side polling for the cold synchronization instead
    /// of a server-side KVS watch (DYAD's ablation knob).
    pub fn session(&self, id: &str, cold_sync_poll: bool) -> Session {
        // FNV-1a over the id gives each session its own deterministic
        // backoff-jitter stream (only drawn from under a fault plan).
        let mut h: u64 = 0xcbf29ce484222325;
        for b in id.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100000001b3);
        }
        let rng = StdRng::seed_from_u64(
            self.ctx
                .rng(self.row.rng_salt ^ u64::from(self.node.0))
                .random::<u64>()
                ^ h,
        );
        Session {
            id: id.to_string(),
            warmed: false,
            cold_sync_poll,
            rng,
        }
    }

    /// The cold synchronization: a parked server-side watch by default,
    /// or client-side polling under the `cold_sync_poll` ablation.
    fn cold_wait<'a>(
        &'a self,
        rec: &'a Recorder,
        path: &'a str,
        poll: bool,
    ) -> impl Future<Output = Result<kvs::VersionedValue, TransportError>> + 'a {
        async move {
            if !poll {
                return self.kvs.try_wait_key(path).await;
            }
            // The counted variant reports polls on *both* exits: a consumer
            // that gave up after 40 polls still sent 40 RPCs, and dropping
            // them undercounted metadata load exactly on the runs (faulty
            // ones) where the poll pressure is most interesting. Boxed: the
            // poll loop is the largest future under `get` and only the
            // ablation runs it; inline it costs every consumer role of every
            // backend 72 bytes (`footprint.rs`).
            let (res, polls) = Box::pin(self.kvs.try_wait_key_poll_counted(path)).await;
            rec.annotate("kvs_polls", polls as f64);
            res
        }
    }

    /// Fetch a spilled frame's PFS copy of `size` bytes; `None` when no
    /// PFS client is configured, the copy is already retired, or it is
    /// not whole. A reader falling back to the copy can find it short:
    /// still being written, or left so by a pass whose copy failed (the
    /// next pass re-creates it).
    fn fetch_spill<'a>(
        &'a self,
        rec: &'a Recorder,
        path: &'a str,
        size: u64,
    ) -> impl Future<Output = Option<Payload>> + 'a {
        async move {
            let st = self.staging.as_ref()?;
            let pfs = st.pfs_client()?;
            let r = rec.region(self.row.get_pfs);
            let got: Option<Payload> = async {
                let fd = pfs.open(&spill_path(path)).await.ok()?;
                let data = pfs.read_segments(fd).await.ok()?;
                let _ = pfs.close(fd).await;
                (transport::payload_len(&data) == size).then_some(data)
            }
            .await;
            r.end();
            if got.is_some() {
                st.note_pfs_fallback();
            }
            got
        }
    }

    /// Publish the consumption ack asynchronously: retention (and a
    /// streaming window) cares, the application does not, so the commit
    /// must not add to the get latency. A dropped ack is counted by the
    /// staging manager.
    fn spawn_ack(&self, path: String, id: &str) {
        match &self.staging {
            Some(st) => {
                let (st, id) = (st.clone(), id.to_string());
                self.ctx.spawn(async move {
                    let _ = st.try_publish_ack(&path, &id).await;
                });
            }
            None if self.row.ack_unstaged => {
                let (kvs, id) = (self.kvs.clone(), id.to_string());
                self.ctx.spawn(async move {
                    let _ = kvs
                        .try_commit(&ack_key(&path, &id), Bytes::from_static(b"1"))
                        .await;
                });
            }
            None => {}
        }
    }
}

/// Consumer-side session state for multi-protocol synchronization.
pub struct Session {
    id: String,
    warmed: bool,
    cold_sync_poll: bool,
    rng: StdRng,
}

impl Session {
    /// Get a frame of `plane` by logical name, returning its payload.
    ///
    /// Call tree: `get` → { `get_flock` or `get_sync`, `get_data`,
    /// `get_store`, `get_pfs`, `read_single_buf` } — Figure 9's, under
    /// the backend's names.
    ///
    /// Metadata ops and the bulk fetch ride the retrying clients, which
    /// without a fault board are single attempts that cannot fail. The
    /// staging evictor can move a frame between the metadata read and the
    /// data fetch (NVMe → PFS on spill); the spill republishes metadata
    /// *before* unlinking the NVMe copy, so one re-lookup observes the new
    /// location. Two policies depend on whether a board is attached:
    ///
    /// * **re-resolve after a miss** — immediate without a board (the
    ///   evictor already republished); after a jittered backoff with one
    ///   (the owner may be down — its PFS spill copy is tried first);
    /// * **attempt bound** — a defensive 8 without a board, the policy's
    ///   `max_attempts` with one; past it, [`PlaneError::Unresolvable`].
    ///
    /// A [`FrameLocation::Lost`] tombstone (owner crashed before the
    /// frame could spill) surfaces as [`PlaneError::Lost`] either way.
    pub fn get<'a>(
        &'a mut self,
        plane: &'a Plane,
        rec: &'a Recorder,
        name: &str,
    ) -> impl Future<Output = Result<Payload, PlaneError>> + 'a {
        // Made before the body starts: the body keeps the path, not the
        // name beside it.
        let path = plane.managed_path(name);
        async move {
            const POLICY: RetryPolicy = retry_policy();
            // The board's absence is the infallible case; the two policy
            // differences below are selected on it and nothing else.
            let faulted = plane.ep.faults().is_some();
            let g = rec.region(plane.row.get);
            let data = 'resolved: {
                // --- Synchronization --------------------------------------
                // Local presence first (single-node deployments): a flock
                // probe suffices once the producer shares our filesystem.
                if plane.fs.exists(&path) {
                    let f = rec.region(plane.row.get_flock);
                    let locked = plane.fs.flock(&path, LockKind::Shared).await.is_ok();
                    if locked {
                        let _ = plane.fs.funlock(&path, LockKind::Shared).await;
                    }
                    f.end();
                    if locked {
                        // Node-local: direct read. Under staging, the
                        // evictor may retire or spill the frame between the
                        // probe and the read; a miss falls through to
                        // metadata resolution.
                        let r = rec.region(READ);
                        let local = try_read_local(&plane.fs, &path).await;
                        r.end();
                        if let Some(local) = local {
                            plane.inner.borrow_mut().stats.local_hits += 1;
                            self.warmed = true;
                            break 'resolved local;
                        }
                    }
                }

                // Remote (or evicted) data: resolve the owner through the
                // KVS. Each answer is decoded as it arrives, so only the
                // 16-byte `FrameMeta` is kept across the awaits after it.
                let f = rec.region(plane.row.get_sync);
                // Warm path: data is normally already published — one
                // cheap, non-blocking lookup. Cold path (first access, or
                // the producer fell behind): the loosely coupled blocking
                // watch.
                let warm = self.warmed && plane.spec.warm_sync;
                let hit = if warm {
                    plane
                        .kvs
                        .try_lookup(&path)
                        .await?
                        .map(|v| FrameMeta::decode(v.value))
                } else {
                    None
                };
                let mut meta = match hit {
                    Some(meta) => {
                        plane.inner.borrow_mut().stats.warm_syncs += 1;
                        meta
                    }
                    None => {
                        if warm {
                            rec.annotate("cold_fallbacks", 1.0);
                        }
                        plane.inner.borrow_mut().stats.cold_syncs += 1;
                        let v = plane.cold_wait(rec, &path, self.cold_sync_poll).await?;
                        FrameMeta::decode(v.value)
                    }
                };
                f.end();
                self.warmed = true;

                // --- Data movement with recovery --------------------------
                let max_attempts = if faulted { POLICY.max_attempts } else { 8 };
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    if attempts > max_attempts {
                        return Err(PlaneError::Unresolvable {
                            path,
                            attempts: attempts - 1,
                        });
                    }
                    match meta.location {
                        FrameLocation::Lost => {
                            return Err(PlaneError::Lost { path });
                        }
                        FrameLocation::Pfs => {
                            // Spill copy gone: the owner (or its restart
                            // hook) will tombstone or re-publish;
                            // re-resolve.
                            if let Some(got) = plane.fetch_spill(rec, &path, meta.size).await {
                                break 'resolved got;
                            }
                        }
                        FrameLocation::Nvme if meta.owner == plane.node => {
                            let r = rec.region(READ);
                            let got = try_read_local(&plane.fs, &path).await;
                            r.end();
                            if let Some(got) = got {
                                break 'resolved got;
                            }
                        }
                        FrameLocation::Nvme => {
                            // RDMA fetch from the owner's node-local
                            // storage. An empty payload means the owner no
                            // longer holds the file (spilled underneath us).
                            let r = rec.region(plane.row.get_data);
                            let fetch = plane
                                .ep
                                .rpc_retrying(
                                    meta.owner,
                                    plane.row.am,
                                    (Bytes::copy_from_slice(path.as_bytes()), Vec::new()),
                                    &POLICY,
                                    &mut self.rng,
                                )
                                .await;
                            r.end();
                            match fetch {
                                Ok((_, got)) if transport::payload_len(&got) > 0 => {
                                    let stored = self.store_cache(plane, rec, &path, got).await;
                                    if let Some(got) = stored {
                                        break 'resolved got;
                                    }
                                }
                                Ok(_) => {
                                    // Owner answered but no longer holds
                                    // the file (spilled or lost underneath
                                    // us): re-resolve through the KVS.
                                }
                                Err(_) => {
                                    // Owner unreachable (crashed
                                    // mid-window): try the PFS spill copy
                                    // before waiting out the restart.
                                    rec.annotate("dead_owner_fallbacks", 1.0);
                                    if let Some(got) =
                                        plane.fetch_spill(rec, &path, meta.size).await
                                    {
                                        break 'resolved got;
                                    }
                                }
                            }
                        }
                    }
                    // Re-read the metadata and retry at the frame's
                    // (possibly new) home — after a backoff when an outage
                    // may be why.
                    if faulted {
                        let pause = POLICY.backoff(attempts - 1, &mut self.rng);
                        plane.ctx.sleep(pause).await;
                    }
                    match plane.kvs.try_lookup(&path).await {
                        Ok(Some(v)) => meta = FrameMeta::decode(v.value),
                        // Metadata gone while we hold an unconsumed
                        // reference: the frame is unrecoverable.
                        Ok(None) => return Err(PlaneError::Lost { path }),
                        Err(e) => return Err(e.into()),
                    }
                }
            };
            g.end();
            plane.spawn_ack(path, &self.id);

            let size = transport::payload_len(&data);
            let mut inner = plane.inner.borrow_mut();
            inner.stats.gets += 1;
            inner.stats.bytes_got += size;
            Ok(data)
        }
    }

    /// Stage a fetched remote frame into the local cache and read it
    /// back. `None` when the cache write failed (device-error window) —
    /// the caller re-resolves; meanwhile serve nothing rather than a
    /// partial frame.
    fn store_cache<'a>(
        &'a self,
        plane: &'a Plane,
        rec: &'a Recorder,
        path: &'a str,
        got: Payload,
    ) -> impl Future<Output = Option<Payload>> + 'a {
        async move {
            let s = rec.region(plane.row.get_store);
            // Session-unique tmp name: same-node sessions can fetch the same
            // frame concurrently, and create() truncates, so a shared tmp
            // would interleave their writes.
            let tmp = format!("{path}.tmp-{}-{}", plane.node.0, self.id);
            if plane.write_atomic(path, &tmp, &got).await.is_err() {
                s.end();
                return None;
            }
            if let Some(st) = &plane.staging {
                st.cache_inserted(path, transport::payload_len(&got));
            }
            s.end();
            let r = rec.region(READ);
            let got = try_read_local(&plane.fs, path).await;
            r.end();
            got
        }
    }
}

/// Read a whole local file; `None` when it vanished (staging eviction
/// between probe and open — the orphaned-inode semantics in `localfs`
/// cover an unlink *after* the open) or the device failed the read.
fn try_read_local<'a>(
    fs: &'a LocalFs,
    path: &'a str,
) -> impl Future<Output = Option<Payload>> + 'a {
    async move {
        let fd = fs.open(path).await.ok()?;
        let data = fs.read_segments(fd).await;
        let _ = fs.close(fd).await;
        data.ok()
    }
}
