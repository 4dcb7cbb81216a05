//! The Lustre-like servers: one MDS (metadata server) and N OSS/OST
//! object servers.
//!
//! Every request pays a fabric round trip (charged by the RPC layer), a
//! wait for one of the server's service threads, a fixed service
//! overhead, and — for bulk I/O — streaming through the OST's backing
//! disk (a processor-sharing channel shared by *all* clients of that
//! OST, which is what makes Lustre bandwidth a cluster-wide shared
//! resource in the experiments).

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use simcore::intern::{intern, FxHashMap, Symbol};
use simcore::resource::{Background, FifoResource, SharedBandwidth};
use simcore::{Ctx, SimDuration};
use transport::{payload_len, AmId, Bulk, Payload, Transport};

use crate::codec::{encode_meta, MdsOp, MdsRequestRef, MdsResponse, OssRequest, OssResponse};

/// AM id of the MDS.
pub(crate) const MDS_AM: AmId = AmId(0x4D44);
/// Base AM id of the OSS servers (`OSS_AM_BASE + ost_index`).
pub(crate) const OSS_AM_BASE: u32 = 0x4F00;

/// Server tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct PfsSpec {
    /// Stripe width.
    pub stripe_size: u64,
    /// Stripe columns for new files.
    pub default_stripe_count: usize,
    /// MDS service time per request.
    pub mds_service: SimDuration,
    /// MDS service threads.
    pub mds_threads: u64,
    /// OSS service time per request (request processing, not disk).
    pub oss_service: SimDuration,
    /// OSS service threads per OST.
    pub oss_threads: u64,
    /// Per-OST backing disk write bandwidth, bytes/second.
    pub ost_write_bw: f64,
    /// Per-OST backing disk read bandwidth, bytes/second.
    pub ost_read_bw: f64,
    /// Per-stream rate for I/O whose logical size is at most
    /// `cache_threshold` (client write-back cache / read-ahead absorbs
    /// it at near-wire rate), bytes/second.
    pub burst_cap: f64,
    /// Sustained rate for large I/O that bypasses the client cache,
    /// bytes/second **per OST stream** (the client aggregates one stream
    /// per stripe column).
    pub sustained_cap: f64,
    /// Logical I/O size at or below which the burst rate applies.
    pub cache_threshold: u64,
    /// Fraction of each OST's bandwidth consumed by background jobs
    /// (0.0 = quiet system). Adds both load and run-to-run variability.
    pub interference: f64,
    /// Number of parallel background streams per OST (a background job's
    /// clients). More streams grab a larger share of the fair-share disk
    /// channels.
    pub interference_streams: u32,
}

impl Default for PfsSpec {
    /// A modest Lustre fs of the paper's era: 1 MiB stripes, 4-way
    /// striping, ~2 GB/s per OST, 300 µs MDS ops, 150 µs OSS ops.
    fn default() -> Self {
        PfsSpec {
            stripe_size: 1 << 20,
            default_stripe_count: 4,
            mds_service: SimDuration::from_micros(300),
            mds_threads: 16,
            oss_service: SimDuration::from_micros(150),
            oss_threads: 16,
            ost_write_bw: 2.0e9,
            ost_read_bw: 2.5e9,
            burst_cap: 2.0e9,
            sustained_cap: 0.6e9,
            cache_threshold: 2 << 20,
            interference: 0.0,
            interference_streams: 8,
        }
    }
}

/// MDS operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MdsStats {
    /// Creates served.
    pub creates: u64,
    /// Opens served.
    pub opens: u64,
    /// SetSize (close) requests.
    pub setattrs: u64,
    /// Unlinks served.
    pub unlinks: u64,
    /// Stats served.
    pub stats: u64,
}

/// What the MDS keeps per file, 24 B. `Create` lays a file out on
/// consecutive objects on consecutive OSTs (mod `n_osts`) at the spec's
/// stripe size, so column `i` is `(first_ost + i) % n_osts` holding
/// object `first_object + i`.
struct FileMeta {
    size: u64,
    first_object: u64,
    first_ost: u32,
    stripes: u32,
}

struct MdsState {
    // Paths intern once per RPC; repeat opens/stats of the same frame
    // path hash a 4-byte symbol.
    files: FxHashMap<Symbol, FileMeta>,
    next_object: u64,
    next_ost: u32,
    n_osts: u32,
    stats: MdsStats,
}

/// The metadata server.
pub struct MdsServer {
    node: NodeId,
    state: Rc<RefCell<MdsState>>,
}

impl MdsServer {
    /// Start the MDS on `node`, laying files out across `n_osts` OSTs.
    pub(crate) fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        n_osts: u32,
        spec: PfsSpec,
    ) -> Rc<MdsServer> {
        assert!(n_osts >= 1);
        let state = Rc::new(RefCell::new(MdsState {
            files: FxHashMap::default(),
            next_object: 1,
            next_ost: 0,
            n_osts,
            stats: MdsStats::default(),
        }));
        let service = FifoResource::new(ctx, spec.mds_threads);
        let hstate = state.clone();
        // Weak: a strong clone would cycle through the handler table and
        // leak the namespace (see `Transport::downgrade`).
        let htp = tp.downgrade();
        let hctx = ctx.clone();
        tp.register_am(
            node,
            MDS_AM,
            Rc::new(move |raw: Bytes| {
                let state = hstate.clone();
                let service = service.clone();
                let tp = htp.upgrade();
                let ctx = hctx.clone();
                async move {
                    service.request(spec.mds_service).await;
                    // Injected MDS stall: hold every request until the
                    // stall window closes. No board / no stall: free.
                    if let Some(board) = tp.faults() {
                        if let Some(until) = board.mds_stall_until() {
                            ctx.sleep(until.since(ctx.now())).await;
                        }
                    }
                    let req = MdsRequestRef::try_decode(&raw)
                        .expect("MDS requests come from this crate's client");
                    mds_handle(&state, &spec, req)
                }
            }),
        );
        Rc::new(MdsServer { node, state })
    }

    /// Node hosting the MDS.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Operation counters.
    pub fn stats(&self) -> MdsStats {
        self.state.borrow().stats
    }
}

/// Encode a `Meta` reply for `file` straight from its layout arithmetic.
fn file_meta(file: &FileMeta, n_osts: u32, spec: &PfsSpec) -> Bytes {
    let columns = (0..file.stripes).map(|i| {
        (
            (file.first_ost + i) % n_osts,
            file.first_object + u64::from(i),
        )
    });
    encode_meta(spec.stripe_size, columns, file.size)
}

/// Serve one request, decoded in place: the path is interned straight
/// from the request bytes and a `Meta` reply is encoded from the stored
/// file's layout arithmetic, so nothing is copied or built on the way.
fn mds_handle(state: &RefCell<MdsState>, spec: &PfsSpec, req: MdsRequestRef<'_>) -> Bytes {
    let mut st = state.borrow_mut();
    let path = intern(req.path);
    let n_osts = st.n_osts;
    match req.op {
        MdsOp::Create => {
            st.stats.creates += 1;
            let stripes = spec.default_stripe_count.min(n_osts as usize).max(1) as u32;
            let file = FileMeta {
                size: 0,
                first_object: st.next_object,
                first_ost: st.next_ost,
                stripes,
            };
            st.next_object += u64::from(stripes);
            st.next_ost = (st.next_ost + stripes) % n_osts;
            let meta = file_meta(&file, n_osts, spec);
            st.files.insert(path, file);
            meta
        }
        MdsOp::Open | MdsOp::Stat => {
            if req.op == MdsOp::Open {
                st.stats.opens += 1;
            } else {
                st.stats.stats += 1;
            }
            match st.files.get(&path) {
                Some(file) => file_meta(file, n_osts, spec),
                None => MdsResponse::NotFound.encode(),
            }
        }
        MdsOp::SetSize => {
            st.stats.setattrs += 1;
            match st.files.get_mut(&path) {
                Some(m) => {
                    m.size = m.size.max(req.size);
                    MdsResponse::Ok.encode()
                }
                None => MdsResponse::NotFound.encode(),
            }
        }
        MdsOp::Unlink => {
            st.stats.unlinks += 1;
            match st.files.remove(&path) {
                Some(_) => MdsResponse::Ok.encode(),
                None => MdsResponse::NotFound.encode(),
            }
        }
    }
}

/// Per-OST counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OstStats {
    /// Bulk writes served.
    pub writes: u64,
    /// Bulk reads served.
    pub reads: u64,
    /// Bytes written to the backing disk.
    pub bytes_written: u64,
}

struct OstState {
    /// Object id → its segments `(offset, bytes)`, sorted by offset,
    /// zero-copy storage.
    objects: FxHashMap<u64, Vec<(u64, Bytes)>>,
    stats: OstStats,
}

/// Store a write's rope at `offset`, segment after segment. A segment at
/// an offset already held replaces the one there; any other is inserted
/// in offset order (overlaps stay, see [`gather_object`]).
fn write_object(segments: &mut Vec<(u64, Bytes)>, offset: u64, payload: Payload) {
    let mut at = offset;
    for seg in payload {
        let seg_len = seg.len() as u64;
        match segments.binary_search_by_key(&at, |&(off, _)| off) {
            Ok(i) => segments[i].1 = seg,
            Err(i) => segments.insert(i, (at, seg)),
        }
        at += seg_len;
    }
}

/// Read `offset..offset+len`, clamped to the object's end (where its
/// last segment ends).
fn read_object(segments: &[(u64, Bytes)], offset: u64, len: u64) -> Payload {
    let obj_end = segments.last().map_or(0, |(at, seg)| at + seg.len() as u64);
    let end = (offset + len).min(obj_end);
    if end <= offset {
        Vec::new()
    } else {
        gather_object(segments, offset, end - offset)
    }
}

/// Gather `offset..offset+len` from an object's sorted segments as a
/// zero-copy rope (slices of the stored segments, gaps between them
/// zero-filled). Where segments overlap, the one at the lower offset
/// wins.
fn gather_object(segments: &[(u64, Bytes)], offset: u64, len: u64) -> Vec<Bytes> {
    let mut out: Vec<Bytes> = Vec::new();
    let end = offset + len;
    let mut covered = offset;
    // Start at the last segment at or before `offset`: it may reach in.
    let first = segments
        .partition_point(|&(at, _)| at <= offset)
        .saturating_sub(1);
    for (at, seg) in &segments[first..] {
        // The range is full, or this segment and all after it lie past it.
        if covered == end || *at >= end {
            break;
        }
        let seg_end = at + seg.len() as u64;
        let from = covered.max(*at);
        if seg_end <= from {
            // Empty, or wholly behind what is gathered.
            continue;
        }
        if from > covered {
            out.push(Bytes::zeroed((from - covered) as usize));
        }
        let to = end.min(seg_end);
        out.push(seg.slice((from - at) as usize..(to - at) as usize));
        covered = to;
    }
    out
}

/// One object storage target and its OSS front-end.
pub(crate) struct OstServer {
    node: NodeId,
    index: u32,
    #[cfg(test)]
    state: Rc<RefCell<OstState>>,
    write_bw: SharedBandwidth,
    read_bw: SharedBandwidth,
    /// Background-interference streams ([`OstServer::spawn_interference`]).
    background: OnceCell<Box<[Rc<Background>]>>,
}

impl OstServer {
    /// Start OST `index` on `node`.
    pub(crate) fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        index: u32,
        spec: PfsSpec,
    ) -> Rc<OstServer> {
        let state = Rc::new(RefCell::new(OstState {
            objects: FxHashMap::default(),
            stats: OstStats::default(),
        }));
        let write_bw = SharedBandwidth::new(ctx, spec.ost_write_bw).with_flow_cap(spec.burst_cap);
        let read_bw = SharedBandwidth::new(ctx, spec.ost_read_bw).with_flow_cap(spec.burst_cap);
        let service = FifoResource::new(ctx, spec.oss_threads);
        let server = Rc::new(OstServer {
            node,
            index,
            #[cfg(test)]
            state: state.clone(),
            write_bw: write_bw.clone(),
            read_bw: read_bw.clone(),
            background: OnceCell::new(),
        });
        let hstate = state;
        // Weak: a strong clone would cycle through the handler table and
        // leak every stored object segment (see `Transport::downgrade`).
        let htp = tp.downgrade();
        let hctx = ctx.clone();
        tp.register_am(
            node,
            AmId(OSS_AM_BASE + index),
            Rc::new(move |(hdr, payload): Bulk| {
                let state = hstate.clone();
                let service = service.clone();
                let write_bw = write_bw.clone();
                let read_bw = read_bw.clone();
                let tp = htp.upgrade();
                let ctx = hctx.clone();
                async move {
                    service.request(spec.oss_service).await;
                    // Injected OST degradation factor, sampled per
                    // request (1.0 = healthy). Disk phases below stretch
                    // by `factor − 1` of their own duration.
                    let factor = tp.faults().map_or(1.0, |board| board.ost_factor(index));
                    match OssRequest::decode(hdr) {
                        OssRequest::Write {
                            object,
                            offset,
                            len,
                            total,
                        } => {
                            debug_assert_eq!(payload_len(&payload), len);
                            let cap = if total <= spec.cache_threshold {
                                spec.burst_cap
                            } else {
                                spec.sustained_cap
                            };
                            let t0 = ctx.now();
                            write_bw.transfer_capped_counted(len, Some(cap)).await;
                            if factor > 1.0 {
                                ctx.sleep(ctx.now().since(t0).mul_f64(factor - 1.0)).await;
                            }
                            let mut st = state.borrow_mut();
                            let segments = st
                                .objects
                                .entry(object)
                                .or_insert_with(|| Vec::with_capacity(payload.len()));
                            write_object(segments, offset, payload);
                            st.stats.writes += 1;
                            st.stats.bytes_written += len;
                            (OssResponse::Ok.encode(), Vec::new())
                        }
                        OssRequest::Read {
                            object,
                            offset,
                            len,
                            total,
                        } => {
                            let data = state
                                .borrow()
                                .objects
                                .get(&object)
                                .map_or_else(Vec::new, |segs| read_object(segs, offset, len));
                            let dlen = payload_len(&data);
                            let cap = if total <= spec.cache_threshold {
                                spec.burst_cap
                            } else {
                                spec.sustained_cap
                            };
                            let t0 = ctx.now();
                            read_bw.transfer_capped_counted(dlen, Some(cap)).await;
                            if factor > 1.0 {
                                ctx.sleep(ctx.now().since(t0).mul_f64(factor - 1.0)).await;
                            }
                            let mut st = state.borrow_mut();
                            st.stats.reads += 1;
                            (OssResponse::Data { len: dlen }.encode(), data)
                        }
                        OssRequest::Destroy { object } => {
                            state.borrow_mut().objects.remove(&object);
                            (OssResponse::Ok.encode(), Vec::new())
                        }
                    }
                }
            }),
        );
        server
    }

    /// Node hosting this OST.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Start this OST's background-interference streams:
    /// `spec.interference_streams` [`Background`] streams on its disk
    /// channels, each at duty cycle `spec.interference` (at most 0.95),
    /// with bursty, randomly sized transfers. They model the "other jobs"
    /// the paper blames for Lustre's variability at large ensemble sizes.
    /// The OST owns the streams; they run on the calendar, as no process,
    /// for as long as it lives.
    pub(crate) fn spawn_interference(self: &Rc<Self>, ctx: &Ctx, spec: &PfsSpec, stream: u64) {
        if spec.interference <= 0.0 {
            return;
        }
        let intensity = spec.interference.min(0.95);
        let streams = (0..spec.interference_streams)
            .map(|s| {
                let rng =
                    ctx.rng(0x1F57 ^ stream ^ ((self.index as u64) << 32) ^ ((s as u64) << 48));
                Background::start(ctx, &self.write_bw, &self.read_bw, intensity, rng)
            })
            .collect();
        assert!(
            self.background.set(streams).is_ok(),
            "OST {} already runs its interference",
            self.index
        );
    }
}

#[cfg(test)]
impl OstServer {
    /// Operation counters.
    pub(crate) fn stats(&self) -> OstStats {
        self.state.borrow().stats
    }

    /// Number of live objects.
    pub(crate) fn object_count(&self) -> usize {
        self.state.borrow().objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Layout, MdsRequest};
    use cluster::{Cluster, ClusterSpec};
    use simcore::Sim;
    use transport::TransportSpec;

    #[test]
    fn mds_create_assigns_round_robin_layouts() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let mds = MdsServer::start(&ctx, &tp, NodeId(0), 4, PfsSpec::default());
        let ep = tp.endpoint(NodeId(1));
        let h = sim.spawn(async move {
            let r1 = MdsResponse::decode(
                ep.rpc(
                    NodeId(0),
                    MDS_AM,
                    MdsRequest::Create { path: "/a".into() }.encode(),
                )
                .await,
            );
            let r2 = MdsResponse::decode(
                ep.rpc(
                    NodeId(0),
                    MDS_AM,
                    MdsRequest::Create { path: "/b".into() }.encode(),
                )
                .await,
            );
            (r1, r2)
        });
        sim.run();
        let (r1, r2) = h.try_take().unwrap();
        let (l1, l2) = match (r1, r2) {
            (MdsResponse::Meta { layout: l1, .. }, MdsResponse::Meta { layout: l2, .. }) => {
                (l1, l2)
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(l1.stripe_count(), 4);
        // Second file starts on the next OST after the first file's span.
        assert_ne!(l1.objects, l2.objects);
        assert_eq!(mds.stats().creates, 2);
        assert_eq!(mds.state.borrow().files.len(), 2);
    }

    /// Layouts wrap round the OSTs mod their count, object ids run on,
    /// and `Open` and `Stat` answer with the layout `Create` gave.
    #[test]
    fn mds_layouts_wrap_and_reopen_unchanged() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let spec = PfsSpec {
            default_stripe_count: 2,
            ..PfsSpec::default()
        };
        let _mds = MdsServer::start(&ctx, &tp, NodeId(0), 3, spec);
        let ep = tp.endpoint(NodeId(1));
        let h = sim.spawn(async move {
            let call = |req: MdsRequest| {
                let ep = ep.clone();
                async move { MdsResponse::decode(ep.rpc(NodeId(0), MDS_AM, req.encode()).await) }
            };
            let mut replies = Vec::new();
            for path in ["/a", "/b", "/c"] {
                replies.push(call(MdsRequest::Create { path: path.into() }).await);
            }
            let size = 5;
            call(MdsRequest::SetSize {
                path: "/b".into(),
                size,
            })
            .await;
            replies.push(call(MdsRequest::Open { path: "/b".into() }).await);
            replies.push(call(MdsRequest::Stat { path: "/c".into() }).await);
            replies
        });
        sim.run();
        let meta = |osts: Vec<u32>, objects: Vec<u64>, size| MdsResponse::Meta {
            layout: Layout {
                stripe_size: spec.stripe_size,
                osts,
                objects,
            },
            size,
        };
        assert_eq!(
            h.try_take().unwrap(),
            vec![
                meta(vec![0, 1], vec![1, 2], 0),
                meta(vec![2, 0], vec![3, 4], 0),
                meta(vec![1, 2], vec![5, 6], 0),
                meta(vec![2, 0], vec![3, 4], 5),
                meta(vec![1, 2], vec![5, 6], 0),
            ]
        );
    }

    #[test]
    fn ost_write_read_round_trip() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let ost = OstServer::start(&ctx, &tp, NodeId(0), 0, PfsSpec::default());
        let ep = tp.endpoint(NodeId(1));
        let h = sim.spawn(async move {
            let w = OssRequest::Write {
                object: 9,
                offset: 4,
                len: 5,
                total: 5,
            };
            let data = vec![Bytes::from_static(b"hello")];
            ep.rpc(NodeId(0), AmId(OSS_AM_BASE), (w.encode(), data))
                .await;
            let r = OssRequest::Read {
                object: 9,
                offset: 4,
                len: 5,
                total: 5,
            };
            ep.rpc(NodeId(0), AmId(OSS_AM_BASE), (r.encode(), Vec::new()))
                .await
        });
        sim.run();
        let (hdr, data) = h.try_take().unwrap();
        assert_eq!(OssResponse::decode(hdr), OssResponse::Data { len: 5 });
        assert_eq!(&transport::flatten_payload(data)[..], b"hello");
        assert_eq!(ost.stats().writes, 1);
        assert_eq!(ost.stats().reads, 1);
    }

    /// What the servers keep: 24 B per file at the MDS, and at an OST a
    /// segment vector sized by the object's first write (a JAC frame's
    /// two-segment rope: 80 B).
    #[test]
    fn pfs_servers_keep_only_what_a_file_holds() {
        assert_eq!(std::mem::size_of::<FileMeta>(), 24);
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let ost = OstServer::start(&ctx, &tp, NodeId(0), 0, PfsSpec::default());
        let ep = tp.endpoint(NodeId(1));
        sim.spawn(async move {
            let w = OssRequest::Write {
                object: 3,
                offset: 0,
                len: 11,
                total: 11,
            };
            let rope = vec![Bytes::from_static(b"head"), Bytes::from_static(b"payload")];
            ep.rpc(NodeId(0), AmId(OSS_AM_BASE), (w.encode(), rope))
                .await;
        });
        assert!(sim.run().is_clean());
        let st = ost.state.borrow();
        let segments = &st.objects[&3];
        assert_eq!(segments.len(), 2);
        assert_eq!(segments.capacity(), 2);
        assert_eq!(std::mem::size_of_val(&segments[..]), 80);
    }

    #[test]
    fn ost_degrade_stretches_bulk_io() {
        use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
        let run = |degrade: bool| -> f64 {
            let sim = Sim::new(0);
            let ctx = sim.ctx();
            let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
            let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
            let _ost = OstServer::start(&ctx, &tp, NodeId(0), 0, PfsSpec::default());
            if degrade {
                let board = FaultBoard::new(&ctx, 2, 1);
                tp.set_faults(board.clone());
                board.arm(&FaultPlan::scheduled(vec![FaultEvent {
                    at: SimDuration::from_nanos(0),
                    kind: FaultKind::OstDegrade {
                        ost: 0,
                        factor: 4.0,
                        duration: SimDuration::from_secs(10),
                    },
                }]));
            }
            let ep = tp.endpoint(NodeId(1));
            let ctx2 = ctx.clone();
            let h = sim.spawn(async move {
                let w = OssRequest::Write {
                    object: 1,
                    offset: 0,
                    len: 64 << 20,
                    total: 64 << 20,
                };
                let data = vec![Bytes::from(vec![0u8; 64 << 20])];
                ep.rpc(NodeId(0), AmId(OSS_AM_BASE), (w.encode(), data))
                    .await;
                ctx2.now().as_secs_f64()
            });
            sim.run();
            h.try_take().unwrap()
        };
        let healthy = run(false);
        let degraded = run(true);
        // The disk phase dominates a 64 MiB write; a 4× degrade should
        // roughly triple-to-quadruple the total.
        assert!(
            degraded > healthy * 2.5,
            "healthy {healthy}s degraded {degraded}s"
        );
    }

    #[test]
    fn mds_stall_holds_metadata_requests() {
        use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let _mds = MdsServer::start(&ctx, &tp, NodeId(0), 4, PfsSpec::default());
        let board = FaultBoard::new(&ctx, 2, 0);
        tp.set_faults(board.clone());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::MdsStall {
                duration: SimDuration::from_millis(20),
            },
        }]));
        let ep = tp.endpoint(NodeId(1));
        let ctx2 = ctx.clone();
        let h = sim.spawn(async move {
            ep.rpc(
                NodeId(0),
                MDS_AM,
                MdsRequest::Create { path: "/a".into() }.encode(),
            )
            .await;
            ctx2.now().as_secs_f64()
        });
        assert!(sim.run().is_clean());
        let t = h.try_take().unwrap();
        assert!(t >= 0.020, "create finished at {t}s, before the stall end");
        assert!(t < 0.022, "create finished at {t}s, long after the stall");
    }

    #[test]
    fn interference_consumes_bandwidth_over_time() {
        let sim = Sim::new(7);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let spec = PfsSpec {
            interference: 0.5,
            ..PfsSpec::default()
        };
        let ost = OstServer::start(&ctx, &tp, NodeId(0), 0, spec);
        ost.spawn_interference(&ctx, &spec, 0);
        sim.run_until(simcore::SimTime::from_nanos(2_000_000_000));
        // The interference loop must have moved a nontrivial amount of
        // data in 2 s at ~50% duty on a 2 GB/s disk.
        let moved = ost.write_bw.stats().bytes_moved + ost.read_bw.stats().bytes_moved;
        assert!(
            moved > 500_000_000,
            "only {moved} bytes of interference traffic"
        );
    }

    /// A differential oracle for the OST segment store: random writes
    /// and reads against the `BTreeMap<u64, Bytes>` store the segment
    /// vector replaced, read back the way that store was read.
    mod ost_segment_oracle {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The reference store's write: a segment at an offset already
        /// held replaces the one there.
        fn write_ref(segments: &mut BTreeMap<u64, Bytes>, offset: u64, rope: &[Bytes]) {
            let mut at = offset;
            for seg in rope {
                segments.insert(at, seg.clone());
                at += seg.len() as u64;
            }
        }

        /// The reference store's read: clamped to where the last segment
        /// ends, then gathered from the last segment at or before
        /// `offset` on.
        fn read_ref(segments: &BTreeMap<u64, Bytes>, offset: u64, len: u64) -> Vec<Bytes> {
            let obj_end = segments
                .iter()
                .next_back()
                .map_or(0, |(o, s)| o + s.len() as u64);
            let end = (offset + len).min(obj_end);
            if end <= offset {
                return Vec::new();
            }
            let mut out = Vec::new();
            let mut covered = offset;
            let start_key = segments
                .range(..=offset)
                .next_back()
                .map_or(offset, |(k, _)| *k);
            for (&seg_off, seg) in segments.range(start_key..end) {
                let from = covered.max(seg_off);
                let to = end.min(seg_off + seg.len() as u64);
                if from >= to {
                    continue;
                }
                if from > covered {
                    out.push(Bytes::zeroed((from - covered) as usize));
                }
                out.push(seg.slice((from - seg_off) as usize..(to - seg_off) as usize));
                covered = to;
            }
            out
        }

        /// A write (a rope of 1–3 segments, an empty one included) or a
        /// read, at offsets on a 64-byte span so writes land on each
        /// other's offsets, overlap and leave gaps.
        #[derive(Debug, Clone)]
        enum Op {
            Write {
                offset: u64,
                lens: Vec<usize>,
                fill: u8,
            },
            Read {
                offset: u64,
                len: u64,
            },
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (
                    0u64..64,
                    proptest::collection::vec(0usize..24, 1..=3),
                    any::<u8>()
                )
                    .prop_map(|(offset, lens, fill)| Op::Write {
                        offset,
                        lens,
                        fill
                    }),
                (0u64..96, 0u64..96).prop_map(|(offset, len)| Op::Read { offset, len }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn segment_vector_matches_a_btreemap(ops in proptest::collection::vec(op(), 1..64)) {
                let mut reference = BTreeMap::new();
                let mut segments: Vec<(u64, Bytes)> = Vec::new();
                for (i, op) in ops.into_iter().enumerate() {
                    match op {
                        Op::Write { offset, lens, fill } => {
                            // Each segment's bytes name its write and place.
                            let rope: Vec<Bytes> = lens
                                .iter()
                                .enumerate()
                                .map(|(k, &n)| {
                                    Bytes::from(vec![fill ^ (i as u8) ^ ((k as u8) << 6); n])
                                })
                                .collect();
                            write_ref(&mut reference, offset, &rope);
                            write_object(&mut segments, offset, rope);
                        }
                        Op::Read { offset, len } => {
                            prop_assert_eq!(
                                read_object(&segments, offset, len),
                                read_ref(&reference, offset, len)
                            );
                        }
                    }
                    let held: Vec<(u64, Bytes)> =
                        reference.iter().map(|(k, v)| (*k, v.clone())).collect();
                    prop_assert_eq!(&segments, &held);
                }
                // Every window of the final object, clamp included.
                for offset in 0..96 {
                    for len in [0, 1, 7, 24, 96] {
                        prop_assert_eq!(
                            read_object(&segments, offset, len),
                            read_ref(&reference, offset, len)
                        );
                    }
                }
            }
        }
    }
}
