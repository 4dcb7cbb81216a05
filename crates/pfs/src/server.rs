//! The Lustre-like servers: one MDS (metadata server) and N OSS/OST
//! object servers.
//!
//! Every request pays a fabric round trip (charged by the RPC layer), a
//! wait for one of the server's service threads, a fixed service
//! overhead, and — for bulk I/O — streaming through the OST's backing
//! disk (a processor-sharing channel shared by *all* clients of that
//! OST, which is what makes Lustre bandwidth a cluster-wide shared
//! resource in the experiments).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use rand::RngExt;
use simcore::intern::{intern, FxHashMap, Symbol};
use simcore::resource::{FifoResource, SharedBandwidth};
use simcore::{Ctx, SimDuration};
use transport::{payload_len, AmId, Payload, Transport};

use crate::codec::{
    encode_meta, Layout, MdsOp, MdsRequestRef, MdsResponse, OssRequest, OssResponse,
};

/// AM id of the MDS.
pub const MDS_AM: AmId = AmId(0x4D44);
/// Base AM id of the OSS servers (`OSS_AM_BASE + ost_index`).
pub const OSS_AM_BASE: u32 = 0x4F00;

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

struct FileMeta {
    layout: Layout,
    size: u64,
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
    pub fn start(
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

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.state.borrow().files.len()
    }
}

/// Serve one request, decoded in place: the path is interned straight
/// from the request bytes and a `Meta` reply is encoded from the stored
/// layout, so neither is copied on the way.
fn mds_handle(state: &RefCell<MdsState>, spec: &PfsSpec, req: MdsRequestRef<'_>) -> Bytes {
    let mut st = state.borrow_mut();
    let path = intern(req.path);
    match req.op {
        MdsOp::Create => {
            st.stats.creates += 1;
            let count = spec.default_stripe_count.min(st.n_osts as usize).max(1);
            let mut osts = Vec::with_capacity(count);
            let mut objects = Vec::with_capacity(count);
            for _ in 0..count {
                osts.push(st.next_ost % st.n_osts);
                st.next_ost = (st.next_ost + 1) % st.n_osts;
                objects.push(st.next_object);
                st.next_object += 1;
            }
            let layout = Layout {
                stripe_size: spec.stripe_size,
                osts,
                objects,
            };
            let meta = encode_meta(&layout, 0);
            st.files.insert(path, FileMeta { layout, size: 0 });
            meta
        }
        MdsOp::Open | MdsOp::Stat => {
            if req.op == MdsOp::Open {
                st.stats.opens += 1;
            } else {
                st.stats.stats += 1;
            }
            match st.files.get(&path) {
                Some(m) => encode_meta(&m.layout, m.size),
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
pub struct OstStats {
    /// Bulk writes served.
    pub writes: u64,
    /// Bulk reads served.
    pub reads: u64,
    /// Bytes written to the backing disk.
    pub bytes_written: u64,
    /// Bytes read from the backing disk.
    pub bytes_read: u64,
}

struct OstState {
    /// Object id → segment map (offset → bytes), zero-copy storage.
    objects: FxHashMap<u64, BTreeMap<u64, Bytes>>,
    stats: OstStats,
}

/// Gather `offset..offset+len` from a segment map as a zero-copy rope
/// (slices of the stored segments, gaps zero-filled).
fn gather_object(segments: &BTreeMap<u64, Bytes>, offset: u64, len: u64) -> Vec<Bytes> {
    let mut out: Vec<Bytes> = Vec::new();
    let end = offset + len;
    let mut covered = offset;
    // Include a possible segment starting before `offset`.
    let start_key = segments
        .range(..=offset)
        .next_back()
        .map(|(k, _)| *k)
        .unwrap_or(offset);
    for (&seg_off, seg) in segments.range(start_key..end) {
        let seg_end = seg_off + seg.len() as u64;
        if seg_end <= offset {
            continue;
        }
        let from = covered.max(seg_off);
        let to = end.min(seg_end);
        if from >= to {
            continue;
        }
        // Zero-fill any gap before this segment.
        if from > covered {
            out.push(Bytes::zeroed((from - covered) as usize));
        }
        out.push(seg.slice((from - seg_off) as usize..(to - seg_off) as usize));
        covered = to;
    }
    out
}

/// One object storage target and its OSS front-end.
pub struct OstServer {
    node: NodeId,
    index: u32,
    state: Rc<RefCell<OstState>>,
    write_bw: SharedBandwidth,
    read_bw: SharedBandwidth,
}

impl OstServer {
    /// Start OST `index` on `node`.
    pub fn start(
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
            state: state.clone(),
            write_bw: write_bw.clone(),
            read_bw: read_bw.clone(),
        });
        let hstate = state;
        // Weak: a strong clone would cycle through the handler table and
        // leak every stored object segment (see `Transport::downgrade`).
        let htp = tp.downgrade();
        let hctx = ctx.clone();
        tp.register_bulk(
            node,
            AmId(OSS_AM_BASE + index),
            Rc::new(move |hdr: Bytes, payload: Payload| {
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
                            let obj = st.objects.entry(object).or_default();
                            let mut at = offset;
                            for seg in payload {
                                let seg_len = seg.len() as u64;
                                obj.insert(at, seg);
                                at += seg_len;
                            }
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
                            let data: Payload = {
                                let st = state.borrow();
                                match st.objects.get(&object) {
                                    Some(segments) => {
                                        // Clamp to the object's extent.
                                        let obj_end = segments
                                            .iter()
                                            .next_back()
                                            .map(|(o, s)| o + s.len() as u64)
                                            .unwrap_or(0);
                                        let end = (offset + len).min(obj_end);
                                        if end <= offset {
                                            Vec::new()
                                        } else {
                                            gather_object(segments, offset, end - offset)
                                        }
                                    }
                                    None => Vec::new(),
                                }
                            };
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
                            st.stats.bytes_read += dlen;
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
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// OST index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Operation counters.
    pub fn stats(&self) -> OstStats {
        self.state.borrow().stats
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.state.borrow().objects.len()
    }

    /// Spawn background-interference streams consuming roughly
    /// `spec.interference` duty cycle per stream on this OST's disk
    /// channels, with bursty, randomly sized transfers (models the
    /// "other jobs" the paper blames for Lustre's variability at large
    /// ensemble sizes). The streams run until the simulation ends.
    pub fn spawn_interference(self: &Rc<Self>, ctx: &Ctx, spec: &PfsSpec, stream: u64) {
        if spec.interference <= 0.0 {
            return;
        }
        let intensity = spec.interference.min(0.95);
        for s in 0..spec.interference_streams {
            let write_bw = self.write_bw.clone();
            let read_bw = self.read_bw.clone();
            let ctx2 = ctx.clone();
            let mut rng =
                ctx.rng(0x1F57 ^ stream ^ ((self.index as u64) << 32) ^ ((s as u64) << 48));
            ctx.spawn(async move {
                // Stagger stream start.
                let lead: u64 = rng.random_range(0..20_000_000);
                ctx2.sleep(SimDuration::from_nanos(lead)).await;
                loop {
                    // Burst, then idle sized from the burst's *actual*
                    // duration so each stream's duty cycle is `intensity`
                    // regardless of how contended the disk is.
                    let burst: u64 = rng.random_range(1_000_000..32_000_000);
                    let t0 = ctx2.now();
                    if rng.random_bool(0.5) {
                        write_bw.transfer_counted(burst).await;
                    } else {
                        read_bw.transfer_counted(burst).await;
                    }
                    let busy = (ctx2.now() - t0).as_secs_f64();
                    let idle = busy * (1.0 - intensity) / intensity;
                    let jitter: f64 = rng.random_range(0.5..1.5);
                    ctx2.sleep(SimDuration::from_secs_f64(idle * jitter)).await;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MdsRequest;
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
        assert_eq!(mds.file_count(), 2);
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
            ep.bulk_rpc(
                NodeId(0),
                AmId(OSS_AM_BASE),
                w.encode(),
                vec![Bytes::from_static(b"hello")],
            )
            .await;
            let r = OssRequest::Read {
                object: 9,
                offset: 4,
                len: 5,
                total: 5,
            };
            ep.bulk_rpc(NodeId(0), AmId(OSS_AM_BASE), r.encode(), Vec::new())
                .await
        });
        sim.run();
        let (hdr, data) = h.try_take().unwrap();
        assert_eq!(OssResponse::decode(hdr), OssResponse::Data { len: 5 });
        assert_eq!(&transport::flatten_payload(data)[..], b"hello");
        assert_eq!(ost.stats().writes, 1);
        assert_eq!(ost.stats().reads, 1);
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
                ep.bulk_rpc(
                    NodeId(0),
                    AmId(OSS_AM_BASE),
                    w.encode(),
                    vec![Bytes::from(vec![0u8; 64 << 20])],
                )
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
}
