//! # dyad — the Dynamic and Asynchronous Data Streamliner
//!
//! A reimplementation of DYAD's runtime behaviour (flux-framework/dyad)
//! against the simulated substrates, following §III-A of the paper:
//!
//! * **Producers** write frames to *node-local storage* (the node's
//!   [`localfs::LocalFs`] managed directory) and publish
//!   `(owner, size)` metadata to the Flux-like [`kvs`] — the "global
//!   metadata management" of Figure 2.
//! * **Consumers** synchronize with *multi-protocol automatic
//!   synchronization*: the first access to a not-yet-produced frame
//!   parks in a KVS watch (the expensive, loosely coupled protocol);
//!   once the pipeline is warm, data is already published and the sync
//!   degrades to a cheap flock-style probe plus an immediate KVS
//!   answer.
//! * Remote data moves with **RDMA-style transfer** over the UCX-like
//!   [`transport`] (`dyad_get_data`), is staged into the consumer's
//!   node-local storage (`dyad_cons_store`), and is finally read by the
//!   application (`read_single_buf`) — the exact call tree Figure 9
//!   analyzes.
//!
//! That mechanism is [`staging::plane`], shared with `streaming`; this
//! crate is DYAD's [`PLANE`] row of it — the paper's region names, so
//! Thicket queries can split data-movement time from synchronization
//! (idle) time the same way the authors did — and the public API over it.
//! `produce`/`consume` unwrap the typed [`PlaneError`] of `try_produce`/
//! `try_consume` for callers running without a fault board.

#![warn(missing_docs)]
// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use instrument::Recorder;
use kvs::KvsClient;
use localfs::LocalFs;
use rand::rngs::StdRng;
use simcore::Ctx;
use staging::plane::{Backend, Plane, PlaneSpec, Session};
use staging::StagingManager;
use transport::{AmId, Payload, Transport};

pub use staging::plane::{PlaneError, PlaneStats as DyadStats};
pub use staging::{FrameLocation, FrameMeta};

/// DYAD's row of the staged plane.
pub const PLANE: Backend = Backend {
    am: AmId(0x4459),
    managed_dir: "/dyad",
    rng_salt: 0x4459_0000,
    ack_unstaged: false,
    put: "dyad_produce",
    put_idle: &[staging::plane::BACKPRESSURE],
    put_write: "dyad_prod_write",
    put_commit: "dyad_commit",
    get: "dyad_consume",
    get_flock: "dyad_sync_flock",
    get_sync: "dyad_fetch",
    get_data: "dyad_get_data",
    get_store: "dyad_cons_store",
    get_pfs: "dyad_pfs_fallback",
};

/// DYAD tuning parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DyadSpec {
    /// What DYAD shares with every staged backend.
    pub plane: PlaneSpec,
    /// Use client-side polling for the cold synchronization instead of
    /// a server-side KVS watch (the naive protocol DYAD's automatic
    /// synchronization replaces; ablation knob).
    pub cold_sync_poll: bool,
}

/// The per-node DYAD service: owns the node's managed directory, serves
/// remote fetch requests, and provides the produce/consume API.
pub struct DyadService {
    plane: Plane,
    cold_sync_poll: bool,
}

impl DyadService {
    /// Start DYAD on `node` with unbounded staging (the paper's
    /// configuration: frames stay on NVMe forever).
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: DyadSpec,
    ) -> Rc<DyadService> {
        Self::start_staged(ctx, tp, node, fs, kvs, spec, None)
    }

    /// Start DYAD on `node` under a [`StagingManager`] (see
    /// [`Plane::start`]).
    pub fn start_staged(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: DyadSpec,
        staging: Option<Rc<StagingManager>>,
    ) -> Rc<DyadService> {
        Rc::new(DyadService {
            plane: Plane::start(ctx, tp, node, fs, kvs, staging, &PLANE, spec.plane),
            cold_sync_poll: spec.cold_sync_poll,
        })
    }

    /// The node this service runs on.
    pub fn node(&self) -> NodeId {
        self.plane.node()
    }

    /// Operation counters.
    pub fn stats(&self) -> DyadStats {
        self.plane.stats()
    }

    /// Produce a frame: write to node-local storage, then publish
    /// metadata to the KVS ([`Plane::put`]; `jitter` is the caller's
    /// backoff stream under a fault board).
    ///
    /// Call tree: `dyad_produce` → { `dyad_prod_write`, `dyad_commit` }.
    pub fn try_produce<'a>(
        &'a self,
        rec: &'a Recorder,
        name: &'a str,
        frame: &'a [Bytes],
        jitter: Option<&'a mut StdRng>,
    ) -> impl Future<Output = Result<(), PlaneError>> + 'a {
        async move {
            let _g = rec.region(PLANE.put);
            let path = self.plane.managed_path(name);
            self.plane.put(rec, path, frame, jitter).await
        }
    }

    /// [`DyadService::try_produce`] for callers running without a fault
    /// board.
    pub fn produce<'a>(
        &'a self,
        rec: &'a Recorder,
        name: &'a str,
        frame: Payload,
    ) -> impl Future<Output = ()> + 'a {
        async move {
            self.try_produce(rec, name, &frame, None)
                .await
                .expect("produce cannot fail without a fault board (local write error?)")
        }
    }

    /// Open a consumer session (tracks warm/cold synchronization state,
    /// one per consumer process). The session id defaults to the node
    /// name; sessions whose acks feed staging retention should use
    /// [`DyadService::consumer_with_id`] with the id the workflow
    /// registered on the producer's staging manager.
    pub fn consumer(self: &Rc<Self>) -> DyadConsumer {
        self.consumer_with_id(&format!("n{}", self.node().0))
    }

    /// Open a consumer session with an explicit consumption-ack id.
    pub fn consumer_with_id(self: &Rc<Self>, id: &str) -> DyadConsumer {
        DyadConsumer {
            svc: self.clone(),
            session: self.plane.session(id, self.cold_sync_poll),
        }
    }
}

/// Consumer-side session state for multi-protocol synchronization.
pub struct DyadConsumer {
    svc: Rc<DyadService>,
    session: Session,
}

impl DyadConsumer {
    /// Consume a frame by logical name, returning its payload
    /// ([`Session::get`]).
    ///
    /// Call tree: `dyad_consume` → { `dyad_sync_flock` or `dyad_fetch`,
    /// `dyad_get_data`, `dyad_cons_store`, `read_single_buf` }, matching
    /// Figure 9.
    pub fn try_consume<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
    ) -> impl Future<Output = Result<Payload, PlaneError>> + 'a {
        self.session.get(&self.svc.plane, rec, name)
    }

    /// [`DyadConsumer::try_consume`] for callers running without a fault
    /// board.
    pub fn consume<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &'a str,
    ) -> impl Future<Output = Payload> + 'a {
        async move {
            self.try_consume(rec, name)
                .await
                .expect("consume cannot fail without a fault board (lost or evicted frame?)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use kvs::{KvsClient, KvsServer, KvsSpec};
    use localfs::LocalFsSpec;
    use mdsim::{FrameTemplate, Model};
    use simcore::{Sim, SimDuration, SimTime};
    use transport::TransportSpec;

    struct Rig {
        services: Vec<Rc<DyadService>>,
        #[allow(dead_code)]
        kvs_server: Rc<KvsServer>,
    }

    /// n nodes; KVS broker on node 0; DYAD service + local fs on every
    /// node.
    fn setup(sim: &Sim, n: usize, spec: DyadSpec) -> Rig {
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
                DyadService::start(&ctx, &tp, NodeId(i), fs, kc, spec)
            })
            .collect();
        Rig {
            services,
            kvs_server,
        }
    }

    fn frame(step: u64) -> (FrameTemplate, Payload) {
        let t = FrameTemplate::generate(Model::Jac, 5);
        let f = t.frame_segments(step);
        (t, f)
    }

    #[test]
    fn consumer_blocks_until_producer_publishes() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, DyadSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut consumer = cons.consumer();
            let got = consumer.consume(&rec, "late").await;
            (ctx.now().as_secs_f64(), transport::payload_len(&got))
        });
        let ctx = sim.ctx();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            ctx.sleep(SimDuration::from_millis(200)).await;
            let (_, f) = frame(0);
            prod.produce(&rec, "late", f).await;
        });
        sim.run();
        let (t, len) = h.try_take().unwrap();
        assert!(t >= 0.2, "consumed too early at {t}");
        assert_eq!(len, Model::Jac.frame_bytes());
        assert_eq!(rig.services[1].stats().cold_syncs, 1);
    }

    #[test]
    fn warm_path_after_first_frame() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, DyadSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (_, f0) = frame(0);
            let (_, f1) = frame(1);
            prod.produce(&rec, "a/0", f0).await;
            prod.produce(&rec, "a/1", f1).await;
            let mut consumer = cons.consumer();
            consumer.consume(&rec, "a/0").await;
            consumer.consume(&rec, "a/1").await;
        });
        sim.run();
        let st = rig.services[1].stats();
        assert_eq!(st.cold_syncs, 1);
        assert_eq!(st.warm_syncs, 1);
    }

    #[test]
    fn warm_sync_disabled_forces_cold_waits() {
        let sim = Sim::new(0);
        let mut spec = DyadSpec::default();
        spec.plane.warm_sync = false;
        let rig = setup(&sim, 2, spec);
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            for i in 0..3 {
                let (_, f) = frame(i);
                prod.produce(&rec, &format!("b/{i}"), f).await;
            }
            let mut consumer = cons.consumer();
            for i in 0..3 {
                consumer.consume(&rec, &format!("b/{i}")).await;
            }
        });
        sim.run();
        assert_eq!(rig.services[1].stats().cold_syncs, 3);
        assert_eq!(rig.services[1].stats().warm_syncs, 0);
    }

    #[test]
    fn produce_is_slower_than_raw_write_by_commit_overhead() {
        // The paper's Finding 1: DYAD production pays a metadata-
        // management premium over plain XFS writes.
        let sim = Sim::new(0);
        let rig = setup(&sim, 1, DyadSpec::default());
        let svc = rig.services[0].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (_, f) = frame(0);
            svc.produce(&rec, "p/0", f).await;
            rec.finish()
        });
        sim.run();
        let p = h.try_take().unwrap();
        let total = p.inclusive(&["dyad_produce"]).as_secs_f64();
        let write = p
            .inclusive(&["dyad_produce", "dyad_prod_write"])
            .as_secs_f64();
        let commit = p.inclusive(&["dyad_produce", "dyad_commit"]).as_secs_f64();
        assert!(commit > 0.0);
        assert!((write + commit - total).abs() < 1e-9);
        let ratio = total / write;
        assert!(
            ratio > 1.1 && ratio < 2.0,
            "produce/write ratio {ratio} out of the paper's ballpark"
        );
    }

    #[test]
    fn pipelined_steady_state_has_tiny_warm_sync_cost() {
        // Producer stays one frame ahead; consumer's per-frame sync cost
        // after the first frame must be microseconds, not the frame
        // period (the essence of Findings 1 and 5).
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, DyadSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let period = SimDuration::from_millis(100);
        {
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for i in 0..10 {
                    ctx.sleep(period).await;
                    let (_, f) = frame(i);
                    prod.produce(&rec, &format!("s/{i}"), f).await;
                }
            });
        }
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut consumer = cons.consumer();
            for i in 0..10 {
                consumer.consume(&rec, &format!("s/{i}")).await;
                ctx.sleep(period).await; // analytics
            }
            rec.finish()
        });
        let report = sim.run_until(SimTime::from_nanos(10_000_000_000));
        assert!(report.is_clean());
        let p = h.try_take().unwrap();
        let fetch = p.node(&["dyad_consume", "dyad_fetch"]).unwrap();
        // 10 fetches; the first ~one period (cold), the rest ~10 µs each.
        assert_eq!(fetch.count, 10);
        let total = fetch.inclusive.as_secs_f64();
        assert!(total < 0.12, "sync cost {total}s — warm path not engaging");
        assert!(total > 0.09, "even the cold sync vanished: {total}s");
    }

    // -----------------------------------------------------------------
    // The staged plane, once per backend row
    // -----------------------------------------------------------------

    /// Every backend of the staged plane: the suite below runs each case
    /// on [`Plane`] directly, under each row's names.
    const ROWS: [&Backend; 2] = [&PLANE, &streaming::PLANE];

    /// Open one rig per row and run `case` on it.
    fn for_each_row(case: impl Fn(&'static Backend)) {
        for row in ROWS {
            println!("row {}", row.managed_dir);
            case(row);
        }
    }

    struct PlaneRig {
        tp: Transport,
        board: Option<faults::FaultBoard>,
        planes: Vec<Rc<Plane>>,
        /// One per plane when the rig is staged.
        mgrs: Vec<Rc<StagingManager>>,
    }

    /// `n` plane nodes, then the KVS broker's node, then the PFS MDS and
    /// one OST — so broker and PFS survive a plane node's crash. With
    /// `budgets` (one staging budget per plane node) the planes run under
    /// staging managers that spill to the PFS; without, bare.
    fn plane_rig(
        sim: &Sim,
        row: &'static Backend,
        n: usize,
        budgets: Option<&[u64]>,
        faulted: bool,
    ) -> PlaneRig {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(n + 3));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let board = faulted.then(|| {
            let board = faults::FaultBoard::new(&ctx, n + 3, 1);
            tp.set_faults(board.clone());
            board
        });
        let broker = NodeId(n as u32);
        // The server lives as long as its registered handler.
        let _kvs_server = KvsServer::start(&ctx, &tp, broker, KvsSpec::default());
        let pfs = budgets.map(|_| {
            pfs::ParallelFs::start(
                &ctx,
                &tp,
                NodeId(n as u32 + 1),
                vec![NodeId(n as u32 + 2)],
                pfs::PfsSpec::default(),
            )
        });
        let mut mgrs = Vec::new();
        let planes = (0..n as u32)
            .map(|i| {
                let fs = LocalFs::new(
                    &ctx,
                    cl.node(NodeId(i)).nvme.clone(),
                    LocalFsSpec::default(),
                );
                let kc = KvsClient::new(&ctx, &tp, NodeId(i), broker, KvsSpec::default());
                let mgr = pfs.as_ref().zip(budgets).map(|(pfs, budgets)| {
                    let sspec = staging::StagingSpec {
                        budget_bytes: budgets[i as usize],
                        // With a two-frame budget, drain only down to one
                        // frame: the oldest spills, the newest stays
                        // NVMe-resident.
                        low_watermark: 0.55,
                        high_watermark: 0.8,
                        ..staging::StagingSpec::default()
                    };
                    let mgr = StagingManager::new(
                        &ctx,
                        NodeId(i),
                        fs.clone(),
                        kc.clone(),
                        Some(pfs.client(&ctx, NodeId(i))),
                        sspec,
                    );
                    mgr.spawn_evictor();
                    mgrs.push(mgr.clone());
                    mgr
                });
                let spec = PlaneSpec::default();
                Rc::new(Plane::start(&ctx, &tp, NodeId(i), fs, kc, mgr, row, spec))
            })
            .collect();
        PlaneRig {
            tp,
            board,
            planes,
            mgrs,
        }
    }

    /// Put as a backend does: inside the row's put region, with a jitter
    /// stream when the rig has a fault board.
    async fn put(plane: &Plane, row: &Backend, rec: &Recorder, name: &str, f: Payload) {
        use rand::SeedableRng;
        let mut jitter = StdRng::seed_from_u64(1);
        let jitter = plane.faults().map(|_| &mut jitter);
        let _g = rec.region(row.put);
        plane
            .put(rec, plane.managed_path(name), &f, jitter)
            .await
            .expect("put under an idle board");
    }

    #[test]
    fn produce_then_consume_same_node() {
        for_each_row(|row| {
            let sim = Sim::new(0);
            let rig = plane_rig(&sim, row, 1, None, false);
            let plane = rig.planes[0].clone();
            // The managed path, to the byte: leading slashes of the
            // name fold into the one separator.
            let managed = format!("{}/run0/frame0", row.managed_dir);
            assert_eq!(plane.managed_path("run0/frame0"), managed);
            assert_eq!(plane.managed_path("//run0/frame0"), managed);
            let ctx = sim.ctx();
            let h = sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let (t, f) = frame(880);
                put(&plane, row, &rec, "run0/frame0", f).await;
                let mut session = plane.session("c0", false);
                let got = session.get(&plane, &rec, "run0/frame0").await;
                (t.validate(&got.unwrap(), 880), rec.finish())
            });
            sim.run();
            let (ok, profile) = h.try_take().unwrap();
            assert!(ok, "frame corrupted");
            // Local path: flock sync, no fetch/store regions.
            assert!(profile.node(&[row.get, row.get_flock]).is_some());
            assert!(profile.node(&[row.get, row.get_data]).is_none());
            assert!(profile.node(&[row.get, staging::plane::READ]).is_some());
        });
    }

    #[test]
    fn cross_node_consume_fetches_and_stages() {
        for_each_row(|row| {
            let sim = Sim::new(0);
            let rig = plane_rig(&sim, row, 2, None, false);
            let (prod, cons) = (rig.planes[0].clone(), rig.planes[1].clone());
            let ctx = sim.ctx();
            let h = sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let (t, f) = frame(1);
                put(&prod, row, &rec, "f1", f).await;
                let got = cons.session("c0", false).get(&cons, &rec, "f1").await;
                (t.validate(&got.unwrap(), 1), rec.finish())
            });
            sim.run();
            let (ok, profile) = h.try_take().unwrap();
            assert!(ok);
            for region in [
                row.get_sync,
                row.get_data,
                row.get_store,
                staging::plane::READ,
            ] {
                assert!(
                    profile.node(&[row.get, region]).is_some(),
                    "missing {region}"
                );
            }
            assert_eq!(rig.planes[0].stats().fetches_served, 1);
            assert_eq!(rig.planes[0].stats().puts, 1);
            assert_eq!(rig.planes[1].stats().gets, 1);
        });
    }

    #[test]
    fn consumed_bytes_are_bit_identical_across_nodes() {
        for_each_row(|row| {
            let sim = Sim::new(0);
            let rig = plane_rig(&sim, row, 3, None, false);
            let (prod, cons) = (rig.planes[1].clone(), rig.planes[2].clone());
            let ctx = sim.ctx();
            let h = sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let t = FrameTemplate::generate(Model::ApoA1, 9);
                let f = t.frame_segments(42);
                let flat_in = transport::flatten_payload(f.clone());
                put(&prod, row, &rec, "x", f).await;
                let got = cons.session("c0", false).get(&cons, &rec, "x").await;
                flat_in == transport::flatten_payload(got.unwrap())
            });
            sim.run();
            assert!(h.try_take().unwrap());
        });
    }

    #[test]
    fn concurrent_same_node_sessions_stage_one_remote_frame_intact() {
        // Two sessions on node 1 fetch the same frame of node 0 at the
        // same instant: each stages its copy through a tmp file, and
        // `create` truncates, so a tmp name they shared would interleave
        // their segments.
        for_each_row(|row| {
            let sim = Sim::new(0);
            let rig = plane_rig(&sim, row, 2, None, false);
            let (prod, cons) = (rig.planes[0].clone(), rig.planes[1].clone());
            let ctx = sim.ctx();
            sim.spawn(async move {
                let (_, f) = frame(7);
                put(&prod, row, &Recorder::new(&ctx), "shared", f).await;
            });
            let handles: Vec<_> = ["c0", "c1"]
                .into_iter()
                .map(|id| {
                    let (cons, ctx) = (cons.clone(), sim.ctx());
                    sim.spawn(async move {
                        ctx.sleep(SimDuration::from_millis(100)).await;
                        let rec = Recorder::new(&ctx);
                        let got = cons.session(id, false).get(&cons, &rec, "shared").await;
                        let (t, f) = frame(7);
                        let got = got.unwrap();
                        t.validate(&got, 7)
                            && transport::flatten_payload(got) == transport::flatten_payload(f)
                    })
                })
                .collect();
            assert!(sim.run().is_clean());
            for h in handles {
                assert_eq!(h.try_take(), Some(true), "a session read a torn copy");
            }
            // A collision that happens to leave both reads whole still
            // fails one session's rename and sends it back to the owner.
            assert_eq!(
                rig.planes[0].stats().fetches_served,
                2,
                "a session's staged copy was clobbered and it had to refetch"
            );
        });
    }

    #[test]
    fn malformed_fetch_header_is_answered_as_not_held() {
        // A header that is no UTF-8 path gets the empty payload a client
        // reads as "the owner no longer holds the file" — not a panic in
        // the owner's service.
        for_each_row(|row| {
            let sim = Sim::new(0);
            let rig = plane_rig(&sim, row, 2, None, false);
            let ep = rig.tp.endpoint(NodeId(1));
            let h = sim.spawn(async move {
                let hdr = Bytes::from_static(&[b'/', 0xff, 0xfe]);
                ep.rpc(NodeId(0), row.am, (hdr, Vec::new())).await
            });
            assert!(sim.run().is_clean());
            let (reply, payload) = h.try_take().unwrap();
            assert!(reply.is_empty() && payload.is_empty());
            assert_eq!(rig.planes[0].stats().fetches_served, 1);
        });
    }

    #[test]
    fn put_remakes_a_directory_whose_mkdir_failed() {
        // The device fails exactly its first call, which is the `mkdir_p`
        // of the first put into a new directory. The retry must make the
        // directory again, not trust the attempt that failed.
        for_each_row(|row| {
            let sim = Sim::new(0);
            let ctx = sim.ctx();
            let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
            let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
            tp.set_faults(faults::FaultBoard::new(&ctx, 2, 1));
            let _kvs_server = KvsServer::start(&ctx, &tp, NodeId(1), KvsSpec::default());
            let mut fs = LocalFs::new(
                &ctx,
                cl.node(NodeId(0)).nvme.clone(),
                LocalFsSpec::default(),
            );
            let calls = std::cell::Cell::new(0u32);
            fs.set_io_error_probe(Rc::new(move || {
                calls.set(calls.get() + 1);
                calls.get() == 1
            }));
            let kc = KvsClient::new(&ctx, &tp, NodeId(0), NodeId(1), KvsSpec::default());
            let spec = PlaneSpec::default();
            let plane = Plane::start(&ctx, &tp, NodeId(0), fs, kc, None, row, spec);
            let h = sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let (_, f) = frame(0);
                put(&plane, row, &rec, "new/dir/f0", f).await;
                rec.finish()
            });
            assert!(sim.run().is_clean());
            let p = h.try_take().expect("put finished");
            assert_eq!(p.node(&[row.put, row.put_write]).unwrap().count, 2);
            assert_eq!(p.sum_metric("produce_retries"), 1.0);
        });
    }

    #[test]
    fn lost_tombstone_without_a_board_is_a_typed_error() {
        // No fault board anywhere; the tombstone is committed by hand.
        for_each_row(|row| {
            let sim = Sim::new(0);
            let rig = plane_rig(&sim, row, 2, None, false);
            let (prod, cons) = (rig.planes[0].clone(), rig.planes[1].clone());
            let path = prod.managed_path("gone");
            let ctx = sim.ctx();
            let key = path.clone();
            let h = sim.spawn(async move {
                let meta = FrameMeta {
                    owner: NodeId(0),
                    size: 1,
                    location: FrameLocation::Lost,
                };
                prod.kvs().try_commit(&key, meta.encode()).await.unwrap();
                let rec = Recorder::new(&ctx);
                cons.session("c0", false).get(&cons, &rec, "gone").await
            });
            assert!(sim.run().is_clean());
            assert_eq!(h.try_take().unwrap(), Err(PlaneError::Lost { path }));
        });
    }

    #[test]
    fn consume_falls_back_to_pfs_after_spill() {
        // Tight staging budget on the producer node: the evictor spills
        // unconsumed frames to the PFS; a cross-node consumer must still
        // get every frame bit-identical, via the KVS → RDMA → PFS
        // fallback chain, and its acks must let frames retire.
        for_each_row(|row| {
            let sim = Sim::new(0);
            let budgets = [2 * Model::Jac.frame_bytes(), u64::MAX];
            let rig = plane_rig(&sim, row, 2, Some(&budgets), false);
            let (prod, cons) = (rig.planes[0].clone(), rig.planes[1].clone());
            let (pmgr, cmgr) = (&rig.mgrs[0], &rig.mgrs[1]);
            pmgr.register_consumer(&prod.managed_path("s"), "c0");
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for i in 0..4u64 {
                    let (_, f) = frame(i);
                    put(&prod, row, &rec, &format!("s/{i}"), f).await;
                    ctx.sleep(SimDuration::from_millis(300)).await;
                }
            });
            let ctx2 = sim.ctx();
            let h = sim.spawn(async move {
                // Start late so the evictor has had to spill.
                ctx2.sleep(SimDuration::from_secs_f64(2.0)).await;
                let rec = Recorder::new(&ctx2);
                let mut session = cons.session("c0", false);
                let mut all_ok = true;
                for i in 0..4u64 {
                    let t = FrameTemplate::generate(Model::Jac, 5);
                    let got = session.get(&cons, &rec, &format!("s/{i}")).await;
                    all_ok &= t.validate(&got.unwrap(), i);
                }
                all_ok
            });
            sim.run_until(SimTime::from_nanos(20_000_000_000));
            assert_eq!(h.try_take(), Some(true), "corrupted or missing frame");
            assert!(
                pmgr.stats().spilled_frames >= 1,
                "budget never forced a spill"
            );
            assert!(
                cmgr.stats().pfs_fallbacks >= 1,
                "no consume took the PFS fallback"
            );
            assert_eq!(cmgr.stats().acks_published, 4);
            for r in pmgr.retire_log() {
                assert_eq!(
                    r.acks_seen, r.required_acks,
                    "premature retire of {}",
                    r.path
                );
            }
        });
    }

    /// Wire node 0's staging crash/restart lifecycle the way the runner
    /// does.
    fn wire_crash_hooks(sim: &Sim, rig: &PlaneRig) {
        let board = rig.board.as_ref().expect("faulted rig");
        let mgr = rig.mgrs[0].clone();
        board.on_crash(move |n| {
            if n == 0 {
                mgr.on_node_crash();
            }
        });
        let (mgr, hctx) = (rig.mgrs[0].clone(), sim.ctx());
        board.on_restart(move |n| {
            if n == 0 {
                let mgr = mgr.clone();
                hctx.spawn(async move { mgr.on_node_restart().await });
            }
        });
    }

    #[test]
    fn try_consume_survives_producer_crash_via_pfs_and_tombstones() {
        // Producer writes two frames; the tight budget spills frame 0 to
        // the PFS. Node 0 then crashes with frame 1 still NVMe-resident.
        // The consumer must fetch frame 0 from the spill copy (dead
        // owner → PFS fallback) and get a typed Lost for frame 1 once the
        // restart publishes its tombstone — never a hang.
        for_each_row(|row| {
            let sim = Sim::new(7);
            let budgets = [2 * Model::Jac.frame_bytes(), u64::MAX];
            let rig = plane_rig(&sim, row, 2, Some(&budgets), true);
            wire_crash_hooks(&sim, &rig);
            let (prod, cons) = (rig.planes[0].clone(), rig.planes[1].clone());
            let (pmgr, cmgr) = (&rig.mgrs[0], &rig.mgrs[1]);
            let board = rig.board.as_ref().unwrap();
            pmgr.register_consumer(&prod.managed_path("s"), "c0");
            let lost_path = prod.managed_path("s/1");
            board.arm(&faults::FaultPlan::scheduled(vec![faults::FaultEvent {
                at: SimDuration::from_secs(1),
                kind: faults::FaultKind::NodeCrash {
                    node: 0,
                    down_for: SimDuration::from_secs(2),
                },
            }]));
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for i in 0..2u64 {
                    let (_, f) = frame(i);
                    put(&prod, row, &rec, &format!("s/{i}"), f).await;
                    ctx.sleep(SimDuration::from_millis(200)).await;
                }
            });
            let ctx2 = sim.ctx();
            let h = sim.spawn(async move {
                // Start inside the outage window.
                ctx2.sleep(SimDuration::from_millis(1_200)).await;
                let rec = Recorder::new(&ctx2);
                let mut session = cons.session("c0", false);
                let t = FrameTemplate::generate(Model::Jac, 5);
                let spilled = session.get(&cons, &rec, "s/0").await;
                let ok0 = matches!(&spilled, Ok(got) if t.validate(got, 0));
                let lost = session.get(&cons, &rec, "s/1").await;
                (ok0, lost)
            });
            sim.run_until(SimTime::from_nanos(60_000_000_000));
            let (ok0, lost) = h.try_take().expect("chaos consume hung");
            assert!(ok0, "spilled frame did not survive the crash");
            assert_eq!(lost, Err(PlaneError::Lost { path: lost_path }));
            assert!(pmgr.stats().spilled_frames >= 1, "no spill happened");
            assert!(pmgr.stats().frames_lost >= 1, "crash lost no frame");
            assert!(
                pmgr.stats().republished_frames >= 1,
                "restart republished nothing"
            );
            assert!(
                cmgr.stats().pfs_fallbacks >= 1,
                "no consume took the PFS fallback"
            );
            assert!(rig.tp.stats().rpc_retries > 0, "no retry was exercised");
            assert_eq!(board.stats().crashes, 1);
        });
    }

    #[test]
    fn dropped_spill_copy_surfaces_typed_frame_lost() {
        // A frame whose only remaining copy (the PFS spill) is dropped
        // must surface Lost to consumers instead of parking them forever
        // on a dangling metadata entry.
        for_each_row(|row| {
            let sim = Sim::new(3);
            let budgets = [Model::Jac.frame_bytes(), u64::MAX];
            let rig = plane_rig(&sim, row, 2, Some(&budgets), true);
            wire_crash_hooks(&sim, &rig);
            let (prod, cons) = (rig.planes[0].clone(), rig.planes[1].clone());
            let pmgr = rig.mgrs[0].clone();
            pmgr.register_consumer(&prod.managed_path("s"), "c0");
            let path = prod.managed_path("s/0");
            {
                let (pmgr, path) = (pmgr.clone(), path.clone());
                let ctx = sim.ctx();
                sim.spawn(async move {
                    let rec = Recorder::new(&ctx);
                    let (_, f) = frame(0);
                    put(&prod, row, &rec, "s/0", f).await;
                    // Wait out the evictor (budget of one frame forces the
                    // spill), then lose the spill copy.
                    ctx.sleep(SimDuration::from_secs(2)).await;
                    assert!(
                        pmgr.stats().spilled_frames >= 1,
                        "budget never forced a spill"
                    );
                    pmgr.mark_spill_lost(&path).await;
                });
            }
            let ctx2 = sim.ctx();
            let h = sim.spawn(async move {
                ctx2.sleep(SimDuration::from_secs(3)).await;
                let rec = Recorder::new(&ctx2);
                cons.session("c0", false).get(&cons, &rec, "s/0").await
            });
            sim.run_until(SimTime::from_nanos(30_000_000_000));
            let res = h.try_take().expect("consume of a lost frame hung");
            assert_eq!(res, Err(PlaneError::Lost { path }));
            assert_eq!(pmgr.stats().frames_lost, 1);
        });
    }
}
