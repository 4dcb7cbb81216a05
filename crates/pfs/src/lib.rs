//! # pfs — a Lustre-like parallel filesystem
//!
//! The paper's multi-node baseline moves every frame through Lustre. This
//! crate reimplements the Lustre architecture at the level the
//! experiments observe:
//!
//! * an **MDS** owning the namespace — every create/open/close(setattr)/
//!   unlink is a metadata RPC with real service-queue contention;
//! * **OSTs** (object storage targets) behind OSS request queues, each
//!   with its own backing-disk bandwidth shared among *all* clients —
//!   the cluster-wide shared-storage bottleneck;
//! * **striped layouts** (RAID-0 across OSTs) with parallel per-stripe
//!   bulk I/O from the client;
//! * optional **background interference** per OST, reproducing the
//!   variability the paper attributes to other jobs on the system: each
//!   OST's streams are calendar-driven blocks
//!   ([`simcore::resource::Background`]) on its disk channels, not
//!   processes.
//!
//! Object contents are real bytes; a striped write read back through a
//! different client is bit-identical.

#![warn(missing_docs)]

mod client;
mod codec;
mod ldlm;
mod server;

pub use client::{PfsClient, PfsError, PfsFd};
pub use codec::{CodecError, Layout, MdsRequest, MdsResponse, OssRequest, OssResponse};
pub use ldlm::{LdlmClient, LdlmServer, LdlmSpec, LdlmStats, LockMode, LDLM_AM};
pub use server::{MdsServer, MdsStats, OstServer, OstStats, PfsSpec, MDS_AM, OSS_AM_BASE};

use cluster::NodeId;
use simcore::Ctx;
use std::rc::Rc;
use transport::Transport;

/// A fully assembled Lustre-like filesystem: MDS + OSTs + client factory.
pub struct ParallelFs {
    mds: Rc<MdsServer>,
    osts: Vec<Rc<OstServer>>,
    ost_nodes: Vec<NodeId>,
    tp: Transport,
    spec: PfsSpec,
}

impl ParallelFs {
    /// Start the MDS on `mds_node` and one OST on each of `ost_nodes`.
    /// If `spec.interference > 0`, each OST gets its background-load
    /// streams.
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        mds_node: NodeId,
        ost_nodes: Vec<NodeId>,
        spec: PfsSpec,
    ) -> Self {
        let mds = MdsServer::start(ctx, tp, mds_node, ost_nodes.len() as u32, spec);
        let osts: Vec<Rc<OstServer>> = ost_nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| OstServer::start(ctx, tp, node, i as u32, spec))
            .collect();
        for (i, ost) in osts.iter().enumerate() {
            ost.spawn_interference(ctx, &spec, i as u64);
        }
        ParallelFs {
            mds,
            osts,
            ost_nodes,
            tp: tp.clone(),
            spec,
        }
    }

    /// Create a client on `node`.
    pub fn client(&self, ctx: &Ctx, node: NodeId) -> PfsClient {
        PfsClient::new(
            ctx,
            &self.tp,
            node,
            self.mds.node(),
            self.ost_nodes.clone(),
            self.spec,
        )
    }

    /// The metadata server.
    pub fn mds(&self) -> &Rc<MdsServer> {
        &self.mds
    }

    /// The object servers.
    pub fn osts(&self) -> &[Rc<OstServer>] {
        &self.osts
    }

    /// The spec the filesystem was started with.
    pub fn spec(&self) -> PfsSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cluster::{Cluster, ClusterSpec};
    use simcore::{Sim, SimDuration};
    use transport::TransportSpec;

    /// Cluster layout for tests: node 0 = MDS, nodes 1..=n_ost = OSTs,
    /// remaining nodes are compute.
    fn setup(sim: &Sim, n_ost: usize, n_compute: usize) -> ParallelFs {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(1 + n_ost + n_compute));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let ost_nodes = (1..=n_ost as u32).map(NodeId).collect();
        ParallelFs::start(&ctx, &tp, NodeId(0), ost_nodes, PfsSpec::default())
    }

    #[test]
    fn write_read_round_trip_across_clients() {
        let sim = Sim::new(0);
        let fs = setup(&sim, 4, 2);
        let ctx = sim.ctx();
        let w = fs.client(&ctx, NodeId(5));
        let r = fs.client(&ctx, NodeId(6));
        let payload: Vec<u8> = (0..3_000_000u32).map(|i| (i % 253) as u8).collect();
        let expect = Bytes::from(payload.clone());
        let done = simcore::sync::Notify::new();
        {
            let done = done.clone();
            sim.spawn(async move {
                let fd = w.create("/runs/frame0").await.unwrap();
                w.write_bytes(fd, Bytes::from(payload)).await.unwrap();
                w.close(fd).await.unwrap();
                done.notify_all();
            });
        }
        let h = sim.spawn(async move {
            done.wait().await;
            let fd = r.open("/runs/frame0").await.unwrap();
            let rope = r.read_segments(fd).await.unwrap();
            r.close(fd).await.unwrap();
            transport::flatten_payload(rope)
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), expect);
    }

    #[test]
    fn striping_spreads_bytes_across_osts() {
        let sim = Sim::new(0);
        let fs = setup(&sim, 4, 1);
        let ctx = sim.ctx();
        let c = fs.client(&ctx, NodeId(5));
        sim.spawn(async move {
            let fd = c.create("/big").await.unwrap();
            // 8 MiB over 1 MiB stripes.
            c.write_bytes(fd, Bytes::from(vec![1u8; 8 << 20]))
                .await
                .unwrap();
            c.close(fd).await.unwrap();
        });
        sim.run();
        for ost in fs.osts() {
            let st = ost.stats();
            assert_eq!(st.bytes_written, 2 << 20, "ost {}", ost.index());
        }
    }

    #[test]
    fn open_missing_file_errors() {
        let sim = Sim::new(0);
        let fs = setup(&sim, 2, 1);
        let c = fs.client(&sim.ctx(), NodeId(3));
        let h = sim.spawn(async move { c.open("/ghost").await.err() });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(PfsError::NotFound));
    }

    #[test]
    fn size_is_visible_after_close() {
        let sim = Sim::new(0);
        let fs = setup(&sim, 2, 1);
        let c = fs.client(&sim.ctx(), NodeId(3));
        let h = sim.spawn(async move {
            let fd = c.create("/f").await.unwrap();
            c.write_bytes(fd, Bytes::from(vec![9u8; 1234]))
                .await
                .unwrap();
            c.close(fd).await.unwrap();
            c.stat("/f").await.unwrap().1
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 1234);
    }

    #[test]
    fn unlink_destroys_objects() {
        let sim = Sim::new(0);
        let fs = setup(&sim, 2, 1);
        let c = fs.client(&sim.ctx(), NodeId(3));
        let h = sim.spawn(async move {
            let fd = c.create("/f").await.unwrap();
            c.write_bytes(fd, Bytes::from(vec![0u8; 4 << 20]))
                .await
                .unwrap();
            c.close(fd).await.unwrap();
            c.unlink("/f").await.unwrap();
            c.open("/f").await.err()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(PfsError::NotFound));
        for ost in fs.osts() {
            assert_eq!(ost.object_count(), 0);
        }
    }

    #[test]
    fn every_byte_crosses_the_network() {
        // Unlike node-local storage, a 4 MB Lustre write must stream
        // through the writer's NIC.
        let sim = Sim::new(0);
        let fs = setup(&sim, 2, 1);
        let ctx = sim.ctx();
        let c = fs.client(&ctx, NodeId(3));
        let cl_ref = {
            // Rebuild a fabric reference via the transport in ParallelFs.
            fs.tp.fabric().clone()
        };
        sim.spawn(async move {
            let fd = c.create("/n").await.unwrap();
            c.write_bytes(fd, Bytes::from(vec![0u8; 4_000_000]))
                .await
                .unwrap();
            c.close(fd).await.unwrap();
        });
        sim.run();
        let sent = cl_ref.tx_stats(NodeId(3)).bytes_moved;
        assert!(sent >= 4_000_000, "only {sent} bytes left the client NIC");
    }

    #[test]
    fn concurrent_clients_contend_on_shared_osts() {
        // 8 clients × 4 MB to a 2-OST fs: aggregate disk bandwidth is the
        // bottleneck, so each write takes far longer than solo.
        let sim = Sim::new(0);
        let fs = setup(&sim, 2, 8);
        let ctx = sim.ctx();
        let mut hs = Vec::new();
        for i in 0..8u32 {
            let c = fs.client(&ctx, NodeId(3 + i));
            let ctx2 = ctx.clone();
            hs.push(sim.spawn(async move {
                let fd = c.create(&format!("/c{i}")).await.unwrap();
                let t0 = ctx2.now();
                c.write_bytes(fd, Bytes::from(vec![0u8; 4_000_000]))
                    .await
                    .unwrap();
                c.close(fd).await.unwrap();
                (ctx2.now() - t0).as_secs_f64()
            }));
        }
        sim.run();
        let times: Vec<f64> = hs.into_iter().map(|h| h.try_take().unwrap()).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        // 32 MB total over ~4.5 GB/s aggregate ≈ 7 ms; solo would be ~2 ms.
        assert!(mean > 0.004, "mean write took {mean}s — no contention?");
    }

    #[test]
    fn mds_counts_metadata_ops() {
        let sim = Sim::new(0);
        let fs = setup(&sim, 2, 1);
        let c = fs.client(&sim.ctx(), NodeId(3));
        sim.spawn(async move {
            for i in 0..5 {
                let fd = c.create(&format!("/f{i}")).await.unwrap();
                c.write_bytes(fd, Bytes::from_static(b"x")).await.unwrap();
                c.close(fd).await.unwrap();
            }
        });
        sim.run();
        let st = fs.mds().stats();
        assert_eq!(st.creates, 5);
        assert_eq!(st.setattrs, 5);
    }

    /// Four pairs × eight JAC-sized frames through the calls the manual
    /// roles make (create / write rope / close, then open / read /
    /// close), with interference on. Event count, end time and every
    /// node's NIC byte counts were captured on the commit before the
    /// sized, borrowed codec: wire bytes decide every fabric charge, so
    /// a codec that writes one byte differently moves all three.
    #[test]
    fn lustre_run_replays_pinned_schedule_and_fabric_bytes() {
        let sim = Sim::new(7);
        let ctx = sim.ctx();
        // Node 0 = MDS, 1..=4 OSTs, 5..=8 producers, 9..=12 consumers.
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(13));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let spec = PfsSpec {
            interference: 0.25,
            ..PfsSpec::default()
        };
        let osts = (1..=4).map(NodeId).collect();
        let fs = ParallelFs::start(&ctx, &tp, NodeId(0), osts, spec);
        let header = Bytes::from(vec![0xA5u8; 64]);
        let body = Bytes::from(
            (0..659_607u32)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>(),
        );
        let makespan = Rc::new(std::cell::Cell::new(0u64));
        for pair in 0..4u32 {
            let (w, r) = (
                fs.client(&ctx, NodeId(5 + pair)),
                fs.client(&ctx, NodeId(9 + pair)),
            );
            let (ready_tx, mut ready_rx) = simcore::sync::channel::<u64>();
            let rope = vec![header.clone(), body.clone()];
            let pctx = ctx.clone();
            sim.spawn(async move {
                for frame in 0..8u64 {
                    pctx.sleep(SimDuration::from_millis(3 + u64::from(pair)))
                        .await;
                    let path = format!("frames/p{pair:04}/f{frame:05}");
                    let fd = w.create(&path).await.unwrap();
                    w.write_segments(fd, rope.clone()).await.unwrap();
                    w.close(fd).await.unwrap();
                    ready_tx.send(frame);
                }
            });
            let (body, cctx, makespan) = (body.clone(), ctx.clone(), makespan.clone());
            sim.spawn(async move {
                while let Some(frame) = ready_rx.recv().await {
                    let path = format!("frames/p{pair:04}/f{frame:05}");
                    let fd = r.open(&path).await.unwrap();
                    let rope = r.read_segments(fd).await.unwrap();
                    r.close(fd).await.unwrap();
                    assert_eq!(transport::payload_len(&rope), 659_671);
                    assert_eq!(rope.last(), Some(&body));
                }
                makespan.set(makespan.get().max(cctx.now().nanos()));
            });
        }
        // Interference streams never finish: stop once the pairs have.
        let report = sim.run_until(simcore::SimTime::from_nanos(200_000_000));
        assert_eq!(fs.mds().stats().opens, 32);
        assert_eq!(
            (report.events_processed, makespan.get()),
            (1486, 70_710_663),
            "(events by the deadline, last consumer's finish)"
        );
        let moved: Vec<(u64, u64)> = (0..13)
            .map(|n| {
                let fabric = fs.tp.fabric();
                (
                    fabric.tx_stats(NodeId(n)).bytes_moved,
                    fabric.rx_stats(NodeId(n)).bytes_moved,
                )
            })
            .collect();
        // Every frame is one stripe, and with as many columns as OSTs
        // column 0 of every file is OST 0 (node 1).
        let mut pinned = vec![(10_464, 8_512), (21_113_888, 21_115_680)];
        pinned.extend([(0, 0); 3]);
        pinned.extend([(5_279_584, 2_088); 4]);
        pinned.extend([(1_464, 5_279_000); 4]);
        assert_eq!(moved, pinned, "per-node (tx, rx) bytes");
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn striped_rope_writes_read_back_exactly(
                segments in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..40_000), 1..6),
                stripe_kib in 1u64..64,
            ) {
                let sim = Sim::new(0);
                let ctx = sim.ctx();
                let cl = Cluster::build(&ctx, &ClusterSpec::corona(3));
                let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
                let spec = PfsSpec {
                    stripe_size: stripe_kib * 1024,
                    ..PfsSpec::default()
                };
                let fs = ParallelFs::start(&ctx, &tp, NodeId(0), vec![NodeId(1)], spec);
                let c = fs.client(&ctx, NodeId(2));
                let expect: Vec<u8> = segments.concat();
                let rope: Vec<Bytes> = segments.into_iter().map(Bytes::from).collect();
                let h = sim.spawn(async move {
                    let fd = c.create("/p").await.unwrap();
                    c.write_segments(fd, rope).await.unwrap();
                    c.close(fd).await.unwrap();
                    let fd = c.open("/p").await.unwrap();
                    let back = c.read_segments(fd).await.unwrap();
                    c.close(fd).await.unwrap();
                    transport::flatten_payload(back)
                });
                prop_assert!(sim.run().is_clean());
                prop_assert_eq!(h.try_take().unwrap(), Bytes::from(expect));
            }
        }
    }

    #[test]
    fn interference_slows_bulk_io() {
        // Sustained writes on a noisy OST must take measurably longer
        // than on a quiet one. Measure many writes so that bursty
        // interference cannot be dodged by luck.
        fn run(interference: f64) -> f64 {
            let sim = Sim::new(3);
            let ctx = sim.ctx();
            let cl = Cluster::build(&ctx, &ClusterSpec::corona(3));
            let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
            // Raise the client stream caps so the OST disk (where the
            // interference lives) is the bottleneck under test.
            let spec = PfsSpec {
                interference,
                burst_cap: 4.0e9,
                sustained_cap: 4.0e9,
                ..PfsSpec::default()
            };
            let fs = ParallelFs::start(&ctx, &tp, NodeId(0), vec![NodeId(1)], spec);
            let c = fs.client(&ctx, NodeId(2));
            let ctx2 = ctx.clone();
            let h = sim.spawn(async move {
                ctx2.sleep(SimDuration::from_millis(10)).await;
                let t0 = ctx2.now();
                for i in 0..20 {
                    let fd = c.create(&format!("/x{i}")).await.unwrap();
                    c.write_bytes(fd, Bytes::from(vec![0u8; 16_000_000]))
                        .await
                        .unwrap();
                    c.close(fd).await.unwrap();
                }
                (ctx2.now() - t0).as_secs_f64()
            });
            sim.run_until(simcore::SimTime::from_nanos(60_000_000_000));
            h.try_take().unwrap()
        }
        let quiet = run(0.0);
        let noisy = run(0.8);
        assert!(
            noisy > quiet * 1.10,
            "interference had no effect: quiet={quiet}s noisy={noisy}s"
        );
    }
}
