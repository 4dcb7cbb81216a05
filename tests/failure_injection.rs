//! Failure-injection and edge-case tests across the substrates: the
//! system must fail loudly and precisely, not corrupt data.

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId, NodeSpec, NvmeDevice};
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::{FsError, LocalFs, LocalFsSpec};
use mdsim::{Frame, FrameError, FrameTemplate, Model};
use pfs::{ParallelFs, PfsError, PfsSpec};
use simcore::{Sim, SimDuration, SimTime};
use transport::{Transport, TransportSpec};

#[test]
fn localfs_enospc_mid_workflow_is_clean() {
    // A tiny volume fills up; later writes fail with NoSpace, earlier
    // files stay intact, and unlinking recovers the space.
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
    let spec = LocalFsSpec {
        capacity_bytes: 1 << 20, // 1 MiB volume
        ..LocalFsSpec::default()
    };
    let fs = LocalFs::new(&ctx, dev, spec);
    let h = sim.spawn(async move {
        let fd = fs.create("/a").await.unwrap();
        fs.write_bytes(fd, Bytes::from(vec![1u8; 600_000]))
            .await
            .unwrap();
        fs.close(fd).await.unwrap();
        // Second file exceeds the remaining space.
        let fd = fs.create("/b").await.unwrap();
        let err = fs
            .write_bytes(fd, Bytes::from(vec![2u8; 600_000]))
            .await
            .unwrap_err();
        assert_eq!(err, FsError::NoSpace);
        fs.close(fd).await.unwrap();
        // First file unharmed.
        let fd = fs.open("/a").await.unwrap();
        let data = transport::flatten_payload(fs.read_segments(fd).await.unwrap());
        fs.close(fd).await.unwrap();
        assert_eq!(data.len(), 600_000);
        assert!(data.iter().all(|&b| b == 1));
        // Reclaim and retry.
        fs.unlink("/a").await.unwrap();
        let fd = fs.create("/c").await.unwrap();
        fs.write_bytes(fd, Bytes::from(vec![3u8; 600_000]))
            .await
            .unwrap();
        fs.close(fd).await.unwrap();
        true
    });
    sim.run();
    assert!(h.try_take().unwrap());
}

#[test]
fn corrupted_frames_are_rejected_not_misread() {
    let t = FrameTemplate::generate(Model::Jac, 1);
    let wire = transport::flatten_payload(t.frame_segments(5));
    // Flip one byte in each header field region and confirm rejection
    // (or, for the step field, a wrong-step detection via validate).
    let mut magic = wire.to_vec();
    magic[3] ^= 0xFF;
    assert_eq!(
        Frame::decode(Bytes::from(magic)).unwrap_err(),
        FrameError::BadMagic
    );
    let mut version = wire.to_vec();
    version[9] ^= 0x01;
    assert_eq!(
        Frame::decode(Bytes::from(version)).unwrap_err(),
        FrameError::BadVersion
    );
    let mut step = wire.to_vec();
    step[16] ^= 0x01; // step is at offset 16
    let segs = vec![Bytes::from(step)];
    assert!(!t.validate(&segs, 5), "wrong step must fail validation");
}

#[test]
fn pfs_client_errors_on_unknown_paths_and_bad_fds() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(3));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let fs = ParallelFs::start(&ctx, &tp, NodeId(1), vec![NodeId(2)], PfsSpec::default());
    let c = fs.client(&ctx, NodeId(0));
    let h = sim.spawn(async move {
        assert_eq!(c.open("/missing").await.unwrap_err(), PfsError::NotFound);
        assert_eq!(c.unlink("/missing").await.unwrap_err(), PfsError::NotFound);
        let fd = c.create("/f").await.unwrap();
        c.close(fd).await.unwrap();
        // Double close: stale descriptor.
        assert_eq!(c.close(fd).await.unwrap_err(), PfsError::BadDescriptor);
        // Writing through a read-only descriptor.
        let fd = c.open("/f").await.unwrap();
        assert_eq!(
            c.write_bytes(fd, Bytes::from_static(b"x"))
                .await
                .unwrap_err(),
            PfsError::BadDescriptor
        );
        true
    });
    sim.run();
    assert!(h.try_take().unwrap());
}

#[test]
fn kvs_waiter_for_never_published_key_deadlocks_visibly() {
    // A consumer waiting on a key nobody commits must surface as a
    // deadlocked task, not hang the harness (the simulator detects it).
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let _srv = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let c = KvsClient::new(&ctx, &tp, NodeId(1), NodeId(0), KvsSpec::default());
    sim.spawn(async move {
        let _ = c.wait_key("never").await;
    });
    let report = sim.run();
    assert_eq!(report.deadlocked_tasks, 1);
    assert!(!report.is_clean());
}

#[test]
fn slow_producer_forces_cold_fallbacks_but_no_data_loss() {
    // The consumer outpaces the producer: every frame falls back to the
    // blocking KVS wait, yet each frame arrives exactly once, in order.
    use dyad::{DyadService, DyadSpec};
    use instrument::Recorder;
    use localfs::LocalFs as LFs;

    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let _srv = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let mk = |node: u32| {
        let fs = LFs::new(
            &ctx,
            cl.node(NodeId(node)).nvme.clone(),
            LocalFsSpec::default(),
        );
        let kc = KvsClient::new(&ctx, &tp, NodeId(node), NodeId(0), KvsSpec::default());
        DyadService::start(&ctx, &tp, NodeId(node), fs, kc, DyadSpec::default())
    };
    let prod = mk(0);
    let cons = mk(1);
    let prod2 = prod.clone();
    {
        let ctx = ctx.clone();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let t = FrameTemplate::generate(Model::Jac, 9);
            for i in 0..5u64 {
                // Slow producer: 50 ms per frame.
                ctx.sleep(SimDuration::from_millis(50)).await;
                prod2
                    .produce(&rec, &format!("s/{i}"), t.frame_segments(i))
                    .await;
            }
        });
    }
    let cons2 = cons.clone();
    let ctx2 = ctx.clone();
    let h = sim.spawn(async move {
        let rec = Recorder::new(&ctx2);
        let t = FrameTemplate::generate(Model::Jac, 9);
        let mut session = cons2.consumer();
        // Eager consumer: no analytics pause at all.
        for i in 0..5u64 {
            let data = session.consume(&rec, &format!("s/{i}")).await;
            assert!(t.validate(&data, i), "frame {i} corrupted");
        }
        true
    });
    let report = sim.run_until(SimTime::from_nanos(2_000_000_000));
    assert!(report.is_clean());
    assert!(h.try_take().unwrap());
    let st = cons.stats();
    assert_eq!(st.gets, 5);
    // First consume is cold; subsequent ones race ahead and fall back.
    assert!(st.cold_syncs >= 4, "expected cold fallbacks, got {st:?}");
}

#[test]
fn interleaved_producers_do_not_cross_wires() {
    // Two producers on the same node, one consumer each on another node;
    // heavy interleaving must never deliver pair A's frame to pair B.
    use dyad::{DyadService, DyadSpec};
    use instrument::Recorder;

    let sim = Sim::new(5);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let _srv = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let mk = |node: u32| {
        let fs = LocalFs::new(
            &ctx,
            cl.node(NodeId(node)).nvme.clone(),
            LocalFsSpec::default(),
        );
        let kc = KvsClient::new(&ctx, &tp, NodeId(node), NodeId(0), KvsSpec::default());
        DyadService::start(&ctx, &tp, NodeId(node), fs, kc, DyadSpec::default())
    };
    let prod = mk(0);
    let cons = mk(1);
    let mut handles = Vec::new();
    for pair in 0..4u64 {
        let prod = prod.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx2);
            // Distinct template seed per pair -> distinct bodies.
            let t = FrameTemplate::generate(Model::Jac, 100 + pair);
            for i in 0..3u64 {
                ctx2.sleep(SimDuration::from_millis(7 + pair)).await;
                prod.produce(&rec, &format!("p{pair}/f{i}"), t.frame_segments(i))
                    .await;
            }
        });
        let cons = cons.clone();
        let ctx3 = ctx.clone();
        handles.push(sim.spawn(async move {
            let rec = Recorder::new(&ctx3);
            let t = FrameTemplate::generate(Model::Jac, 100 + pair);
            let mut session = cons.consumer();
            for i in 0..3u64 {
                let data = session.consume(&rec, &format!("p{pair}/f{i}")).await;
                // validate() checks the shared body bytes, so a frame
                // from another pair (different seed) would fail.
                assert!(t.validate(&data, i), "pair {pair} frame {i} cross-wired");
            }
            true
        }));
    }
    assert!(sim.run().is_clean());
    for h in handles {
        assert!(h.try_take().unwrap());
    }
}
