//! Failure-injection and edge-case tests across the substrates: the
//! system must fail loudly and precisely, not corrupt data.

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId, NodeSpec, NvmeDevice};
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::{FsError, LocalFs, LocalFsSpec};
use mdsim::{FrameError, Model};
use pfs::{ParallelFs, PfsError, PfsSpec};
use simcore::{Sim, SimDuration, SimTime};
use transport::{Transport, TransportSpec};

#[path = "support/frames.rs"]
mod frames;
use frames::{is_patterned_frame, patterned_frame};

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
    let wire = transport::flatten_payload(Model::Jac.frame_segments(5));
    // Flip one byte in each header field region of a flat frame and
    // confirm the consumers' check rejects it, naming the field.
    let flipped = |at: usize, mask: u8| {
        let mut raw = wire.to_vec();
        raw[at] ^= mask;
        Model::Jac.check_frame(&[Bytes::from(raw)], 5)
    };
    assert_eq!(flipped(3, 0xFF), Err(FrameError::BadMagic));
    assert_eq!(flipped(9, 0x01), Err(FrameError::BadVersion));
    assert_eq!(flipped(12, 0x08), Err(FrameError::BadModel));
    assert_eq!(flipped(16, 0x01), Err(FrameError::WrongStep)); // step is at offset 16
    assert_eq!(flipped(24, 0x01), Err(FrameError::WrongLength)); // atom count
    let short = [wire.slice(..wire.len() - 1)];
    assert_eq!(
        Model::Jac.check_frame(&short, 5),
        Err(FrameError::WrongLength)
    );
    assert_eq!(Model::Jac.check_frame(&[wire], 5), Ok(()));
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
            for i in 0..5u64 {
                // Slow producer: 50 ms per frame.
                ctx.sleep(SimDuration::from_millis(50)).await;
                let frame = patterned_frame(Model::Jac, i, 9);
                prod2.produce(&rec, &format!("s/{i}"), frame).await;
            }
        });
    }
    let cons2 = cons.clone();
    let ctx2 = ctx.clone();
    let h = sim.spawn(async move {
        let rec = Recorder::new(&ctx2);
        let mut session = cons2.consumer();
        // Eager consumer: no analytics pause at all.
        for i in 0..5u64 {
            let data = session.consume(&rec, &format!("s/{i}")).await;
            assert!(
                is_patterned_frame(&data, Model::Jac, i, 9),
                "frame {i} corrupted"
            );
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
            for i in 0..3u64 {
                ctx2.sleep(SimDuration::from_millis(7 + pair)).await;
                // A salt per pair: distinct bodies.
                let frame = patterned_frame(Model::Jac, i, 100 + pair);
                prod.produce(&rec, &format!("p{pair}/f{i}"), frame).await;
            }
        });
        let cons = cons.clone();
        let ctx3 = ctx.clone();
        handles.push(sim.spawn(async move {
            let rec = Recorder::new(&ctx3);
            let mut session = cons.consumer();
            for i in 0..3u64 {
                let data = session.consume(&rec, &format!("p{pair}/f{i}")).await;
                // The body bytes carry the pair's salt, so a frame from
                // another pair fails the comparison.
                assert!(
                    is_patterned_frame(&data, Model::Jac, i, 100 + pair),
                    "pair {pair} frame {i} cross-wired"
                );
            }
            true
        }));
    }
    assert!(sim.run().is_clean());
    for h in handles {
        assert!(h.try_take().unwrap());
    }
}
