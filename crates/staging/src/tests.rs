use super::*;
use cluster::{Cluster, ClusterSpec};
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::LocalFsSpec;
use pfs::{ParallelFs, PfsSpec};
use simcore::{Sim, SimTime};
use transport::{Transport, TransportSpec};

const KIB: u64 = 1024;

struct Rig {
    tp: Transport,
    mgr: Rc<StagingManager>,
    fs: LocalFs,
    kvs: KvsClient,
    pfs: Option<ParallelFs>,
    #[allow(dead_code)]
    kvs_server: Rc<KvsServer>,
}

/// 3 nodes: node 0 runs the manager + KVS broker; nodes 1,2 host the
/// PFS (MDS + one OST) when `with_pfs`.
fn setup(sim: &Sim, spec: StagingSpec, with_pfs: bool) -> Rig {
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(3));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let kvs_server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let fs = LocalFs::new(
        &ctx,
        cl.node(NodeId(0)).nvme.clone(),
        LocalFsSpec::default(),
    );
    let kvs = KvsClient::new(&ctx, &tp, NodeId(0), NodeId(0), KvsSpec::default());
    let pfs = with_pfs
        .then(|| ParallelFs::start(&ctx, &tp, NodeId(1), vec![NodeId(2)], PfsSpec::default()));
    let pfs_client = pfs.as_ref().map(|p| p.client(&ctx, NodeId(0)));
    let mgr = StagingManager::new(&ctx, NodeId(0), fs.clone(), kvs.clone(), pfs_client, spec);
    Rig {
        tp,
        mgr,
        fs,
        kvs,
        pfs,
        kvs_server,
    }
}

/// Stage one published frame of `size` bytes at `path`.
async fn produce(rig: &Rig, path: &str, size: u64) {
    write(rig, path, size).await;
    rig.mgr.frame_written(path, size);
    publish(rig, path, size).await;
}

/// Write `size` bytes at `path` on the node's filesystem, untracked.
async fn write(rig: &Rig, path: &str, size: u64) {
    let dir = path.rsplit_once('/').map(|(d, _)| d).unwrap_or("/");
    rig.fs.mkdir_p(dir).await.unwrap();
    let fd = rig.fs.create(path).await.unwrap();
    rig.fs
        .write_bytes(fd, Bytes::from(vec![7u8; size as usize]))
        .await
        .unwrap();
    rig.fs.close(fd).await.unwrap();
}

/// Commit `path`'s metadata and mark it published.
async fn publish(rig: &Rig, path: &str, size: u64) {
    let meta = FrameMeta {
        owner: NodeId(0),
        size,
        location: FrameLocation::Nvme,
    };
    rig.kvs.commit(path, meta.encode()).await;
    rig.mgr.frame_published(path);
}

fn run_for(sim: &Sim, secs: u64) {
    sim.run_until(SimTime::from_nanos(secs * 1_000_000_000));
}

#[test]
fn ack_and_spill_paths_are_golden() {
    let path = "/dyad/frames/p0042/f00017";
    assert_eq!(
        ack_key(path, "c42"),
        "__staging/ack/c42/dyad/frames/p0042/f00017"
    );
    assert_eq!(spill_path(path), "/spill/dyad/frames/p0042/f00017");
}

#[test]
fn meta_round_trips_with_location() {
    for loc in [FrameLocation::Nvme, FrameLocation::Pfs] {
        let m = FrameMeta {
            owner: NodeId(17),
            size: 987_654,
            location: loc,
        };
        assert_eq!(FrameMeta::decode(m.encode()), m);
    }
}

#[test]
fn unbounded_keepall_never_touches_frames() {
    // No budget: the evictor runs but never acts, not even on frames
    // every consumer acked.
    let sim = Sim::new(0);
    let rig = setup(&sim, StagingSpec::default(), false);
    let mgr = rig.mgr.clone();
    let fs = rig.fs.clone();
    mgr.register_consumer("/dyad", "c0");
    mgr.spawn_evictor();
    {
        let mgr = mgr.clone();
        sim.spawn(async move {
            for i in 0..8 {
                let path = format!("/dyad/f{i}");
                produce(&rig, &path, 32 * KIB).await;
                mgr.publish_ack(&path, "c0").await;
            }
        });
    }
    run_for(&sim, 5);
    assert_eq!(mgr.stats().retired_frames, 0);
    assert_eq!(mgr.stats().spilled_frames, 0);
    for i in 0..8 {
        assert!(fs.exists(&format!("/dyad/f{i}")));
    }
}

#[test]
fn evictor_retires_fully_acked_frames_under_pressure() {
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 256 * KIB,
        low_watermark: 0.5,
        high_watermark: 0.9,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, false);
    let mgr = rig.mgr.clone();
    let fs = rig.fs.clone();
    mgr.register_consumer("/dyad/frames", "c0");
    mgr.spawn_evictor();
    {
        let mgr = mgr.clone();
        sim.spawn(async move {
            // 6 × 64 KiB = 384 KiB > budget; ack the first four.
            for i in 0..6 {
                produce(&rig, &format!("/dyad/frames/f{i}"), 64 * KIB).await;
            }
            for i in 0..4 {
                mgr.publish_ack(&format!("/dyad/frames/f{i}"), "c0").await;
            }
        });
    }
    run_for(&sim, 5);
    let st = mgr.stats();
    assert!(st.retired_frames >= 2, "retired {}", st.retired_frames);
    // Unacked frames survive: no PFS configured, so they cannot spill.
    assert!(fs.exists("/dyad/frames/f4"));
    assert!(fs.exists("/dyad/frames/f5"));
    // Every retirement was fully acked.
    for r in mgr.retire_log() {
        assert_eq!(
            r.acks_seen, r.required_acks,
            "premature retire of {}",
            r.path
        );
        assert!(r.required_acks > 0);
    }
}

/// `mgr`'s age-index entries and its frames on the device, which the
/// index must match.
fn index_and_device_frames(mgr: &StagingManager) -> (usize, usize) {
    let inner = mgr.inner.borrow();
    let on_device = (inner.frames.values())
        .filter(|f| matches!(f.state, FrameState::Written | FrameState::Published))
        .count();
    (inner.order.len(), on_device)
}

#[test]
fn the_age_index_holds_exactly_the_frames_on_the_device() {
    // 64 KiB frames on a 256 KiB budget: a pass frees down to 128 KiB.
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 256 * KIB,
        low_watermark: 0.5,
        high_watermark: 0.9,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, true);
    let mgr = rig.mgr.clone();
    mgr.register_consumer("/dyad/frames", "c0");
    let h = sim.spawn(async move {
        let mgr = &rig.mgr;
        let f = |i: u32| format!("/dyad/frames/f{i}");
        let matches = |step: &str, want: usize| {
            let (index, device) = index_and_device_frames(mgr);
            assert_eq!(
                (index, device),
                (want, want),
                "after {step}: index vs device"
            );
        };
        // Track: bytes written, metadata not yet committed.
        write(&rig, &f(0), 64 * KIB).await;
        mgr.frame_written(&f(0), 64 * KIB);
        matches("track", 1);
        // Publish it and two more.
        publish(&rig, &f(0), 64 * KIB).await;
        produce(&rig, &f(1), 64 * KIB).await;
        produce(&rig, &f(2), 64 * KIB).await;
        matches("publish", 3);
        // Spill: nothing is acked, so the pass moves the oldest to the PFS.
        mgr.evict_pass().await;
        assert_eq!(mgr.frame_state(&f(0)), Some(FrameState::Spilled));
        matches("spill", 2);
        // Retire: f1 is acked, and one more frame is over the watermark.
        mgr.publish_ack(&f(1), "c0").await;
        produce(&rig, &f(3), 64 * KIB).await;
        mgr.evict_pass().await;
        assert_eq!(mgr.frame_state(&f(1)), None);
        matches("retire", 2);
        // A cache copy lands and is evicted.
        write(&rig, "/dyad/frames/c", 64 * KIB).await;
        mgr.cache_inserted("/dyad/frames/c", 64 * KIB);
        matches("cache insert", 3);
        let copy = mgr.local_frames_oldest_first().pop().unwrap();
        assert_eq!(copy.kind, FrameKind::Cache);
        mgr.evict_cache(&copy).await;
        matches("cache eviction", 2);
        // Crash: the two frames left on the device are lost.
        mgr.on_node_crash();
        assert_eq!(mgr.frame_state(&f(2)), Some(FrameState::Lost));
        matches("crash", 0);
        assert_eq!(mgr.stats().staged_bytes, 0);
    });
    run_for(&sim, 5);
    h.try_take().expect("lifecycle hung");
}

#[test]
fn evictor_never_retires_unacked_frames() {
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 128 * KIB,
        low_watermark: 0.3,
        high_watermark: 0.6,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, false);
    let mgr = rig.mgr.clone();
    let fs = rig.fs.clone();
    mgr.register_consumer("/dyad/frames", "c0");
    mgr.register_consumer("/dyad/frames", "c1");
    mgr.spawn_evictor();
    {
        let mgr = mgr.clone();
        sim.spawn(async move {
            for i in 0..4 {
                produce(&rig, &format!("/dyad/frames/f{i}"), 64 * KIB).await;
            }
            // Only one of two registered consumers acks.
            for i in 0..4 {
                mgr.publish_ack(&format!("/dyad/frames/f{i}"), "c0").await;
            }
        });
    }
    run_for(&sim, 5);
    assert_eq!(mgr.stats().retired_frames, 0);
    for i in 0..4 {
        assert!(
            fs.exists(&format!("/dyad/frames/f{i}")),
            "f{i} retired early"
        );
    }
}

#[test]
fn evictor_spills_unacked_frames_to_pfs_and_republishes() {
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 128 * KIB,
        low_watermark: 0.4,
        high_watermark: 0.8,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, true);
    let mgr = rig.mgr.clone();
    let fs = rig.fs.clone();
    let kvs = rig.kvs.clone();
    let pfs_reader = rig.pfs.as_ref().unwrap().client(&sim.ctx(), NodeId(0));
    mgr.register_consumer("/dyad/frames", "c0");
    mgr.spawn_evictor();
    {
        sim.spawn(async move {
            for i in 0..4 {
                produce(&rig, &format!("/dyad/frames/f{i}"), 64 * KIB).await;
            }
        });
    }
    run_for(&sim, 5);
    let st = mgr.stats();
    assert!(st.spilled_frames >= 2, "spilled {}", st.spilled_frames);
    assert_eq!(st.retired_frames, 0);
    // The oldest frame moved: local copy gone, PFS copy present,
    // metadata points at the PFS.
    assert!(!fs.exists("/dyad/frames/f0"));
    let h = sim.spawn(async move {
        let v = kvs
            .lookup("/dyad/frames/f0")
            .await
            .expect("meta still published");
        let meta = FrameMeta::decode(v.value);
        let fd = pfs_reader
            .open(&spill_path("/dyad/frames/f0"))
            .await
            .unwrap();
        let data = transport::flatten_payload(pfs_reader.read_segments(fd).await.unwrap());
        pfs_reader.close(fd).await.unwrap();
        (meta, data)
    });
    run_for(&sim, 10);
    let (meta, data) = h.try_take().unwrap();
    assert_eq!(meta.location, FrameLocation::Pfs);
    assert_eq!(meta.size, 64 * KIB);
    assert_eq!(data.len() as u64, 64 * KIB);
    assert!(data.iter().all(|&b| b == 7));
}

#[test]
fn admit_blocks_above_high_watermark_until_release() {
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 128 * KIB,
        low_watermark: 0.4,
        high_watermark: 0.7,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, true);
    let mgr = rig.mgr.clone();
    let ctx = sim.ctx();
    mgr.register_consumer("/dyad/frames", "c0");
    mgr.spawn_evictor();
    let h = {
        let mgr = mgr.clone();
        sim.spawn(async move {
            // Fill past high (89.6 KiB): two 64 KiB frames.
            produce(&rig, "/dyad/frames/f0", 64 * KIB).await;
            produce(&rig, "/dyad/frames/f1", 64 * KIB).await;
            let before = ctx.now();
            mgr.admit(64 * KIB).await; // must stall until a spill frees room
            (ctx.now() - before).as_secs_f64()
        })
    };
    run_for(&sim, 30);
    let waited = h.try_take().expect("admit never returned");
    assert!(waited > 0.0, "admit did not block");
    let st = mgr.stats();
    assert_eq!(st.backpressure_stalls, 1);
    assert!(st.backpressure_wait.as_secs_f64() >= waited - 1e-9);
    assert!(st.spilled_frames >= 1);
}

#[test]
fn admit_is_free_when_unbounded() {
    let sim = Sim::new(0);
    let rig = setup(&sim, StagingSpec::default(), false);
    let mgr = rig.mgr.clone();
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let before = ctx.now();
        mgr.admit(u64::MAX / 2).await;
        (ctx.now() - before).as_secs_f64()
    });
    run_for(&sim, 1);
    assert_eq!(h.try_take().unwrap(), 0.0);
    assert_eq!(rig.mgr.stats().backpressure_stalls, 0);
}

#[test]
fn admit_makes_progress_when_nothing_is_evictable() {
    // A frame bigger than the whole budget, nothing staged: admission
    // must not deadlock.
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 64 * KIB,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, false);
    let mgr = rig.mgr.clone();
    mgr.spawn_evictor();
    let h = sim.spawn(async move {
        mgr.admit(256 * KIB).await;
        true
    });
    run_for(&sim, 5);
    assert_eq!(h.try_take(), Some(true));
    let _ = rig;
}

#[test]
fn a_frame_already_on_the_device_does_not_block_its_rewrite() {
    // A put whose metadata commit failed leaves its bytes `Written`; the
    // evictor frees only published frames, so a retry that waited for
    // room would wait on its own copy forever.
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 64 * KIB,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, false);
    let mgr = rig.mgr.clone();
    sim.spawn(async move {
        write(&rig, "/own", 64 * KIB).await;
        rig.mgr.frame_written("/own", 64 * KIB);
    });
    run_for(&sim, 1);
    assert_eq!(mgr.frame_state("/own"), Some(FrameState::Written));
    assert!(
        !mgr.would_block("/own", 64 * KIB),
        "the retry rewrites its own bytes"
    );
    assert!(
        mgr.would_block("/other", 64 * KIB),
        "a new frame needs room"
    );
}

#[test]
fn cache_copies_evict_before_produced_frames_spill() {
    let sim = Sim::new(0);
    let spec = StagingSpec {
        budget_bytes: 192 * KIB,
        low_watermark: 0.4,
        high_watermark: 0.8,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, true);
    let mgr = rig.mgr.clone();
    let fs = rig.fs.clone();
    mgr.register_consumer("/dyad/frames", "c0");
    mgr.spawn_evictor();
    {
        let mgr = mgr.clone();
        let fs = fs.clone();
        sim.spawn(async move {
            // An old consumer-side cache copy, then produced frames.
            fs.mkdir_p("/dyad/cache").await.unwrap();
            let fd = fs.create("/dyad/cache/r0").await.unwrap();
            fs.write_bytes(fd, Bytes::from(vec![1u8; 64 * KIB as usize]))
                .await
                .unwrap();
            fs.close(fd).await.unwrap();
            mgr.cache_inserted("/dyad/cache/r0", 64 * KIB);
            produce(&rig, "/dyad/frames/f0", 64 * KIB).await;
            produce(&rig, "/dyad/frames/f1", 64 * KIB).await;
        });
    }
    run_for(&sim, 5);
    let st = mgr.stats();
    assert!(st.cache_evictions >= 1, "cache copy not evicted");
    assert!(!fs.exists("/dyad/cache/r0"));
    // Dropping the cache copy brought usage to 128 KiB > low (76.8 KiB),
    // so the oldest produced frame spilled too — but never both produced
    // frames while the cache copy survived.
    assert!(fs.exists("/dyad/frames/f1"));
}

#[test]
fn retire_removes_kvs_metadata_and_acks() {
    let sim = Sim::new(0);
    let spec = StagingSpec {
        // The one 16 KiB frame sits above the low watermark (14 KiB).
        budget_bytes: 20 * KIB,
        ..StagingSpec::default()
    };
    let rig = setup(&sim, spec, false);
    let mgr = rig.mgr.clone();
    let kvs = rig.kvs.clone();
    mgr.register_consumer("/dyad/frames", "c0");
    mgr.spawn_evictor();
    {
        let mgr = mgr.clone();
        sim.spawn(async move {
            produce(&rig, "/dyad/frames/f0", 16 * KIB).await;
            mgr.publish_ack("/dyad/frames/f0", "c0").await;
        });
    }
    run_for(&sim, 3);
    let h = sim.spawn(async move {
        let meta = kvs.lookup("/dyad/frames/f0").await;
        let ack = kvs.lookup(&ack_key("/dyad/frames/f0", "c0")).await;
        (meta.is_none(), ack.is_none())
    });
    run_for(&sim, 5);
    assert_eq!(h.try_take().unwrap(), (true, true));
}

/// A rig whose one 32 KiB frame sits above the low watermark (28 KiB of
/// a 40 KiB budget), with a fault board attached, and a PFS if `with_pfs`.
fn faulted_rig(sim: &Sim, with_pfs: bool) -> (Rig, faults::FaultBoard) {
    let spec = StagingSpec {
        budget_bytes: 40 * KIB,
        ..StagingSpec::default()
    };
    let rig = setup(sim, spec, with_pfs);
    let board = faults::FaultBoard::new(&sim.ctx(), 3, 0);
    rig.tp.set_faults(board.clone());
    rig.mgr.register_consumer("/dyad/frames", "c0");
    (rig, board)
}

/// [`faulted_rig`] without a PFS; `crash_broker` takes node 0 (manager
/// and broker) off the fabric for 200 ms, `after` from the call — far
/// longer than the evictor's metadata RPCs retry.
fn outage_rig(sim: &Sim) -> (Rig, impl Fn(SimDuration)) {
    use faults::{FaultEvent, FaultKind, FaultPlan};
    let (rig, board) = faulted_rig(sim, false);
    let crash_broker = move |after| {
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: after,
            kind: FaultKind::NodeCrash {
                node: 0,
                down_for: SimDuration::from_millis(200),
            },
        }]))
    };
    (rig, crash_broker)
}

/// Open a window of `len` in which every KVS op fails and the PFS still
/// answers: each broker answers 30 ms late, past the client's 20 ms
/// attempt timeout. (A crash of node 0 would cut its PFS traffic too.)
fn slow_brokers(board: &faults::FaultBoard, len: SimDuration) {
    use faults::{FaultEvent, FaultKind, FaultPlan};
    board.arm(&FaultPlan::scheduled(vec![FaultEvent {
        at: SimDuration::ZERO,
        kind: FaultKind::KvsDelay {
            delay: SimDuration::from_millis(30),
            duration: len,
        },
    }]));
}

/// A spill whose republish fails keeps its PFS copy: two passes inside
/// the window create the spill file once, and the pass after it only
/// republishes — the frame ends spilled, its copy whole.
#[test]
fn a_spill_whose_republish_fails_is_copied_once() {
    let sim = Sim::new(0);
    let (rig, board) = faulted_rig(&sim, true);
    let (path, ctx) = ("/dyad/frames/f0", sim.ctx());
    let h = sim.spawn(async move {
        produce(&rig, path, 32 * KIB).await;
        slow_brokers(&board, SimDuration::from_secs(2));
        ctx.sleep(SimDuration::from_millis(1)).await;
        let pfs = rig.pfs.as_ref().unwrap();
        for _ in 0..2 {
            rig.mgr.evict_pass().await;
            assert_eq!(rig.mgr.frame_state(path), Some(FrameState::Published));
            assert!(rig.fs.exists(path));
        }
        assert!(board.kvs_delay().is_some(), "both passes ran in the window");
        assert_eq!(
            pfs.mds().stats().creates,
            1,
            "the spill copy is written once"
        );
        ctx.sleep(SimDuration::from_secs(2)).await;
        rig.mgr.evict_pass().await;
        assert_eq!(rig.mgr.frame_state(path), Some(FrameState::Spilled));
        assert!(!rig.fs.exists(path));
        assert_eq!(pfs.mds().stats().creates, 1);
        let reader = pfs.client(&ctx, NodeId(0));
        let fd = reader.open(&spill_path(path)).await.unwrap();
        let data = reader.read_segments(fd).await.unwrap();
        reader.close(fd).await.unwrap();
        transport::payload_len(&data)
    });
    run_for(&sim, 10);
    assert_eq!(h.try_take(), Some(32 * KIB), "the spill copy is whole");
}

/// A frame acked after its spill copy was written, but before the copy
/// was republished, retires from NVMe and takes the PFS copy with it.
#[test]
fn retiring_a_frame_unlinks_a_spill_copy_its_republish_left() {
    let sim = Sim::new(0);
    let (rig, board) = faulted_rig(&sim, true);
    let (path, ctx) = ("/dyad/frames/f0", sim.ctx());
    let h = sim.spawn(async move {
        produce(&rig, path, 32 * KIB).await;
        rig.mgr.try_publish_ack(path, "c0").await.unwrap();
        slow_brokers(&board, SimDuration::from_secs(1));
        ctx.sleep(SimDuration::from_millis(1)).await;
        // The acks cannot be read, so the pass spills; the republish fails.
        rig.mgr.evict_pass().await;
        let pfs = rig.pfs.as_ref().unwrap();
        assert_eq!(pfs.mds().stats().creates, 1);
        assert_eq!(rig.mgr.frame_state(path), Some(FrameState::Published));
        ctx.sleep(SimDuration::from_secs(1)).await;
        rig.mgr.evict_pass().await;
        assert_eq!(rig.mgr.stats().retired_frames, 1);
        assert!(!rig.fs.exists(path));
        assert_eq!(pfs.mds().stats().unlinks, 1, "the spill copy is unlinked");
        let reader = pfs.client(&ctx, NodeId(0));
        reader.open(&spill_path(path)).await.is_err()
    });
    run_for(&sim, 10);
    assert_eq!(h.try_take(), Some(true), "the spill copy is gone");
}

#[test]
fn evict_pass_inside_a_broker_outage_leaves_the_frame_for_the_next_pass() {
    let sim = Sim::new(0);
    let (rig, crash_broker) = outage_rig(&sim);
    let (path, ctx) = ("/dyad/frames/f0", sim.ctx());
    let h = sim.spawn(async move {
        produce(&rig, path, 32 * KIB).await;
        rig.mgr.try_publish_ack(path, "c0").await.unwrap();
        crash_broker(SimDuration::ZERO);
        ctx.sleep(SimDuration::from_millis(1)).await;
        // Inside the window the acks cannot be read: nothing is touched.
        rig.mgr.evict_pass().await;
        assert_eq!(rig.mgr.stats().retired_frames, 0);
        assert_eq!(rig.mgr.frame_state(path), Some(FrameState::Published));
        assert!(rig.fs.exists(path));
        ctx.sleep(SimDuration::from_millis(300)).await;
        rig.mgr.evict_pass().await;
        assert_eq!(rig.mgr.stats().retired_frames, 1);
        assert_eq!(rig.mgr.stats().frames_lost, 0);
        assert!(!rig.fs.exists(path));
        assert!(rig.kvs.try_lookup(path).await.unwrap().is_none());
    });
    run_for(&sim, 2);
    h.try_take().expect("evict pass hung");
}

#[test]
fn outage_between_ack_count_and_retire_defers_only_the_kvs_keys() {
    let sim = Sim::new(0);
    let (rig, crash_broker) = outage_rig(&sim);
    let (path, ack, ctx) = (
        "/dyad/frames/f0",
        ack_key("/dyad/frames/f0", "c0"),
        sim.ctx(),
    );
    let h = sim.spawn(async move {
        produce(&rig, path, 32 * KIB).await;
        rig.mgr.try_publish_ack(path, "c0").await.unwrap();
        // Time the pass's ack lookup on a twin key, then open the window
        // right behind it: the pass sees every ack, drops the data copy,
        // and finds the broker gone when it turns to the KVS keys.
        let t0 = ctx.now();
        rig.kvs.try_lookup(&ack).await.unwrap();
        crash_broker(ctx.now() - t0 + SimDuration::from_nanos(1));
        rig.mgr.evict_pass().await;
        assert_eq!(rig.mgr.stats().retired_frames, 1);
        assert_eq!(rig.mgr.stats().staged_bytes, 0);
        assert!(!rig.fs.exists(path));
        ctx.sleep(SimDuration::from_millis(300)).await;
        assert!(rig.kvs.try_lookup(path).await.unwrap().is_some());
        // The next pass, window closed, finishes the job.
        rig.mgr.evict_pass().await;
        assert!(rig.kvs.try_lookup(path).await.unwrap().is_none());
        assert!(rig.kvs.try_lookup(&ack).await.unwrap().is_none());
        assert_eq!(rig.mgr.stats().retired_frames, 1);
    });
    run_for(&sim, 2);
    h.try_take().expect("evict pass hung");
}

#[test]
fn determinism_same_seed_same_eviction_history() {
    fn one_run(seed: u64) -> (u64, u64, Vec<String>) {
        let sim = Sim::new(seed);
        let spec = StagingSpec {
            budget_bytes: 256 * KIB,
            low_watermark: 0.4,
            high_watermark: 0.8,
            ..StagingSpec::default()
        };
        let rig = setup(&sim, spec, true);
        let mgr = rig.mgr.clone();
        mgr.register_consumer("/dyad/frames", "c0");
        mgr.spawn_evictor();
        {
            let mgr = mgr.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                for i in 0..10 {
                    produce(&rig, &format!("/dyad/frames/f{i}"), 48 * KIB).await;
                    if i % 2 == 0 {
                        mgr.publish_ack(&format!("/dyad/frames/f{i}"), "c0").await;
                    }
                    ctx.sleep(SimDuration::from_millis(150)).await;
                }
            });
        }
        run_for(&sim, 10);
        let st = mgr.stats();
        (
            st.retired_frames,
            st.spilled_frames,
            mgr.retire_log().into_iter().map(|r| r.path).collect(),
        )
    }
    assert_eq!(one_run(7), one_run(7));
    let (r42, s42, _) = one_run(42);
    assert!(r42 > 0 || s42 > 0, "scenario exercised no eviction");
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn eviction_never_precedes_full_acks(
            seed in 0u64..200,
            acked_mask in 0u16..1024,
            budget_frames in 2u64..6,
        ) {
            let sim = Sim::new(seed);
            let frame = 32 * KIB;
            let spec = StagingSpec {
                budget_bytes: budget_frames * frame,
                low_watermark: 0.4,
                high_watermark: 0.8,
                ..StagingSpec::default()
            };
            let rig = setup(&sim, spec, true);
            let mgr = rig.mgr.clone();
            mgr.register_consumer("/dyad/frames", "c0");
            mgr.register_consumer("/dyad/frames", "c1");
            mgr.spawn_evictor();
            {
                let mgr = mgr.clone();
                let ctx = sim.ctx();
                sim.spawn(async move {
                    for i in 0..10u32 {
                        produce(&rig, &format!("/dyad/frames/f{i}"), frame).await;
                        if acked_mask & (1 << i) != 0 {
                            mgr.publish_ack(&format!("/dyad/frames/f{i}"), "c0").await;
                            mgr.publish_ack(&format!("/dyad/frames/f{i}"), "c1").await;
                        }
                        ctx.sleep(SimDuration::from_millis(100)).await;
                    }
                });
            }
            run_for(&sim, 10);
            // The invariant: every retirement saw every required ack.
            for r in mgr.retire_log() {
                prop_assert!(r.acks_seen == r.required_acks,
                    "premature retire of {}", &r.path);
                prop_assert!(r.required_acks > 0);
            }
            // And no retired frame was one we never acked.
            for r in mgr.retire_log() {
                let idx: u32 = r.path.rsplit('f').next().unwrap().parse().unwrap();
                prop_assert!(acked_mask & (1 << idx) != 0,
                    "retired unacked frame {}", &r.path);
            }
        }
    }
}
