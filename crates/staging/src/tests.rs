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
    let dir = path.rsplit_once('/').map(|(d, _)| d).unwrap_or("/");
    rig.fs.mkdir_p(dir).await.unwrap();
    let fd = rig.fs.create(path).await.unwrap();
    rig.fs
        .write_bytes(fd, Bytes::from(vec![7u8; size as usize]))
        .await
        .unwrap();
    rig.fs.close(fd).await.unwrap();
    let meta = FrameMeta {
        owner: NodeId(0),
        size,
        location: FrameLocation::Nvme,
    };
    rig.mgr.frame_written(path, size);
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
/// a 40 KiB budget), with a fault board attached; `crash_broker` takes
/// node 0 (manager and broker) off the fabric for 200 ms, `after` from
/// the call — far longer than the evictor's metadata RPCs retry.
fn outage_rig(sim: &Sim) -> (Rig, impl Fn(SimDuration)) {
    use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
    let spec = StagingSpec {
        budget_bytes: 40 * KIB,
        ..StagingSpec::default()
    };
    let rig = setup(sim, spec, false);
    let board = FaultBoard::new(&sim.ctx(), 3, 0);
    rig.tp.set_faults(board.clone());
    rig.mgr.register_consumer("/dyad/frames", "c0");
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
