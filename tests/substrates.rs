//! Cross-crate substrate integration: compose the cluster, transport,
//! KVS, filesystems and DYAD by hand (without the mdflow harness) and
//! verify their interactions.

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use dyad::{DyadService, DyadSpec};
use instrument::Recorder;
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::{LocalFs, LocalFsSpec};
use mdsim::{Frame, FrameTemplate, Model};
use pfs::{ParallelFs, PfsSpec};
use simcore::{Sim, SimDuration};
use thicket::{Ensemble, Query};
use transport::{Transport, TransportSpec};

struct Rig {
    sim: Sim,
    tp: Transport,
    cluster: Cluster,
}

fn rig(nodes: usize) -> Rig {
    let sim = Sim::new(7);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(nodes));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    Rig { sim, tp, cluster }
}

#[test]
fn dyad_pipeline_profile_matches_figure9_structure() {
    let r = rig(3);
    let ctx = r.sim.ctx();
    let _kvs_srv = KvsServer::start(&ctx, &r.tp, NodeId(0), KvsSpec::default());
    let mk_svc = |node: u32| {
        let fs = LocalFs::new(
            &ctx,
            r.cluster.node(NodeId(node)).nvme.clone(),
            LocalFsSpec::default(),
        );
        let kc = KvsClient::new(&ctx, &r.tp, NodeId(node), NodeId(0), KvsSpec::default());
        DyadService::start(&ctx, &r.tp, NodeId(node), fs, kc, DyadSpec::default())
    };
    let prod = mk_svc(1);
    let cons = mk_svc(2);
    let ctx2 = ctx.clone();
    let h = r.sim.spawn(async move {
        let rec = Recorder::new(&ctx2);
        let template = FrameTemplate::generate(Model::Jac, 3);
        let mut session = cons.consumer();
        for i in 0..4u64 {
            prod.produce(&rec, &format!("t/{i}"), template.frame_segments(i))
                .await;
            let got = session.consume(&rec, &format!("t/{i}")).await;
            assert!(template.validate(&got, i));
        }
        rec.finish()
    });
    assert!(r.sim.run().is_clean());
    let profile = h.try_take().unwrap();
    // The Figure 9 tree: dyad_consume with fetch/get_data/store/read.
    let agg = Ensemble::from_profiles(vec![profile]).aggregate();
    for q in [
        "dyad_produce/dyad_prod_write",
        "dyad_produce/dyad_commit",
        "dyad_consume/dyad_fetch",
        "dyad_consume/dyad_get_data",
        "dyad_consume/dyad_cons_store",
        "dyad_consume/read_single_buf",
    ] {
        assert!(
            !agg.query(&Query::parse(q)).is_empty(),
            "missing call path {q}"
        );
    }
    // Movement dominated by storage/transfer, sync by the KVS region.
    let consume = agg.get(&["dyad_consume"]).unwrap().mean_inclusive;
    assert!(consume > 0.0);
}

#[test]
fn pfs_and_localfs_agree_on_content() {
    let r = rig(4);
    let ctx = r.sim.ctx();
    let pfs = ParallelFs::start(&ctx, &r.tp, NodeId(2), vec![NodeId(3)], PfsSpec::default());
    let local = LocalFs::new(
        &ctx,
        r.cluster.node(NodeId(0)).nvme.clone(),
        LocalFsSpec::default(),
    );
    let client = pfs.client(&ctx, NodeId(0));
    let template = FrameTemplate::generate(Model::ApoA1, 5);
    let payload = template.frame_segments(9);
    let expect = transport::flatten_payload(payload.clone());
    let expect2 = expect.clone();
    let h = r.sim.spawn(async move {
        // Write the same frame through both filesystems.
        let fd = local.create("/a").await.unwrap();
        for seg in payload.clone() {
            local.write_bytes(fd, seg).await.unwrap();
        }
        local.close(fd).await.unwrap();
        let fd = client.create("/a").await.unwrap();
        client.write_segments(fd, payload).await.unwrap();
        client.close(fd).await.unwrap();
        // Read back through both.
        let fd = local.open("/a").await.unwrap();
        let l = transport::flatten_payload(local.read_segments(fd).await.unwrap());
        local.close(fd).await.unwrap();
        let fd = client.open("/a").await.unwrap();
        let p = transport::flatten_payload(client.read_segments(fd).await.unwrap());
        client.close(fd).await.unwrap();
        (l, p)
    });
    assert!(r.sim.run().is_clean());
    let (l, p) = h.try_take().unwrap();
    assert_eq!(l, expect2);
    assert_eq!(p, expect);
    // Both decode to the same frame.
    let f1 = Frame::decode(l).unwrap();
    let f2 = Frame::decode(p).unwrap();
    assert_eq!(f1, f2);
    assert_eq!(f1.step, 9);
}

#[test]
fn kvs_watch_synchronizes_across_transport() {
    let r = rig(3);
    let ctx = r.sim.ctx();
    let srv = KvsServer::start(&ctx, &r.tp, NodeId(0), KvsSpec::default());
    let producer = KvsClient::new(&ctx, &r.tp, NodeId(1), NodeId(0), KvsSpec::default());
    let consumer = KvsClient::new(&ctx, &r.tp, NodeId(2), NodeId(0), KvsSpec::default());
    let ctx2 = ctx.clone();
    let h = r.sim.spawn(async move {
        let v = consumer.wait_key("sync/point").await;
        (ctx2.now().as_secs_f64(), v.value)
    });
    let ctx3 = ctx.clone();
    r.sim.spawn(async move {
        ctx3.sleep(SimDuration::from_millis(77)).await;
        producer
            .commit("sync/point", Bytes::from_static(b"go"))
            .await;
    });
    assert!(r.sim.run().is_clean());
    let (t, v) = h.try_take().unwrap();
    assert!((0.077..0.078).contains(&t), "woke at {t}");
    assert_eq!(v, Bytes::from_static(b"go"));
    assert_eq!(srv.stats().waits_parked, 1);
}

#[test]
fn nvme_contention_visible_through_localfs() {
    // Two filesystems on the SAME device contend; on different devices
    // they do not.
    fn elapsed(shared_device: bool) -> f64 {
        let r = rig(2);
        let ctx = r.sim.ctx();
        let dev0 = r.cluster.node(NodeId(0)).nvme.clone();
        let dev1 = if shared_device {
            dev0.clone()
        } else {
            r.cluster.node(NodeId(1)).nvme.clone()
        };
        let fs_a = LocalFs::new(&ctx, dev0, LocalFsSpec::default());
        let fs_b = LocalFs::new(&ctx, dev1, LocalFsSpec::default());
        for fs in [fs_a, fs_b] {
            r.sim.spawn(async move {
                let fd = fs.create("/x").await.unwrap();
                fs.write_bytes(fd, Bytes::from(vec![0u8; 30_000_000]))
                    .await
                    .unwrap();
                fs.close(fd).await.unwrap();
            });
        }
        let report = r.sim.run();
        assert!(report.is_clean());
        report.end_time.as_secs_f64()
    }
    let shared = elapsed(true);
    let separate = elapsed(false);
    assert!(
        shared > separate * 1.8,
        "device contention missing: shared {shared}s vs separate {separate}s"
    );
}
