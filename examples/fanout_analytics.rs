//! Fan-out workflows — the "more diverse set of workflows" the paper's
//! conclusion points to as future work. One MD producer publishes each
//! frame once through DYAD; N analytics consumers on different nodes
//! each fetch it independently (monitoring + reduction + visualization
//! pipelines of §II-B). DYAD needs no extra coordination: the KVS entry
//! is published once and every consumer synchronizes against it.
//!
//! ```sh
//! cargo run --release --example fanout_analytics
//! ```

use std::rc::Rc;

use cluster::{Cluster, ClusterSpec, NodeId};
use dyad::{DyadService, DyadSpec};
use instrument::Recorder;
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::{LocalFs, LocalFsSpec};
use mdsim::{FrameTemplate, Model};
use simcore::{Sim, SimDuration};
use thicket::{Ensemble, Query};
use transport::Transport;

const CONSUMERS: u32 = 3;
const FRAMES: u64 = 16;

fn main() {
    let sim = Sim::new(42);
    let ctx = sim.ctx();
    let n_nodes = 1 + CONSUMERS as usize;
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(n_nodes));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), Default::default());
    let _kvs = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let mk_svc = |node: u32| {
        let fs = LocalFs::new(
            &ctx,
            cluster.node(NodeId(node)).nvme.clone(),
            LocalFsSpec::default(),
        );
        let kc = KvsClient::new(&ctx, &tp, NodeId(node), NodeId(0), KvsSpec::default());
        DyadService::start(&ctx, &tp, NodeId(node), fs, kc, DyadSpec::default())
    };

    let template = Rc::new(FrameTemplate::generate(Model::ApoA1, 7));
    let period = SimDuration::from_millis(100);

    // The producer on node 0.
    let prod_svc = mk_svc(0);
    {
        let template = template.clone();
        let ctx2 = ctx.clone();
        let svc = prod_svc.clone();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx2);
            for frame in 0..FRAMES {
                ctx2.sleep(period).await;
                svc.produce(
                    &rec,
                    &format!("traj/f{frame}"),
                    template.frame_segments(frame),
                )
                .await;
            }
        });
    }

    // N independent consumers, one per remaining node, each with its own
    // analytics cadence.
    let mut handles = Vec::new();
    let mut services = Vec::new();
    for c in 0..CONSUMERS {
        let svc = mk_svc(1 + c);
        services.push(svc.clone());
        let template = template.clone();
        let ctx2 = ctx.clone();
        handles.push(sim.spawn(async move {
            let rec = Recorder::new(&ctx2);
            let mut session = svc.consumer();
            // Different analytics costs per consumer kind.
            let analytics = SimDuration::from_millis(40 + 30 * c as u64);
            for frame in 0..FRAMES {
                let data = session.consume(&rec, &format!("traj/f{frame}")).await;
                assert!(template.validate(&data, frame), "consumer {c} corrupted");
                ctx2.sleep(analytics).await;
            }
            rec.finish()
        }));
    }

    let report = sim.run();
    assert!(report.is_clean());
    println!(
        "fan-out complete: 1 producer → {CONSUMERS} consumers × {FRAMES} frames \
         in {:.2} simulated s\n",
        report.end_time.as_secs_f64()
    );
    println!("per-consumer consumption profile (Thicket aggregate):");
    let mut ens = Ensemble::new();
    for (c, h) in handles.into_iter().enumerate() {
        let profile = h.try_take().expect("consumer finished");
        let consume = profile.inclusive(&["dyad_consume"]).as_millis_f64();
        let fetch = profile
            .inclusive(&["dyad_consume", "dyad_fetch"])
            .as_millis_f64();
        println!("  consumer {c}: dyad_consume {consume:8.3} ms total (sync {fetch:7.3} ms)");
        ens.push(profile);
    }
    let agg = ens.aggregate();
    let q = Query::parse("dyad_consume/dyad_get_data");
    println!(
        "\nmean RDMA fetch time across consumers: {:.3} ms/run",
        agg.query_time(&q) * 1e3 / CONSUMERS as f64
    );
    // The producer served every consumer's fetches from its node-local
    // copy — one publish, N reads, no producer-side re-sends.
    let st = prod_svc.stats();
    println!(
        "producer stats: {} produces, {} fetches served (expected {})",
        st.puts,
        st.fetches_served,
        CONSUMERS as u64 * FRAMES
    );
    assert_eq!(st.fetches_served, CONSUMERS as u64 * FRAMES);
}
