//! Streaming end to end, fan-out 4: one publisher, four broadcast
//! subscribers on other nodes, window 4, so window waits and ack
//! watches run. Also reports simulated events per step.

use std::time::Instant;

use cluster::{Cluster, ClusterSpec, NodeId};
use instrument::Recorder;
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::{LocalFs, LocalFsSpec};
use mdsim::{FrameTemplate, Model};
use simcore::Sim;
use streaming::{StreamAcker, StreamService, StreamSpec};
use transport::{Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "streaming.publish_consume_ns_per_step",
    per_sec: 1e9,
    events_metric: Some("streaming.events_per_step"),
    batch,
};

const FANOUT: u32 = 4;
const STEPS: u64 = 32;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(FANOUT as usize + 1));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let _server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let service = |n: u32| {
        let fs = LocalFs::new(
            &ctx,
            cluster.node(NodeId(n)).nvme.clone(),
            LocalFsSpec::default(),
        );
        let kvs = KvsClient::new(&ctx, &tp, NodeId(n), NodeId(0), KvsSpec::default());
        StreamService::start(&ctx, &tp, NodeId(n), fs, kvs, StreamSpec::default())
    };
    let ackers: Vec<StreamAcker> = (1..=FANOUT)
        .map(|n| StreamAcker {
            consumer: format!("s{n}"),
            node: n,
        })
        .collect();
    let publisher = service(0);
    let template = FrameTemplate::generate(Model::Jac, 5);
    let pctx = ctx.clone();
    let pub_ackers = ackers.clone();
    sim.spawn(async move {
        let rec = Recorder::new(&pctx);
        let mut publisher = publisher.publisher();
        for seq in 0..STEPS {
            let step = template.frame_segments(seq);
            publisher
                .publish(&rec, &format!("g0/step{seq}"), seq, step, &pub_ackers)
                .await;
        }
    });
    for acker in ackers {
        let svc = service(acker.node);
        let sctx = ctx.clone();
        sim.spawn(async move {
            let rec = Recorder::new(&sctx);
            let mut sub = svc.subscriber(&acker.consumer);
            for seq in 0..STEPS {
                sub.consume_step(&rec, &format!("g0/step{seq}")).await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: STEPS as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
