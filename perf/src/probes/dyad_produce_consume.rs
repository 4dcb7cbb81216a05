//! DYAD end to end on two nodes: a producer publishes JAC frames, a
//! consumer on the other node syncs, fetches over the wire, stores and
//! reads them. Also reports simulated events per frame — the protocol's
//! event cost, which must not drift under a host-performance change.

use std::time::Instant;

use cluster::{Cluster, ClusterSpec, NodeId};
use dyad::{DyadService, DyadSpec};
use instrument::Recorder;
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::{LocalFs, LocalFsSpec};
use mdsim::{FrameTemplate, Model};
use simcore::Sim;
use transport::{Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "dyad.produce_consume_ns_per_frame",
    per_sec: 1e9,
    events_metric: Some("dyad.events_per_frame"),
    batch,
};

const FRAMES: u64 = 64;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let _server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let service = |n: u32| {
        let fs = LocalFs::new(
            &ctx,
            cluster.node(NodeId(n)).nvme.clone(),
            LocalFsSpec::default(),
        );
        let kvs = KvsClient::new(&ctx, &tp, NodeId(n), NodeId(0), KvsSpec::default());
        DyadService::start(&ctx, &tp, NodeId(n), fs, kvs, DyadSpec::default())
    };
    let (producer, consumer) = (service(0), service(1));
    let template = FrameTemplate::generate(Model::Jac, 5);
    let pctx = ctx.clone();
    sim.spawn(async move {
        let rec = Recorder::new(&pctx);
        for i in 0..FRAMES {
            let frame = template.frame_segments(i);
            producer.produce(&rec, &format!("p0/frame{i}"), frame).await;
        }
    });
    sim.spawn(async move {
        let rec = Recorder::new(&ctx);
        let mut consumer = consumer.consumer();
        for i in 0..FRAMES {
            consumer.consume(&rec, &format!("p0/frame{i}")).await;
        }
    });
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: FRAMES as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
