//! Staged-frame lifecycle bookkeeping: admission check, track, publish
//! metadata, consumer ack — per frame, on a bounded manager whose budget
//! is never reached (no evictor, so no stall and no spill).

use std::time::Instant;

use cluster::{Cluster, ClusterSpec, NodeId};
use kvs::{KvsClient, KvsServer, KvsSpec};
use localfs::{LocalFs, LocalFsSpec};
use simcore::Sim;
use staging::{FrameLocation, FrameMeta, StagingManager, StagingSpec};
use transport::{Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "staging.admit_ack_ns_per_frame",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const FRAMES: u64 = 500;
const FRAME_BYTES: u64 = 644 << 10;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let _server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    let node = NodeId(1);
    let fs = LocalFs::new(
        &ctx,
        cluster.node(node).nvme.clone(),
        LocalFsSpec::default(),
    );
    let kvs = KvsClient::new(&ctx, &tp, node, NodeId(0), KvsSpec::default());
    let spec = StagingSpec {
        budget_bytes: 2 * FRAMES * FRAME_BYTES,
        ..StagingSpec::default()
    };
    let mgr = StagingManager::new(&ctx, node, fs, kvs.clone(), None, spec);
    mgr.register_consumer("/probe/", "c0");
    sim.spawn(async move {
        let meta = FrameMeta {
            owner: node,
            size: FRAME_BYTES,
            location: FrameLocation::Nvme,
        };
        for i in 0..FRAMES {
            let path = format!("/probe/f{i}");
            mgr.admit(FRAME_BYTES).await;
            mgr.frame_written(&path, FRAME_BYTES);
            kvs.commit(&path, meta.encode()).await;
            mgr.frame_published(&path);
            mgr.publish_ack(&path, "c0").await;
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
