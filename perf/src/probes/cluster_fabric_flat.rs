//! Flat-fabric sends: 16 nodes, every node streaming 64 KiB messages to
//! its neighbour, so only endpoint NICs contend.

use std::time::Instant;

use cluster::{Cluster, ClusterSpec, NodeId};
use simcore::Sim;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "cluster.fabric_flat_ns_per_send",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const NODES: u32 = 16;
const SENDS_PER_NODE: u64 = 200;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(NODES as usize));
    for n in 0..NODES {
        let fabric = cluster.fabric().clone();
        sim.spawn(async move {
            for _ in 0..SENDS_PER_NODE {
                fabric
                    .send(NodeId(n), NodeId((n + 1) % NODES), 64 << 10)
                    .await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (NODES as u64 * SENDS_PER_NODE) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
