//! Leaf/spine sends on the scale workload's fabric (radix 32, 2:1
//! oversubscribed): 128 nodes on 4 leaves, every send crossing the
//! spine, on a calendar sharded the way the runner shards it.

use std::time::Instant;

use cluster::{Cluster, ClusterSpec, FabricSpec, NodeId, NodeSpec, TopologySpec};
use simcore::{Sim, SimConfig};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "cluster.fabric_leafspine_ns_per_send",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const NODES: u32 = 128;
const RADIX: u32 = 32;
const SENDS_PER_NODE: u64 = 25;

fn batch() -> Sample {
    let fabric_spec = FabricSpec::infiniband_qdr().with_topology(TopologySpec::LeafSpine {
        radix: RADIX,
        oversubscription: 2.0,
    });
    let sim = Sim::with_config(
        SimConfig::new(0)
            .with_shards(fabric_spec.shard_count(NODES as usize))
            .with_lookahead(fabric_spec.shard_lookahead()),
    );
    let ctx = sim.ctx();
    let spec = ClusterSpec::homogeneous(NODES as usize, NodeSpec::corona(), fabric_spec);
    let cluster = Cluster::build(&ctx, &spec);
    for n in 0..NODES {
        let fabric = cluster.fabric().clone();
        let shard = fabric_spec.shard_of(NodeId(n), NODES as usize);
        ctx.spawn_on(shard, async move {
            for _ in 0..SENDS_PER_NODE {
                // The same port on the next leaf: always cross-leaf.
                fabric
                    .send(NodeId(n), NodeId((n + RADIX) % NODES), 64 << 10)
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
