//! Sharded, replicated KVS mesh (4 shards, R = 2, the spill workload's
//! plane): the commit/lookup loop of the single-broker probe, so the
//! difference between the two is the mesh.

use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use kvs::{KvsMesh, KvsSpec};
use simcore::Sim;
use transport::{Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "kvs.mesh_commit_lookup_ns_per_op",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const SHARDS: u32 = 4;
const CLIENTS: u32 = 8;
const KEYS_PER_CLIENT: u64 = 100;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona((SHARDS + CLIENTS) as usize));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let shard_nodes: Vec<NodeId> = (0..SHARDS).map(NodeId).collect();
    let mesh = KvsMesh::start(&ctx, &tp, &shard_nodes, KvsSpec::default(), 2);
    for c in 0..CLIENTS {
        let client = mesh.client(&ctx, &tp, NodeId(SHARDS + c));
        sim.spawn(async move {
            for i in 0..KEYS_PER_CLIENT {
                let key = format!("/probe/c{c}/k{i}");
                client.commit(&key, Bytes::from_static(b"v")).await;
                let _ = client.lookup(&key).await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (CLIENTS as u64 * KEYS_PER_CLIENT * 2) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
