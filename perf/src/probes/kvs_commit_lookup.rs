//! Single-broker KVS: 8 clients on other nodes each commit then look up
//! their own keys (one op = one commit or one lookup).

use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use kvs::{KvsClient, KvsServer, KvsSpec};
use simcore::Sim;
use transport::{Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "kvs.commit_lookup_ns_per_op",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const CLIENTS: u32 = 8;
const KEYS_PER_CLIENT: u64 = 100;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(CLIENTS as usize + 1));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let _server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    for c in 1..=CLIENTS {
        let client = KvsClient::new(&ctx, &tp, NodeId(c), NodeId(0), KvsSpec::default());
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
