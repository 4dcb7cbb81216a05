//! Parked watches: 8 waiters each block on keys a committer publishes
//! later — DYAD's cold sync and the streaming window's ack watch.

use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use kvs::{KvsClient, KvsServer, KvsSpec};
use simcore::{Sim, SimDuration};
use transport::{Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "kvs.wait_wake_ns_per_op",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const WAITERS: u32 = 8;
const KEYS_PER_WAITER: u64 = 100;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(WAITERS as usize + 2));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let _server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
    for w in 0..WAITERS {
        let client = KvsClient::new(&ctx, &tp, NodeId(2 + w), NodeId(0), KvsSpec::default());
        sim.spawn(async move {
            for i in 0..KEYS_PER_WAITER {
                client.wait_key(&format!("/probe/w{w}/k{i}")).await;
            }
        });
    }
    let committer = KvsClient::new(&ctx, &tp, NodeId(1), NodeId(0), KvsSpec::default());
    let cctx = ctx.clone();
    sim.spawn(async move {
        for i in 0..KEYS_PER_WAITER {
            // Late enough that every waiter's watch for round i is parked.
            cctx.sleep(SimDuration::from_millis(1)).await;
            for w in 0..WAITERS {
                committer
                    .commit(&format!("/probe/w{w}/k{i}"), Bytes::from_static(b"v"))
                    .await;
            }
        }
    });
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (WAITERS as u64 * KEYS_PER_WAITER) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
