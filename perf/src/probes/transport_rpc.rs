//! Control RPCs: 8 clients calling an echo handler on one server node.

use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use simcore::Sim;
use transport::{AmId, LocalBoxFuture, Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "transport.rpc_ns_per_call",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const CLIENTS: u32 = 8;
const CALLS_PER_CLIENT: u64 = 200;
const ECHO: AmId = AmId(0x7E57);

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(CLIENTS as usize + 1));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let server = NodeId(0);
    tp.register_am(
        server,
        ECHO,
        Rc::new(|req: Bytes| Box::pin(async move { req }) as LocalBoxFuture<Bytes>),
    );
    for c in 1..=CLIENTS {
        let ep = tp.endpoint(NodeId(c));
        sim.spawn(async move {
            for _ in 0..CALLS_PER_CLIENT {
                ep.rpc(server, ECHO, Bytes::from_static(b"ping")).await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (CLIENTS as u64 * CALLS_PER_CLIENT) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
