//! Eager tag messaging: 1 KiB messages (below the 8 KiB rendezvous
//! threshold) between 8 sender/receiver node pairs.

use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use simcore::Sim;
use transport::{Tag, Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "transport.eager_ns_per_msg",
    per_sec: 1e9,
    events_metric: None,
    batch: || tag_messages(1 << 10),
};

const PAIRS: u32 = 8;
const MSGS_PER_PAIR: u64 = 200;

/// `PAIRS` senders on nodes `0..PAIRS` each stream `MSGS_PER_PAIR`
/// messages of `len` bytes to a receiver on node `PAIRS + i`. Shared
/// with the rendezvous probe, which differs only in `len`.
pub(super) fn tag_messages(len: usize) -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(2 * PAIRS as usize));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let payload = Bytes::from(vec![7u8; len]);
    for i in 0..PAIRS {
        let (src, dst) = (NodeId(i), NodeId(PAIRS + i));
        let tx = tp.endpoint(src);
        let rx = tp.endpoint(dst);
        let payload = payload.clone();
        sim.spawn(async move {
            for _ in 0..MSGS_PER_PAIR {
                tx.tag_send(dst, Tag(i as u64), payload.clone()).await;
            }
        });
        sim.spawn(async move {
            for _ in 0..MSGS_PER_PAIR {
                rx.tag_recv(Tag(i as u64)).await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (PAIRS as u64 * MSGS_PER_PAIR) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
