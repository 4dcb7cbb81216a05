//! Lustre-like data path: 8 clients each create, write, close, open,
//! read and unlink 644 KiB files against one MDS and 4 OSTs (quiet: no
//! interference processes, so the batch terminates on its own).

use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use pfs::{ParallelFs, PfsSpec};
use simcore::Sim;
use transport::{Transport, TransportSpec};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "pfs.write_read_ns_per_file",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const CLIENTS: u32 = 8;
const OSTS: u32 = 4;
const FILES_PER_CLIENT: u64 = 8;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona((CLIENTS + 1 + OSTS) as usize));
    let tp = Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default());
    let mds = NodeId(CLIENTS);
    let osts = (0..OSTS).map(|i| NodeId(CLIENTS + 1 + i)).collect();
    let fs = ParallelFs::start(&ctx, &tp, mds, osts, PfsSpec::default());
    let payload = Bytes::from(vec![7u8; 644 << 10]);
    for c in 0..CLIENTS {
        let client = fs.client(&ctx, NodeId(c));
        let payload = payload.clone();
        sim.spawn(async move {
            for i in 0..FILES_PER_CLIENT {
                let path = format!("/probe/c{c}/f{i}");
                let fd = client.create(&path).await.expect("create");
                client
                    .write_bytes(fd, payload.clone())
                    .await
                    .expect("write");
                client.close(fd).await.expect("close");
                let fd = client.open(&path).await.expect("open");
                client.read_segments(fd).await.expect("read");
                client.close(fd).await.expect("close");
                client.unlink(&path).await.expect("unlink");
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (CLIENTS as u64 * FILES_PER_CLIENT) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
