//! Bytes of DYAD's produce future as the producer role holds it.
//!
//! The DYAD producer (`workflow::staged_producer`) awaits
//! `try_produce`'s future under its recovery wrapper, so the role's task
//! block is at least this large, once per pair. `crates/core/tests/footprint.rs` names the role that grew; this
//! names the layer. The budget is the size measured when it was set
//! (rustc 1.95, x86-64, release) plus at most 32 B.

use std::mem::size_of_val;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use dyad::{DyadService, DyadSpec};
use instrument::Recorder;
use kvs::{KvsClient, KvsSpec};
use localfs::{LocalFs, LocalFsSpec};
use simcore::Sim;
use transport::{Transport, TransportSpec};

#[test]
fn produce_future_stays_within_budget() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let nvme = cl.node(NodeId(0)).nvme.clone();
    let fs = LocalFs::new(&ctx, nvme, LocalFsSpec::default());
    let kvs = KvsClient::new(&ctx, &tp, NodeId(0), NodeId(1), KvsSpec::default());
    let svc = DyadService::start(&ctx, &tp, NodeId(0), fs, kvs, DyadSpec::default());
    let rec = Recorder::new(&ctx);
    let frame = [Bytes::new()];
    // Built and dropped un-polled: nothing is written.
    let produce = size_of_val(&svc.try_produce(&rec, "f", &frame, None));
    let budget = 824;
    println!("DyadService::try_produce: {produce} B (budget {budget} B)");
    assert!(
        produce <= budget,
        "layer future grew: DyadService::try_produce: {produce} B > budget {budget} B"
    );
}
