//! Bytes of the retrying RPC futures as the layers above hold them.
//!
//! A KVS operation awaits `rpc_retrying`'s future at the control message
//! type and a staged fetch at the bulk one — two instantiations of one
//! body; every role task block above them is as large as its deepest
//! await chain, so a byte added here is paid once per role per pair. `crates/core/tests/footprint.rs` names the role that
//! grew; this names the layer. Each budget is the size measured when it
//! was set (rustc 1.95, x86-64, release) plus at most 32 B.

use std::mem::size_of_val;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use faults::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::Sim;
use transport::{AmId, Bulk, Transport, TransportSpec};

#[test]
fn retrying_rpc_futures_stay_within_budget() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let ep = tp.endpoint(NodeId(0));
    let policy = RetryPolicy::transport_default();
    let mut rng = StdRng::seed_from_u64(0);
    // Built and dropped un-polled: nothing is sent.
    let control =
        size_of_val(&ep.rpc_retrying(NodeId(1), AmId(1), Bytes::new(), &policy, &mut rng));
    let bulk: Bulk = (Bytes::new(), Vec::new());
    let bulk = size_of_val(&ep.rpc_retrying(NodeId(1), AmId(1), bulk, &policy, &mut rng));
    let mut over = Vec::new();
    for (layer, size, budget) in [
        ("Endpoint::rpc_retrying::<Bytes>", control, 368),
        ("Endpoint::rpc_retrying::<Bulk>", bulk, 440),
    ] {
        println!("{layer}: {size} B (budget {budget} B)");
        if size > budget {
            over.push(format!("{layer}: {size} B > budget {budget} B"));
        }
    }
    assert!(over.is_empty(), "layer futures grew:\n{}", over.join("\n"));
}
