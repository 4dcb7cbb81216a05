//! Bytes of the KVS client's futures as the layers above hold them.
//!
//! A DYAD put awaits `try_commit`'s future and a cold get
//! `try_wait_key`'s; every role task block above them is as large as its
//! deepest await chain, so a byte added here is paid once per role per
//! pair. `crates/core/tests/footprint.rs` names the role that grew; this
//! names the layer. Each budget is the size measured when it was set
//! (rustc 1.95, x86-64, release) plus at most 32 B.

use std::mem::size_of_val;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use kvs::{KvsClient, KvsSpec};
use simcore::Sim;
use transport::{Transport, TransportSpec};

#[test]
fn client_futures_stay_within_budget() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let kvs = KvsClient::new(&ctx, &tp, NodeId(0), NodeId(1), KvsSpec::default());
    // Built and dropped un-polled: nothing is sent.
    let commit = size_of_val(&kvs.try_commit("k", Bytes::new()));
    let wait = size_of_val(&kvs.try_wait_key("k"));
    let mut over = Vec::new();
    for (layer, size, budget) in [
        ("KvsClient::try_commit", commit, 584),
        ("KvsClient::try_wait_key", wait, 544),
    ] {
        println!("{layer}: {size} B (budget {budget} B)");
        if size > budget {
            over.push(format!("{layer}: {size} B > budget {budget} B"));
        }
    }
    assert!(over.is_empty(), "layer futures grew:\n{}", over.join("\n"));
}
