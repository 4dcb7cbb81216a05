//! Bytes of the PFS client's read future as the layers above hold it.
//!
//! The DYAD-over-PFS and Lustre consumers await `read_segments`'s future,
//! and so does a staged get that falls back to a spilled frame's PFS
//! copy; every role task block above it is as large as its deepest await
//! chain, so a byte added here is paid once per role per pair.
//! `crates/core/tests/footprint.rs` names the role that grew; this names
//! the layer. The budget is the size measured when it was set (rustc
//! 1.95, x86-64, release) plus at most 32 B.

use std::mem::size_of_val;

use cluster::{Cluster, ClusterSpec, NodeId};
use pfs::{ParallelFs, PfsSpec};
use simcore::Sim;
use transport::{Transport, TransportSpec};

#[test]
fn read_future_stays_within_budget() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(3));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let pfs = ParallelFs::start(&ctx, &tp, NodeId(1), vec![NodeId(2)], PfsSpec::default());
    let client = pfs.client(&ctx, NodeId(0));
    let creator = client.clone();
    let fd = sim.spawn(async move { creator.create("f").await.expect("create") });
    assert!(sim.run().is_clean());
    let fd = fd.try_take().expect("created");
    // Built and dropped un-polled: nothing is read.
    let read = size_of_val(&client.read_segments(fd));
    let budget = 568;
    println!("PfsClient::read_segments: {read} B (budget {budget} B)");
    assert!(
        read <= budget,
        "layer future grew: PfsClient::read_segments: {read} B > budget {budget} B"
    );
}
