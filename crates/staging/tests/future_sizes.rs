//! Bytes of the staged plane's put and get futures as the backends hold
//! them.
//!
//! DYAD's and streaming's roles await `Plane::put` and `Session::get`
//! through their own thin layers; every role task block above them is as
//! large as its deepest await chain, so a byte added here is paid once
//! per role per pair. `crates/core/tests/footprint.rs` names the role
//! that grew; this names the layer. Each budget is the size measured
//! when it was set (rustc 1.95, x86-64, release) plus at most 32 B.

use std::mem::size_of_val;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use instrument::Recorder;
use kvs::{KvsClient, KvsSpec};
use localfs::{LocalFs, LocalFsSpec};
use simcore::Sim;
use staging::plane::{Backend, Plane, PlaneSpec};
use transport::{AmId, Transport, TransportSpec};

/// A backend row of its own, so the test needs no backend crate.
const ROW: Backend = Backend {
    am: AmId(0x5445),
    managed_dir: "/test",
    rng_salt: 0x5445_0000,
    ack_unstaged: false,
    put: "put",
    put_idle: &[staging::plane::BACKPRESSURE],
    put_write: "put_write",
    put_commit: "put_commit",
    get: "get",
    get_flock: "get_flock",
    get_sync: "get_sync",
    get_data: "get_data",
    get_store: "get_store",
    get_pfs: "get_pfs",
};

#[test]
fn put_and_get_futures_stay_within_budget() {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::corona(2));
    let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
    let nvme = cl.node(NodeId(0)).nvme.clone();
    let fs = LocalFs::new(&ctx, nvme, LocalFsSpec::default());
    let kvs = KvsClient::new(&ctx, &tp, NodeId(0), NodeId(1), KvsSpec::default());
    let plane = Plane::start(
        &ctx,
        &tp,
        NodeId(0),
        fs,
        kvs,
        None,
        &ROW,
        PlaneSpec::default(),
    );
    let rec = Recorder::new(&ctx);
    let frame = [Bytes::new()];
    let mut session = plane.session("c0", false);
    // Built and dropped un-polled: nothing is written or read.
    let put = size_of_val(&plane.put(&rec, plane.managed_path("f"), &frame, None));
    let get = size_of_val(&session.get(&plane, &rec, "f"));
    let mut over = Vec::new();
    for (layer, size, budget) in [("Plane::put", put, 736), ("Session::get", get, 896)] {
        println!("{layer}: {size} B (budget {budget} B)");
        if size > budget {
            over.push(format!("{layer}: {size} B > budget {budget} B"));
        }
    }
    assert!(over.is_empty(), "layer futures grew:\n{}", over.join("\n"));
}
