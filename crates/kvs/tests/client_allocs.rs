//! What the one routed client costs the allocator.
//!
//! The standalone-broker client is the one-shard case of the mesh
//! client, and that fold is only free if one shard does not pay for
//! routing it cannot use. Before the fold there were two client types,
//! measured with this harness: the single-broker one cost 2 / 2 / 7
//! calls per warm commit / lookup / parked wait and 2 to construct, the
//! mesh one 9 / 3 / 12 and 10 at 4 shards and R = 2 (4 / 3 / 10 and 4
//! at one shard). One shard may cost no more than the single-broker
//! client did; four shards cost less than the mesh client did — no
//! routing `Vec` per operation, one block per client whatever the
//! shard count.

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use kvs::{KvsClient, KvsMesh, KvsServer, KvsSpec};
use simcore::{Sim, SimDuration};
use transport::{Transport, TransportSpec};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, live_bytes};

const ROUNDS: usize = 100;
const SHARDS: u32 = 4;

fn transport(sim: &Sim) -> Transport {
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(SHARDS as usize + 2));
    Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default())
}

/// Allocator calls of building one client.
fn construction_cost(client: impl Fn(u32) -> KvsClient) -> u64 {
    let before = calls();
    let c = client(SHARDS);
    let cost = calls() - before;
    drop(c);
    cost
}

/// Allocator calls of the last of [`ROUNDS`] warm operations: a commit
/// and a lookup of a key both sides have seen, and a wait that parks
/// in the broker until a second client's commit wakes it (that commit
/// included — it runs inside the wait).
fn warm_costs(sim: &Sim, client: impl Fn(u32) -> KvsClient) -> (u64, u64, u64) {
    let c = client(SHARDS);
    let h = sim.spawn(async move {
        let (mut commit, mut lookup) = (0, 0);
        for _ in 0..ROUNDS {
            let before = calls();
            c.try_commit("warm/key", Bytes::from_static(b"v"))
                .await
                .unwrap();
            commit = calls() - before;
            let before = calls();
            c.try_lookup("warm/key").await.unwrap();
            lookup = calls() - before;
        }
        (commit, lookup)
    });
    assert!(sim.run().is_clean());
    let (commit, lookup) = h.try_take().expect("client finished");

    let (waiter, committer) = (client(SHARDS), client(SHARDS + 1));
    let ctx = sim.ctx();
    sim.spawn(async move {
        for _ in 0..ROUNDS {
            ctx.sleep(SimDuration::from_millis(1)).await;
            committer
                .try_commit("parked/key", Bytes::from_static(b"v"))
                .await
                .unwrap();
        }
    });
    let h = sim.spawn(async move {
        let mut wait = 0;
        for _ in 0..ROUNDS {
            let before = calls();
            waiter.try_wait_key("parked/key").await.unwrap();
            wait = calls() - before;
            waiter.try_unlink("parked/key").await.unwrap();
        }
        wait
    });
    assert!(sim.run().is_clean());
    (commit, lookup, h.try_take().expect("waiter finished"))
}

#[test]
fn one_shard_costs_no_more_than_the_single_broker_client_did() {
    let sim = Sim::new(0);
    let tp = transport(&sim);
    let ctx = sim.ctx();
    let spec = KvsSpec::default();
    let server = KvsServer::start(&ctx, &tp, NodeId(0), spec);
    let standalone = |n: u32| KvsClient::new(&ctx, &tp, NodeId(n), server.node(), spec);
    assert!(
        construction_cost(standalone) <= 1,
        "a one-shard client is more than one block"
    );
    let (commit, lookup, parked_wait) = warm_costs(&sim, standalone);
    assert!(
        commit <= 2 && lookup <= 2 && parked_wait <= 7,
        "warm commit / lookup / parked wait: {commit} / {lookup} / {parked_wait}"
    );

    // The same client by the other constructor.
    let sim = Sim::new(0);
    let tp = transport(&sim);
    let ctx = sim.ctx();
    let mesh = KvsMesh::start(&ctx, &tp, &[NodeId(0)], spec, 1);
    let meshed = |n: u32| mesh.client(&ctx, &tp, NodeId(n));
    assert_eq!(construction_cost(standalone), construction_cost(meshed));
    assert_eq!(warm_costs(&sim, meshed), (commit, lookup, parked_wait));
}

#[test]
fn four_replicated_shards_route_without_allocating() {
    let sim = Sim::new(0);
    let tp = transport(&sim);
    let ctx = sim.ctx();
    let shard_nodes: Vec<NodeId> = (0..SHARDS).map(NodeId).collect();
    let mesh = KvsMesh::start(&ctx, &tp, &shard_nodes, KvsSpec::default(), 2);
    let meshed = |n: u32| mesh.client(&ctx, &tp, NodeId(n));
    assert!(
        construction_cost(meshed) <= 1,
        "a client's blocks grow with the shard count"
    );
    let (commit, lookup, parked_wait) = warm_costs(&sim, meshed);
    // Each operation one fewer than through the mesh client: the
    // preference `Vec`. A replicated commit saves a second shard-side,
    // where `replicate` walks the same order, and the parked wait holds
    // a wait and the commit that wakes it.
    assert!(
        commit <= 7 && lookup <= 2 && parked_wait <= 9,
        "warm commit / lookup / parked wait: {commit} / {lookup} / {parked_wait}"
    );
}

/// A client keeps no per-key state. After a warm-up, looking up 1,000
/// keys the broker already holds leaves this thread's live heap where it
/// was; a read cache would keep an entry per key there, and the response
/// buffer each cached value shared.
#[test]
fn warm_lookups_leave_the_client_heap_unchanged() {
    const KEYS: usize = 1_000;
    let sim = Sim::new(0);
    let tp = transport(&sim);
    let ctx = sim.ctx();
    let spec = KvsSpec::default();
    let server = KvsServer::start(&ctx, &tp, NodeId(0), spec);
    let committer = KvsClient::new(&ctx, &tp, NodeId(2), server.node(), spec);
    let reader = KvsClient::new(&ctx, &tp, NodeId(1), server.node(), spec);
    let keys: Vec<String> = (0..KEYS).map(|i| format!("frames/p{i:04}/f0")).collect();
    let h = sim.spawn(async move {
        for key in &keys {
            committer.commit(key, Bytes::from_static(b"meta")).await;
        }
        for key in &keys[..8] {
            reader.lookup(key).await.expect("committed");
        }
        let before = live_bytes();
        for key in &keys {
            reader.lookup(key).await.expect("committed");
        }
        live_bytes() - before
    });
    assert!(sim.run().is_clean());
    let grown = h.try_take().expect("reader finished");
    assert_eq!(grown, 0, "{KEYS} warm lookups left {grown} bytes behind");
}
