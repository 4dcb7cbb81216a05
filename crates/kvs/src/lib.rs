//! # kvs — a Flux-KVS-like distributed key-value store
//!
//! DYAD publishes frame metadata through the Flux key-value store and
//! consumers block on key availability (`flux_kvs_wait`-style). This crate
//! reimplements the parts DYAD needs:
//!
//! * **brokers** ([`KvsServer`]), each one shard of a [`mesh`] of one or
//!   more: a versioned store (every commit bumps the shard's sequence
//!   number), a bounded pool of service threads, and **server-side
//!   watches** (a `WaitKey` RPC parks inside the broker until the key is
//!   committed). [`KvsServer::start`] is shard 0 of a one-shard mesh;
//!   [`KvsMesh::start`] starts any number, sharded by rendezvous hash and
//!   replicated by causal deltas;
//! * **one client** ([`KvsClient`]) on every node, whatever the shard
//!   count: it routes each operation to the first live shard of the
//!   key's preference order over the UCX-like [`transport`] layer and
//!   keeps no per-key state: every read is a round trip. Each op has
//!   one body, `try_*`, returning a typed error: under a fault board it
//!   retries through broker outages and fails over to replicas, and
//!   without one it is a single RPC that cannot fail —
//!   `commit`/`lookup`/`wait_key`/`unlink` are that case unwrapped, for
//!   callers that run without one.
//!
//! All costs are explicit: each operation pays the fabric round trip plus
//! broker service time on a FIFO server pool.

#![warn(missing_docs)]
// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

mod codec;
pub mod mesh;

pub use codec::{Request, Response};
use mesh::shard_for;
pub use mesh::KvsMesh;

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use faults::RetryPolicy;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::intern::{FxHashMap, Symbol};
use simcore::resource::FifoResource;
use simcore::sync::Notify;
use simcore::{Ctx, SimDuration};
use transport::{AmId, Endpoint, Transport, TransportError};

/// The AM id shard 0 listens on (shard `s` listens on `KVS_AM + s`).
pub(crate) const KVS_AM: AmId = AmId(0x4B56);

/// Broker tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct KvsSpec {
    /// Service time per operation on the broker.
    pub service_time: SimDuration,
    /// Parallel service threads in the broker.
    pub server_threads: u64,
    /// Client polling interval for [`KvsClient::try_wait_key_poll_counted`].
    pub poll_interval: SimDuration,
}

impl Default for KvsSpec {
    /// Flux-broker-like costs: ~20 µs per op, 4 service threads, 1 ms
    /// polling interval.
    fn default() -> Self {
        KvsSpec {
            service_time: SimDuration::from_micros(20),
            server_threads: 4,
            poll_interval: SimDuration::from_millis(1),
        }
    }
}

/// A value with the global version at which it was committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// Global KVS version of the commit.
    pub version: u64,
    /// Stored bytes.
    pub value: Bytes,
}

/// Counters exposed by the broker for tests and the Thicket analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvsStats {
    /// Commits applied.
    pub commits: u64,
    /// Lookup requests served (including misses).
    pub lookups: u64,
    /// WaitKey requests served.
    pub waits: u64,
    /// WaitKey requests that had to park (key absent on arrival).
    pub waits_parked: u64,
    /// Unlink requests served.
    pub unlinks: u64,
    /// Replication deltas shipped to peer shards.
    pub deltas_sent: u64,
    /// Replication deltas applied to this shard's store.
    pub deltas_applied: u64,
    /// Deltas that arrived out of causal order and had to buffer until
    /// their parents applied.
    pub deltas_buffered: u64,
    /// Peak number of requests simultaneously queued or in service on
    /// this broker (the metadata-plane congestion signal).
    pub peak_queue: u64,
}

pub(crate) struct Store {
    // Keys are interned once per request; per-frame publishes and waits
    // then hash a 4-byte symbol instead of re-hashing the full path.
    pub(crate) map: FxHashMap<Symbol, VersionedValue>,
    pub(crate) version: u64,
    pub(crate) watches: FxHashMap<Symbol, Notify>,
    pub(crate) stats: KvsStats,
    /// Set once by a `KvsShardCrash` fault: the shard answers every
    /// request (including parked waits, which are flushed) with
    /// [`Response::ShardDown`] from then on.
    pub(crate) down: bool,
    /// Requests queued or in service right now (feeds `peak_queue`).
    in_flight: u64,
    /// Per-key version vectors + out-of-order delta buffer (untouched
    /// at replication 1, where no delta is ever shipped or received).
    pub(crate) repl: mesh::CausalBuffer<Symbol>,
}

/// One broker shard: owns its store and services RPCs on its node.
pub struct KvsServer {
    node: NodeId,
    store: Rc<RefCell<Store>>,
}

impl KvsServer {
    /// Start a standalone broker on `node`: shard 0 of a one-shard
    /// mesh. It listens on `KVS_AM`, never replicates, and dies to a
    /// `KvsShardCrash { shard: 0 }` fault.
    pub fn start(ctx: &Ctx, tp: &Transport, node: NodeId, spec: KvsSpec) -> Rc<KvsServer> {
        let topo = Rc::new(mesh::MeshTopology::new(vec![node], 1));
        KvsServer::start_shard(ctx, tp, node, spec, 0, topo)
    }

    /// Start shard `shard` of the mesh `topo` describes. The shard
    /// listens on `KVS_AM + shard` and synchronously replicates every
    /// commit/unlink to the key's live replica set.
    pub(crate) fn start_shard(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        spec: KvsSpec,
        shard: u32,
        topo: Rc<mesh::MeshTopology>,
    ) -> Rc<KvsServer> {
        let store = Rc::new(RefCell::new(Store {
            map: FxHashMap::default(),
            version: 0,
            watches: FxHashMap::default(),
            stats: KvsStats::default(),
            down: false,
            in_flight: 0,
            repl: mesh::CausalBuffer::new(),
        }));
        let service = FifoResource::new(ctx, spec.server_threads);
        let server = Rc::new(KvsServer {
            node,
            store: store.clone(),
        });
        // A permanent shard crash: mark the store down and flush every
        // parked watch so in-flight waits observe `ShardDown` instead of
        // parking forever on a dead broker.
        if let Some(board) = tp.faults() {
            let hook_store = store.clone();
            board.on_kvs_shard_crash(move |crashed| {
                if crashed == shard {
                    let watches = {
                        let mut st = hook_store.borrow_mut();
                        st.down = true;
                        std::mem::take(&mut st.watches)
                    };
                    for notify in watches.values() {
                        notify.notify_all();
                    }
                }
            });
        }
        let handler_store = store;
        // Weak: a strong clone would cycle through the handler table and
        // leak the store (see `Transport::downgrade`).
        let handler_tp = tp.downgrade();
        let handler_ctx = ctx.clone();
        tp.register_am(
            node,
            mesh::shard_am(shard),
            Rc::new(move |raw: Bytes| {
                let store = handler_store.clone();
                let service = service.clone();
                let tp = handler_tp.upgrade();
                let ctx = handler_ctx.clone();
                let topo = topo.clone();
                async move {
                    {
                        let mut st = store.borrow_mut();
                        st.in_flight += 1;
                        st.stats.peak_queue = st.stats.peak_queue.max(st.in_flight);
                    }
                    // Queue for a broker thread.
                    service.request(spec.service_time).await;
                    // Injected broker slowness (fault window): every op
                    // pays the extra delay while the window is open. With
                    // no board or no window this adds nothing.
                    if let Some(board) = tp.faults() {
                        if let Some(d) = board.kvs_delay() {
                            ctx.sleep(d).await;
                        }
                    }
                    let req = Request::decode(raw);
                    let resp = if store.borrow().down {
                        Response::ShardDown
                    } else {
                        mesh::serve(&store, shard, &topo, &tp, req).await
                    };
                    store.borrow_mut().in_flight -= 1;
                    resp.encode()
                }
            }),
        );
        server
    }

    /// The node the broker runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Operation counters.
    pub fn stats(&self) -> KvsStats {
        self.store.borrow().stats
    }
}

/// One shard as a client sees it: where its broker lives, and the
/// retry-jitter stream private to this connection.
struct Conn {
    broker: NodeId,
    rng: RefCell<StdRng>,
}

/// A client handle bound to one node: routes every operation to the
/// owning shard of the key and fails over down the preference order
/// when shards die. A client of a standalone broker is the one-shard
/// case of the same type.
#[derive(Clone)]
pub struct KvsClient {
    ctx: Ctx,
    ep: Endpoint,
    spec: KvsSpec,
    retry: RetryPolicy,
    /// Retry policy for server-side waits: same backoff, but no
    /// per-attempt timeout (the RPC legitimately parks in the broker
    /// until the key is committed).
    wait_retry: RetryPolicy,
    replication: u32,
    /// Connection `s` talks to shard `s`. The client's one allocation:
    /// a run creates two clients per node, so each extra block here is
    /// tens of thousands of allocator calls at scale.
    conns: Rc<[Conn]>,
}

impl KvsClient {
    /// Create a client on `node` talking to the standalone broker on
    /// `broker`.
    pub fn new(ctx: &Ctx, tp: &Transport, node: NodeId, broker: NodeId, spec: KvsSpec) -> Self {
        KvsClient::routed(ctx, tp, node, &[broker], 1, spec)
    }

    /// Create a client on `node` for a mesh with shard `s` on
    /// `shard_nodes[s]`. The RNG stream is the same for every
    /// connection of a node: jitter draws are per connection, each
    /// forked only by the calls that shard receives.
    pub(crate) fn routed(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        shard_nodes: &[NodeId],
        replication: u32,
        spec: KvsSpec,
    ) -> Self {
        let retry = RetryPolicy::transport_default();
        let wait_retry = RetryPolicy {
            attempt_timeout: SimDuration::from_secs(86_400),
            ..retry
        };
        let conns = shard_nodes
            .iter()
            .map(|&broker| Conn {
                broker,
                rng: RefCell::new(ctx.rng(0x4B56_0000u64 | u64::from(node.0))),
            })
            .collect();
        KvsClient {
            ctx: ctx.clone(),
            ep: tp.endpoint(node),
            spec,
            retry,
            wait_retry,
            replication,
            conns,
        }
    }

    fn shards(&self) -> u32 {
        self.conns.len() as u32
    }

    fn conn(&self, shard: u32) -> &Conn {
        &self.conns[shard as usize]
    }

    /// Preference-order failover, the one body of every operation: one
    /// request/response exchange with the first live shard of `key`'s
    /// preference order that answers (the owner first). `encode` builds
    /// the request's wire bytes, once per shard tried.
    ///
    /// With no fault board attached every shard is live and the exchange
    /// is a single board-blind RPC to the owner that cannot fail: no
    /// jitter stream is forked and no timer armed. With one (read at
    /// call time — a board may be attached after the client was built),
    /// each live shard gets the full retry budget of `policy` through
    /// broker outages; a shard killed by `KvsShardCrash` is skipped, or
    /// answers `ShardDown` if it died mid-call, and the walk moves on.
    /// Errors only when every replica is exhausted or down.
    fn failover<'a>(
        &'a self,
        key: &'a str,
        policy: &'a RetryPolicy,
        encode: impl Fn() -> Bytes + 'a,
    ) -> impl Future<Output = Result<Response, TransportError>> + 'a {
        async move {
            let mut last = None;
            for shard in mesh::preference(key, self.shards(), self.replication) {
                let under_board = match self.ep.faults() {
                    Some(board) if !board.kvs_shard_up(shard) => continue,
                    board => board.is_some(),
                };
                let (conn, am) = (self.conn(shard), mesh::shard_am(shard));
                let req = encode();
                let answer = if under_board {
                    // Forked per call so no `RefCell` borrow is held across
                    // an await (clients are shared between tasks).
                    let mut rng = StdRng::seed_from_u64(conn.rng.borrow_mut().random());
                    self.ep
                        .rpc_retrying(conn.broker, am, req, policy, &mut rng)
                        .await
                } else {
                    Ok(self.ep.rpc(conn.broker, am, req).await)
                };
                match answer.map(Response::decode) {
                    Ok(Response::ShardDown) => {
                        last = Some(TransportError::Unreachable { node: conn.broker });
                    }
                    Ok(resp) => return Ok(resp),
                    Err(e) => last = Some(e),
                }
            }
            Err(last.unwrap_or_else(|| TransportError::Unreachable {
                node: self.conn(shard_for(key, self.shards())).broker,
            }))
        }
    }

    /// Commit `value` under `key` on its first live replica; returns
    /// that shard's new version. Commits are idempotent
    /// (last-writer-wins on the same key), so a retry after a lost reply
    /// is safe.
    pub fn try_commit<'a>(
        &'a self,
        key: &'a str,
        value: Bytes,
    ) -> impl Future<Output = Result<u64, TransportError>> + 'a {
        async move {
            let encode = || codec::encode_commit(key, &value);
            match self.failover(key, &self.retry, encode).await? {
                Response::Committed { version } => Ok(version),
                other => panic!("unexpected commit response {other:?}"),
            }
        }
    }

    /// Read `key` from its first live replica (always a round trip).
    pub fn try_lookup<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Future<Output = Result<Option<VersionedValue>, TransportError>> + 'a {
        async move {
            let encode = || codec::encode_keyed(codec::OP_LOOKUP, key);
            match self.failover(key, &self.retry, encode).await? {
                Response::Value { version, value } => Ok(Some(VersionedValue { version, value })),
                Response::NotFound => Ok(None),
                other => panic!("unexpected lookup response {other:?}"),
            }
        }
    }

    /// Block until `key` exists, using a **server-side watch**: one RPC
    /// that parks in the broker. This is DYAD's cold-path synchronization.
    /// Uses the wait policy (no per-attempt timeout), so only
    /// unreachability triggers a retry. A wait parked on a shard that
    /// then crashes is flushed with `ShardDown` and re-parked on the
    /// next live replica (which the synchronous replication protocol
    /// guarantees will see the commit).
    pub fn try_wait_key<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Future<Output = Result<VersionedValue, TransportError>> + 'a {
        async move {
            let encode = || codec::encode_keyed(codec::OP_WAIT, key);
            match self.failover(key, &self.wait_retry, encode).await? {
                Response::Value { version, value } => Ok(VersionedValue { version, value }),
                other => panic!("unexpected wait response {other:?}"),
            }
        }
    }

    /// Block until `key` exists by **client-side polling** every
    /// [`KvsSpec::poll_interval`] (the synchronization-protocol
    /// ablation). Each probe is a full [`KvsClient::try_lookup`], so
    /// retries and failover happen inside it and an error means the
    /// key's every replica failed. The poll count is reported on *both*
    /// exits — a wait that gave up still issued its RPCs.
    pub fn try_wait_key_poll_counted<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Future<Output = (Result<VersionedValue, TransportError>, u64)> + 'a {
        async move {
            let mut polls = 0;
            loop {
                polls += 1;
                match self.try_lookup(key).await {
                    Ok(Some(v)) => return (Ok(v), polls),
                    Ok(None) => {}
                    Err(e) => return (Err(e), polls),
                }
                self.ctx.sleep(self.spec.poll_interval).await;
            }
        }
    }

    /// Remove `key` on its first live replica.
    pub fn try_unlink<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Future<Output = Result<(), TransportError>> + 'a {
        async move {
            let encode = || codec::encode_keyed(codec::OP_UNLINK, key);
            self.failover(key, &self.retry, encode).await?;
            Ok(())
        }
    }

    /// [`KvsClient::try_commit`] for callers running without a fault board.
    pub fn commit<'a>(&'a self, key: &'a str, value: Bytes) -> impl Future<Output = u64> + 'a {
        async move {
            self.try_commit(key, value)
                .await
                .expect("commit cannot fail without a fault board")
        }
    }

    /// [`KvsClient::try_lookup`] for callers running without a fault board.
    pub fn lookup<'a>(&'a self, key: &'a str) -> impl Future<Output = Option<VersionedValue>> + 'a {
        async move {
            self.try_lookup(key)
                .await
                .expect("lookup cannot fail without a fault board")
        }
    }

    /// [`KvsClient::try_wait_key`] for callers running without a fault board.
    pub fn wait_key<'a>(&'a self, key: &'a str) -> impl Future<Output = VersionedValue> + 'a {
        async move {
            self.try_wait_key(key)
                .await
                .expect("wait_key cannot fail without a fault board")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use simcore::Sim;
    use transport::TransportSpec;

    struct Rig {
        tp: Transport,
        server: Rc<KvsServer>,
    }

    fn setup(sim: &Sim, nodes: usize) -> Rig {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(nodes));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
        Rig { tp, server }
    }

    fn client(sim: &Sim, rig: &Rig, node: u32) -> KvsClient {
        KvsClient::new(
            &sim.ctx(),
            &rig.tp,
            NodeId(node),
            NodeId(0),
            KvsSpec::default(),
        )
    }

    #[test]
    fn commit_then_lookup() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move {
            let v1 = c.commit("a", Bytes::from_static(b"1")).await;
            let v2 = c.commit("b", Bytes::from_static(b"2")).await;
            let got = c.lookup("a").await.unwrap();
            (v1, v2, got)
        });
        sim.run();
        let (v1, v2, got) = h.try_take().unwrap();
        assert_eq!(v1, 1);
        assert_eq!(v2, 2);
        assert_eq!(got.version, 1);
        assert_eq!(got.value, Bytes::from_static(b"1"));
        assert_eq!(rig.server.stats().commits, 2);
        assert_eq!(rig.server.stats().lookups, 1);
    }

    #[test]
    fn lookup_miss_returns_none() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move { c.lookup("missing").await });
        sim.run();
        assert_eq!(h.try_take().unwrap(), None);
    }

    #[test]
    fn wait_key_parks_until_commit() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 3);
        let consumer = client(&sim, &rig, 2);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let v = consumer.wait_key("frame0").await;
            (ctx.now().as_secs_f64(), v.value)
        });
        let producer = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(50)).await;
            producer.commit("frame0", Bytes::from_static(b"meta")).await;
        });
        sim.run();
        let (t, v) = h.try_take().unwrap();
        assert!(t >= 0.050, "woke at {t}");
        assert!(t < 0.051, "woke at {t}");
        assert_eq!(v, Bytes::from_static(b"meta"));
        assert_eq!(rig.server.stats().waits_parked, 1);
    }

    #[test]
    fn wait_key_returns_immediately_when_present() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            c.commit("k", Bytes::from_static(b"v")).await;
            let before = ctx.now();
            c.wait_key("k").await;
            (ctx.now() - before).micros()
        });
        sim.run();
        // One RPC round trip + service, no parking: well under 100 µs.
        let us = h.try_take().unwrap();
        assert!(us < 100, "took {us} µs");
        assert_eq!(rig.server.stats().waits_parked, 0);
    }

    #[test]
    fn polling_wait_counts_polls() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 3);
        let consumer = client(&sim, &rig, 2);
        let h = sim.spawn(async move { consumer.try_wait_key_poll_counted("x").await });
        let producer = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(10)).await;
            producer.commit("x", Bytes::from_static(b"y")).await;
        });
        sim.run();
        let (v, polls) = h.try_take().unwrap();
        assert_eq!(v.unwrap().value, Bytes::from_static(b"y"));
        // ~10 ms at 1 ms poll interval: about 10 polls.
        assert!((8..=13).contains(&polls), "{polls} polls");
    }

    #[test]
    fn unlink_removes_key() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move {
            c.commit("k", Bytes::from_static(b"v")).await;
            c.try_unlink("k").await.unwrap();
            c.lookup("k").await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), None);
        assert!(rig.server.store.borrow().map.is_empty());
    }

    #[test]
    fn versions_are_globally_monotone() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 3);
        let mut handles = Vec::new();
        for n in 1..3u32 {
            let c = client(&sim, &rig, n);
            handles.push(sim.spawn(async move {
                let mut versions = Vec::new();
                for i in 0..5 {
                    versions.push(c.commit(&format!("n{n}/k{i}"), Bytes::new()).await);
                }
                versions
            }));
        }
        sim.run();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.try_take().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (1..=10).collect::<Vec<u64>>());
        assert_eq!(rig.server.store.borrow().version, 10);
    }

    #[test]
    fn multiple_waiters_released_by_one_commit() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 4);
        let mut handles = Vec::new();
        for n in 1..4u32 {
            let c = client(&sim, &rig, n);
            handles.push(sim.spawn(async move { c.wait_key("shared").await.version }));
        }
        let p = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            p.commit("shared", Bytes::new()).await;
        });
        let report = sim.run();
        assert!(report.is_clean());
        for h in handles {
            assert_eq!(h.try_take().unwrap(), 1);
        }
    }

    #[test]
    fn kvs_delay_window_slows_lookups() {
        use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rig = setup(&sim, 2);
        let board = FaultBoard::new(&ctx, 2, 0);
        rig.tp.set_faults(board.clone());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::KvsDelay {
                delay: SimDuration::from_millis(5),
                duration: SimDuration::from_millis(50),
            },
        }]));
        let c = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let before = ctx.now();
            c.try_lookup("x").await.unwrap();
            let slow = ctx.now().since(before);
            ctx.sleep(SimDuration::from_millis(100)).await; // window over
            let before = ctx.now();
            c.try_lookup("x").await.unwrap();
            (slow, ctx.now().since(before))
        });
        assert!(sim.run().is_clean());
        let (slow, fast) = h.try_take().unwrap();
        assert!(slow >= SimDuration::from_millis(5), "slow={slow:?}");
        assert!(fast < SimDuration::from_millis(1), "fast={fast:?}");
    }

    #[test]
    fn commit_retries_through_broker_outage() {
        use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rig = setup(&sim, 2);
        let board = FaultBoard::new(&ctx, 2, 0);
        rig.tp.set_faults(board.clone());
        // Broker node down for 2 ms from t=0.
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 0,
                down_for: SimDuration::from_millis(2),
            },
        }]));
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move {
            let v = c.try_commit("k", Bytes::from_static(b"v")).await?;
            let got = c.try_lookup("k").await?;
            Ok::<_, transport::TransportError>((v, got))
        });
        assert!(sim.run().is_clean());
        let (v, got) = h.try_take().unwrap().unwrap();
        assert_eq!(v, 1);
        assert_eq!(got.unwrap().value, Bytes::from_static(b"v"));
        assert!(rig.tp.stats().rpc_retries >= 1);
    }
}
