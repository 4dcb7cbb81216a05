//! # kvs::mesh — a sharded, replicated metadata plane
//!
//! One broker is the protocol bottleneck and single point of failure of
//! the DYAD reproduction: every produce/consume funnels through one
//! FIFO service pool on one node. This module is the metadata plane at
//! any shard count — the standalone [`crate::KvsServer`] is the
//! one-shard, unreplicated case of it, not a second path:
//!
//! * **Sharding** — N brokers partition the key namespace by
//!   *rendezvous (highest-random-weight) hashing*: every key scores
//!   each shard with a mixed hash and is owned by the top scorer. When
//!   the shard count grows from N to N+1, a key either keeps its owner
//!   or moves to the new shard — routing is stable except at rebalance
//!   boundaries (no mod-N reshuffle).
//! * **Replication** — with a replication factor R, a key's *preference
//!   order* is its top-R shards by the same score. The owner applies a
//!   commit/unlink locally, then synchronously ships a `Delta` to
//!   every other *live* member of the preference order and waits for the
//!   acks before acknowledging the client, so an acked write survives
//!   the permanent crash of any R−1 shards.
//! * **Causal delivery** — each delta carries `(origin, seq, deps)`
//!   where `deps` is the origin's per-key version vector before the
//!   write. A replica applies a delta only once its parents have
//!   applied; out-of-order arrivals buffer in a `CausalBuffer` and
//!   drain as their dependencies land.
//! * **Failover** — [`KvsClient`] routes every operation to the first
//!   *live* shard of the key's preference order. A shard killed by a
//!   `KvsShardCrash` fault answers `ShardDown` (parked waits are
//!   flushed), the client maps that to `Unreachable`, and every op
//!   walks down the preference order (one `failover` helper) — so a
//!   replicated namespace heals while an unreplicated one fails typed.
//!
//! The preference order is walked lazily, one shard at a time: the
//! common case stops at the owner, and no operation allocates to route.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::hash::Hash;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use simcore::intern::{FxHashMap, Symbol};
use simcore::{splitmix64, Ctx};
use transport::{AmId, Transport};

use crate::{
    KvsClient, KvsServer, KvsSpec, KvsStats, Request, Response, Store, VersionedValue, KVS_AM,
};

/// The AM id shard `shard` listens on (`KVS_AM` for shard 0, so the
/// standalone broker *is* shard 0 of a one-shard mesh).
pub(crate) fn shard_am(shard: u32) -> AmId {
    AmId(KVS_AM.0 + shard)
}

// ---------------------------------------------------------------------------
// Routing: rendezvous hashing
// ---------------------------------------------------------------------------

fn fnv1a(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The rendezvous score of `key` on `shard`: a pure mix of the key hash
/// and the shard id. Owner = argmax over shards.
fn shard_score(key_hash: u64, shard: u32) -> u64 {
    splitmix64(key_hash ^ splitmix64(0x6D65_7368_0000_0000 | u64::from(shard)))
}

/// The shard owning `key` in a mesh of `shards` brokers.
///
/// Rendezvous property: growing the mesh from N to N+1 shards moves a
/// key only if the new shard out-scores all N incumbents — so routing
/// changes *only* at rebalance boundaries, never by mod-N reshuffle.
pub(crate) fn shard_for(key: &str, shards: u32) -> u32 {
    assert!(shards > 0, "mesh needs at least one shard");
    let h = fnv1a(key);
    let mut best = 0u32;
    let mut best_score = shard_score(h, 0);
    for s in 1..shards {
        let score = shard_score(h, s);
        if score > best_score {
            best = s;
            best_score = score;
        }
    }
    best
}

/// The preference order of `key`: its top-`r` shards by rendezvous score
/// (ties broken toward the lower shard id). The first is the owner
/// ([`shard_for`]); the rest are its replicas.
///
/// Every client operation routes through here and nearly all of them
/// stop at the owner, so the order is produced one shard at a time —
/// each step rescans the scores (a few multiplies per shard) for the
/// best rank after the last one yielded — instead of being sorted into
/// a list up front.
pub(crate) fn preference(key: &str, shards: u32, r: u32) -> impl Iterator<Item = u32> {
    assert!(shards > 0, "mesh needs at least one shard");
    let h = fnv1a(key);
    let mut last = None;
    std::iter::from_fn(move || {
        let next = (0..shards)
            .map(|s| (Reverse(shard_score(h, s)), s))
            .filter(|rank| last.is_none_or(|l| *rank > l))
            .min()?;
        last = Some(next);
        Some(next.1)
    })
    .take(r.clamp(1, shards) as usize)
}

// ---------------------------------------------------------------------------
// Causal delta delivery
// ---------------------------------------------------------------------------

/// One replicated write: `key` was written at `origin` as that shard's
/// `seq`-th write to the key, causally after the writes in `deps`
/// (origin's per-key version vector before this write). `value: None`
/// is an unlink tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Delta<K> {
    /// Key the write applies to.
    pub key: K,
    /// Shard the write originated on.
    pub origin: u32,
    /// Per-(key, origin) sequence number.
    pub seq: u64,
    /// Causal parents: origin's per-key version vector before the write.
    pub deps: Vec<(u32, u64)>,
    /// New value, or `None` for an unlink.
    pub value: Option<Bytes>,
}

/// Per-key version vectors plus an out-of-order delta buffer.
///
/// Pure data structure (no simulation types) so causal delivery can be
/// property-tested over arbitrary arrival permutations. A delta is
/// *ready* when it is the next write from its origin (`seq ==
/// applied[origin] + 1`) and every causal parent has applied; offers
/// that are not ready buffer, and each application drains any buffered
/// children that became ready.
#[derive(Default)]
pub(crate) struct CausalBuffer<K: Hash + Eq + Clone> {
    /// Per-key version vector: for each origin shard, the highest
    /// contiguously-applied sequence number. Kept sorted by origin.
    applied: FxHashMap<K, Vec<(u32, u64)>>,
    /// Deltas waiting for their causal parents.
    pending: Vec<Delta<K>>,
    buffered_total: u64,
}

impl<K: Hash + Eq + Clone> CausalBuffer<K> {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        CausalBuffer {
            applied: FxHashMap::default(),
            pending: Vec::new(),
            buffered_total: 0,
        }
    }

    fn seen(vv: &[(u32, u64)], origin: u32) -> u64 {
        vv.iter().find(|e| e.0 == origin).map(|e| e.1).unwrap_or(0)
    }

    fn advance(vv: &mut Vec<(u32, u64)>, origin: u32, seq: u64) {
        match vv.iter_mut().find(|e| e.0 == origin) {
            Some(e) => e.1 = seq,
            None => {
                vv.push((origin, seq));
                vv.sort_unstable_by_key(|e| e.0);
            }
        }
    }

    /// Record a local write to `key` at shard `origin`; returns the
    /// `(seq, deps)` to stamp on the outgoing [`Delta`].
    pub(crate) fn record_local(&mut self, key: &K, origin: u32) -> (u64, Vec<(u32, u64)>) {
        let vv = self.applied.entry(key.clone()).or_default();
        let deps = vv.clone();
        let seq = Self::seen(vv, origin) + 1;
        Self::advance(vv, origin, seq);
        (seq, deps)
    }

    fn ready(&self, d: &Delta<K>) -> bool {
        static EMPTY: Vec<(u32, u64)> = Vec::new();
        let vv = self.applied.get(&d.key).unwrap_or(&EMPTY);
        Self::seen(vv, d.origin) + 1 == d.seq
            && d.deps
                .iter()
                .all(|&(s, n)| s == d.origin || Self::seen(vv, s) >= n)
    }

    fn mark_applied(&mut self, d: &Delta<K>) {
        let vv = self.applied.entry(d.key.clone()).or_default();
        Self::advance(vv, d.origin, d.seq);
    }

    /// Offer a remote delta. Returns the deltas that became applicable
    /// — the offered one plus any buffered children it unblocked, in
    /// causal application order — or an empty vec if it buffered (or
    /// was a stale duplicate).
    pub(crate) fn offer(&mut self, d: Delta<K>) -> Vec<Delta<K>> {
        let already = {
            let vv = self.applied.get(&d.key);
            vv.is_some_and(|vv| Self::seen(vv, d.origin) >= d.seq)
        };
        if already {
            return Vec::new();
        }
        if !self.ready(&d) {
            self.buffered_total += 1;
            self.pending.push(d);
            return Vec::new();
        }
        self.mark_applied(&d);
        let mut out = vec![d];
        while let Some(i) = self.pending.iter().position(|p| self.ready(p)) {
            let p = self.pending.remove(i);
            self.mark_applied(&p);
            out.push(p);
        }
        out
    }

    /// Total offers that had to buffer (monotone counter).
    pub(crate) fn buffered_total(&self) -> u64 {
        self.buffered_total
    }
}

// ---------------------------------------------------------------------------
// Topology + server side
// ---------------------------------------------------------------------------

/// Static shape of a mesh: where each shard lives and the replication
/// factor. Shared (`Rc`) by every shard server and client of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshTopology {
    shard_nodes: Vec<NodeId>,
    replication: u32,
}

impl MeshTopology {
    /// A mesh of one shard per entry of `shard_nodes`, replicating each
    /// key to `replication` shards (clamped to the shard count).
    pub(crate) fn new(shard_nodes: Vec<NodeId>, replication: u32) -> MeshTopology {
        assert!(!shard_nodes.is_empty(), "mesh needs at least one shard");
        let n = shard_nodes.len() as u32;
        MeshTopology {
            shard_nodes,
            replication: replication.clamp(1, n),
        }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> u32 {
        self.shard_nodes.len() as u32
    }

    /// Replication factor (1 = unreplicated).
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// The node hosting `shard`.
    pub(crate) fn node(&self, shard: u32) -> NodeId {
        self.shard_nodes[shard as usize]
    }

    /// The preference order (owner first, then replicas) of `key`.
    pub(crate) fn preference(&self, key: &str) -> impl Iterator<Item = u32> {
        preference(key, self.shards(), self.replication)
    }
}

/// The shard's one request path: local apply plus synchronous delta
/// replication for writes, causal buffering for incoming deltas, reads
/// and parked waits against the local store.
pub(crate) async fn serve(
    store: &Rc<RefCell<Store>>,
    shard: u32,
    topo: &Rc<MeshTopology>,
    tp: &Transport,
    req: Request,
) -> Response {
    // At R = 1 no delta is ever shipped or received, so a write skips
    // the causal stamp: recording it would grow a version vector per
    // key that nothing reads.
    let replicated = topo.replication() > 1;
    match req {
        Request::Commit { key, value } => {
            let (version, stamp) = {
                let mut st = store.borrow_mut();
                st.version += 1;
                let version = st.version;
                st.map.insert(
                    key,
                    VersionedValue {
                        version,
                        value: value.clone(),
                    },
                );
                st.stats.commits += 1;
                if let Some(n) = st.watches.remove(&key) {
                    n.notify_all();
                }
                let stamp = replicated.then(|| st.repl.record_local(&key, shard));
                (version, stamp)
            };
            if let Some((seq, deps)) = stamp {
                replicate(store, shard, topo, tp, key, Some(value), seq, deps).await;
            }
            Response::Committed { version }
        }
        Request::Lookup { key } => {
            let mut st = store.borrow_mut();
            st.stats.lookups += 1;
            match st.map.get(&key).cloned() {
                Some(v) => Response::Value {
                    version: v.version,
                    value: v.value,
                },
                None => Response::NotFound,
            }
        }
        Request::WaitKey { key } => {
            let mut first = true;
            loop {
                let notify = {
                    let mut st = store.borrow_mut();
                    // The shard died while this wait was parked; its
                    // watch was flushed so it can answer typed instead
                    // of parking forever.
                    if st.down {
                        return Response::ShardDown;
                    }
                    if let Some(v) = st.map.get(&key).cloned() {
                        st.stats.waits += 1;
                        return Response::Value {
                            version: v.version,
                            value: v.value,
                        };
                    }
                    if first {
                        st.stats.waits_parked += 1;
                        first = false;
                    }
                    st.watches.entry(key).or_default().clone()
                };
                notify.wait().await;
            }
        }
        Request::Unlink { key } => {
            let stamp = {
                let mut st = store.borrow_mut();
                st.map.remove(&key);
                st.stats.unlinks += 1;
                replicated.then(|| st.repl.record_local(&key, shard))
            };
            if let Some((seq, deps)) = stamp {
                replicate(store, shard, topo, tp, key, None, seq, deps).await;
            }
            Response::Unlinked
        }
        Request::Delta {
            key,
            origin,
            seq,
            deps,
            value,
        } => {
            let mut st = store.borrow_mut();
            let ready = st.repl.offer(Delta {
                key,
                origin,
                seq,
                deps,
                value,
            });
            st.stats.deltas_buffered = st.repl.buffered_total();
            for d in ready {
                st.stats.deltas_applied += 1;
                match d.value {
                    Some(v) => {
                        st.version += 1;
                        let version = st.version;
                        st.map.insert(d.key, VersionedValue { version, value: v });
                        if let Some(n) = st.watches.remove(&d.key) {
                            n.notify_all();
                        }
                    }
                    None => {
                        st.map.remove(&d.key);
                    }
                }
            }
            Response::DeltaAck
        }
    }
}

/// Ship a write to every other live member of the key's preference
/// order and wait for the acks. Synchronous by design: an acked write
/// is on every live replica, so a later permanent crash of the owner
/// cannot lose it (no parked consumer ever waits on a key that only
/// the dead shard knew about).
#[allow(clippy::too_many_arguments)]
async fn replicate(
    store: &Rc<RefCell<Store>>,
    shard: u32,
    topo: &Rc<MeshTopology>,
    tp: &Transport,
    key: Symbol,
    value: Option<Bytes>,
    seq: u64,
    deps: Vec<(u32, u64)>,
) {
    let board = tp.faults();
    let ep = tp.endpoint(topo.node(shard));
    for peer in topo.preference(key.resolve()) {
        if peer == shard {
            continue;
        }
        // A permanently-crashed peer is skipped: the delta would only
        // be answered with ShardDown anyway.
        if let Some(b) = &board {
            if !b.kvs_shard_up(peer) {
                continue;
            }
        }
        let req = Request::Delta {
            key,
            origin: shard,
            seq,
            deps: deps.clone(),
            value: value.clone(),
        };
        let raw = ep.rpc(topo.node(peer), shard_am(peer), req.encode()).await;
        store.borrow_mut().stats.deltas_sent += 1;
        // The peer may have died between the liveness check and
        // delivery; its ShardDown is as final as an ack to a dead shard.
        let _ = Response::decode(raw);
    }
}

/// The running mesh: one [`KvsServer`] per shard plus the shared
/// topology. Keep it alive for the duration of the run (dropping it
/// drops the shard stores).
pub struct KvsMesh {
    topo: Rc<MeshTopology>,
    spec: KvsSpec,
    shards: Vec<Rc<KvsServer>>,
}

impl KvsMesh {
    /// Start one shard broker on each node of `shard_nodes` (shard `s`
    /// on `shard_nodes[s]`, listening on `KVS_AM + s`), replicating
    /// every key to `replication` shards.
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        shard_nodes: &[NodeId],
        spec: KvsSpec,
        replication: u32,
    ) -> KvsMesh {
        let topo = Rc::new(MeshTopology::new(shard_nodes.to_vec(), replication));
        let shards = (0..topo.shards())
            .map(|s| KvsServer::start_shard(ctx, tp, topo.node(s), spec, s, topo.clone()))
            .collect();
        KvsMesh { topo, spec, shards }
    }

    /// The mesh's topology.
    pub fn topology(&self) -> Rc<MeshTopology> {
        self.topo.clone()
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.topo.shards()
    }

    /// Aggregate counters over all shards (sums; `peak_queue` is the
    /// max over shards).
    pub fn stats(&self) -> KvsStats {
        let mut total = KvsStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.commits += st.commits;
            total.lookups += st.lookups;
            total.waits += st.waits;
            total.waits_parked += st.waits_parked;
            total.unlinks += st.unlinks;
            total.deltas_sent += st.deltas_sent;
            total.deltas_applied += st.deltas_applied;
            total.deltas_buffered += st.deltas_buffered;
            total.peak_queue = total.peak_queue.max(st.peak_queue);
        }
        total
    }

    /// A client on `node` for this mesh.
    pub fn client(&self, ctx: &Ctx, tp: &Transport, node: NodeId) -> KvsClient {
        let topo = &self.topo;
        KvsClient::routed(
            ctx,
            tp,
            node,
            &topo.shard_nodes,
            topo.replication,
            self.spec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
    use simcore::{Sim, SimDuration};
    use transport::{TransportError, TransportSpec};

    /// The sorted reference the lazy [`preference`] walk must reproduce:
    /// rank every shard, keep the top `r`.
    fn preference_list(key: &str, shards: u32, r: u32) -> Vec<u32> {
        let h = fnv1a(key);
        let mut ranked: Vec<u32> = (0..shards).collect();
        ranked.sort_unstable_by_key(|&s| (Reverse(shard_score(h, s)), s));
        ranked.truncate(r.clamp(1, shards) as usize);
        ranked
    }

    fn walk(key: &str, shards: u32, r: u32) -> Vec<u32> {
        preference(key, shards, r).collect()
    }

    fn mesh_rig(sim: &Sim, nodes: usize, shards: u32, replication: u32) -> (Transport, KvsMesh) {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(nodes));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let shard_nodes: Vec<NodeId> = (0..shards).map(|s| NodeId(s % nodes as u32)).collect();
        let mesh = KvsMesh::start(&ctx, &tp, &shard_nodes, KvsSpec::default(), replication);
        (tp, mesh)
    }

    #[test]
    fn routing_covers_all_shards_and_matches_preference_head() {
        let keys: Vec<String> = (0..256).map(|i| format!("frames/p{i:04}/f0")).collect();
        let mut seen = vec![false; 4];
        for k in &keys {
            let owner = shard_for(k, 4);
            seen[owner as usize] = true;
            assert_eq!(Some(owner), preference(k, 4, 2).next());
        }
        assert!(seen.iter().all(|&s| s), "owners {seen:?} miss a shard");
    }

    #[test]
    fn preference_list_is_distinct_and_sized() {
        for r in 1..=4u32 {
            let pref = walk("a/key", 4, r);
            assert_eq!(pref.len(), r as usize);
            let mut dedup = pref.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), pref.len());
        }
        // r beyond the shard count clamps.
        assert_eq!(walk("k", 3, 9).len(), 3);
    }

    #[test]
    fn causal_buffer_applies_in_order_and_drains_children() {
        let mut buf: CausalBuffer<&str> = CausalBuffer::new();
        // Writes 1..=3 from origin 0 arrive 3, 1, 2.
        let d = |seq| Delta {
            key: "k",
            origin: 0,
            seq,
            deps: vec![(0, seq - 1)],
            value: Some(Bytes::from_static(b"v")),
        };
        assert!(buf.offer(d(3)).is_empty());
        assert_eq!(buf.pending.len(), 1);
        let first = buf.offer(d(1));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].seq, 1);
        // Offering 2 applies 2 and drains the buffered 3.
        let rest = buf.offer(d(2));
        assert_eq!(rest.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(buf.pending.len(), 0);
        assert_eq!(buf.buffered_total(), 1);
        // A stale duplicate is dropped.
        assert!(buf.offer(d(2)).is_empty());
        assert_eq!(buf.pending.len(), 0);
    }

    #[test]
    fn causal_buffer_holds_cross_origin_dependencies() {
        let mut buf: CausalBuffer<&str> = CausalBuffer::new();
        // Origin 1's write causally follows origin 0's first write.
        let child = Delta {
            key: "k",
            origin: 1,
            seq: 1,
            deps: vec![(0, 1)],
            value: Some(Bytes::from_static(b"b")),
        };
        assert!(buf.offer(child.clone()).is_empty());
        let parent = Delta {
            key: "k",
            origin: 0,
            seq: 1,
            deps: vec![],
            value: Some(Bytes::from_static(b"a")),
        };
        let applied = buf.offer(parent);
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].origin, 0);
        assert_eq!(applied[1].origin, 1);
    }

    #[test]
    fn mesh_commit_replicates_to_preference_list() {
        let sim = Sim::new(7);
        let (tp, mesh) = mesh_rig(&sim, 4, 4, 2);
        let c = mesh.client(&sim.ctx(), &tp, NodeId(3));
        let keys: Vec<String> = (0..32).map(|i| format!("k{i}")).collect();
        let n = keys.len() as u64;
        let h = sim.spawn(async move {
            for k in &keys {
                c.commit(k, Bytes::from_static(b"v")).await;
            }
        });
        sim.run();
        h.try_take().unwrap();
        let total = mesh.stats();
        assert_eq!(total.commits, n);
        // R=2: every commit ships exactly one delta, each applied.
        assert_eq!(total.deltas_sent, n);
        assert_eq!(total.deltas_applied, n);
    }

    #[test]
    fn mesh_waiter_on_replica_is_woken_by_delta() {
        let sim = Sim::new(7);
        let (tp, mesh) = mesh_rig(&sim, 4, 4, 2);
        // A key whose replica (non-owner preference member) is shard 0,
        // the one shard a standalone-broker client can address.
        let key = (0..64)
            .map(|i| format!("w{i}"))
            .find(|k| walk(k, 4, 2)[1] == 0)
            .unwrap();
        let ctx = sim.ctx();
        // Park a wait directly on the replica shard.
        let replica = mesh.topology().node(0);
        let waiter = KvsClient::new(&ctx, &tp, NodeId(3), replica, KvsSpec::default());
        let wkey = key.clone();
        let h = sim.spawn(async move { waiter.wait_key(&wkey).await });
        let producer = mesh.client(&ctx, &tp, NodeId(2));
        let ctx2 = sim.ctx();
        sim.spawn(async move {
            ctx2.sleep(SimDuration::from_millis(5)).await;
            producer.commit(&key, Bytes::from_static(b"meta")).await;
        });
        sim.run();
        let v = h.try_take().unwrap();
        assert_eq!(v.value, Bytes::from_static(b"meta"));
    }

    #[test]
    fn shard_crash_fails_over_committed_keys_to_replicas() {
        let sim = Sim::new(11);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(4));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let board = FaultBoard::new(&ctx, 4, 0);
        tp.set_faults(board.clone());
        let shard_nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mesh = KvsMesh::start(&ctx, &tp, &shard_nodes, KvsSpec::default(), 2);
        let c = mesh.client(&ctx, &tp, NodeId(0));
        // Keys owned by shard 1 (the one we kill).
        let keys: Vec<String> = (0..128)
            .map(|i| format!("x{i}"))
            .filter(|k| shard_for(k, 4) == 1)
            .take(4)
            .collect();
        assert!(!keys.is_empty());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_millis(10),
            kind: FaultKind::KvsShardCrash { shard: 1 },
        }]));
        let ctx2 = sim.ctx();
        let h = sim.spawn(async move {
            // Commit before the crash (replicated to the peer).
            for k in &keys {
                c.try_commit(k, Bytes::from_static(b"v")).await.unwrap();
            }
            ctx2.sleep(SimDuration::from_millis(20)).await;
            // The owner is dead; reads and writes fail over.
            let mut out = Vec::new();
            for k in &keys {
                out.push(c.try_lookup(k).await.unwrap().is_some());
                c.try_commit(&format!("{k}/again"), Bytes::from_static(b"w"))
                    .await
                    .unwrap();
            }
            out
        });
        assert!(sim.run().is_clean());
        let found = h.try_take().unwrap();
        assert!(found.iter().all(|&f| f), "replica lost a committed key");
        assert!(mesh.shards[1].store.borrow().down);
    }

    #[test]
    fn unreplicated_mesh_fails_typed_when_owner_dies() {
        let sim = Sim::new(11);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(4));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let board = FaultBoard::new(&ctx, 4, 0);
        tp.set_faults(board.clone());
        let shard_nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mesh = KvsMesh::start(&ctx, &tp, &shard_nodes, KvsSpec::default(), 1);
        let c = mesh.client(&ctx, &tp, NodeId(0));
        let key = (0..64)
            .map(|i| format!("y{i}"))
            .find(|k| shard_for(k, 4) == 2)
            .unwrap();
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_millis(1),
            kind: FaultKind::KvsShardCrash { shard: 2 },
        }]));
        let ctx2 = sim.ctx();
        let h = sim.spawn(async move {
            ctx2.sleep(SimDuration::from_millis(5)).await;
            c.try_commit(&key, Bytes::from_static(b"v")).await
        });
        assert!(sim.run().is_clean());
        assert!(matches!(
            h.try_take().unwrap(),
            Err(TransportError::Unreachable { .. })
        ));
    }

    #[test]
    fn parked_wait_fails_over_when_its_shard_dies_mid_wait() {
        let sim = Sim::new(3);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(4));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let board = FaultBoard::new(&ctx, 4, 0);
        tp.set_faults(board.clone());
        let shard_nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mesh = KvsMesh::start(&ctx, &tp, &shard_nodes, KvsSpec::default(), 2);
        let key = (0..64)
            .map(|i| format!("z{i}"))
            .find(|k| shard_for(k, 4) == 0)
            .unwrap();
        // Consumer parks on the owner (shard 0); the owner dies at 5 ms;
        // the producer commits at 10 ms (routed to the surviving
        // replica). The flushed wait must fail over and still see it.
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_millis(5),
            kind: FaultKind::KvsShardCrash { shard: 0 },
        }]));
        let consumer = mesh.client(&ctx, &tp, NodeId(1));
        let ckey = key.clone();
        let h = sim.spawn(async move { consumer.try_wait_key(&ckey).await });
        let producer = mesh.client(&ctx, &tp, NodeId(2));
        let ctx2 = sim.ctx();
        sim.spawn(async move {
            ctx2.sleep(SimDuration::from_millis(10)).await;
            producer
                .try_commit(&key, Bytes::from_static(b"late"))
                .await
                .unwrap();
        });
        assert!(sim.run().is_clean());
        let v = h.try_take().unwrap().unwrap();
        assert_eq!(v.value, Bytes::from_static(b"late"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            // Rendezvous stability: growing the mesh by one shard either
            // keeps a key's owner or moves it to the new shard — never
            // reshuffles between incumbents.
            #[test]
            fn routing_is_stable_under_shard_growth(
                key in "[a-z/._0-9]{1,48}",
                shards in 1u32..12,
            ) {
                let before = shard_for(&key, shards);
                let after = shard_for(&key, shards + 1);
                prop_assert!(
                    after == before || after == shards,
                    "key moved {before} -> {after} when adding shard {shards}"
                );
            }

            // Same stability for the whole preference list: a replica
            // set member is only displaced by the new shard, never by an
            // incumbent.
            #[test]
            fn preference_list_is_stable_under_shard_growth(
                key in "[a-z/._0-9]{1,48}",
                shards in 2u32..10,
                r in 1u32..4,
            ) {
                let r = r.min(shards);
                let before = walk(&key, shards, r);
                let after = walk(&key, shards + 1, r);
                // Every member of the new list is an incumbent replica or
                // the newly-added shard; incumbents never displace each
                // other.
                prop_assert!(
                    after.iter().all(|s| *s == shards || before.contains(s)),
                    "incumbent displaced an incumbent: {:?} -> {:?}",
                    before,
                    after
                );
                // Relative order of surviving incumbents is preserved.
                let kept: Vec<u32> =
                    after.iter().copied().filter(|s| *s != shards).collect();
                let expect: Vec<u32> =
                    before.iter().copied().filter(|s| kept.contains(s)).collect();
                prop_assert_eq!(kept, expect);
            }

            // The lazy walk yields exactly the sorted list, however far
            // it is driven.
            #[test]
            fn lazy_walk_matches_the_sorted_reference(
                key in "[a-z/._0-9]{1,48}",
                shards in 1u32..12,
                r in 1u32..4,
            ) {
                prop_assert_eq!(walk(&key, shards, r), preference_list(&key, shards, r));
            }

            // Causal delivery: any arrival permutation of a valid causal
            // history applies every delta, parents before children.
            #[test]
            fn causal_buffer_delivers_any_permutation_causally(
                n_origins in 1u32..4,
                writes_per_origin in 1u64..6,
                shuffle_seed in any::<u64>(),
            ) {
                // Build a history where origin o's write w depends on
                // every other origin having applied min(w, their count)
                // writes — a dense causal web.
                let mut history: Vec<Delta<&str>> = Vec::new();
                for o in 0..n_origins {
                    for w in 1..=writes_per_origin {
                        let deps: Vec<(u32, u64)> = (0..n_origins)
                            .filter(|&p| p != o)
                            .map(|p| (p, (w.saturating_sub(1)).min(writes_per_origin)))
                            .chain(std::iter::once((o, w - 1)))
                            .collect();
                        history.push(Delta {
                            key: "k",
                            origin: o,
                            seq: w,
                            deps,
                            value: Some(Bytes::from_static(b"v")),
                        });
                    }
                }
                // Deterministic Fisher-Yates shuffle.
                let mut s = shuffle_seed | 1;
                for i in (1..history.len()).rev() {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    history.swap(i, (s as usize) % (i + 1));
                }
                let mut buf: CausalBuffer<&str> = CausalBuffer::new();
                let mut applied: Vec<(u32, u64)> = Vec::new();
                let mut high: Vec<u64> = vec![0; n_origins as usize];
                for d in history {
                    for a in buf.offer(d) {
                        // Per-origin order: exactly the next seq.
                        prop_assert_eq!(high[a.origin as usize] + 1, a.seq);
                        high[a.origin as usize] = a.seq;
                        // Cross-origin causality: every dep applied.
                        for (p, need) in &a.deps {
                            if *p != a.origin {
                                prop_assert!(
                                    high[*p as usize] >= *need,
                                    "dep ({},{}) unapplied before ({},{})",
                                    p, need, a.origin, a.seq
                                );
                            }
                        }
                        applied.push((a.origin, a.seq));
                    }
                }
                // Everything delivered, nothing pending.
                prop_assert_eq!(
                    applied.len() as u64,
                    u64::from(n_origins) * writes_per_origin
                );
                prop_assert_eq!(buf.pending.len(), 0);
            }
        }
    }
}
