//! A Lustre-DLM-flavoured distributed lock service.
//!
//! The paper (§III) lists "file system locks" among the manual
//! synchronization options for producer-consumer workflows on shared
//! filesystems. This module provides that primitive: a lock server
//! colocated with the MDS granting whole-file **PR** (protected read,
//! shared) and **EX** (exclusive) locks with FIFO queuing, and blocking
//! RPCs from any client. Each operation costs a fabric round trip plus
//! server service time, so lock-based synchronization carries realistic
//! latency in the experiments.

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::{Buf, BufMut, Bytes};
use cluster::NodeId;
use simcore::intern::{intern, FxHashMap, Symbol};
use simcore::resource::FifoResource;
use simcore::sync::{LockKind, SharedLock};
use simcore::{Ctx, SimDuration};
use transport::{AmId, Endpoint, Transport};

/// The AM id of the lock server.
pub(crate) const LDLM_AM: AmId = AmId(0x4C44);

/// Lock compatibility modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Protected read: compatible with other PR holders.
    ProtectedRead,
    /// Exclusive: compatible with nothing.
    Exclusive,
}

struct ServerState {
    // Lock names intern once per RPC; repeated lock/unlock cycles on the
    // same resource hash a 4-byte symbol.
    locks: FxHashMap<Symbol, SharedLock>,
}

/// The lock server (start it on the MDS node).
pub struct LdlmServer {
    node: NodeId,
}

/// Lock service tuning.
#[derive(Debug, Clone, Copy)]
pub struct LdlmSpec {
    /// Service time per lock operation.
    pub service_time: SimDuration,
    /// Parallel service threads.
    pub threads: u64,
}

impl Default for LdlmSpec {
    fn default() -> Self {
        LdlmSpec {
            service_time: SimDuration::from_micros(100),
            threads: 16,
        }
    }
}

const OP_LOCK_PR: u8 = 1;
const OP_LOCK_EX: u8 = 2;
const OP_UNLOCK_PR: u8 = 3;
const OP_UNLOCK_EX: u8 = 4;

fn encode_req(op: u8, path: &str) -> Bytes {
    Bytes::build(3 + path.len(), |b| {
        b.put_u8(op);
        b.put_u16(path.len() as u16);
        b.put_slice(path.as_bytes());
    })
}

fn decode_req(mut raw: Bytes) -> (u8, String) {
    let op = raw.get_u8();
    let len = raw.get_u16() as usize;
    let path = String::from_utf8(raw.split_to(len).to_vec()).expect("utf-8 path");
    (op, path)
}

impl LdlmServer {
    /// Start the lock server on `node`.
    pub fn start(ctx: &Ctx, tp: &Transport, node: NodeId, spec: LdlmSpec) -> Rc<LdlmServer> {
        let state = Rc::new(RefCell::new(ServerState {
            locks: FxHashMap::default(),
        }));
        let service = FifoResource::new(ctx, spec.threads);
        let hstate = state.clone();
        tp.register_am(
            node,
            LDLM_AM,
            Rc::new(move |raw: Bytes| {
                let state = hstate.clone();
                let service = service.clone();
                async move {
                    service.request(spec.service_time).await;
                    let (op, path) = decode_req(raw);
                    let lock = state
                        .borrow_mut()
                        .locks
                        .entry(intern(&path))
                        .or_default()
                        .clone();
                    let kind = match op {
                        OP_LOCK_PR | OP_UNLOCK_PR => LockKind::Shared,
                        OP_LOCK_EX | OP_UNLOCK_EX => LockKind::Exclusive,
                        other => panic!("unknown ldlm op {other}"),
                    };
                    if matches!(op, OP_LOCK_PR | OP_LOCK_EX) {
                        lock.acquire(kind).await;
                    } else {
                        lock.release(kind);
                    }
                    Bytes::new()
                }
            }),
        );
        Rc::new(LdlmServer { node })
    }

    /// Node hosting the lock server.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// Client handle to the lock service.
#[derive(Clone)]
pub struct LdlmClient {
    ep: Endpoint,
    server: NodeId,
}

impl LdlmClient {
    /// Create a client on `node` against the server on `server`.
    pub fn new(tp: &Transport, node: NodeId, server: NodeId) -> Self {
        LdlmClient {
            ep: tp.endpoint(node),
            server,
        }
    }

    /// Acquire a lock, blocking (inside the server) until compatible.
    pub fn lock<'a>(&'a self, path: &'a str, mode: LockMode) -> impl Future<Output = ()> + 'a {
        async move {
            let op = match mode {
                LockMode::ProtectedRead => OP_LOCK_PR,
                LockMode::Exclusive => OP_LOCK_EX,
            };
            self.ep
                .rpc(self.server, LDLM_AM, encode_req(op, path))
                .await;
        }
    }

    /// Release a previously granted lock.
    pub fn unlock<'a>(&'a self, path: &'a str, mode: LockMode) -> impl Future<Output = ()> + 'a {
        async move {
            let op = match mode {
                LockMode::ProtectedRead => OP_UNLOCK_PR,
                LockMode::Exclusive => OP_UNLOCK_EX,
            };
            self.ep
                .rpc(self.server, LDLM_AM, encode_req(op, path))
                .await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use simcore::{Sim, SimDuration};
    use transport::TransportSpec;

    struct Rig {
        sim: Sim,
        tp: Transport,
    }

    fn rig(nodes: usize) -> Rig {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(nodes));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        LdlmServer::start(&ctx, &tp, NodeId(0), LdlmSpec::default());
        Rig { sim, tp }
    }

    #[test]
    fn exclusive_lock_serializes_cross_node_writers() {
        let r = rig(3);
        let ctx = r.sim.ctx();
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for node in [1u32, 2u32] {
            let c = LdlmClient::new(&r.tp, NodeId(node), NodeId(0));
            let ctx2 = ctx.clone();
            let order = order.clone();
            r.sim.spawn(async move {
                // Node 1 asks first (tiny head start).
                ctx2.sleep(SimDuration::from_micros(node as u64)).await;
                c.lock("/f", LockMode::Exclusive).await;
                order.borrow_mut().push(node);
                ctx2.sleep(SimDuration::from_millis(5)).await;
                c.unlock("/f", LockMode::Exclusive).await;
            });
        }
        assert!(r.sim.run().is_clean());
        assert_eq!(*order.borrow(), vec![1, 2]);
    }

    #[test]
    fn readers_share_but_exclude_writers() {
        let r = rig(4);
        let ctx = r.sim.ctx();
        let peak_readers = Rc::new(std::cell::Cell::new(0u32));
        let active = Rc::new(std::cell::Cell::new(0u32));
        for node in [1u32, 2u32] {
            let c = LdlmClient::new(&r.tp, NodeId(node), NodeId(0));
            let ctx2 = ctx.clone();
            let (peak, act) = (peak_readers.clone(), active.clone());
            r.sim.spawn(async move {
                c.lock("/shared", LockMode::ProtectedRead).await;
                act.set(act.get() + 1);
                peak.set(peak.get().max(act.get()));
                ctx2.sleep(SimDuration::from_millis(3)).await;
                act.set(act.get() - 1);
                c.unlock("/shared", LockMode::ProtectedRead).await;
            });
        }
        let writer_done = {
            let c = LdlmClient::new(&r.tp, NodeId(3), NodeId(0));
            let ctx2 = ctx.clone();
            r.sim.spawn(async move {
                ctx2.sleep(SimDuration::from_micros(500)).await;
                c.lock("/shared", LockMode::Exclusive).await;
                let at = ctx2.now();
                c.unlock("/shared", LockMode::Exclusive).await;
                at.as_secs_f64()
            })
        };
        assert!(r.sim.run().is_clean());
        assert_eq!(peak_readers.get(), 2, "readers should overlap");
        // The writer had to wait out the readers' 3 ms hold.
        assert!(writer_done.try_take().unwrap() >= 0.003);
    }

    #[test]
    fn locks_on_different_paths_are_independent() {
        let r = rig(2);
        let c = LdlmClient::new(&r.tp, NodeId(1), NodeId(0));
        let h = r.sim.spawn(async move {
            c.lock("/a", LockMode::Exclusive).await;
            // No deadlock: /b is a different resource.
            c.lock("/b", LockMode::Exclusive).await;
            c.unlock("/a", LockMode::Exclusive).await;
            c.unlock("/b", LockMode::Exclusive).await;
            true
        });
        assert!(r.sim.run().is_clean());
        assert!(h.try_take().unwrap());
    }

    #[test]
    fn lock_rpc_costs_a_round_trip() {
        let r = rig(2);
        let ctx = r.sim.ctx();
        let c = LdlmClient::new(&r.tp, NodeId(1), NodeId(0));
        let ctx2 = ctx.clone();
        let h = r.sim.spawn(async move {
            let t0 = ctx2.now();
            c.lock("/x", LockMode::ProtectedRead).await;
            (ctx2.now() - t0).micros()
        });
        r.sim.run();
        let us = h.try_take().unwrap();
        // Fabric round trip (~8 µs) + 100 µs service.
        assert!((100..200).contains(&us), "lock took {us} µs");
    }
}
