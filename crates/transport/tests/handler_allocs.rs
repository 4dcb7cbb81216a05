//! What an RPC's handler costs the allocator, and what an abandoned one
//! leaves behind.
//!
//! Every RPC of every backend — a KVS commit or lookup, an MDS open, an
//! OSS read or write, a staged-frame fetch, a lock — runs a registered
//! handler, so a boxed handler future was one allocator call per RPC on
//! every workload. A registration now parks the future in a reusable slot:
//! after the first call through it an RPC allocates nothing for its
//! handler. The slot belongs to the attempt: an attempt abandoned by a
//! timeout must empty it on the spot, so the handler's service permit
//! goes back then and no slot stays armed.

use std::rc::Rc;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use faults::{FaultBoard, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::sync::Semaphore;
use simcore::{Sim, SimDuration};
use transport::{
    AmId, Bulk, HandlerSlots, LocalBoxFuture, Message, Transport, TransportError, TransportSpec,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::calls;

const SERVER: NodeId = NodeId(0);
const CLIENT: NodeId = NodeId(1);

fn transport(sim: &Sim) -> Transport {
    let ctx = sim.ctx();
    let cluster = Cluster::build(&ctx, &ClusterSpec::corona(2));
    Transport::new(&ctx, cluster.fabric().clone(), TransportSpec::default())
}

/// Allocator calls of the 100th of 100 sequential RPCs of `req` to
/// `(SERVER, id)`.
fn steady_rpc_cost<M: Message>(sim: &Sim, tp: &Transport, id: AmId, req: M) -> u64 {
    let ep = tp.endpoint(CLIENT);
    let h = sim.spawn(async move {
        let mut last = 0;
        for _ in 0..100 {
            let req = req.clone();
            let before = calls();
            ep.rpc(SERVER, id, req).await;
            last = calls() - before;
        }
        last
    });
    assert!(sim.run().is_clean());
    h.try_take().expect("client finished")
}

#[test]
fn a_handler_costs_no_allocation_after_its_first_call() {
    let sim = Sim::new(0);
    let tp = transport(&sim);
    let (ctx, bulk_ctx) = (sim.ctx(), sim.ctx());
    // Two echo handlers that differ in one thing: the second boxes its
    // future, as every handler once had to.
    let serve = move |req: Bytes| {
        let ctx = ctx.clone();
        async move {
            ctx.sleep(SimDuration::from_nanos(300)).await;
            req
        }
    };
    let (inline, boxed, bulk) = (AmId(1), AmId(2), AmId(3));
    tp.register_am(SERVER, inline, Rc::new(serve.clone()));
    tp.register_am(
        SERVER,
        boxed,
        Rc::new(move |req| Box::pin(serve(req)) as LocalBoxFuture<Bytes>),
    );
    // The same echo on the same registration for bulk messages, as the
    // staged-frame fetch and the OSS servers are.
    tp.register_am(
        SERVER,
        bulk,
        Rc::new(move |req: Bulk| {
            let ctx = bulk_ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_nanos(300)).await;
                req
            }
        }),
    );
    let ping = Bytes::from_static(b"ping");
    let inline_cost = steady_rpc_cost(&sim, &tp, inline, ping.clone());
    let boxed_cost = steady_rpc_cost(&sim, &tp, boxed, ping.clone());
    let bulk_cost = steady_rpc_cost(&sim, &tp, bulk, (ping, Vec::new()));
    // The box is the boxing handler's one call; everything else an RPC
    // does is the same on all three, so an inline handler's share is zero.
    assert_eq!(
        (inline_cost, boxed_cost, bulk_cost),
        (0, 1, 0),
        "allocator calls of a warm RPC: inline handler, boxing handler, bulk handler"
    );
    let one_idle = HandlerSlots {
        in_flight: 0,
        idle: 1,
    };
    assert_eq!(tp.am_slots(SERVER, inline), one_idle);
    assert_eq!(tp.am_slots(SERVER, boxed), one_idle);
    assert_eq!(tp.am_slots(SERVER, bulk), one_idle);
}

#[test]
fn attempts_dropped_mid_handler_leave_no_slot_armed_and_no_permit_out() {
    const THREADS: u64 = 2;
    const CLIENTS: usize = 6;
    let sim = Sim::new(3);
    let ctx = sim.ctx();
    let tp = transport(&sim);
    // A board with nothing armed: every node stays up, but attempts run
    // under the policy's timeout.
    tp.set_faults(FaultBoard::new(&ctx, 2, 0));
    // A server far slower than the timeout: every attempt is abandoned
    // inside the handler, two while they hold a service thread and the
    // rest while they queue for one.
    let threads = Semaphore::new(THREADS);
    let policy = RetryPolicy {
        attempt_timeout: SimDuration::from_micros(50),
        ..RetryPolicy::transport_default()
    };
    let id = AmId(7);
    let (service, hctx) = (threads.clone(), ctx.clone());
    tp.register_am(
        SERVER,
        id,
        Rc::new(move |req: Bytes| {
            let (service, ctx) = (service.clone(), hctx.clone());
            async move {
                let _thread = service.acquire(1).await;
                ctx.sleep(SimDuration::from_millis(10)).await;
                req
            }
        }),
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ep = tp.endpoint(CLIENT);
            sim.spawn(async move {
                let mut rng = StdRng::seed_from_u64(c as u64);
                ep.rpc_retrying(SERVER, id, Bytes::from_static(b"ping"), &policy, &mut rng)
                    .await
            })
        })
        .collect();
    // Mid-storm, attempts are in flight and threads are taken.
    sim.run_until(simcore::SimTime::from_nanos(40_000));
    assert_eq!(tp.am_slots(SERVER, id).in_flight, CLIENTS);
    assert_eq!(threads.available(), 0);
    assert!(sim.run().is_clean());
    for h in clients {
        let gave_up = TransportError::Exhausted {
            node: SERVER,
            attempts: policy.max_attempts,
        };
        assert_eq!(h.try_take().expect("client finished"), Err(gave_up));
    }
    assert_eq!(
        tp.stats().rpcs,
        (CLIENTS as u64) * u64::from(policy.max_attempts)
    );
    let slots = tp.am_slots(SERVER, id);
    assert_eq!(
        slots.in_flight, 0,
        "an abandoned attempt left its slot armed"
    );
    assert!(slots.idle >= 1 && slots.idle < CLIENTS, "{slots:?}");
    assert_eq!(
        threads.available(),
        THREADS,
        "a dropped handler kept its thread"
    );
    assert_eq!(threads.queue_len(), 0);
}
