//! # transport — UCX-like communication layer
//!
//! DYAD's data plane uses UCX; the repro hint notes that Rust UCX bindings
//! are thin and the paper's testbed is unavailable, so this crate provides
//! a faithful *protocol-level* model of the UCP tag-matching API on top of
//! the simulated [`cluster::Fabric`]:
//!
//! * **Eager protocol** — payloads at or below the rendezvous threshold
//!   travel inside the first message.
//! * **Rendezvous protocol** — larger sends publish an RTS (ready-to-send)
//!   header; the matching receiver pulls the payload with an RDMA read and
//!   acknowledges with a FIN, exactly the UCP `rndv` scheme. The sender's
//!   buffer is held until FIN.
//! * **Active messages** — a registered handler per `(node, am_id)`
//!   services request/response RPCs (used by the KVS broker, the
//!   Lustre-like servers and the staged-frame fetch).
//!
//! # One RPC path
//!
//! An RPC carries a [`Message`] each way: control bytes, or a [`Bulk`]
//! header with a zero-copy payload rope. Both take the same path — one
//! handler table per node ([`Transport::register_am`]), one attempt body,
//! one retry loop ([`Endpoint::rpc_retrying`]) and one board-blind call
//! ([`Endpoint::rpc`]) — and the wire charges each direction a header
//! plus the message's bytes. Only two things differ by type: how a
//! message's length is counted, and which [`TransportStats`] fields it
//! books. The path is compiled once per type, so a control RPC's future
//! carries no payload rope.
//!
//! # What an RPC costs the host
//!
//! A handler is a closure returning a future of its own type;
//! registration is generic over both and keeps, per registration, a slab
//! of pinned slots that hold one handler future each. An attempt arms a
//! free slot with [`Pin::set`], polls it through a ticket, and clears it
//! when the attempt ends or is dropped — so after warm-up an RPC
//! allocates nothing for its handler, where a boxed future cost one
//! allocator call per attempt. A registration keeps at most
//! `SPARE_SLOTS` slots idle and gives the rest back as their attempts
//! end, so a storm of parked handlers (16k `WaitKey`s at 1 KB each in
//! the scale runs) does not stay resident after it drains.
//!
//! Payloads are real `bytes::Bytes`, so data integrity can be asserted
//! end-to-end in tests and analytics runs on the actual frame contents.

#![warn(missing_docs)]
// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use bytes::{BufMut, Bytes};
use cluster::{Fabric, NodeId};
use faults::{FaultBoard, RetryPolicy};
use rand::rngs::StdRng;
use simcore::intern::FxHashMap;
use simcore::sync::{oneshot, OneSender};
use simcore::{timeout, Ctx, SimDuration};

/// Errors surfaced by the RPC paths when a fault board is attached.
/// Without a board an RPC cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The destination node is down, or the link to it is flapped.
    Unreachable {
        /// The node that could not be reached.
        node: NodeId,
    },
    /// Every retry attempt failed.
    Exhausted {
        /// The node the RPC targeted.
        node: NodeId,
        /// How many attempts were made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable { node } => write!(f, "{node} unreachable"),
            TransportError::Exhausted { node, attempts } => {
                write!(f, "rpc to {node} failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Message tag used for matching sends to receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

/// Identifier of a registered active-message handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmId(pub u32);

/// A boxed local (non-`Send`) future. Handlers need not return one —
/// registration takes the closure's own future type — but one that does
/// still registers.
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T>>>;

/// A bulk payload: an ordered rope of zero-copy `Bytes` segments.
pub type Payload = Vec<Bytes>;

/// Total byte length of a payload rope.
pub fn payload_len(p: &[Bytes]) -> u64 {
    p.iter().map(|s| s.len() as u64).sum()
}

/// Flatten a payload rope into one contiguous `Bytes`: the one segment
/// itself, or a copy of several into one block.
pub fn flatten_payload(p: Payload) -> Bytes {
    if p.len() == 1 {
        return p.into_iter().next().unwrap();
    }
    let total: usize = p.iter().map(|s| s.len()).sum();
    Bytes::build(total, |out| p.iter().for_each(|s| out.put_slice(s)))
}

/// Request and response of a bulk RPC: `(header, payload)`. Payloads are
/// passed zero-copy (`Bytes` clones); only their *length* is charged on
/// the wire, which models Lustre-style bulk RDMA where a small RPC
/// descriptor is followed by an RDMA transfer of the data pages.
pub type Bulk = (Bytes, Payload);

/// What an RPC carries each way: a control message ([`Bytes`]) or a bulk
/// one ([`Bulk`]); see "One RPC path" in the crate docs. Sealed: these
/// two are the only message types.
pub trait Message: sealed::Wire {}

impl Message for Bytes {}
impl Message for Bulk {}

/// The crate's own view of a [`Message`]. Its items are unnameable
/// outside the crate, so the handler machinery they mention stays private.
mod sealed {
    use super::*;

    /// How the one RPC path treats a message type.
    pub trait Wire: Clone + 'static {
        /// Bytes the message puts on the wire after the transport header,
        /// and of those the payload bytes [`TransportStats::bulk_bytes`]
        /// books.
        fn lens(&self) -> (u64, u64);
        /// The counter an attempt carrying this type books.
        fn attempts(st: &mut TransportStats) -> &mut u64;
        /// The handler-table entry of a registration for this type.
        fn entry(service: Rc<dyn Service<Self>>) -> Handler;
        /// The registration behind `entry`, if it serves this type.
        fn service(entry: &Handler) -> Option<&Rc<dyn Service<Self>>>;
    }

    /// What an attempt sees of a registration: the handler's closure and
    /// future types are erased, an invocation is a ticket.
    pub trait Service<M> {
        /// Call the handler and park its future in a slot.
        fn start(&self, req: M) -> u32;
        fn poll(&self, ticket: u32, cx: &mut Context<'_>) -> Poll<M>;
        /// Drop the slot's future — finished or not — and free the slot.
        fn release(&self, ticket: u32);
        fn slots(&self) -> HandlerSlots;
    }

    /// One registration in a node's handler table.
    pub enum Handler {
        Control(Rc<dyn Service<Bytes>>),
        Bulk(Rc<dyn Service<Bulk>>),
    }

    impl Wire for Bytes {
        fn lens(&self) -> (u64, u64) {
            (self.len() as u64, 0)
        }
        fn attempts(st: &mut TransportStats) -> &mut u64 {
            &mut st.rpcs
        }
        fn entry(service: Rc<dyn Service<Self>>) -> Handler {
            Handler::Control(service)
        }
        fn service(entry: &Handler) -> Option<&Rc<dyn Service<Self>>> {
            match entry {
                Handler::Control(service) => Some(service),
                Handler::Bulk(_) => None,
            }
        }
    }

    impl Wire for Bulk {
        fn lens(&self) -> (u64, u64) {
            let payload = payload_len(&self.1);
            (self.0.len() as u64 + payload, payload)
        }
        fn attempts(st: &mut TransportStats) -> &mut u64 {
            &mut st.bulk_rpcs
        }
        fn entry(service: Rc<dyn Service<Self>>) -> Handler {
            Handler::Bulk(service)
        }
        fn service(entry: &Handler) -> Option<&Rc<dyn Service<Self>>> {
            match entry {
                Handler::Bulk(service) => Some(service),
                Handler::Control(_) => None,
            }
        }
    }
}

use sealed::{Handler, Service};

/// Idle handler-future slots a registration keeps for its next attempts;
/// beyond these a slot is freed when its attempt ends, so retention never
/// follows the high-water mark. Measured on the benchmark: 1 costs 2-3 %
/// more allocator calls per event than 4 (a server's concurrency ripples
/// by a few requests), 8 and 16 save nothing over 4.
const SPARE_SLOTS: usize = 4;

/// Occupancy of one registration's handler-future slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerSlots {
    /// Slots holding the future of an attempt that has not ended.
    pub in_flight: usize,
    /// Allocated slots waiting for the next attempt.
    pub idle: usize,
}

struct Registration<H, Fut> {
    handler: H,
    slab: RefCell<Slab<Fut>>,
}

struct Slab<Fut> {
    /// By ticket. `None` while a poll or a release has the slot out — the
    /// slab is not borrowed while handler code runs, so a handler may RPC
    /// into its own registration — and for a ticket in `holes`.
    slots: Vec<Option<Pin<Box<Option<Fut>>>>>,
    /// Free tickets whose slot is allocated (and holds `None`).
    idle: Vec<u32>,
    /// Free tickets whose slot was given back.
    holes: Vec<u32>,
    in_flight: usize,
}

impl<H, Fut> Registration<H, Fut> {
    fn new(handler: H) -> Rc<Self> {
        Rc::new(Registration {
            handler,
            slab: RefCell::new(Slab {
                slots: Vec::new(),
                idle: Vec::new(),
                holes: Vec::new(),
                in_flight: 0,
            }),
        })
    }

    /// Take a slot out of the slab for a poll or a release. `None` only
    /// if a poll of it panicked and never put it back.
    fn take(&self, ticket: u32) -> Option<Pin<Box<Option<Fut>>>> {
        self.slab.borrow_mut().slots[ticket as usize].take()
    }
}

impl<M, H, Fut> Service<M> for Registration<H, Fut>
where
    H: Fn(M) -> Fut,
    Fut: Future<Output = M>,
{
    fn start(&self, req: M) -> u32 {
        let fut = (self.handler)(req);
        let mut slab = self.slab.borrow_mut();
        slab.in_flight += 1;
        if let Some(ticket) = slab.idle.pop() {
            let slot = slab.slots[ticket as usize].as_mut();
            slot.expect("idle slot is home").as_mut().set(Some(fut));
            return ticket;
        }
        let slot = Some(Box::pin(Some(fut)));
        match slab.holes.pop() {
            Some(ticket) => {
                slab.slots[ticket as usize] = slot;
                ticket
            }
            None => {
                slab.slots.push(slot);
                u32::try_from(slab.slots.len() - 1).expect("handler slab overflow")
            }
        }
    }

    fn poll(&self, ticket: u32, cx: &mut Context<'_>) -> Poll<M> {
        let mut slot = self.take(ticket).expect("handler slot polled re-entrantly");
        let armed = slot.as_mut().as_pin_mut();
        let out = armed.expect("polled slot is armed").poll(cx);
        self.slab.borrow_mut().slots[ticket as usize] = Some(slot);
        out
    }

    fn release(&self, ticket: u32) {
        let mut slot = self.take(ticket);
        // Runs the future's destructors (a service permit goes back, a
        // parked watch is withdrawn) with the slab unborrowed.
        if let Some(slot) = &mut slot {
            slot.as_mut().set(None);
        }
        let mut slab = self.slab.borrow_mut();
        slab.in_flight -= 1;
        if slot.is_some() && slab.idle.len() < SPARE_SLOTS {
            slab.slots[ticket as usize] = slot;
            slab.idle.push(ticket);
        } else {
            slab.holes.push(ticket);
        }
    }

    fn slots(&self) -> HandlerSlots {
        let slab = self.slab.borrow();
        HandlerSlots {
            in_flight: slab.in_flight,
            idle: slab.idle.len(),
        }
    }
}

/// One handler invocation in flight, as the attempt awaits it. Dropping
/// it — at the end of the attempt, or when a timeout abandons the
/// attempt mid-handler — drops the handler's future on the spot.
struct HandlerCall<M> {
    service: Rc<dyn Service<M>>,
    ticket: u32,
}

impl<M> HandlerCall<M> {
    fn start(service: Rc<dyn Service<M>>, req: M) -> Self {
        let ticket = service.start(req);
        HandlerCall { service, ticket }
    }
}

impl<M> Future for HandlerCall<M> {
    type Output = M;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<M> {
        self.service.poll(self.ticket, cx)
    }
}

impl<M> Drop for HandlerCall<M> {
    fn drop(&mut self) {
        self.service.release(self.ticket);
    }
}

/// Protocol tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransportSpec {
    /// Payloads larger than this use the rendezvous protocol.
    pub rndv_threshold: u64,
    /// Bytes of protocol header per message on the wire.
    pub header_bytes: u64,
}

impl Default for TransportSpec {
    /// UCX defaults on InfiniBand-class fabrics: ~8 KiB rendezvous
    /// threshold, 64-byte headers.
    fn default() -> Self {
        TransportSpec {
            rndv_threshold: 8192,
            header_bytes: 64,
        }
    }
}

/// A send waiting for its matching receive (or vice versa).
struct PendingSend {
    src: NodeId,
    payload: Bytes,
    /// Completed when the receiver has the data (eager: immediately on
    /// match; rendezvous: after RDMA read + FIN).
    done: OneSender<()>,
}

#[derive(Default)]
struct MatchQueues {
    /// Sends that arrived before a matching receive was posted.
    unexpected: FxHashMap<Tag, VecDeque<PendingSend>>,
    /// Receives posted before a matching send arrived.
    expected: FxHashMap<Tag, VecDeque<OneSender<PendingSend>>>,
}

#[derive(Default)]
struct WorkerState {
    queues: MatchQueues,
    handlers: FxHashMap<AmId, Handler>,
}

/// Message counters (whole-transport aggregates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Eager-protocol sends.
    pub eager_sends: u64,
    /// Rendezvous-protocol sends.
    pub rndv_sends: u64,
    /// Payload bytes sent through tag messaging.
    pub tag_bytes: u64,
    /// Control (non-bulk) RPCs issued.
    pub rpcs: u64,
    /// Bulk RPCs issued.
    pub bulk_rpcs: u64,
    /// Payload bytes moved by bulk RPCs (both directions).
    pub bulk_bytes: u64,
    /// RPC attempts that failed (unreachable or timed out) and were
    /// followed by another attempt.
    pub rpc_retries: u64,
    /// RPCs abandoned after exhausting their retry budget.
    pub rpc_giveups: u64,
    /// Nanoseconds spent sleeping in retry backoff — pure recovery time,
    /// not data movement.
    pub retry_backoff_ns: u64,
}

struct Inner {
    ctx: Ctx,
    fabric: Fabric,
    spec: TransportSpec,
    workers: Vec<RefCell<WorkerState>>,
    stats: RefCell<TransportStats>,
    faults: RefCell<Option<FaultBoard>>,
}

/// The transport context: one worker per cluster node. A handle is one
/// `Rc`: every client of every service on every node holds an
/// [`Endpoint`], so whatever a handle carries inline is paid tens of
/// thousands of times in a large run.
#[derive(Clone)]
pub struct Transport {
    inner: Rc<Inner>,
}

impl Transport {
    /// Create a transport spanning every node of `fabric`.
    pub fn new(ctx: &Ctx, fabric: Fabric, spec: TransportSpec) -> Self {
        let workers = (0..fabric.n_nodes()).map(|_| RefCell::default()).collect();
        Transport {
            inner: Rc::new(Inner {
                ctx: ctx.clone(),
                fabric,
                spec,
                workers,
                stats: RefCell::new(TransportStats::default()),
                faults: RefCell::new(None),
            }),
        }
    }

    /// Aggregate message counters.
    pub fn stats(&self) -> TransportStats {
        *self.inner.stats.borrow()
    }

    /// Attach a fault board. [`Endpoint::rpc_retrying`] consults it for
    /// reachability; [`Endpoint::rpc`] stays board-blind. Without a board
    /// every RPC is the same single attempt that cannot fail.
    pub fn set_faults(&self, board: FaultBoard) {
        *self.inner.faults.borrow_mut() = Some(board);
    }

    /// The attached fault board, if any.
    pub fn faults(&self) -> Option<FaultBoard> {
        self.inner.faults.borrow().clone()
    }

    /// Protocol parameters.
    pub(crate) fn spec(&self) -> TransportSpec {
        self.inner.spec
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// Obtain the endpoint handle for a node.
    pub fn endpoint(&self, node: NodeId) -> Endpoint {
        assert!((node.0 as usize) < self.inner.workers.len());
        Endpoint {
            tp: self.clone(),
            node,
        }
    }

    /// A weak handle for use inside registered handlers.
    ///
    /// Handler closures live in the transport's own tables, so a closure
    /// that captured a strong `Transport` clone would form a reference
    /// cycle (`Inner → handler → Transport → Inner`) that keeps the
    /// transport — and everything every handler captured, such as OST
    /// object data or a staged-frame store — alive after the simulation
    /// is torn down. Handlers must capture `downgrade()` instead and
    /// [`WeakTransport::upgrade`] at call time; a handler only ever runs
    /// while the transport that dispatched it is alive.
    pub fn downgrade(&self) -> WeakTransport {
        WeakTransport {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Register an active-message handler on `node`: a [`Message`] in,
    /// one of the same type out — control bytes, or a bulk `(header,
    /// payload)`. Replaces any previous handler with the same id. The
    /// closure returns its own future type — nothing is boxed per call
    /// (see the module docs).
    pub fn register_am<M, F, Fut>(&self, node: NodeId, id: AmId, handler: Rc<F>)
    where
        M: Message,
        F: Fn(M) -> Fut + 'static,
        Fut: Future<Output = M> + 'static,
    {
        let entry = M::entry(Registration::new(move |req| handler(req)));
        self.worker(node).borrow_mut().handlers.insert(id, entry);
    }

    /// Slot occupancy of the AM handler registered as `(node, id)`: what
    /// is in flight, what is kept idle. For tests and health checks.
    pub fn am_slots(&self, node: NodeId, id: AmId) -> HandlerSlots {
        match self.worker(node).borrow().handlers.get(&id) {
            Some(Handler::Control(service)) => service.slots(),
            Some(Handler::Bulk(service)) => service.slots(),
            None => panic!("no AM handler {id:?} on {node}"),
        }
    }

    fn worker(&self, node: NodeId) -> &RefCell<WorkerState> {
        &self.inner.workers[node.0 as usize]
    }

    fn service<M: Message>(&self, node: NodeId, id: AmId) -> Rc<dyn Service<M>> {
        let w = self.worker(node).borrow();
        let service = w.handlers.get(&id).and_then(M::service);
        Rc::clone(service.unwrap_or_else(|| panic!("no {id:?} of this type on {node}")))
    }
}

/// A non-owning [`Transport`] handle (see [`Transport::downgrade`]).
#[derive(Clone)]
pub struct WeakTransport {
    inner: std::rc::Weak<Inner>,
}

impl WeakTransport {
    /// Recover the strong handle. Panics if the transport has been torn
    /// down — valid inside handlers, which only run while it is alive.
    pub fn upgrade(&self) -> Transport {
        Transport {
            inner: self
                .inner
                .upgrade()
                .expect("WeakTransport used after the transport was dropped"),
        }
    }
}

/// A node-local communication endpoint.
#[derive(Clone)]
pub struct Endpoint {
    tp: Transport,
    node: NodeId,
}

impl Endpoint {
    /// The transport's fault board, if one is attached.
    pub fn faults(&self) -> Option<FaultBoard> {
        self.tp.faults()
    }

    /// Send `payload` to `dst` with tag `tag`, completing when the
    /// receiver has the data (UCX semantics for rendezvous sends).
    pub async fn tag_send(&self, dst: NodeId, tag: Tag, payload: Bytes) {
        let spec = self.tp.spec();
        let len = payload.len() as u64;
        let eager = len <= spec.rndv_threshold;
        {
            let mut st = self.tp.inner.stats.borrow_mut();
            if eager {
                st.eager_sends += 1;
            } else {
                st.rndv_sends += 1;
            }
            st.tag_bytes += len;
        }
        // Eager: header + payload in one message. Rendezvous: the RTS
        // header now; the receiver RDMA-reads the payload and FINs.
        let wire = if eager { len } else { 0 };
        self.tp
            .fabric()
            .send(self.node, dst, spec.header_bytes + wire)
            .await;
        let (done_tx, done_rx) = oneshot();
        let src = self.node;
        deliver_send(
            &self.tp,
            dst,
            tag,
            PendingSend {
                src,
                payload,
                done: done_tx,
            },
        );
        // Eager sends complete locally once the wire transfer is done;
        // matching later cannot fail, so don't wait for it. A rendezvous
        // send completes at FIN.
        if !eager {
            done_rx.await.expect("receiver side dropped mid-rendezvous");
        }
    }

    /// Receive a message sent to this node with tag `tag`. Returns the
    /// sender and the payload.
    pub async fn tag_recv(&self, tag: Tag) -> (NodeId, Bytes) {
        // Check the unexpected queue or park, without holding the worker
        // borrow across any await.
        let parked = {
            let mut w = self.tp.inner.workers[self.node.0 as usize].borrow_mut();
            match w
                .queues
                .unexpected
                .get_mut(&tag)
                .and_then(|q| q.pop_front())
            {
                Some(p) => Ok(p),
                None => {
                    let (tx, rx) = oneshot();
                    w.queues.expected.entry(tag).or_default().push_back(tx);
                    Err(rx)
                }
            }
        };
        let pending = match parked {
            Ok(p) => p,
            // Park until a send matches us.
            Err(rx) => rx.await.expect("transport closed"),
        };
        self.complete_recv(pending).await
    }

    async fn complete_recv(&self, pending: PendingSend) -> (NodeId, Bytes) {
        let spec = self.tp.spec();
        let len = pending.payload.len() as u64;
        // Eager: the payload already arrived with the message. Rendezvous:
        // pull it via RDMA read, then FIN.
        if len > spec.rndv_threshold {
            let fabric = self.tp.fabric();
            fabric.rdma_read(self.node, pending.src, len).await;
            fabric.send(self.node, pending.src, spec.header_bytes).await;
        }
        let _ = pending.done.send(());
        (pending.src, pending.payload)
    }

    /// One RPC attempt against the handler registered as `(dst, id)`; the
    /// handler runs on the destination node's worker. With `board: None`
    /// the attempt cannot fail. With a board, the destination's
    /// reachability is checked before the request goes on the wire, after
    /// it lands (the node may crash mid-flight), and before the response
    /// is sent back (a reply lost to a crash still leaves the handler's
    /// side effects applied, as on real systems).
    fn attempt<'a, M: Message>(
        &'a self,
        board: Option<&'a FaultBoard>,
        dst: NodeId,
        id: AmId,
        request: M,
    ) -> impl Future<Output = Result<M, TransportError>> + 'a {
        async move {
            *M::attempts(&mut self.tp.inner.stats.borrow_mut()) += 1;
            if board.is_some_and(|b| !b.reachable(self.node.0, dst.0)) {
                return Err(TransportError::Unreachable { node: dst });
            }
            self.send(self.node, dst, &request).await;
            if board.is_some_and(|b| !b.node_up(dst.0)) {
                return Err(TransportError::Unreachable { node: dst });
            }
            let response = HandlerCall::start(self.tp.service(dst, id), request).await;
            if board.is_some_and(|b| !b.reachable(dst.0, self.node.0)) {
                return Err(TransportError::Unreachable { node: dst });
            }
            self.send(dst, self.node, &response).await;
            Ok(response)
        }
    }

    /// Put one direction of an RPC on the wire: a header plus the message
    /// — a control message's bytes, or a bulk descriptor followed by its
    /// payload (as in Lustre `brw` and UCX rendezvous). Its payload bytes
    /// are booked here, as they cross.
    fn send<M: Message>(&self, src: NodeId, dst: NodeId, msg: &M) -> impl Future<Output = ()> + '_ {
        let (inner, (wire, bulk)) = (&self.tp.inner, msg.lens());
        inner.stats.borrow_mut().bulk_bytes += bulk;
        inner.fabric.send(src, dst, inner.spec.header_bytes + wire)
    }

    /// Board-blind RPC (`pfs` control and data paths, mesh replication):
    /// never consults the fault board, so it cannot fail.
    pub fn rpc<M: Message>(
        &self,
        dst: NodeId,
        id: AmId,
        request: M,
    ) -> impl Future<Output = M> + '_ {
        async move {
            self.attempt(None, dst, id, request)
                .await
                .expect("rpc cannot fail without a fault board")
        }
    }

    /// Book a failed attempt of the `*_retrying` forms: the pause before
    /// the next one (exponential backoff with jitter, per `policy`), or
    /// the give-up error once the budget is spent.
    fn retry_pause(
        &self,
        dst: NodeId,
        policy: &RetryPolicy,
        rng: &mut StdRng,
        attempts: &mut u32,
    ) -> Result<SimDuration, TransportError> {
        *attempts += 1;
        let mut st = self.tp.inner.stats.borrow_mut();
        if *attempts >= policy.max_attempts {
            st.rpc_giveups += 1;
            return Err(TransportError::Exhausted {
                node: dst,
                attempts: *attempts,
            });
        }
        let pause = policy.backoff(*attempts - 1, rng);
        st.rpc_retries += 1;
        st.retry_backoff_ns += pause.nanos();
        Ok(pause)
    }

    /// RPC with retry: attempts under a per-attempt timeout, with
    /// backoff between them, per `policy`. With no fault board attached
    /// this is a single attempt that cannot fail — no timer is armed and
    /// `rng` is not drawn, so healthy-path trajectories are unchanged. A
    /// bulk payload's segments are zero-copy `Bytes` clones, so re-sending
    /// is cheap.
    pub fn rpc_retrying<'a, M: Message>(
        &'a self,
        dst: NodeId,
        id: AmId,
        request: M,
        policy: &'a RetryPolicy,
        rng: &'a mut StdRng,
    ) -> impl Future<Output = Result<M, TransportError>> + 'a {
        async move {
            let Some(board) = self.tp.faults() else {
                return self.attempt(None, dst, id, request).await;
            };
            let ctx = &self.tp.inner.ctx;
            let mut attempts = 0;
            loop {
                let attempt = self.attempt(Some(&board), dst, id, request.clone());
                if let Ok(Ok(resp)) = timeout(ctx, policy.attempt_timeout, attempt).await {
                    return Ok(resp);
                }
                let pause = self.retry_pause(dst, policy, rng, &mut attempts)?;
                ctx.sleep(pause).await;
            }
        }
    }
}

/// Route an arrived send to a parked receive, or queue it as unexpected.
fn deliver_send(tp: &Transport, dst: NodeId, tag: Tag, mut pending: PendingSend) {
    let mut w = tp.inner.workers[dst.0 as usize].borrow_mut();
    // Skip receives whose futures were dropped (send() returns Err).
    if let Some(q) = w.queues.expected.get_mut(&tag) {
        while let Some(rx) = q.pop_front() {
            match rx.send(pending) {
                Ok(()) => return,
                Err(p) => pending = p,
            }
        }
    }
    w.queues
        .unexpected
        .entry(tag)
        .or_default()
        .push_back(pending);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use simcore::{Sim, SimDuration};

    fn setup(sim: &Sim, n: usize) -> Transport {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(n));
        Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default())
    }

    #[test]
    fn eager_send_recv_roundtrip() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        let data = Bytes::from_static(b"hello world");
        let rx_ep = tp.endpoint(NodeId(1));
        let h = sim.spawn(async move { rx_ep.tag_recv(Tag(7)).await });
        let tx_ep = tp.endpoint(NodeId(0));
        let d2 = data.clone();
        sim.spawn(async move { tx_ep.tag_send(NodeId(1), Tag(7), d2).await });
        sim.run();
        let (src, got) = h.try_take().unwrap();
        assert_eq!(src, NodeId(0));
        assert_eq!(got, data);
    }

    #[test]
    fn rendezvous_used_for_large_payloads() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        let payload = Bytes::from(vec![0xAB; 1_000_000]); // 1 MB > 8 KiB
        let rx_ep = tp.endpoint(NodeId(1));
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let (_, data) = rx_ep.tag_recv(Tag(1)).await;
            (ctx.now().as_secs_f64(), data.len())
        });
        let tx_ep = tp.endpoint(NodeId(0));
        sim.spawn(async move { tx_ep.tag_send(NodeId(1), Tag(1), payload).await });
        sim.run();
        let (t, len) = h.try_take().unwrap();
        assert_eq!(len, 1_000_000);
        // At least the payload streaming time at 4 GB/s (~250 µs).
        assert!(t >= 0.000250, "took {t}");
        // And well under a millisecond (no pathological serialization).
        assert!(t < 0.001, "took {t}");
    }

    #[test]
    fn unexpected_messages_queue_until_recv_posted() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        let tx_ep = tp.endpoint(NodeId(0));
        sim.spawn(async move {
            tx_ep
                .tag_send(NodeId(1), Tag(3), Bytes::from_static(b"x"))
                .await;
        });
        let rx_ep = tp.endpoint(NodeId(1));
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(10)).await; // post late
            rx_ep.tag_recv(Tag(3)).await.1
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Bytes::from_static(b"x"));
    }

    #[test]
    fn different_tags_do_not_match() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        let got_wrong = Rc::new(std::cell::Cell::new(false));
        {
            let rx_ep = tp.endpoint(NodeId(1));
            let got_wrong = got_wrong.clone();
            sim.spawn(async move {
                rx_ep.tag_recv(Tag(99)).await;
                got_wrong.set(true);
            });
        }
        let tx_ep = tp.endpoint(NodeId(0));
        sim.spawn(async move {
            tx_ep
                .tag_send(NodeId(1), Tag(1), Bytes::from_static(b"y"))
                .await;
        });
        let report = sim.run();
        assert!(!got_wrong.get());
        assert_eq!(report.deadlocked_tasks, 1); // the Tag(99) recv never matches
    }

    #[test]
    fn sends_matched_in_fifo_order() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        for i in 0..3u8 {
            let ep = tp.endpoint(NodeId(0));
            let ctx = sim.ctx();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(i as u64 * 100)).await;
                ep.tag_send(NodeId(1), Tag(5), Bytes::from(vec![i])).await;
            });
        }
        let rx_ep = tp.endpoint(NodeId(1));
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(rx_ep.tag_recv(Tag(5)).await.1[0]);
            }
            got
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn rpc_invokes_remote_handler() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        // Handler on node 1 doubles each byte. (A handler that boxes its
        // future, as they all once had to, still registers.)
        tp.register_am(
            NodeId(1),
            AmId(1),
            Rc::new(|req: Bytes| {
                Box::pin(async move {
                    let out: Vec<u8> = req.iter().map(|b| b * 2).collect();
                    Bytes::from(out)
                }) as LocalBoxFuture<Bytes>
            }),
        );
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            ep.rpc(NodeId(1), AmId(1), Bytes::from_static(&[1, 2, 3]))
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Bytes::from_static(&[2, 4, 6]));
    }

    /// A handler that panics unwinds through the attempt like any other
    /// panic: releasing the slot its poll never put back must not panic
    /// again (a second panic while unwinding aborts the process).
    #[test]
    #[should_panic(expected = "handler blew up")]
    fn handler_panic_unwinds_through_the_attempt() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(
            NodeId(1),
            AmId(1),
            Rc::new(|_req: Bytes| async move { panic!("handler blew up") }),
        );
        let ep = tp.endpoint(NodeId(0));
        sim.spawn(async move { ep.rpc(NodeId(1), AmId(1), Bytes::new()).await });
        sim.run();
    }

    #[test]
    fn rpc_pays_round_trip_latency() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(
            NodeId(1),
            AmId(2),
            Rc::new(|_req| async move { Bytes::new() }),
        );
        let ep = tp.endpoint(NodeId(0));
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ep.rpc(NodeId(1), AmId(2), Bytes::new()).await;
            ctx.now().nanos()
        });
        sim.run();
        // Two fabric messages, each 1 µs overhead + 3 µs wire + 64 B
        // payload streaming (16 ns at 4 GB/s each).
        let t = h.try_take().unwrap();
        assert!((8_000..9_000).contains(&t), "took {t} ns");
    }

    #[test]
    fn local_rpc_is_cheap() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(
            NodeId(0),
            AmId(3),
            Rc::new(|_req| async move { Bytes::new() }),
        );
        let ep = tp.endpoint(NodeId(0));
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ep.rpc(NodeId(0), AmId(3), Bytes::new()).await;
            ctx.now().nanos()
        });
        sim.run();
        // Intra-node: memory-copy cost only (64 B headers at 20 GB/s).
        assert!(h.try_take().unwrap() < 100);
    }

    #[test]
    fn payload_integrity_through_rendezvous() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let rx_ep = tp.endpoint(NodeId(1));
        let h = sim.spawn(async move { rx_ep.tag_recv(Tag(9)).await.1 });
        let tx_ep = tp.endpoint(NodeId(0));
        sim.spawn(async move {
            tx_ep
                .tag_send(NodeId(1), Tag(9), Bytes::from(payload))
                .await;
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Bytes::from(expect));
    }

    #[test]
    fn stats_count_protocols_and_bytes() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(
            NodeId(1),
            AmId(9),
            Rc::new(|_req| async move { Bytes::new() }),
        );
        tp.register_am(
            NodeId(1),
            AmId(10),
            Rc::new(|(_, p): Bulk| async move { (Bytes::new(), p) }),
        );
        let rx_ep = tp.endpoint(NodeId(1));
        sim.spawn(async move {
            rx_ep.tag_recv(Tag(1)).await;
            rx_ep.tag_recv(Tag(2)).await;
        });
        let ep = tp.endpoint(NodeId(0));
        sim.spawn(async move {
            ep.tag_send(NodeId(1), Tag(1), Bytes::from(vec![0u8; 100]))
                .await;
            ep.tag_send(NodeId(1), Tag(2), Bytes::from(vec![0u8; 100_000]))
                .await;
            ep.rpc(NodeId(1), AmId(9), Bytes::new()).await;
            let frame = vec![Bytes::from(vec![1u8; 500])];
            ep.rpc(NodeId(1), AmId(10), (Bytes::new(), frame)).await;
        });
        assert!(sim.run().is_clean());
        let st = tp.stats();
        assert_eq!(st.eager_sends, 1);
        assert_eq!(st.rndv_sends, 1);
        assert_eq!(st.tag_bytes, 100_100);
        assert_eq!(st.rpcs, 1);
        assert_eq!(st.bulk_rpcs, 1);
        // 500 request + 500 echoed response.
        assert_eq!(st.bulk_bytes, 1_000);
    }

    #[test]
    fn concurrent_rendezvous_transfers_share_links() {
        // Two large transfers from the same source node must take about
        // twice as long as one (tx port is the bottleneck).
        let sim = Sim::new(0);
        let tp = setup(&sim, 3);
        let mut hs = Vec::new();
        for dst in [1u32, 2u32] {
            let rx_ep = tp.endpoint(NodeId(dst));
            let ctx = sim.ctx();
            hs.push(sim.spawn(async move {
                rx_ep.tag_recv(Tag(dst as u64)).await;
                ctx.now().as_secs_f64()
            }));
            let tx_ep = tp.endpoint(NodeId(0));
            sim.spawn(async move {
                tx_ep
                    .tag_send(
                        NodeId(dst),
                        Tag(dst as u64),
                        Bytes::from(vec![0u8; 400_000_000]),
                    )
                    .await;
            });
        }
        sim.run();
        for h in hs {
            let t = h.try_take().unwrap();
            // 0.8 GB total over a 4 GB/s tx port ≈ 0.2 s.
            assert!((t - 0.2).abs() < 0.01, "took {t}");
        }
    }

    use faults::{FaultEvent, FaultKind, FaultPlan};
    use rand::SeedableRng;

    fn echo_handler() -> Rc<impl Fn(Bytes) -> std::future::Ready<Bytes>> {
        Rc::new(|req: Bytes| std::future::ready(req))
    }

    #[test]
    fn retrying_without_board_is_plain_rpc() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(1), echo_handler());
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            let mut rng = StdRng::seed_from_u64(1);
            ep.rpc_retrying(
                NodeId(1),
                AmId(1),
                Bytes::from_static(b"ping"),
                &RetryPolicy::transport_default(),
                &mut rng,
            )
            .await
        });
        assert!(sim.run().is_clean());
        assert_eq!(h.try_take().unwrap().unwrap(), Bytes::from_static(b"ping"));
        let st = tp.stats();
        assert_eq!(st.rpcs, 1);
        assert_eq!(st.rpc_retries, 0);
        assert_eq!(st.retry_backoff_ns, 0);
    }

    #[test]
    fn rpc_retries_through_a_crash_window() {
        let sim = Sim::new(7);
        let ctx = sim.ctx();
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(1), echo_handler());
        let board = FaultBoard::new(&ctx, 2, 0);
        tp.set_faults(board.clone());
        // Node 1 is down from t=0 for 2 ms; backoff must carry the
        // caller past the restart.
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_millis(2),
            },
        }]));
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            let mut rng = StdRng::seed_from_u64(2);
            ep.rpc_retrying(
                NodeId(1),
                AmId(1),
                Bytes::from_static(b"hi"),
                &RetryPolicy::transport_default(),
                &mut rng,
            )
            .await
        });
        assert!(sim.run().is_clean());
        assert_eq!(h.try_take().unwrap().unwrap(), Bytes::from_static(b"hi"));
        let st = tp.stats();
        assert!(st.rpc_retries >= 1, "expected retries, got {st:?}");
        assert_eq!(st.rpc_giveups, 0);
        assert!(st.retry_backoff_ns > 0);
    }

    #[test]
    fn rpc_exhausts_retries_when_node_stays_down() {
        let sim = Sim::new(3);
        let ctx = sim.ctx();
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(1), echo_handler());
        let board = FaultBoard::new(&ctx, 2, 0);
        tp.set_faults(board.clone());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_secs(3600),
            },
        }]));
        let policy = RetryPolicy::transport_default();
        let max = policy.max_attempts;
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            let mut rng = StdRng::seed_from_u64(4);
            ep.rpc_retrying(NodeId(1), AmId(1), Bytes::new(), &policy, &mut rng)
                .await
        });
        assert!(sim.run().is_clean());
        assert_eq!(
            h.try_take().unwrap(),
            Err(TransportError::Exhausted {
                node: NodeId(1),
                attempts: max,
            })
        );
        assert_eq!(tp.stats().rpc_giveups, 1);
    }

    /// Bytes are booked when they cross the wire: attempts refused as
    /// unreachable move none, however often they are retried.
    #[test]
    fn bulk_bytes_count_only_what_crossed_the_wire() {
        let sim = Sim::new(3);
        let ctx = sim.ctx();
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(10), Rc::new(|req: Bulk| async move { req }));
        let board = FaultBoard::new(&ctx, 2, 0);
        tp.set_faults(board.clone());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_secs(3600),
            },
        }]));
        let policy = RetryPolicy::transport_default();
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            // Start once the crash is in effect: no attempt gets through.
            ctx.sleep(SimDuration::from_micros(1)).await;
            let mut rng = StdRng::seed_from_u64(4);
            let frame = vec![Bytes::from(vec![7u8; 4096])];
            let req = (Bytes::new(), frame);
            ep.rpc_retrying(NodeId(1), AmId(10), req, &policy, &mut rng)
                .await
        });
        assert!(sim.run().is_clean());
        assert!(matches!(
            h.try_take().unwrap(),
            Err(TransportError::Exhausted { .. })
        ));
        let st = tp.stats();
        assert_eq!(st.bulk_rpcs, u64::from(policy.max_attempts));
        assert_eq!(st.bulk_bytes, 0, "refused attempts booked bytes: {st:?}");
    }

    #[test]
    fn bulk_rpc_retries_are_deterministic_per_seed() {
        // Same seed → same completion time and stats; different seed →
        // (almost surely) different backoff jitter.
        let run = |seed: u64| -> (u64, TransportStats) {
            let sim = Sim::new(seed);
            let ctx = sim.ctx();
            let tp = setup(&sim, 2);
            tp.register_am(NodeId(1), AmId(10), Rc::new(|req: Bulk| async move { req }));
            let board = FaultBoard::new(&ctx, 2, 0);
            tp.set_faults(board.clone());
            board.arm(&FaultPlan::scheduled(vec![FaultEvent {
                at: SimDuration::from_nanos(0),
                kind: FaultKind::NodeCrash {
                    node: 1,
                    down_for: SimDuration::from_millis(1),
                },
            }]));
            let ep = tp.endpoint(NodeId(0));
            let ctx2 = ctx.clone();
            let h = sim.spawn(async move {
                let mut rng = StdRng::seed_from_u64(seed);
                let req = (Bytes::new(), vec![Bytes::from_static(b"frame")]);
                let policy = RetryPolicy::transport_default();
                let got = ep
                    .rpc_retrying(NodeId(1), AmId(10), req, &policy, &mut rng)
                    .await;
                assert!(got.is_ok());
                ctx2.now().nanos()
            });
            assert!(sim.run().is_clean());
            (h.try_take().unwrap(), tp.stats())
        };
        let (t_a1, st_a1) = run(11);
        let (t_a2, st_a2) = run(11);
        let (t_b, _) = run(12);
        assert_eq!(t_a1, t_a2);
        assert_eq!(st_a1, st_a2);
        assert_ne!(t_a1, t_b, "different seeds should jitter differently");
    }
}
