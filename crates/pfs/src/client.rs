//! The Lustre client: POSIX-ish file operations that translate into MDS
//! and OSS RPCs with parallel per-stripe bulk I/O.

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use bytes::Bytes;
use cluster::NodeId;
use simcore::intern::{intern, Symbol};
use simcore::{Ctx, JoinHandle};
use transport::{AmId, Endpoint, Payload, Transport};

use crate::codec::{Layout, MdsOp, MdsRequestRef, MdsResponse, OssRequest, OssResponse};
use crate::server::{PfsSpec, MDS_AM, OSS_AM_BASE};

/// Errors surfaced by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfsError {
    /// Path unknown to the MDS.
    NotFound,
    /// Descriptor stale or wrong mode.
    BadDescriptor,
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfsError::NotFound => write!(f, "no such file on the MDS"),
            PfsError::BadDescriptor => write!(f, "bad file descriptor"),
        }
    }
}
impl std::error::Error for PfsError {}

/// Slice `len` bytes starting at `start` out of a segment rope,
/// zero-copy (the result holds slices of the input segments).
fn rope_slice(rope: &[Bytes], start: u64, len: u64) -> Payload {
    let mut out = Vec::new();
    let mut base = 0u64;
    let end = start + len;
    for seg in rope {
        let seg_len = seg.len() as u64;
        let seg_end = base + seg_len;
        if seg_end > start && base < end {
            let from = start.max(base) - base;
            let to = end.min(seg_end) - base;
            out.push(seg.slice(from as usize..to as usize));
        }
        base = seg_end;
        if base >= end {
            break;
        }
    }
    out
}

/// How many tasks of one striped I/O are tracked in place: a frame of
/// up to three stripes (JAC, ApoA1) and its throttle drain never send
/// the bookkeeping to the allocator; a larger one spills the rest.
const INLINE: usize = 4;

/// A spawned stripe task, then its result.
enum Stripe<T> {
    Running(JoinHandle<T>),
    Done(T),
}

/// The tasks of one striped I/O, in spawn order.
struct Stripes<T> {
    head: [Option<Stripe<T>>; INLINE],
    tail: Vec<Stripe<T>>,
}

impl<T> Stripes<T> {
    fn new() -> Self {
        Stripes {
            head: [const { None }; INLINE],
            tail: Vec::new(),
        }
    }

    fn push(&mut self, task: JoinHandle<T>) {
        match self.head.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(Stripe::Running(task)),
            None => self.tail.push(Stripe::Running(task)),
        }
    }

    /// Await every task; results in spawn order. Each wake polls all
    /// unfinished tasks in spawn order, so the caller is woken and the
    /// tasks are polled exactly as a `Vec`-based join-all would do it.
    fn join(mut self) -> impl Future<Output = impl Iterator<Item = T>> {
        async move {
            poll_fn(|cx| {
                let mut all = Poll::Ready(());
                for stripe in self.head.iter_mut().flatten().chain(&mut self.tail) {
                    if let Stripe::Running(task) = stripe {
                        match Pin::new(task).poll(cx) {
                            Poll::Ready(v) => *stripe = Stripe::Done(v),
                            Poll::Pending => all = Poll::Pending,
                        }
                    }
                }
                all
            })
            .await;
            let stripes = self.head.into_iter().flatten().chain(self.tail);
            stripes.map(|stripe| match stripe {
                Stripe::Done(v) => v,
                Stripe::Running(_) => unreachable!("join returned with a task running"),
            })
        }
    }
}

/// Client-side file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PfsFd(u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

struct OpenFile {
    // The MDS interned the path serving the open; keep its symbol, not a
    // copy of the text.
    path: Symbol,
    // Shared with every I/O in flight on the descriptor.
    layout: Rc<Layout>,
    size: u64,
    offset: u64,
    mode: Mode,
    dirty: bool,
}

struct ClientState {
    fds: HashMap<PfsFd, OpenFile>,
    next_fd: u64,
}

/// A Lustre-like client bound to one compute node.
#[derive(Clone)]
pub struct PfsClient {
    ctx: Ctx,
    ep: Endpoint,
    mds: NodeId,
    /// Node hosting each OST, indexed by OST id.
    ost_nodes: Rc<Vec<NodeId>>,
    state: Rc<RefCell<ClientState>>,
    spec: PfsSpec,
    /// Per-client stream throttle: each logical I/O drains through this
    /// at the burst rate (≤ cache threshold) or the facility's sustained
    /// rate — the client-cache model of DESIGN.md §5.
    throttle: simcore::resource::SharedBandwidth,
}

impl PfsClient {
    /// Create a client on `node`; `ost_nodes[i]` hosts OST `i`.
    pub(crate) fn new(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        mds: NodeId,
        ost_nodes: Vec<NodeId>,
        spec: PfsSpec,
    ) -> Self {
        PfsClient {
            ctx: ctx.clone(),
            ep: tp.endpoint(node),
            mds,
            ost_nodes: Rc::new(ost_nodes),
            state: Rc::new(RefCell::new(ClientState {
                fds: HashMap::new(),
                next_fd: 3,
            })),
            spec,
            throttle: simcore::resource::SharedBandwidth::new(ctx, spec.burst_cap),
        }
    }

    /// Rate ceiling for one logical I/O of `total` bytes striped over
    /// `streams` OST columns: small I/O rides the client cache at burst
    /// rate; large I/O runs at the sustained per-stream rate times the
    /// number of parallel streams (more stripes → more client
    /// bandwidth, up to the burst ceiling).
    fn stream_cap(&self, total: u64, streams: usize) -> f64 {
        if total <= self.spec.cache_threshold {
            self.spec.burst_cap
        } else {
            (self.spec.sustained_cap * streams.max(1) as f64).min(self.spec.burst_cap)
        }
    }

    fn mds_rpc<'a>(
        &'a self,
        op: MdsOp,
        path: &'a str,
        size: u64,
    ) -> impl Future<Output = MdsResponse> + 'a {
        async move {
            let req = MdsRequestRef { op, path, size }.encode();
            MdsResponse::decode(self.ep.rpc(self.mds, MDS_AM, req).await)
        }
    }

    fn oss_rpc(
        &self,
        ost: u32,
        req: OssRequest,
        payload: Payload,
    ) -> impl Future<Output = (OssResponse, Payload)> + '_ {
        async move {
            let node = self.ost_nodes[ost as usize];
            let (hdr, data) = self
                .ep
                .rpc(node, AmId(OSS_AM_BASE + ost), (req.encode(), payload))
                .await;
            (OssResponse::decode(hdr), data)
        }
    }

    fn new_fd(&self, of: OpenFile) -> PfsFd {
        let mut st = self.state.borrow_mut();
        let fd = PfsFd(st.next_fd);
        st.next_fd += 1;
        st.fds.insert(fd, of);
        fd
    }

    fn open_as<'a>(
        &'a self,
        op: MdsOp,
        path: &'a str,
        mode: Mode,
    ) -> impl Future<Output = Result<PfsFd, PfsError>> + 'a {
        async move {
            match self.mds_rpc(op, path, 0).await {
                MdsResponse::Meta { layout, size } => Ok(self.new_fd(OpenFile {
                    path: intern(path),
                    layout: Rc::new(layout),
                    size,
                    offset: 0,
                    mode,
                    dirty: false,
                })),
                _ => Err(PfsError::NotFound),
            }
        }
    }

    /// Create (or truncate) a file for writing.
    pub fn create<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Future<Output = Result<PfsFd, PfsError>> + 'a {
        async move { self.open_as(MdsOp::Create, path, Mode::Write).await }
    }

    /// Open an existing file read-only.
    pub fn open<'a>(&'a self, path: &'a str) -> impl Future<Output = Result<PfsFd, PfsError>> + 'a {
        async move { self.open_as(MdsOp::Open, path, Mode::Read).await }
    }

    /// Zero-copy write: stripe chunks are `Bytes` slices of `data` and
    /// travel to their OSTs in parallel without copying.
    pub fn write_bytes(
        &self,
        fd: PfsFd,
        data: Bytes,
    ) -> impl Future<Output = Result<(), PfsError>> + '_ {
        async move { self.write_segments(fd, vec![data]).await }
    }

    /// Zero-copy write of a segment rope (e.g. a frame's
    /// `[header, body]` pair) as one logical write.
    pub fn write_segments(
        &self,
        fd: PfsFd,
        mut data: Payload,
    ) -> impl Future<Output = Result<(), PfsError>> + '_ {
        async move {
            let total = transport::payload_len(&data);
            let (layout, offset) = {
                let mut st = self.state.borrow_mut();
                let of = st.fds.get_mut(&fd).ok_or(PfsError::BadDescriptor)?;
                if of.mode != Mode::Write {
                    return Err(PfsError::BadDescriptor);
                }
                let offset = of.offset;
                of.offset += total;
                of.size = of.size.max(of.offset);
                of.dirty = true;
                (Rc::clone(&of.layout), offset)
            };
            // Fire all stripe writes concurrently, as the Lustre client
            // does, while the logical I/O drains through the client stream
            // throttle.
            let mut pos = 0u64;
            let mut stripes = Stripes::new();
            {
                let throttle = self.throttle.clone();
                let cap = self.stream_cap(total, layout.stripe_count());
                stripes.push(self.ctx.spawn(async move {
                    throttle.transfer_capped(total, Some(cap)).await;
                }));
            }
            for (column, obj_off, len) in layout.chunks(offset, total) {
                // A chunk that is the whole rope (every one-stripe frame)
                // travels as the rope it came in.
                let chunk = if len == total {
                    std::mem::take(&mut data)
                } else {
                    rope_slice(&data, pos, len)
                };
                pos += len;
                let ost = layout.osts[column];
                let object = layout.objects[column];
                let this = self.clone();
                stripes.push(self.ctx.spawn(async move {
                    this.oss_rpc(
                        ost,
                        OssRequest::Write {
                            object,
                            offset: obj_off,
                            len,
                            total,
                        },
                        chunk,
                    )
                    .await;
                }));
            }
            stripes.join().await.for_each(drop);
            Ok(())
        }
    }

    fn read_chunks<'a>(
        &'a self,
        layout: &'a Layout,
        offset: u64,
        take: u64,
    ) -> impl Future<Output = Vec<Bytes>> + 'a {
        async move {
            // Drain the logical read through the client stream throttle in
            // parallel with the chunk RPCs.
            let throttle = self.throttle.clone();
            let cap = self.stream_cap(take, layout.stripe_count());
            let drained = self.ctx.spawn(async move {
                throttle.transfer_capped(take, Some(cap)).await;
            });
            let mut stripes = Stripes::new();
            for (column, obj_off, clen) in layout.chunks(offset, take) {
                let ost = layout.osts[column];
                let object = layout.objects[column];
                let this = self.clone();
                stripes.push(self.ctx.spawn(async move {
                    let (_, data) = this
                        .oss_rpc(
                            ost,
                            OssRequest::Read {
                                object,
                                offset: obj_off,
                                len: clen,
                                total: take,
                            },
                            Vec::new(),
                        )
                        .await;
                    data
                }));
            }
            let mut ropes = stripes.join().await;
            drained.await;
            // The first chunk's rope, as it arrived, takes the others on: a
            // one-stripe read hands back the server's own vector.
            let mut out = ropes.next().unwrap_or_default();
            for rope in ropes {
                out.extend(rope);
            }
            out
        }
    }

    /// Zero-copy read of the remainder of the file: one `Bytes` per
    /// stripe chunk, in file order.
    pub fn read_segments(
        &self,
        fd: PfsFd,
    ) -> impl Future<Output = Result<Vec<Bytes>, PfsError>> + '_ {
        async move {
            let (layout, offset, take) = {
                let mut st = self.state.borrow_mut();
                let of = st.fds.get_mut(&fd).ok_or(PfsError::BadDescriptor)?;
                let take = of.size.saturating_sub(of.offset);
                let offset = of.offset;
                of.offset += take;
                (Rc::clone(&of.layout), offset, take)
            };
            if take == 0 {
                return Ok(Vec::new());
            }
            Ok(self.read_chunks(&layout, offset, take).await)
        }
    }

    /// Close, publishing the size to the MDS if the file was written.
    pub fn close(&self, fd: PfsFd) -> impl Future<Output = Result<(), PfsError>> + '_ {
        async move {
            let (path, size, dirty) = {
                let mut st = self.state.borrow_mut();
                let of = st.fds.remove(&fd).ok_or(PfsError::BadDescriptor)?;
                (of.path, of.size, of.dirty)
            };
            if dirty {
                self.mds_rpc(MdsOp::SetSize, path.resolve(), size).await;
            }
            Ok(())
        }
    }

    /// Unlink: MDS removal plus object destruction on every OST column.
    pub fn unlink<'a>(&'a self, path: &'a str) -> impl Future<Output = Result<(), PfsError>> + 'a {
        async move {
            let (layout, _) = self.stat(path).await?;
            self.mds_rpc(MdsOp::Unlink, path, 0).await;
            let mut stripes = Stripes::new();
            for (&ost, &object) in layout.osts.iter().zip(&layout.objects) {
                let this = self.clone();
                stripes.push(self.ctx.spawn(async move {
                    this.oss_rpc(ost, OssRequest::Destroy { object }, Vec::new())
                        .await;
                }));
            }
            stripes.join().await.for_each(drop);
            Ok(())
        }
    }

    /// Stat via the MDS.
    pub fn stat<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Future<Output = Result<(Layout, u64), PfsError>> + 'a {
        async move {
            match self.mds_rpc(MdsOp::Stat, path, 0).await {
                MdsResponse::Meta { layout, size } => Ok((layout, size)),
                _ => Err(PfsError::NotFound),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Sim, SimDuration};

    /// Results come back in spawn order whatever order the tasks finish
    /// in, across the inline slots and the spilled tail alike.
    #[test]
    fn stripes_join_in_spawn_order() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let mut stripes = Stripes::new();
            for i in 0..(INLINE as u64 + 3) {
                let tctx = ctx.clone();
                stripes.push(ctx.spawn(async move {
                    tctx.sleep(SimDuration::from_nanos(100 - i * 10)).await;
                    i
                }));
            }
            stripes.join().await.collect::<Vec<_>>()
        });
        sim.run();
        assert_eq!(
            h.try_take().unwrap(),
            (0..INLINE as u64 + 3).collect::<Vec<_>>()
        );
    }
}
