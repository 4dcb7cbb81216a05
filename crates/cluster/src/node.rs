//! Compute nodes and their node-local NVMe storage.

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use std::future::Future;
use std::rc::Rc;

use simcore::resource::{BwStats, SharedBandwidth};
use simcore::{Ctx, SimDuration};

/// Identifies a node within a [`crate::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static description of one compute node.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// NVMe sequential read bandwidth, bytes/second.
    pub nvme_read_bw: f64,
    /// NVMe sequential write bandwidth, bytes/second.
    pub nvme_write_bw: f64,
    /// Per-operation NVMe latency (submission + completion).
    pub nvme_op_latency: SimDuration,
    /// Memory copy bandwidth for intra-node data movement, bytes/second.
    pub mem_bw: f64,
}

impl NodeSpec {
    /// A Corona-like node: 48-core EPYC, 8×MI50, 3.5 TB NVMe. The paper
    /// runs one process per GPU, so at most 8 producers or consumers
    /// share a node; neither the cores nor the GPUs are modelled.
    ///
    /// NVMe figures approximate a datacenter NVMe drive of that era:
    /// ~3 GB/s write, ~6 GB/s read, ~25 µs per operation.
    pub fn corona() -> Self {
        NodeSpec {
            nvme_read_bw: 6.0e9,
            nvme_write_bw: 3.0e9,
            nvme_op_latency: SimDuration::from_micros(25),
            mem_bw: 20.0e9,
        }
    }
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec::corona()
    }
}

/// A node-local NVMe device.
///
/// Reads and writes are separate processor-sharing channels (NVMe devices
/// service both queues concurrently); every operation additionally pays a
/// fixed submission/completion latency.
#[derive(Clone)]
pub struct NvmeDevice {
    ctx: Ctx,
    read_bw: SharedBandwidth,
    write_bw: SharedBandwidth,
    op_latency: SimDuration,
    slow_probe: Option<Rc<dyn Fn() -> f64>>,
}

impl NvmeDevice {
    /// Build a device from a node spec.
    pub fn new(ctx: &Ctx, spec: &NodeSpec) -> Self {
        NvmeDevice {
            ctx: ctx.clone(),
            read_bw: SharedBandwidth::new(ctx, spec.nvme_read_bw),
            write_bw: SharedBandwidth::new(ctx, spec.nvme_write_bw),
            op_latency: spec.nvme_op_latency,
            slow_probe: None,
        }
    }

    /// Attach a degradation probe: a closure returning the current
    /// service-time multiplier (1.0 = healthy). Sampled once per
    /// operation, at submission. Used by the fault-injection layer;
    /// without a probe the device behaves exactly as before.
    pub fn set_slow_probe(&mut self, probe: Rc<dyn Fn() -> f64>) {
        self.slow_probe = Some(probe);
    }

    /// Current degradation factor (1.0 when no probe is attached).
    fn slow_factor(&self) -> f64 {
        self.slow_probe.as_ref().map_or(1.0, |p| p())
    }

    /// Stretch a finished operation by `factor − 1` of its duration, so a
    /// degraded device serves everything proportionally slower. No-op at
    /// factor 1.0 (adds no events on healthy paths).
    fn stretch(&self, started: simcore::SimTime, factor: f64) -> impl Future<Output = ()> + '_ {
        async move {
            if factor > 1.0 {
                let elapsed = self.ctx.now().since(started);
                self.ctx.sleep(elapsed.mul_f64(factor - 1.0)).await;
            }
        }
    }

    /// Read `bytes` from the device.
    pub fn read(&self, bytes: u64) -> impl Future<Output = ()> + '_ {
        async move {
            let (t0, factor) = (self.ctx.now(), self.slow_factor());
            self.ctx.sleep(self.op_latency).await;
            self.read_bw.transfer_counted(bytes).await;
            self.stretch(t0, factor).await;
        }
    }

    /// Write `bytes` to the device.
    pub fn write(&self, bytes: u64) -> impl Future<Output = ()> + '_ {
        async move {
            let (t0, factor) = (self.ctx.now(), self.slow_factor());
            self.ctx.sleep(self.op_latency).await;
            self.write_bw.transfer_counted(bytes).await;
            self.stretch(t0, factor).await;
        }
    }

    /// Write-channel statistics.
    pub fn write_stats(&self) -> BwStats {
        self.write_bw.stats()
    }
}

/// A compute node: spec plus its NVMe device.
pub struct Node {
    /// This node's id within the cluster.
    pub id: NodeId,
    /// Static hardware description.
    pub spec: NodeSpec,
    /// The node-local NVMe device.
    pub nvme: NvmeDevice,
}

impl Node {
    /// Build a node.
    pub(crate) fn new(ctx: &Ctx, id: NodeId, spec: NodeSpec) -> Self {
        Node {
            id,
            spec,
            nvme: NvmeDevice::new(ctx, &spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    #[test]
    fn nvme_write_charges_latency_plus_bandwidth() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let spec = NodeSpec::corona();
        let dev = NvmeDevice::new(&ctx, &spec);
        let ctx2 = ctx.clone();
        let h = sim.spawn(async move {
            dev.write(3_000_000_000).await; // 1 s at 3 GB/s
            ctx2.now().as_secs_f64()
        });
        sim.run();
        let t = h.try_take().unwrap();
        assert!((t - 1.000025).abs() < 1e-6, "took {t}");
    }

    #[test]
    fn nvme_reads_and_writes_do_not_contend() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
        let r = {
            let dev = dev.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                dev.read(6_000_000_000).await; // 1 s at 6 GB/s
                ctx.now().as_secs_f64()
            })
        };
        let w = {
            let dev = dev.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                dev.write(3_000_000_000).await; // 1 s at 3 GB/s
                ctx.now().as_secs_f64()
            })
        };
        sim.run();
        assert!((r.try_take().unwrap() - 1.000025).abs() < 1e-6);
        assert!((w.try_take().unwrap() - 1.000025).abs() < 1e-6);
    }

    #[test]
    fn slow_probe_stretches_service_time() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let mut dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
        let factor = Rc::new(std::cell::Cell::new(1.0f64));
        let f2 = factor.clone();
        dev.set_slow_probe(Rc::new(move || f2.get()));
        let ctx2 = ctx.clone();
        let h = sim.spawn(async move {
            dev.write(3_000_000_000).await; // 1 s healthy
            let healthy = ctx2.now().as_secs_f64();
            factor.set(3.0);
            dev.write(3_000_000_000).await; // 3 s degraded
            (healthy, ctx2.now().as_secs_f64())
        });
        sim.run();
        let (healthy, done) = h.try_take().unwrap();
        assert!((healthy - 1.000025).abs() < 1e-6, "healthy took {healthy}");
        assert!(
            (done - healthy - 3.000075).abs() < 1e-6,
            "degraded end {done}"
        );
    }

    #[test]
    fn concurrent_writes_share_bandwidth() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
        let mut hs = Vec::new();
        for _ in 0..4 {
            let dev = dev.clone();
            let ctx = ctx.clone();
            hs.push(sim.spawn(async move {
                dev.write(750_000_000).await; // 4 × 0.75 GB on 3 GB/s -> 1 s total
                ctx.now().as_secs_f64()
            }));
        }
        sim.run();
        for h in hs {
            let t = h.try_take().unwrap();
            assert!((t - 1.000025).abs() < 1e-6, "took {t}");
        }
        assert_eq!(dev.write_stats().peak_concurrency, 4);
    }
}
