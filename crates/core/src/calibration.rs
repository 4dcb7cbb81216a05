//! The device/protocol constants the simulated testbed is built from.
//!
//! One struct gathers every substrate's tuning parameters so an entire
//! experiment is reproducible from `(WorkflowConfig, Calibration, seed)`.
//! [`Calibration::corona`] is the default used by all paper-reproduction
//! benches; its values are chosen to be hardware-plausible for LLNL
//! Corona (see DESIGN.md §5) and to reproduce the paper's orderings.

use cluster::{FabricSpec, NodeSpec};
use dyad::DyadSpec;
use kvs::KvsSpec;
use localfs::LocalFsSpec;
use pfs::PfsSpec;
use simcore::SimDuration;
use transport::TransportSpec;

/// Full parameterization of the simulated testbed.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Compute-node hardware (NVMe, memory bandwidth, GPUs).
    pub node: NodeSpec,
    /// Interconnect (per-NIC bandwidth, latencies).
    pub fabric: FabricSpec,
    /// UCX-like transport protocol parameters.
    pub transport: TransportSpec,
    /// Flux-KVS broker parameters.
    pub kvs: KvsSpec,
    /// XFS-like node-local filesystem parameters.
    pub localfs: LocalFsSpec,
    /// Lustre-like parallel filesystem parameters.
    pub pfs: PfsSpec,
    /// DYAD middleware parameters.
    pub dyad: DyadSpec,
    /// Number of OSTs behind the Lustre-like filesystem.
    pub n_osts: usize,
    /// Relative jitter on MD step durations (desynchronizes initially
    /// aligned producers, as real step-time variance does).
    pub md_jitter: f64,
    /// CPU cost of deserializing a frame header on the consumer.
    pub deserialize_cpu: SimDuration,
    /// CPU cost of serializing a frame on the producer.
    pub serialize_cpu: SimDuration,
    /// Consumer launch delay as a fraction of the frame period: the
    /// paper's harness starts producers first, so the consumer's first
    /// (cold) synchronization waits only part of a period.
    pub consumer_launch_delay: f64,
    /// Poll interval for the [`crate::config::ManualSync::Polling`]
    /// protocol.
    pub manual_poll_interval: SimDuration,
    /// Staging evictor frees NVMe down to this fraction of the budget.
    pub staging_low_watermark: f64,
    /// Producers block above this fraction of the staging budget.
    pub staging_high_watermark: f64,
    /// Period of the background staging-evictor pass.
    pub staging_evict_interval: SimDuration,
}

impl Calibration {
    /// The Corona-flavoured default testbed.
    pub fn corona() -> Self {
        Calibration {
            node: NodeSpec::corona(),
            fabric: FabricSpec::infiniband_qdr(),
            transport: TransportSpec::default(),
            kvs: KvsSpec {
                // Flux broker RPCs measured in the tens of µs.
                service_time: SimDuration::from_micros(25),
                server_threads: 8,
                poll_interval: SimDuration::from_millis(1),
            },
            localfs: LocalFsSpec::default(),
            pfs: PfsSpec {
                // A busy, facility-shared filesystem. Small I/O is
                // absorbed by the client cache at near-wire rate
                // (burst); large I/O runs at the facility's sustained
                // per-OST-stream rate (62.5 MB/s × stripe count, i.e.
                // 0.25 GB/s at the default 4-way striping). Effective
                // (not peak) figures; see DESIGN.md §5.
                ost_write_bw: 2.0e9,
                ost_read_bw: 2.5e9,
                burst_cap: 2.0e9,
                sustained_cap: 0.0625e9,
                cache_threshold: 2 << 20,
                interference: 0.25,
                ..PfsSpec::default()
            },
            dyad: DyadSpec::default(),
            n_osts: 8,
            md_jitter: 0.02,
            deserialize_cpu: SimDuration::from_micros(5),
            serialize_cpu: SimDuration::from_micros(5),
            consumer_launch_delay: 0.5,
            manual_poll_interval: SimDuration::from_millis(10),
            staging_low_watermark: 0.7,
            staging_high_watermark: 0.9,
            staging_evict_interval: SimDuration::from_millis(200),
        }
    }

    /// A quiet variant (no Lustre background interference) used by tests
    /// that assert exact orderings.
    pub fn quiet() -> Self {
        let mut c = Calibration::corona();
        c.pfs.interference = 0.0;
        c.md_jitter = 0.0;
        c
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::corona()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corona_is_self_consistent() {
        let c = Calibration::corona();
        assert!(c.node.nvme_write_bw > 0.0);
        assert!(c.n_osts >= 1);
        assert!(c.pfs.interference >= 0.0 && c.pfs.interference < 1.0);
        assert!(c.md_jitter < 0.5);
        assert!(c.staging_low_watermark <= c.staging_high_watermark);
        assert!(c.staging_high_watermark <= 1.0);
    }

    #[test]
    fn quiet_disables_noise() {
        let c = Calibration::quiet();
        assert_eq!(c.pfs.interference, 0.0);
        assert_eq!(c.md_jitter, 0.0);
    }
}
