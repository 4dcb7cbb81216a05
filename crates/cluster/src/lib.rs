//! # cluster — a simulated HPC machine
//!
//! Substrate for the DYAD reproduction: a deterministic model of the
//! paper's testbed (LLNL Corona). A [`Cluster`] is a set of `Node`s —
//! each with a node-local [`NvmeDevice`] — joined by a
//! [`Fabric`] modelling per-NIC bandwidth contention and wire latency,
//! with RDMA read/write primitives.
//!
//! Time costs are charged on `simcore` resources: NVMe read/write
//! channels and NIC tx/rx ports are processor-sharing bandwidth links, so
//! overlapping I/O and overlapping messages slow each other down exactly
//! as concurrent flows would on real hardware.

#![warn(missing_docs)]

mod fabric;
mod node;
mod topology;

pub use fabric::{Fabric, FabricSpec, TopologySpec};
pub use node::{NodeId, NodeSpec, NvmeDevice};
pub use topology::{Cluster, ClusterSpec};
