//! Cluster assembly: specs plus a builder that instantiates nodes and the
//! fabric inside a simulation.

use std::rc::Rc;

use simcore::Ctx;

use crate::fabric::{Fabric, FabricSpec};
use crate::node::{Node, NodeId, NodeSpec};

/// Static description of a whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// One spec per node.
    pub nodes: Vec<NodeSpec>,
    /// Interconnect parameters.
    pub fabric: FabricSpec,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` identical nodes.
    pub fn homogeneous(n: usize, node: NodeSpec, fabric: FabricSpec) -> Self {
        ClusterSpec {
            nodes: vec![node; n],
            fabric,
        }
    }

    /// An `n`-node Corona-like cluster (the paper's testbed: EPYC 7401 +
    /// 8×MI50 + 3.5 TB NVMe per node, InfiniBand QDR).
    pub fn corona(n: usize) -> Self {
        ClusterSpec::homogeneous(n, NodeSpec::corona(), FabricSpec::infiniband_qdr())
    }
}

/// An instantiated cluster living inside one simulation.
pub struct Cluster {
    nodes: Vec<Rc<Node>>,
    fabric: Fabric,
}

impl Cluster {
    /// Instantiate every node and the fabric.
    pub fn build(ctx: &Ctx, spec: &ClusterSpec) -> Self {
        assert!(!spec.nodes.is_empty(), "cluster needs at least one node");
        let mem_bw = spec.nodes[0].mem_bw;
        let fabric = Fabric::new(ctx, spec.nodes.len(), spec.fabric, mem_bw);
        let nodes = spec
            .nodes
            .iter()
            .enumerate()
            .map(|(i, ns)| Rc::new(Node::new(ctx, NodeId(i as u32), *ns)))
            .collect();
        Cluster { nodes, fabric }
    }

    /// Node handle by id.
    pub fn node(&self, id: NodeId) -> Rc<Node> {
        self.nodes[id.0 as usize].clone()
    }

    /// The interconnect.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    #[test]
    fn corona_preset_shapes() {
        let spec = ClusterSpec::corona(4);
        assert_eq!(spec.nodes.len(), 4);
        assert!((spec.fabric.link_bw - 4.0e9).abs() < 1.0);
    }

    #[test]
    fn build_wires_nodes_and_fabric() {
        let sim = Sim::new(0);
        let cl = Cluster::build(&sim.ctx(), &ClusterSpec::corona(3));
        assert_eq!(cl.nodes.len(), 3);
        assert_eq!(cl.fabric().n_nodes(), 3);
        assert_eq!(cl.node(NodeId(2)).id, NodeId(2));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        let sim = Sim::new(0);
        let _ = Cluster::build(
            &sim.ctx(),
            &ClusterSpec {
                nodes: vec![],
                fabric: FabricSpec::infiniband_qdr(),
            },
        );
    }
}
