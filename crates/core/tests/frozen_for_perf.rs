//! The nine names the frozen benchmark still calls, called the way it
//! calls them (`perf/src/probes/cluster_fabric_leafspine.rs:28–39`,
//! `perf/src/rep.rs:284`). Tier-1 does not build `perf/`, so without
//! this a rename fails only CI's `bench-smoke`. DESIGN.md §12 lists the
//! names; they go with their callers.

use cluster::{Cluster, ClusterSpec, FabricSpec, NodeId, NodeSpec, TopologySpec};
use mdflow::prelude::*;
use simcore::{Sim, SimConfig};

const NODES: u32 = 8;
const RADIX: u32 = 4;

/// The leaf/spine probe's body at two leaves — `SimConfig::{new,
/// with_shards, with_lookahead}`, `Sim::with_config`,
/// `FabricSpec::{shard_count, shard_of, shard_lookahead}`,
/// `Ctx::spawn_on` — then `RunTimings::shard_load` as `rep.rs` reads it.
#[test]
fn the_nine_frozen_names_are_callable() {
    let fabric_spec = FabricSpec::infiniband_qdr().with_topology(TopologySpec::LeafSpine {
        radix: RADIX,
        oversubscription: 2.0,
    });
    let sim = Sim::with_config(
        SimConfig::new(0)
            .with_shards(fabric_spec.shard_count(NODES as usize))
            .with_lookahead(fabric_spec.shard_lookahead()),
    );
    let ctx = sim.ctx();
    let spec = ClusterSpec::homogeneous(NODES as usize, NodeSpec::corona(), fabric_spec);
    let cluster = Cluster::build(&ctx, &spec);
    for n in 0..NODES {
        let fabric = cluster.fabric().clone();
        let shard = fabric_spec.shard_of(NodeId(n), NODES as usize);
        ctx.spawn_on(shard, async move {
            fabric
                .send(NodeId(n), NodeId((n + RADIX) % NODES), 64 << 10)
                .await;
        });
    }
    let report = sim.run();
    assert!(report.is_clean());
    assert_eq!(report.tasks_spawned, u64::from(NODES));

    let wf = WorkflowConfig::new(Solution::Dyad, 2, Placement::SingleNode).with_frames(4);
    let snap = ClusterSnapshot::prepare(&wf, &Calibration::corona(), 7);
    let (_, t) = run_once_warm(&snap, 7, &mut RunArena::new());
    let load = t.shard_load.expect("a run reports its calendar load");
    assert_eq!(load.shards, 1);
    assert_eq!(load.imbalance, 1.0);
}
