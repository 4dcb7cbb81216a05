//! The names the frozen benchmark still calls and the simulator does
//! not, called the way it calls them: the nine shard-era names
//! (`perf/src/probes/cluster_fabric_leafspine.rs:28–39`,
//! `perf/src/rep.rs:284`) and the three frame-era shims
//! (`FrameTemplate::generate(model, seed)` with `.frame_segments(step)`
//! in the `mdsim`, `dyad` and `streaming` probes, `Frame::decode` in
//! `mdsim_frame_decode.rs`, `ClusterSnapshot::prepare(wf, cal, seed)` in
//! `rep.rs:250`). Tier-1 does not build `perf/`, so without this a
//! rename fails only CI's `bench-smoke`. DESIGN.md §12 lists the names;
//! they go with their callers.

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, FabricSpec, NodeId, NodeSpec, TopologySpec};
use mdflow::prelude::*;
use mdsim::{Frame, FrameError, FrameTemplate};
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

/// The frame shims forward to `Model::frame_segments` and the header
/// check; the snapshot shim to `ClusterSnapshot::new`. Seeds change
/// nothing.
#[test]
fn the_frame_shims_forward() {
    let template = FrameTemplate::generate(Model::ApoA1, 1);
    let segments = template.frame_segments(7);
    assert_eq!(segments, Model::ApoA1.frame_segments(7));
    let flat = transport::flatten_payload(segments);
    let header = Frame::decode(flat.clone()).expect("valid frame");
    assert_eq!((header.model, header.step), (Model::ApoA1, 7));
    let short: Bytes = flat.slice(..flat.len() - 1);
    assert_eq!(Frame::decode(short), Err(FrameError::WrongLength));

    let wf = WorkflowConfig::new(Solution::Dyad, 2, Placement::SingleNode).with_frames(4);
    let cal = Calibration::corona();
    let (a, _) = run_once_warm(
        &ClusterSnapshot::prepare(&wf, &cal, 1),
        7,
        &mut RunArena::new(),
    );
    let (b, _) = run_once_warm(&ClusterSnapshot::new(&wf, &cal), 7, &mut RunArena::new());
    assert_eq!(a.events, b.events);
}
