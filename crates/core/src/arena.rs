//! Warm-start machinery for campaign execution: per-study cluster
//! snapshots and per-worker run arenas.
//!
//! A cold [`crate::runner::run_once`] rebuilds everything from scratch:
//! the placement plan, the cluster spec, the fault plan, the frame
//! template (O(atoms) — ~30 MB of synthesis for STMV), and a fresh
//! executor with an empty calendar. For a single run that is fine; for a
//! campaign of thousands of runs the setup tax dominates. This module
//! splits the per-run state into what is *shareable across runs of the
//! same sweep point* ([`ClusterSnapshot`]) and what is *recyclable
//! across consecutive runs on one worker* ([`RunArena`]):
//!
//! * [`ClusterSnapshot`] holds the simulation-independent setup: the
//!   workflow + calibration, the resolved topology (ensemble shape,
//!   node count, PFS service-node layout, cluster spec), the fault-board
//!   template (the pre-built deterministic [`FaultPlan`]), the shared
//!   frame template, and the staging registration keys. It is
//!   `Send + Sync` and shared by reference across workers. The live
//!   substrates (cluster, filesystems, services) are `Rc`-wired into one
//!   simulation and are rebuilt per run *from* the snapshot — rebuilding
//!   from precomputed specs is cheap; recomputing the specs (above all
//!   the template) is not.
//! * [`RunArena`] carries a recycled [`simcore::SimArena`] — the event
//!   calendar, slot slab, task map and wake buffers of the previous run,
//!   cleared with capacities kept — plus nothing else: interner tables
//!   are thread-local and warm up on their own per worker.
//!
//! Determinism: a warm run is trajectory-identical to a cold run with
//! the same seed. The arena resets every executor counter; the snapshot
//! only changes *when* setup work happens, not what the simulation
//! observes. The one intentional difference is the frame template's
//! payload bytes (one template per point — shared by the points of a
//! campaign with the same model and template seed — instead of one per
//! run seed), which
//! never influence timing: service times depend on byte *counts*, and
//! consumers validate frames against the very template object that
//! produced them.

use serde::Serialize;

use crate::calibration::Calibration;
use crate::config::{Ensemble, WorkflowConfig};
use cluster::{ClusterSpec, NodeId};
use faults::FaultPlan;
use mdsim::FrameTemplate;
use simcore::SimDuration;

/// Wall-clock split of one run: how long setup (building substrates
/// from the snapshot) took versus executing the simulation itself.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RunTimings {
    /// Seconds from run start until the workload was spawned and the
    /// event loop was ready to execute.
    pub setup_secs: f64,
    /// Seconds spent advancing the simulation and collecting results.
    pub sim_secs: f64,
    /// Frozen for `perf/` (DESIGN.md §12): `Some(ShardLoad { shards: 1, imbalance: 1.0 })` after every run; not serialized.
    #[serde(skip)]
    pub shard_load: Option<instrument::ShardLoad>,
}

/// Reusable per-worker run state: the recycled executor arena. Keep one
/// per worker thread and pass it to every
/// [`crate::runner::run_once_warm`] call; the first run is cold, every
/// later run reuses the previous run's allocations.
#[derive(Default)]
pub struct RunArena {
    pub(crate) sim: simcore::SimArena,
}

impl RunArena {
    /// A fresh arena (first run through it pays cold-start cost).
    pub fn new() -> RunArena {
        RunArena::default()
    }
}

/// Everything about one sweep point that can be computed once and
/// shared, read-only, by every repetition — across worker threads.
/// See the module docs for the shareable/recyclable split.
pub struct ClusterSnapshot {
    /// The workflow this snapshot was prepared for.
    pub(crate) workflow: WorkflowConfig,
    /// Testbed parameters.
    pub(crate) calibration: Calibration,
    /// Shape and placement of the ensemble.
    pub(crate) ensemble: Ensemble,
    /// Compute nodes (the ensemble's node count).
    pub(crate) n_compute: usize,
    /// Total nodes including PFS service nodes.
    pub(crate) n_total: usize,
    /// MDS + OST node ids, when the point needs a PFS.
    pub(crate) pfs_nodes: Option<(NodeId, Vec<NodeId>)>,
    /// The homogeneous cluster spec every run builds from.
    pub(crate) spec: ClusterSpec,
    /// Pre-built deterministic fault plan (the fault-board template);
    /// `None` when fault injection is disabled for this point.
    pub(crate) fault_plan: Option<FaultPlan>,
    /// Shared frame payload template (cheap to clone per run).
    pub(crate) template: FrameTemplate,
    /// Staging registrations `(publisher node, managed directory,
    /// consumer id)`, one per session that must ack what a publisher
    /// stages before it can retire ([`crate::workflow::registrations`]).
    pub(crate) registrations: Vec<(u32, String, String)>,
}

impl ClusterSnapshot {
    /// Prepare the shareable setup for `wf` under `cal`. The template is
    /// synthesized from `template_seed`; any fixed seed works for a
    /// campaign point (payload bytes never affect timing).
    ///
    /// # Panics
    /// With the [`crate::config::ConfigError`] as the message when
    /// [`WorkflowConfig::validate`] rejects `wf`.
    pub fn prepare(wf: &WorkflowConfig, cal: &Calibration, template_seed: u64) -> ClusterSnapshot {
        let template = FrameTemplate::generate(wf.model, template_seed);
        ClusterSnapshot::prepare_with(wf, cal, template)
    }

    /// The throwaway snapshot of a cold single run at `seed`
    /// ([`crate::runner::run_once`]), whose template seed has always
    /// been `seed ^ 0x7E3A`.
    pub(crate) fn cold(wf: &WorkflowConfig, cal: &Calibration, seed: u64) -> ClusterSnapshot {
        ClusterSnapshot::prepare(wf, cal, seed ^ 0x7E3A)
    }

    /// [`ClusterSnapshot::prepare`] around a template the caller already
    /// holds. A template is a function of `(model, seed)` and a clone
    /// shares its bytes, so the points of a campaign that agree on both
    /// synthesize — and keep — it once.
    pub(crate) fn prepare_with(
        wf: &WorkflowConfig,
        cal: &Calibration,
        template: FrameTemplate,
    ) -> ClusterSnapshot {
        assert_eq!(template.model(), wf.model, "template of another model");
        if let Err(e) = wf.validate() {
            panic!("{e}");
        }
        let row = wf.solution.row();
        let ensemble = wf.ensemble();
        let n_compute = ensemble.compute_nodes();
        let mut n_total = n_compute;
        // The staged backends need the PFS service nodes too when
        // staging may spill.
        let needs_pfs = row.needs_pfs || (row.stages_on_nvme && wf.staging.spill_to_pfs);
        let pfs_nodes = if needs_pfs {
            let mds = n_total as u32;
            let osts: Vec<NodeId> = (0..cal.n_osts as u32)
                .map(|i| NodeId(n_total as u32 + 1 + i))
                .collect();
            n_total += 1 + cal.n_osts;
            Some((NodeId(mds), osts))
        } else {
            None
        };
        let spec = ClusterSpec::homogeneous(n_total, cal.node, cal.fabric);
        let fault_plan = if wf.faults.enabled() {
            let horizon =
                SimDuration::from_secs_f64((wf.frames as f64 * wf.frame_period_secs()).max(1.0));
            // Generated faults target compute nodes only; service nodes
            // (MDS/OSTs) have their own fault classes. Scheduled events
            // may still name any node. Shard-crash events are generated
            // only for a sharded metadata plane: a plan is pinned by its
            // configuration, and a lone broker (every run before the mesh
            // existed) never drew that class. `validate` keeps the
            // replication factor at or below the shard count, so a lone
            // broker is never replicated and a drawn crash would kill the
            // whole plane.
            let n_osts_for_plan = if needs_pfs { cal.n_osts as u32 } else { 0 };
            let sharded = row.needs_kvs && wf.kvs_shards > 1;
            let n_shards_for_plan = if sharded { wf.kvs_shards } else { 0 };
            Some(wf.faults.build_plan(
                horizon,
                n_compute as u32,
                n_osts_for_plan,
                n_shards_for_plan,
            ))
        } else {
            None
        };
        let registrations = crate::workflow::registrations(wf, &ensemble);
        ClusterSnapshot {
            workflow: wf.clone(),
            calibration: cal.clone(),
            ensemble,
            n_compute,
            n_total,
            pfs_nodes,
            spec,
            fault_plan,
            template,
            registrations,
        }
    }

    /// The workflow this snapshot was prepared for.
    pub fn workflow(&self) -> &WorkflowConfig {
        &self.workflow
    }
}

// Snapshots are shared by reference across campaign workers; this fails
// to compile if any field regresses to thread-bound storage.
fn _assert_snapshot_is_shareable() {
    fn ok<T: Send + Sync>() {}
    ok::<ClusterSnapshot>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Placement, Solution};

    #[test]
    fn snapshot_matches_runner_topology() {
        let cal = Calibration::corona();
        // Lustre: PFS nodes appended after the compute nodes.
        let wf = WorkflowConfig::new(Solution::Lustre, 8, Placement::Split { pairs_per_node: 8 });
        let snap = ClusterSnapshot::prepare(&wf, &cal, 1);
        assert_eq!(snap.n_compute, 2);
        assert_eq!(snap.n_total, 2 + 1 + cal.n_osts);
        let (mds, osts) = snap.pfs_nodes.as_ref().unwrap();
        assert_eq!(*mds, NodeId(2));
        assert_eq!(osts.len(), cal.n_osts);
        assert!(snap.registrations.is_empty());
        // DYAD without spill: no PFS nodes, one registration per pair.
        let wf = WorkflowConfig::new(Solution::Dyad, 4, Placement::SingleNode);
        let snap = ClusterSnapshot::prepare(&wf, &cal, 1);
        assert!(snap.pfs_nodes.is_none());
        assert_eq!(snap.n_total, snap.n_compute);
        assert_eq!(snap.registrations.len(), 4);
        let (node, dir, consumer) = &snap.registrations[3];
        assert_eq!(
            (*node, dir.as_str(), consumer.as_str()),
            (0, "/dyad/frames/p0003", "c3")
        );
    }
}
