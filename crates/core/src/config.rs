//! Experiment configuration: which data-management solution, which
//! molecular model, how many pairs, where they run.

use mdsim::Model;
use serde::Serialize;

/// The three data-management solutions of the paper, plus the ablation
/// variant that keeps DYAD's synchronization but stages data through the
/// shared parallel filesystem instead of node-local storage + RDMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Solution {
    /// DYAD middleware (node-local staging + KVS sync + RDMA).
    Dyad,
    /// Node-local XFS with manual synchronization (single node only).
    Xfs,
    /// Lustre-like parallel filesystem with manual synchronization.
    Lustre,
    /// Ablation: DYAD synchronization over Lustre storage (isolates the
    /// synchronization benefit from the node-local-storage benefit).
    DyadOnPfs,
    /// ADIOS2 SST-style streaming backend (the `streaming` crate):
    /// one-frame steps, broadcast fan-out and reducing fan-in groups,
    /// and a bounded in-flight window with ack-driven release, opening
    /// the M:N topology axis (`StreamingConfig`).
    Streaming,
}

/// What is true of one backend: one row per [`Solution`], the only
/// place a per-backend fact is written. Everything outside the spawn
/// `match` of [`crate::runner`] that depends on the backend reads a
/// column here.
#[derive(Debug)]
pub struct BackendRow {
    /// Command-line and file-name spelling; `FromStr` is its inverse.
    pub name: &'static str,
    /// Short label for tables.
    pub label: &'static str,
    /// Needs the parallel filesystem's service nodes.
    pub needs_pfs: bool,
    /// Needs the KVS brokers (rendezvous metadata).
    pub needs_kvs: bool,
    /// Stages frames on node-local NVMe under a staging manager (and so
    /// needs the PFS too when staging may spill).
    pub stages_on_nvme: bool,
    /// Takes injected NVMe device errors: its produce and consume paths
    /// carry typed recovery. The others model faults as slowdowns and
    /// freezes.
    pub device_errors: bool,
    /// Cannot move data between nodes (paper §III-B).
    pub single_node_only: bool,
    /// Runs the M:N groups of [`StreamingConfig`]; the others run 1→1
    /// pairs whatever it says.
    pub groups: bool,
    /// The staged-plane row whose region names its report reads (and
    /// whose managed directory its frames live in); `None` reads the
    /// manual baselines' `produce` / `consume` regions.
    pub plane: Option<&'static staging::plane::Backend>,
}

/// The backend table, in [`Solution`]'s declaration order.
const BACKENDS: [BackendRow; 5] = [
    BackendRow {
        name: "dyad",
        label: "DYAD",
        needs_pfs: false,
        needs_kvs: true,
        stages_on_nvme: true,
        device_errors: true,
        single_node_only: false,
        groups: false,
        plane: Some(&dyad::PLANE),
    },
    BackendRow {
        name: "xfs",
        label: "XFS",
        needs_pfs: false,
        needs_kvs: false,
        stages_on_nvme: false,
        device_errors: false,
        single_node_only: true,
        groups: false,
        plane: None,
    },
    BackendRow {
        name: "lustre",
        label: "Lustre",
        needs_pfs: true,
        needs_kvs: false,
        stages_on_nvme: false,
        device_errors: false,
        single_node_only: false,
        groups: false,
        plane: None,
    },
    // DYAD's outer regions and none of the NVMe staging inside them,
    // which then read zero.
    BackendRow {
        name: "dyad-on-pfs",
        label: "DYAD/PFS",
        needs_pfs: true,
        needs_kvs: true,
        stages_on_nvme: false,
        device_errors: false,
        single_node_only: false,
        groups: false,
        plane: Some(&dyad::PLANE),
    },
    BackendRow {
        name: "streaming",
        label: "SST",
        needs_pfs: false,
        needs_kvs: true,
        stages_on_nvme: true,
        device_errors: false,
        single_node_only: false,
        groups: true,
        plane: Some(&streaming::PLANE),
    },
];

impl Solution {
    /// Every solution, in declaration order.
    pub(crate) const ALL: [Solution; 5] = [
        Solution::Dyad,
        Solution::Xfs,
        Solution::Lustre,
        Solution::DyadOnPfs,
        Solution::Streaming,
    ];

    /// This backend's row of the table.
    pub fn row(self) -> &'static BackendRow {
        &BACKENDS[self as usize]
    }

    /// Command-line and file-name spelling; `FromStr` is its inverse.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        self.row().label
    }
}

impl std::fmt::Display for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The command-line spelling of [`Solution::name`], the one place a
/// solution name is parsed.
impl std::str::FromStr for Solution {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Solution::ALL
            .into_iter()
            .find(|solution| solution.name() == s)
            .ok_or_else(|| {
                let valid = Solution::ALL.map(Solution::name).join(", ");
                format!("unknown solution {s} (valid: {valid})")
            })
    }
}

/// Where producers and consumers are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Placement {
    /// Every producer and consumer on one node (the paper's single-node
    /// DYAD/XFS configuration; pairs ≤ 4 because each pair needs 2 of
    /// the node's 8 GPUs).
    SingleNode,
    /// One process type per node (the paper's multi-node configuration):
    /// producers fill nodes at `pairs_per_node`, consumers fill an equal
    /// number of separate nodes.
    Split {
        /// Producers (or consumers) per node — 8 on Corona (one per
        /// GPU); the paper's model-scaling runs use 16 on 2 nodes.
        pairs_per_node: u32,
    },
}

/// Manual synchronization protocol for the XFS/Lustre baselines
/// (paper §III: MPI primitives, filesystem polling à la Pegasus, or
/// filesystem locks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ManualSync {
    /// The paper's coarse-grained barrier: producer and consumer fully
    /// serialize (the consumer's analytics completes before the next
    /// frame is computed).
    Coarse,
    /// Ablation: release the producer right after the read, overlapping
    /// analytics with the next frame's computation.
    Fine,
    /// Pegasus-style filesystem polling: the producer writes the frame
    /// plus a `.done` marker and never blocks; the consumer polls the
    /// marker's existence. Pipelined like DYAD, but every poll costs a
    /// metadata operation.
    Polling,
    /// Filesystem-lock synchronization (Lustre only): the producer
    /// writes under an exclusive DLM lock; the consumer takes a
    /// protected-read lock and probes for the frame, retrying until the
    /// write is visible. Pipelined, but every frame costs lock-service
    /// round trips.
    LockBased,
}

impl ManualSync {
    /// Every protocol, in declaration order.
    pub(crate) const ALL: [ManualSync; 4] = [
        ManualSync::Coarse,
        ManualSync::Fine,
        ManualSync::Polling,
        ManualSync::LockBased,
    ];

    /// Command-line spelling; `FromStr` is its inverse.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ManualSync::Coarse => "coarse",
            ManualSync::Fine => "fine",
            ManualSync::Polling => "polling",
            ManualSync::LockBased => "lock",
        }
    }
}

impl std::str::FromStr for ManualSync {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "coarse" => ManualSync::Coarse,
            "fine" => ManualSync::Fine,
            "polling" => ManualSync::Polling,
            "lock" => ManualSync::LockBased,
            other => {
                let valid = ManualSync::ALL.map(ManualSync::name).join(", ");
                return Err(format!("unknown sync protocol {other} (valid: {valid})"));
            }
        })
    }
}

/// Staged-data lifecycle settings for the DYAD solution: how much
/// node-local NVMe the workflow may hold and whether the evictor may
/// spill when it fills (see the `staging` crate).
#[derive(Debug, Clone, Copy, Serialize, Default)]
pub struct StagingConfig {
    /// Per-node NVMe staging budget in bytes. `None` reproduces the
    /// paper's configuration: frames stay on NVMe for the whole run.
    /// A budget runs the watermark evictor.
    pub budget_bytes: Option<u64>,
    /// Spill still-needed frames to the parallel filesystem under
    /// pressure instead of stalling the producer indefinitely. Adds the
    /// PFS service nodes to DYAD runs.
    pub spill_to_pfs: bool,
}

/// Topology axis of the streaming backend ([`Solution::Streaming`]):
/// each "pair" becomes a *group* of either 1 publisher → `fanout`
/// subscribers, or `fanin` publishers → 1 reducer (a binary reduction
/// tree). `fanout == fanin == 1` is the near-DYAD 1:1 shape.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StreamingConfig {
    /// Subscribers per group (1 producer → K analytics consumers).
    pub fanout: u32,
    /// Publishers per group (K producers → 1 reducer). Mutually
    /// exclusive with `fanout > 1`.
    pub fanin: u32,
    /// Bounded in-flight window: max unacked steps per publisher.
    pub window: u32,
    /// Under faults, reclaim window slots held by crashed subscribers
    /// instead of head-of-line stalling until the restart.
    pub reclaim_on_crash: bool,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            fanout: 1,
            fanin: 1,
            window: 4,
            reclaim_on_crash: true,
        }
    }
}

/// Deterministic fault-injection settings for a run. The default is
/// fully disabled: no fault board is built, no timers are armed, and the
/// run is event-for-event identical to one without the fault layer.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FaultConfig {
    /// Events per fault class in the generated chaos plan; `0` generates
    /// nothing (injection is still enabled if `scheduled` is set).
    pub events_per_class: u32,
    /// Seed for the generated plan. Deliberately independent of the run
    /// seed so one fault schedule can be replayed across repetitions.
    pub seed: u64,
    /// Explicit events appended to the generated plan (exact-schedule
    /// experiments and tests). Not serialized: reports describe the plan
    /// through its seed/class knobs.
    #[serde(skip)]
    pub scheduled: Vec<faults::FaultEvent>,
}

impl FaultConfig {
    /// A generated chaos plan: `events_per_class` events of every fault
    /// class, windows averaging 10% of the workload duration.
    pub fn chaos(seed: u64, events_per_class: u32) -> Self {
        FaultConfig {
            events_per_class,
            seed,
            scheduled: Vec::new(),
        }
    }

    /// An exact schedule, no generated events.
    pub fn scheduled(events: Vec<faults::FaultEvent>) -> Self {
        FaultConfig {
            scheduled: events,
            ..FaultConfig::default()
        }
    }

    /// Whether the run should build and arm a fault board at all.
    pub(crate) fn enabled(&self) -> bool {
        self.events_per_class > 0 || !self.scheduled.is_empty()
    }

    /// Expand into the concrete plan for a topology and horizon;
    /// generated windows average 10% of `horizon`. `n_kvs_shards = 0`
    /// (any run on one broker, or with no KVS) generates no shard-crash
    /// events and leaves the plan byte-identical to the pre-mesh
    /// generator.
    pub fn build_plan(
        &self,
        horizon: simcore::SimDuration,
        n_nodes: u32,
        n_osts: u32,
        n_kvs_shards: u32,
    ) -> faults::FaultPlan {
        let mut plan = if self.events_per_class > 0 {
            faults::FaultPlan::generate(
                &faults::ChaosSpec {
                    horizon,
                    n_nodes,
                    n_osts,
                    n_kvs_shards,
                    events_per_class: self.events_per_class as f64,
                    mean_window_frac: 0.1,
                },
                self.seed,
            )
        } else {
            faults::FaultPlan::empty()
        };
        for e in &self.scheduled {
            plan.push(e.at, e.kind.clone());
        }
        plan
    }
}

/// One workflow configuration (one bar/point of a figure).
#[derive(Debug, Clone, Serialize)]
pub struct WorkflowConfig {
    /// Data-management solution under test.
    pub solution: Solution,
    /// Molecular model.
    #[serde(serialize_with = "model_serde::serialize")]
    pub model: Model,
    /// Producer-consumer pairs.
    pub pairs: u32,
    /// Process placement.
    pub placement: Placement,
    /// Steps between frames.
    pub stride: u64,
    /// Frames per pair (the paper uses 128).
    pub frames: u64,
    /// Manual-sync granularity for the traditional baselines.
    pub manual_sync: ManualSync,
    /// Warm fast-path enabled for DYAD (ablation knob).
    pub dyad_warm_sync: bool,
    /// Staged-data lifecycle settings (DYAD/streaming only; ignored by
    /// the manual baselines, which manage their own storage).
    pub staging: StagingConfig,
    /// Streaming-backend topology settings (ignored by the other
    /// solutions).
    pub streaming: StreamingConfig,
    /// Deterministic fault-injection plan (disabled by default).
    pub faults: FaultConfig,
    /// KVS metadata-plane shards (`--kvs-shards N`). 1 = the paper's
    /// single broker; >1 partitions the frame namespace across N
    /// brokers by rendezvous hash (DYAD solutions only).
    pub kvs_shards: u32,
    /// KVS replication factor (`--kvs-replication R`). 1 = unreplicated;
    /// R>1 synchronously replicates every commit to the key's top-R
    /// shards as causally-ordered deltas, enabling shard failover.
    pub kvs_replication: u32,
    /// Optional variable-rate frame schedule (overrides the fixed
    /// stride-based cadence; see [`crate::schedule::FrameSchedule`]).
    #[serde(skip)]
    pub schedule: Option<crate::schedule::FrameSchedule>,
}

// Model is foreign; serialize via its name.
mod model_serde {
    use super::*;
    use serde::Serializer;
    pub(crate) fn serialize<S: Serializer>(m: &Model, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(m.name())
    }
}

impl WorkflowConfig {
    /// The paper's defaults: JAC at stride 880, 128 frames, coarse sync.
    pub fn new(solution: Solution, pairs: u32, placement: Placement) -> Self {
        WorkflowConfig {
            solution,
            model: Model::Jac,
            pairs,
            placement,
            stride: Model::Jac.stride(),
            frames: 128,
            manual_sync: ManualSync::Coarse,
            dyad_warm_sync: true,
            staging: StagingConfig::default(),
            streaming: StreamingConfig::default(),
            faults: FaultConfig::default(),
            kvs_shards: 1,
            kvs_replication: 1,
            schedule: None,
        }
    }

    /// Set the model *and* its Table II stride.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = model;
        self.stride = model.stride();
        self
    }

    /// Override the stride (frequency-scaling experiments).
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride;
        self
    }

    /// Override the frame count.
    pub fn with_frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }

    /// Use a variable-rate frame schedule instead of the fixed stride.
    pub fn with_schedule(mut self, schedule: crate::schedule::FrameSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Bound the per-node NVMe staging budget (DYAD only).
    pub fn with_staging_budget(mut self, bytes: u64) -> Self {
        self.staging.budget_bytes = Some(bytes);
        self
    }

    /// Enable/disable spilling still-needed frames to the PFS under
    /// staging pressure (DYAD only).
    pub fn with_spill(mut self, spill_to_pfs: bool) -> Self {
        self.staging.spill_to_pfs = spill_to_pfs;
        self
    }

    /// Attach a fault-injection plan (see [`FaultConfig`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Shard the KVS metadata plane across `shards` brokers
    /// (`--kvs-shards N`; DYAD solutions only).
    pub fn with_kvs_shards(mut self, shards: u32) -> Self {
        self.kvs_shards = shards;
        self
    }

    /// Replicate every key to `r` shards with causal delta sync
    /// (`--kvs-replication R`; at most the shard count, see
    /// [`WorkflowConfig::validate`]).
    pub fn with_kvs_replication(mut self, r: u32) -> Self {
        self.kvs_replication = r;
        self
    }

    /// Set the streaming fan-out: 1 publisher → `k` subscribers per
    /// group ([`Solution::Streaming`] only).
    pub fn with_fanout(mut self, k: u32) -> Self {
        self.streaming.fanout = k;
        self
    }

    /// Set the streaming fan-in: `k` publishers → 1 reducer per group
    /// with a binary reduction tree ([`Solution::Streaming`] only).
    pub fn with_fanin(mut self, k: u32) -> Self {
        self.streaming.fanin = k;
        self
    }

    /// Bound the publisher's in-flight window to `w` unacked steps.
    pub fn with_stream_window(mut self, w: u32) -> Self {
        self.streaming.window = w;
        self
    }

    /// Enable/disable window reclaim for crashed subscribers.
    pub fn with_window_reclaim(mut self, reclaim: bool) -> Self {
        self.streaming.reclaim_on_crash = reclaim;
        self
    }

    /// Mean seconds between frames for this configuration (the
    /// schedule's long-run mean when one is set).
    pub(crate) fn frame_period_secs(&self) -> f64 {
        match &self.schedule {
            Some(s) => s.mean_gap().as_secs_f64(),
            None => self.model.period_for_stride(self.stride),
        }
    }

    /// Check the configuration for shapes no run can execute. Every run
    /// starts from [`crate::arena::ClusterSnapshot::new`], which
    /// refuses what this rejects, so nothing downstream clamps a count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let s = &self.streaming;
        let per_node = self.ensemble().per_node.unwrap_or(1);
        let counts = [
            ("pairs", u64::from(self.pairs)),
            ("frames", self.frames),
            ("pairs_per_node", u64::from(per_node)),
            ("fanout", u64::from(s.fanout)),
            ("fanin", u64::from(s.fanin)),
            ("window", u64::from(s.window)),
            ("kvs_shards", u64::from(self.kvs_shards)),
            ("kvs_replication", u64::from(self.kvs_replication)),
        ];
        if let Some((what, _)) = counts.into_iter().find(|&(_, n)| n == 0) {
            return Err(ConfigError::Zero(what));
        }
        if self.kvs_replication > self.kvs_shards {
            return Err(ConfigError::ReplicationAboveShards);
        }
        if self.solution.row().single_node_only && self.placement != Placement::SingleNode {
            return Err(ConfigError::SingleNodeOnly(self.solution));
        }
        if s.fanout > 1 && s.fanin > 1 {
            return Err(ConfigError::FanoutAndFanin);
        }
        Ok(())
    }

    /// The ensemble's shape and placement: `pairs` groups, each 1 → 1 for
    /// the pairwise backends and `fanin` → `fanout` (one of them 1) for a
    /// backend that runs M:N groups.
    pub(crate) fn ensemble(&self) -> Ensemble {
        let (pubs, subs) = if self.solution.row().groups {
            (self.streaming.fanin, self.streaming.fanout)
        } else {
            (1, 1)
        };
        Ensemble {
            groups: self.pairs,
            pubs,
            subs,
            per_node: match self.placement {
                Placement::SingleNode => None,
                Placement::Split { pairs_per_node } => Some(pairs_per_node),
            },
        }
    }
}

/// Why [`WorkflowConfig::validate`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A count that must be at least 1 is 0 (named as the field is).
    Zero(&'static str),
    /// A single-node backend placed on more than one node.
    SingleNodeOnly(Solution),
    /// Both `fanout` and `fanin` above 1.
    FanoutAndFanin,
    /// More KVS replicas per key than there are shards to hold them.
    ReplicationAboveShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(what) => write!(f, "{what} must be at least 1"),
            ConfigError::SingleNodeOnly(solution) => write!(
                f,
                "{solution} cannot move data between nodes (paper §III-B)"
            ),
            ConfigError::FanoutAndFanin => {
                f.write_str("streaming groups are either 1→K (fanout) or K→1 (fanin), not K→K")
            }
            ConfigError::ReplicationAboveShards => {
                f.write_str("kvs_replication must be at most kvs_shards")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Shape and placement of an ensemble: `groups` groups of `pubs`
/// publishers → `subs` subscribers. A producer–consumer pair is the
/// 1 → 1 group. Processes are numbered per side in spawn order
/// (publisher `l` of group `g` is publisher `g * pubs + l`), and a node
/// is a formula of that number: publishers fill the first nodes,
/// subscribers the following ones — one process type per node, the
/// paper's multi-node discipline. Node indices are relative to the
/// compute section of the cluster (service nodes are appended after).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ensemble {
    /// Groups (the `pairs` of the configuration).
    pub groups: u32,
    /// Publishers per group.
    pub pubs: u32,
    /// Subscribers per group.
    pub subs: u32,
    /// Processes of one type per node; `None` puts everyone on node 0.
    per_node: Option<u32>,
}

impl Ensemble {
    /// Publishers (producer processes) of the whole ensemble.
    pub(crate) fn publishers(&self) -> u32 {
        self.groups * self.pubs
    }

    /// Subscribers (consumer processes) of the whole ensemble.
    pub(crate) fn subscribers(&self) -> u32 {
        self.groups * self.subs
    }

    /// Compute nodes required.
    pub(crate) fn compute_nodes(&self) -> usize {
        self.per_node.map_or(1, |per| {
            (self.publishers().div_ceil(per) + self.subscribers().div_ceil(per)) as usize
        })
    }

    /// Node of publisher `p`.
    pub(crate) fn publisher_node(&self, p: u32) -> u32 {
        self.per_node.map_or(0, |per| p / per)
    }

    /// Node of subscriber `c`.
    pub(crate) fn subscriber_node(&self, c: u32) -> u32 {
        self.per_node
            .map_or(0, |per| self.publishers().div_ceil(per) + c / per)
    }
}

/// A full study: one workflow configuration, repeated.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// The workflow to run.
    pub workflow: WorkflowConfig,
    /// Repetitions (the paper runs every configuration 10 times).
    pub repetitions: u32,
    /// Base seed; repetition `r` runs with `seed + r`.
    pub seed: u64,
    /// Testbed parameters.
    pub calibration: crate::calibration::Calibration,
}

impl StudyConfig {
    /// Ten repetitions with the Corona calibration.
    pub fn paper(workflow: WorkflowConfig) -> Self {
        StudyConfig {
            workflow,
            repetitions: 10,
            seed: 0xD1AD,
            calibration: crate::calibration::Calibration::corona(),
        }
    }

    /// Fewer repetitions (for tests).
    pub fn with_repetitions(mut self, reps: u32) -> Self {
        self.repetitions = reps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(publisher node, subscriber node)` of 1 → 1 group `p`.
    fn pair_nodes(e: &Ensemble, p: u32) -> (u32, u32) {
        (e.publisher_node(p), e.subscriber_node(p))
    }

    #[test]
    fn single_node_places_everyone_together() {
        let e = WorkflowConfig::new(Solution::Dyad, 4, Placement::SingleNode).ensemble();
        assert_eq!(e.compute_nodes(), 1);
        assert!((0..4).all(|p| pair_nodes(&e, p) == (0, 0)));
    }

    #[test]
    fn split_places_one_type_per_node() {
        let cfg = WorkflowConfig::new(Solution::Lustre, 16, Placement::Split { pairs_per_node: 8 });
        let e = cfg.ensemble();
        assert_eq!(e.compute_nodes(), 4); // 2 producer + 2 consumer nodes
        assert_eq!(pair_nodes(&e, 0), (0, 2));
        assert_eq!(pair_nodes(&e, 7), (0, 2));
        assert_eq!(pair_nodes(&e, 8), (1, 3));
        assert_eq!(pair_nodes(&e, 15), (1, 3));
        // Producers never share a node with consumers.
        for p in 0..16 {
            let (prod, cons) = pair_nodes(&e, p);
            assert_ne!(prod, cons);
        }
    }

    #[test]
    fn fig7_largest_config_uses_64_nodes() {
        let cfg = WorkflowConfig::new(Solution::Dyad, 256, Placement::Split { pairs_per_node: 8 });
        assert_eq!(cfg.ensemble().compute_nodes(), 64);
    }

    #[test]
    fn with_model_updates_stride() {
        let cfg =
            WorkflowConfig::new(Solution::Dyad, 1, Placement::SingleNode).with_model(Model::Stmv);
        assert_eq!(cfg.stride, 28);
        assert!((cfg.frame_period_secs() - 0.82).abs() < 0.01);
    }

    #[test]
    fn names_round_trip_and_unknown_names_list_the_valid_ones() {
        for s in Solution::ALL {
            assert_eq!(s.name().parse::<Solution>(), Ok(s));
        }
        for m in ManualSync::ALL {
            assert_eq!(m.name().parse::<ManualSync>(), Ok(m));
        }
        let err = "nfs".parse::<Solution>().unwrap_err();
        assert!(err.contains("nfs") && err.contains("dyad-on-pfs"), "{err}");
        let err = "barrier".parse::<ManualSync>().unwrap_err();
        assert!(err.contains("barrier") && err.contains("lock"), "{err}");
    }

    /// Every cell of the backend table, so a flipped one fails by name.
    #[test]
    fn solution_capabilities() {
        // (solution, name, label, needs_pfs, needs_kvs, stages_on_nvme,
        //  device_errors, single_node_only, groups, report plane's `get`)
        let expected = [
            (
                Solution::Dyad,
                "dyad",
                "DYAD",
                false,
                true,
                true,
                true,
                false,
                false,
                Some("dyad_consume"),
            ),
            (
                Solution::Xfs,
                "xfs",
                "XFS",
                false,
                false,
                false,
                false,
                true,
                false,
                None,
            ),
            (
                Solution::Lustre,
                "lustre",
                "Lustre",
                true,
                false,
                false,
                false,
                false,
                false,
                None,
            ),
            (
                Solution::DyadOnPfs,
                "dyad-on-pfs",
                "DYAD/PFS",
                true,
                true,
                false,
                false,
                false,
                false,
                Some("dyad_consume"),
            ),
            (
                Solution::Streaming,
                "streaming",
                "SST",
                false,
                true,
                true,
                false,
                false,
                true,
                Some("stream_consume"),
            ),
        ];
        assert_eq!(expected.map(|row| row.0), Solution::ALL);
        for (i, (solution, name, label, pfs, kvs, nvme, dev, single, groups, get)) in
            expected.into_iter().enumerate()
        {
            // The table is indexed by discriminant.
            assert_eq!(solution as usize, i);
            let row = solution.row();
            assert_eq!(row.name, name);
            assert_eq!(row.label, label, "{name}: label");
            assert_eq!(row.needs_pfs, pfs, "{name}: needs_pfs");
            assert_eq!(row.needs_kvs, kvs, "{name}: needs_kvs");
            assert_eq!(row.stages_on_nvme, nvme, "{name}: stages_on_nvme");
            assert_eq!(row.device_errors, dev, "{name}: device_errors");
            assert_eq!(row.single_node_only, single, "{name}: single_node_only");
            assert_eq!(row.groups, groups, "{name}: groups");
            assert_eq!(row.plane.map(|p| p.get), get, "{name}: plane");
        }
    }

    #[test]
    fn validate_names_every_rejected_shape_and_accepts_what_the_benchmarks_build() {
        let split = |per| Placement::Split {
            pairs_per_node: per,
        };
        let dyad = |pairs, placement| WorkflowConfig::new(Solution::Dyad, pairs, placement);
        let streaming = || WorkflowConfig::new(Solution::Streaming, 2, split(8));
        let rejected = [
            (dyad(0, split(8)), "pairs must be at least 1"),
            (
                dyad(2, split(8)).with_frames(0),
                "frames must be at least 1",
            ),
            (dyad(2, split(0)), "pairs_per_node must be at least 1"),
            (streaming().with_fanout(0), "fanout must be at least 1"),
            (streaming().with_fanin(0), "fanin must be at least 1"),
            (
                streaming().with_stream_window(0),
                "window must be at least 1",
            ),
            (
                dyad(2, split(8)).with_kvs_shards(0),
                "kvs_shards must be at least 1",
            ),
            (
                dyad(2, split(8)).with_kvs_replication(0),
                "kvs_replication must be at least 1",
            ),
            (
                WorkflowConfig::new(Solution::Xfs, 2, split(8)),
                "XFS cannot move data between nodes (paper §III-B)",
            ),
            (
                streaming().with_fanout(2).with_fanin(2),
                "streaming groups are either 1→K (fanout) or K→1 (fanin), not K→K",
            ),
            (
                dyad(2, split(8)).with_kvs_shards(2).with_kvs_replication(3),
                "kvs_replication must be at most kvs_shards",
            ),
        ];
        for (wf, message) in rejected {
            let err = wf.validate().expect_err(message);
            assert_eq!(err.to_string(), message);
        }
        // The shapes of the six `perf` workloads (`perf/src/workloads.rs`)
        // — the experiment table's are checked where the table lives,
        // `crates/bench/tests/experiments.rs` — and the shapes around
        // them.
        let accepted = [
            dyad(16384, split(2)).with_frames(3),
            WorkflowConfig::new(Solution::Lustre, 512, split(8)),
            streaming()
                .with_fanout(4)
                .with_stream_window(4)
                .with_frames(24),
            dyad(512, split(8))
                .with_staging_budget(8 * Model::Jac.frame_bytes())
                .with_spill(true)
                .with_kvs_shards(4)
                .with_kvs_replication(2),
            WorkflowConfig::new(Solution::Xfs, 4, Placement::SingleNode),
            dyad(8, split(8)).with_faults(FaultConfig::chaos(42, 2)),
            dyad(2, split(8)).with_kvs_shards(2).with_kvs_replication(2),
            streaming().with_fanin(4),
        ];
        for wf in accepted {
            assert_eq!(wf.validate(), Ok(()), "{wf:?}");
        }
    }

    /// The settable surface every report echoes under `workflow` (and
    /// `perf` reads `workflow.pairs` / `workflow.frames` from): adding or
    /// removing a setting is a one-line diff here.
    #[test]
    fn serialized_workflow_key_paths_are_pinned() {
        fn leaves(prefix: &str, v: &serde_json::Value, out: &mut Vec<String>) {
            let serde_json::Value::Object(entries) = v else {
                return out.push(prefix.to_string());
            };
            for (key, v) in entries {
                match prefix {
                    "" => leaves(key, v, out),
                    _ => leaves(&format!("{prefix}.{key}"), v, out),
                }
            }
        }
        let wf = WorkflowConfig::new(Solution::Dyad, 4, Placement::Split { pairs_per_node: 8 });
        let json = serde_json::to_string(&wf).unwrap();
        let mut paths = Vec::new();
        leaves("", &serde_json::from_str(&json).unwrap(), &mut paths);
        assert_eq!(
            paths,
            [
                "solution",
                "model",
                "pairs",
                "placement.Split.pairs_per_node",
                "stride",
                "frames",
                "manual_sync",
                "dyad_warm_sync",
                "staging.budget_bytes",
                "staging.spill_to_pfs",
                "streaming.fanout",
                "streaming.fanin",
                "streaming.window",
                "streaming.reclaim_on_crash",
                "faults.events_per_class",
                "faults.seed",
                "kvs_shards",
                "kvs_replication",
            ]
        );
    }

    /// One group's `(publisher nodes, subscriber nodes)`.
    type GroupNodes = (Vec<u32>, Vec<u32>);

    /// The parent's `streaming_plan()`, kept as the reference the unified
    /// placement is checked against: per-group node vectors built through
    /// boxed closures.
    fn reference_streaming_plan(
        pairs: u32,
        placement: Placement,
        fanout: u32,
        fanin: u32,
    ) -> (usize, Vec<GroupNodes>) {
        type NodeOf = Box<dyn Fn(u32) -> u32>;
        let pubs_per_group = fanin.max(1);
        let subs_per_group = if fanin > 1 { 1 } else { fanout.max(1) };
        let total_pubs = pairs * pubs_per_group;
        let total_subs = pairs * subs_per_group;
        let (pub_node, sub_node): (NodeOf, NodeOf) = match placement {
            Placement::SingleNode => (Box::new(|_| 0), Box::new(|_| 0)),
            Placement::Split { pairs_per_node } => {
                let per = pairs_per_node;
                let n_pub_nodes = total_pubs.div_ceil(per);
                (
                    Box::new(move |p| p / per),
                    Box::new(move |c| n_pub_nodes + c / per),
                )
            }
        };
        let groups = (0..pairs)
            .map(|g| {
                let publishers = (0..pubs_per_group)
                    .map(|l| pub_node(g * pubs_per_group + l))
                    .collect();
                let subscribers = (0..subs_per_group)
                    .map(|j| sub_node(g * subs_per_group + j))
                    .collect();
                (publishers, subscribers)
            })
            .collect();
        let compute_nodes = match placement {
            Placement::SingleNode => 1,
            Placement::Split { pairs_per_node } => {
                (total_pubs.div_ceil(pairs_per_node) + total_subs.div_ceil(pairs_per_node)) as usize
            }
        };
        (compute_nodes, groups)
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // One placement for all five solutions: a pairwise backend
            // (and streaming at 1 → 1) gets the parent's pair plan in
            // closed form, a fan-out or fan-in shape the parent's
            // `streaming_plan()`, node count included.
            #[test]
            fn unified_placement_equals_both_parents(
                pairs in 1u32..40,
                per_node in 0u32..9,
                k in 1u32..6,
                fan_in in any::<bool>(),
            ) {
                // `per_node` 0 stands for `SingleNode`.
                let placement = match per_node {
                    0 => Placement::SingleNode,
                    per => Placement::Split { pairs_per_node: per },
                };
                let (fanout, fanin) = if fan_in { (1, k) } else { (k, 1) };
                let stream = WorkflowConfig::new(Solution::Streaming, pairs, placement)
                    .with_fanout(fanout)
                    .with_fanin(fanin);
                let pairwise = WorkflowConfig::new(Solution::Lustre, pairs, placement)
                    .with_fanout(fanout)
                    .with_fanin(fanin);
                let mut one_to_one = vec![pairwise.ensemble()];
                if k == 1 {
                    one_to_one.push(stream.ensemble());
                }
                for e in one_to_one {
                    prop_assert_eq!((e.pubs, e.subs), (1, 1));
                    let per = per_node.max(1);
                    let n_prod_nodes = pairs.div_ceil(per);
                    let nodes = if per_node == 0 { 1 } else { 2 * n_prod_nodes };
                    prop_assert_eq!(e.compute_nodes(), nodes as usize);
                    for p in 0..pairs {
                        let closed_form = match per_node {
                            0 => (0, 0),
                            per => (p / per, n_prod_nodes + p / per),
                        };
                        prop_assert_eq!(pair_nodes(&e, p), closed_form);
                    }
                }
                let e = stream.ensemble();
                let (compute_nodes, groups) =
                    reference_streaming_plan(pairs, placement, fanout, fanin);
                prop_assert_eq!(e.compute_nodes(), compute_nodes);
                prop_assert_eq!(e.groups as usize, groups.len());
                for (g, (publishers, subscribers)) in groups.into_iter().enumerate() {
                    let g = g as u32;
                    let mine = |n: u32, node: &dyn Fn(u32) -> u32| -> Vec<u32> {
                        (0..n).map(node).collect()
                    };
                    prop_assert_eq!(
                        mine(e.pubs, &|l| e.publisher_node(g * e.pubs + l)),
                        publishers
                    );
                    prop_assert_eq!(
                        mine(e.subs, &|j| e.subscriber_node(g * e.subs + j)),
                        subscribers
                    );
                }
            }
        }
    }
}
