//! Streaming-backend determinism fixtures (PR 10).
//!
//! The SST-style streaming data plane must be as schedule-stable as the
//! rest of the harness: the bounded in-flight window, the KVS-ack
//! release path, and the M:N group spawn order are all required to be
//! pure functions of the seed. These tests pin that guarantee:
//!
//! * the executor replays freshly captured pinned schedules for
//!   fan-out ∈ {1, 4} on both a `Flat` fabric and a genuinely
//!   multi-leaf `LeafSpine` fabric, and for fan-in 4 on the multi-leaf
//!   one (whose reducer charges one deserialize per leaf after the
//!   first) — makespans and event counts exactly.
//! * a cold run and two runs through one recycled arena produce
//!   byte-identical serialized reports *and* byte-identical Chrome
//!   traces on the fan-out 4 multi-leaf scenario.
//! * `fanout = 1` is pinned against DYAD as a shape regression: same
//!   staging, same rendezvous, so per-frame consumption must stay in
//!   the same amortized regime.
//!
//! Re-pin the constants deliberately (and say so in the commit message)
//! only after an intentional trajectory change.

use mdflow::prelude::*;

/// Fig6-shaped scenario scaled for M:N groups: 16 groups, 12 frames.
const GROUPS: u32 = 16;
const FRAMES: u64 = 12;
const SEED: u64 = 2024;
/// Compute nodes of the smallest shape below (fan-out 1, storage nodes
/// come on top): four publishers, or subscribers, per node.
const MIN_NODES: usize = 2 * GROUPS as usize / 4;

/// Radix-4 leaf/spine at 2:1 oversubscription (same as the parallel-DES
/// fixtures): even the smallest node count spans several leaves.
const RADIX: u32 = 4;
const MULTI_LEAF: TopologySpec = TopologySpec::LeafSpine {
    radix: RADIX,
    oversubscription: 2.0,
};
const _: () = assert!(MIN_NODES.div_ceil(RADIX as usize) > 1);

/// Pinned `(fanout, fanin, topo, makespan_ns, events)` captures for
/// the current model.
const PINS: &[(u32, u32, Topo, u64, u64)] = &[
    (1, 1, Topo::Flat, 11_471_638_645, 11_193),
    (4, 1, Topo::Flat, 11_505_111_950, 23_581),
    (1, 1, Topo::MultiLeaf, 11_471_647_501, 14_973),
    (4, 1, Topo::MultiLeaf, 11_505_120_768, 31_620),
    (1, 4, Topo::MultiLeaf, 11_472_566_166, 63_732),
];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Topo {
    Flat,
    MultiLeaf,
}

fn workflow(fanout: u32, fanin: u32) -> WorkflowConfig {
    WorkflowConfig::new(
        Solution::Streaming,
        GROUPS,
        // 4 processes per node: even the fanout=1 shape (16+16
        // processes) then spans several radix-4 leaves.
        Placement::Split { pairs_per_node: 4 },
    )
    .with_frames(FRAMES)
    .with_fanout(fanout)
    .with_fanin(fanin)
}

fn calibration(topo: Topo) -> Calibration {
    let mut cal = Calibration::corona();
    if topo == Topo::MultiLeaf {
        cal.fabric = cal.fabric.with_topology(MULTI_LEAF);
    }
    cal
}

/// Canonical serialized report for byte comparison: every
/// trajectory-derived field, in a fixed order (the parallel-DES shape
/// plus the streaming totals).
fn report_bytes(m: &RunMetrics) -> String {
    let staging = serde_json::to_string(&m.staging).expect("staging json");
    let streaming = serde_json::to_string(&m.streaming).expect("streaming json");
    format!(
        "{{\"makespan_ns\":{},\"events\":{},\"producers\":{},\"consumers\":{},\
         \"staging\":{staging},\"streaming\":{streaming},\
         \"kvs_commits\":{},\"kvs_lookups\":{},\"kvs_waits\":{}}}",
        m.makespan.nanos(),
        m.events,
        m.producers.len(),
        m.consumers.len(),
        m.kvs.commits,
        m.kvs.lookups,
        m.kvs.waits,
    )
}

/// The executor replays the pinned streaming schedules exactly, on the
/// `Flat` fabric and on a multi-leaf `LeafSpine` fabric alike, at
/// fan-out 1 and 4 and at fan-in 4.
#[test]
fn streaming_replays_pinned_schedules() {
    for &(fanout, fanin, topo, makespan_ns, events) in PINS {
        let wf = workflow(fanout, fanin);
        let cal = calibration(topo);
        let m = run_once(&wf, &cal, SEED);
        // Sanity: the topology actually ran M:N and every step landed.
        assert_eq!(m.producers.len(), (GROUPS * fanin) as usize);
        assert_eq!(m.consumers.len(), (GROUPS * fanout) as usize);
        assert_eq!(
            m.streaming.steps_published,
            u64::from(GROUPS * fanin) * FRAMES
        );
        assert_eq!(
            m.streaming.steps_consumed,
            u64::from(GROUPS * fanout * fanin) * FRAMES
        );
        assert_eq!(
            (m.makespan.nanos(), m.events),
            (makespan_ns, events),
            "fanout {fanout} fanin {fanin} under {topo:?}: schedule drifted from pinned capture \
             (got makespan {} events {})",
            m.makespan.nanos(),
            m.events,
        );
    }
}

/// Cold-vs-warm identity on the fan-out 4 multi-leaf scenario: a cold
/// traced run, two runs through one recycled arena and a second traced
/// run afterwards all serialize to the same report, and the two Chrome
/// traces are byte-identical.
#[test]
fn streaming_cold_and_warm_arena_reports_and_traces_are_byte_identical() {
    let wf = workflow(4, 1);
    let cal = calibration(Topo::MultiLeaf);
    let snap = ClusterSnapshot::prepare(&wf, &cal, SEED ^ 0x7E3A);
    let traced = || {
        let (metrics, _, tracer) = run_once_traced_snap(&snap, SEED, std::time::Instant::now());
        (report_bytes(&metrics), tracer.to_chrome_json())
    };
    let (report, trace) = traced();
    let mut arena = RunArena::default();
    for round in 0..2 {
        let (m, _) = run_once_warm(&snap, SEED, &mut arena);
        assert_eq!(
            report_bytes(&m),
            report,
            "round {round}: warm-arena report drifted from the cold run"
        );
    }
    let (report2, trace2) = traced();
    assert_eq!(report2, report, "rerun: serialized report drifted");
    assert_eq!(trace2, trace, "rerun: Chrome trace drifted");
}

/// `fanout = 1` is the near-DYAD shape: same staging lifecycle, same
/// KVS rendezvous, one producer and one consumer per group. Its
/// per-frame consumption must stay in DYAD's amortized regime — within
/// 2× of DYAD's total and an order of magnitude below the coarse
/// manual-sync baselines (whose idle ≈ one frame period).
#[test]
fn streaming_fanout1_stays_in_dyads_regime() {
    let cal = calibration(Topo::Flat);
    let stream_wf = workflow(1, 1);
    let dyad_wf = WorkflowConfig::new(
        Solution::Dyad,
        GROUPS,
        Placement::Split { pairs_per_node: 8 },
    )
    .with_frames(FRAMES);
    let stream = StudyReport::from_runs(&stream_wf, &[run_once(&stream_wf, &cal, SEED)]);
    let dyad = StudyReport::from_runs(&dyad_wf, &[run_once(&dyad_wf, &cal, SEED)]);
    let ratio = stream.consumption_total() / dyad.consumption_total();
    assert!(
        ratio < 2.0,
        "streaming fanout=1 consumption {} vs DYAD {} (ratio {ratio})",
        stream.consumption_total(),
        dyad.consumption_total()
    );
    // Both pipelines: makespans within 20% of each other.
    let mk = stream.makespan.mean / dyad.makespan.mean;
    assert!(
        (0.8..1.2).contains(&mk),
        "streaming fanout=1 makespan {} vs DYAD {} (ratio {mk})",
        stream.makespan.mean,
        dyad.makespan.mean
    );
    // And idle stays far below the frame period (no coarse barrier).
    assert!(
        stream.consumption_idle.mean < 0.1,
        "streaming idle {} should be amortized",
        stream.consumption_idle.mean
    );
}
