//! Pinned flat and multi-leaf schedules (PR 9).
//!
//! `simcore` checks the calendar's `(time, insertion)` order on the calendar
//! itself (the `calendar_oracle` proptest); these tests pin it at the
//! workflow level, where a reordering anywhere in the stack shows:
//!
//! * the executor replays the pinned schedules for both a `Flat` fabric
//!   and a genuinely multi-leaf `LeafSpine` fabric — makespans and event
//!   counts exactly.
//! * a cold run and two runs through one recycled arena produce
//!   byte-identical serialized reports *and* byte-identical Chrome
//!   traces on the fig6-sized multi-leaf scenario.
//!
//! Re-pin the constants deliberately (and say so in the commit message)
//! only after an intentional trajectory change.

use mdflow::prelude::*;

/// Fig6-sized scenario: 64 producer/consumer pairs, 12 frames, the
/// PR 4 fixture seed.
const PAIRS: u32 = 64;
const FRAMES: u64 = 12;
const SEED: u64 = 2024;
/// Compute nodes of the split placement below (storage nodes come on
/// top): eight pairs' producers, or consumers, per node.
const SPLIT_NODES: usize = 2 * PAIRS as usize / 8;

/// Radix-4 leaf/spine at 2:1 oversubscription: small enough that the
/// fig6 node count spans several leaves.
const RADIX: u32 = 4;
const MULTI_LEAF: TopologySpec = TopologySpec::LeafSpine {
    radix: RADIX,
    oversubscription: 2.0,
};
const _: () = assert!(SPLIT_NODES.div_ceil(RADIX as usize) > 1);

/// Pinned `(makespan_ns, events)` captures for the current model. The
/// `Flat` rows must equal `determinism_pr4_pinned.json`; the `LeafSpine`
/// rows were captured on the multi-leaf fabric above.
const PINS: &[(Solution, Topo, u64, u64)] = &[
    (Solution::Dyad, Topo::Flat, 11_554_585_966, 41_835),
    (Solution::Xfs, Topo::Flat, 20_615_097_294, 10_159),
    (Solution::Dyad, Topo::MultiLeaf, 11_554_618_858, 59_043),
    // XFS is pinned to one node (it cannot span leaves), so Lustre —
    // whose split placement and PFS traffic cross the spine — covers the
    // second multi-leaf workload instead.
    (Solution::Lustre, Topo::MultiLeaf, 20_644_484_762, 106_448),
];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Topo {
    Flat,
    MultiLeaf,
}

fn workflow(solution: Solution) -> WorkflowConfig {
    let placement = match solution {
        Solution::Xfs => Placement::SingleNode,
        _ => Placement::Split { pairs_per_node: 8 },
    };
    WorkflowConfig::new(solution, PAIRS, placement).with_frames(FRAMES)
}

fn calibration(topo: Topo) -> Calibration {
    let mut cal = Calibration::corona();
    if topo == Topo::MultiLeaf {
        cal.fabric = cal.fabric.with_topology(MULTI_LEAF);
    }
    cal
}

/// Canonical serialized report for byte comparison: every
/// trajectory-derived field, in a fixed order. Wall-clock timings are
/// deliberately excluded (they are nondeterministic by nature and
/// `#[serde(skip)]`ed out of persisted reports for the same reason).
fn report_bytes(m: &RunMetrics) -> String {
    let staging = serde_json::to_string(&m.staging).expect("staging json");
    format!(
        "{{\"makespan_ns\":{},\"events\":{},\"producers\":{},\"consumers\":{},\
         \"staging\":{staging},\"kvs_commits\":{},\"kvs_lookups\":{},\"kvs_waits\":{}}}",
        m.makespan.nanos(),
        m.events,
        m.producers.len(),
        m.consumers.len(),
        m.kvs.commits,
        m.kvs.lookups,
        m.kvs.waits,
    )
}

/// The executor replays the pinned schedules exactly, on the `Flat`
/// fabric and on a genuinely multi-leaf `LeafSpine` fabric.
#[test]
fn sharded_executor_replays_pinned_schedules() {
    for &(solution, topo, makespan_ns, events) in PINS {
        let wf = workflow(solution);
        let cal = calibration(topo);
        let m = run_once(&wf, &cal, SEED);
        assert_eq!(
            (m.makespan.nanos(), m.events),
            (makespan_ns, events),
            "{solution:?} under {topo:?}: schedule drifted from pinned capture \
             (got makespan {} events {})",
            m.makespan.nanos(),
            m.events,
        );
    }
}

/// Cold-vs-warm identity on the fig6-sized multi-leaf scenario: a cold
/// traced run, two runs through one recycled arena and a second traced
/// run afterwards all serialize to the same report, and the two Chrome
/// traces — every event timestamp and track — are byte-identical. (No
/// entry point traces a warm-arena run, so the trace pair is cold vs
/// rerun on the warmed thread.)
#[test]
fn cold_and_warm_arena_reports_and_traces_are_byte_identical() {
    let wf = workflow(Solution::Dyad);
    let cal = calibration(Topo::MultiLeaf);
    let snap = ClusterSnapshot::prepare(&wf, &cal, SEED ^ 0x7E3A);
    let traced = || {
        let (metrics, _, tracer) = run_once_traced_snap(&snap, SEED, std::time::Instant::now());
        (report_bytes(&metrics), tracer.to_chrome_json())
    };
    let (report, trace) = traced();
    assert_eq!(report, report_bytes(&run_once(&wf, &cal, SEED)));
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
