//! Chaos suite (PR 5): every backend × every fault class terminates —
//! the workflow either completes or fails with typed, counted errors,
//! never a deadlock — and the whole fault pipeline is deterministic:
//! identical seeds give bit-identical fault schedules and bit-identical
//! reduced reports.
//!
//! The companion guarantee — that a *disabled* fault plan leaves runs
//! event-for-event identical to the pre-fault-layer code — is pinned by
//! `determinism_fixtures.rs` (its fixtures were captured before the
//! fault layer existed and every config there carries the default,
//! empty `FaultConfig`). The tests here add the complementary checks:
//! different disabled knobs are bit-identical, and an *armed* board
//! whose events all land after the workload keeps the same trajectory.

use mdflow::prelude::*;
use simcore::SimDuration;

/// Fixed seeds for the byte-stability sweeps (mirrored in CI).
const SEEDS: [u64; 3] = [11, 42, 20240807];

/// Pairs × frames of the small chaos workload.
const PAIRS: u32 = 2;
const FRAMES: u64 = 8;

fn ms(millis: u64) -> SimDuration {
    SimDuration::from_millis(millis)
}

/// The small workload every scenario runs: 2 pairs, 8 frames, quiet
/// testbed. XFS cannot split across nodes; the others use the paper's
/// producer/consumer split so faults can hit either side of the wire.
/// (For streaming the same split puts publishers on node 0 and every
/// subscriber on node 1, so the per-class fault sites stay valid.)
fn base(solution: Solution) -> WorkflowConfig {
    let placement = if solution == Solution::Xfs {
        Placement::SingleNode
    } else {
        Placement::Split { pairs_per_node: 8 }
    };
    WorkflowConfig::new(solution, PAIRS, placement).with_frames(FRAMES)
}

/// One scheduled scenario per fault class, all opening mid-workload
/// (the 8-frame JAC run spans ~6.6 s; windows open at 1 s and close
/// well before the retry budgets run out).
fn fault_classes(solution: Solution) -> Vec<(&'static str, FaultKind)> {
    // On the split placements node 0 runs producers (and the KVS
    // broker); node 1 runs consumers. Single-node XFS only has node 0.
    let peer = if solution == Solution::Xfs { 0 } else { 1 };
    vec![
        (
            "node_crash",
            FaultKind::NodeCrash {
                node: 0,
                down_for: ms(400),
            },
        ),
        (
            "nvme_degrade",
            FaultKind::NvmeDegrade {
                node: 0,
                factor: 8.0,
                duration: ms(600),
            },
        ),
        (
            "nvme_error",
            FaultKind::NvmeError {
                node: 0,
                duration: ms(300),
            },
        ),
        (
            "link_down",
            FaultKind::LinkDown {
                node: peer,
                duration: ms(400),
            },
        ),
        (
            "ost_degrade",
            FaultKind::OstDegrade {
                ost: 0,
                factor: 6.0,
                duration: ms(800),
            },
        ),
        ("mds_stall", FaultKind::MdsStall { duration: ms(300) }),
        (
            "kvs_delay",
            FaultKind::KvsDelay {
                delay: ms(150),
                duration: ms(400),
            },
        ),
    ]
}

/// Run one scheduled fault scenario. Returning at all is the core
/// property: `run_once` panics on its internal hard stop if the
/// workload deadlocks.
fn run_scenario(solution: Solution, kind: FaultKind) -> RunMetrics {
    let wf = base(solution).with_faults(FaultConfig::scheduled(vec![FaultEvent {
        at: ms(1000),
        kind,
    }]));
    run_once(&wf, &Calibration::quiet(), 7)
}

/// Shared post-conditions for every scenario.
fn check_common(class: &str, solution: Solution, m: &RunMetrics) {
    assert!(
        m.faults.injected >= 1,
        "{solution:?}/{class}: fault window never opened"
    );
    assert!(
        m.makespan.as_secs_f64() > 0.0,
        "{solution:?}/{class}: empty run"
    );
    if class == "node_crash" {
        assert_eq!(m.faults.crashes, 1, "{solution:?}/{class}: crash count");
        assert_eq!(m.faults.restarts, 1, "{solution:?}/{class}: restart count");
    }
}

/// DYAD-only accounting: every frame of every pair ends in exactly one
/// typed state — consumed (acked to the staging evictor), observed lost
/// via a `FrameLost` tombstone, or given up with a typed failure.
/// Nothing is consumed twice and nothing silently vanishes.
fn check_dyad_accounting(class: &str, m: &RunMetrics) {
    let total = PAIRS as u64 * FRAMES;
    let accounted =
        m.staging.acks_published + m.faults.frames_lost_observed + m.faults.consume_failures;
    assert!(
        accounted >= total,
        "dyad/{class}: {accounted} of {total} frames accounted for \
         (acks {}, lost {}, failures {})",
        m.staging.acks_published,
        m.faults.frames_lost_observed,
        m.faults.consume_failures
    );
    assert!(
        m.staging.acks_published <= total,
        "dyad/{class}: {} acks for {total} frames — a frame was consumed twice",
        m.staging.acks_published
    );
}

#[test]
fn dyad_survives_every_fault_class() {
    for (class, kind) in fault_classes(Solution::Dyad) {
        let m = run_scenario(Solution::Dyad, kind);
        check_common(class, Solution::Dyad, &m);
        check_dyad_accounting(class, &m);
    }
}

#[test]
fn lustre_survives_every_fault_class() {
    for (class, kind) in fault_classes(Solution::Lustre) {
        let m = run_scenario(Solution::Lustre, kind);
        check_common(class, Solution::Lustre, &m);
    }
}

#[test]
fn xfs_survives_every_fault_class() {
    for (class, kind) in fault_classes(Solution::Xfs) {
        let m = run_scenario(Solution::Xfs, kind);
        check_common(class, Solution::Xfs, &m);
    }
}

/// The DYAD-sync-over-PFS ablation keeps its metadata on the same KVS
/// as DYAD, so a broker outage that outlasts the client's retry budget
/// (a commit issued inside the node-0 crash window, a watch across the
/// 400 ms link-down) must be waited out by the role, not unwrapped: every
/// frame is still consumed, or given up with a typed, counted failure.
#[test]
fn dyad_on_pfs_survives_every_fault_class() {
    let total = u64::from(PAIRS) * FRAMES;
    for (class, kind) in fault_classes(Solution::DyadOnPfs) {
        let m = run_scenario(Solution::DyadOnPfs, kind);
        check_common(class, Solution::DyadOnPfs, &m);
        let consumed: u64 = m
            .consumers
            .iter()
            .map(|p| p.node(&["analytics"]).map_or(0, |n| n.count))
            .sum();
        assert_eq!(
            consumed + m.faults.consume_failures,
            total,
            "dyad_on_pfs/{class}: a frame was neither consumed nor counted as failed"
        );
        if class == "link_down" {
            assert!(
                m.faults.consume_outer_retries > 0,
                "dyad_on_pfs/{class}: the outage never outlasted the KVS retry budget"
            );
        }
    }
}

/// The ablation under chaos and under an armed-but-idle board: generated
/// plans terminate with a byte-stable report, and a board whose only
/// event lands after the workload leaves the makespan where it was.
#[test]
fn dyad_on_pfs_is_deterministic_under_chaos_and_unperturbed_when_idle() {
    let cal = Calibration::quiet();
    for &seed in &SEEDS {
        let wf = base(Solution::DyadOnPfs).with_faults(FaultConfig::chaos(seed, 1));
        let a = run_once(&wf, &cal, seed);
        assert!(a.faults.injected > 0, "seed {seed}: plan injected nothing");
        let b = run_once(&wf, &cal, seed);
        assert_eq!(
            StudyReport::from_runs(&wf, &[a]).to_json(),
            StudyReport::from_runs(&wf, &[b]).to_json(),
            "seed {seed}: report not byte-stable"
        );
    }
    let late = base(Solution::DyadOnPfs).with_faults(FaultConfig::scheduled(vec![FaultEvent {
        at: SimDuration::from_secs_f64(3600.0),
        kind: FaultKind::NodeCrash {
            node: 0,
            down_for: ms(100),
        },
    }]));
    let plain = run_once(&base(Solution::DyadOnPfs), &cal, 5);
    let idle = run_once(&late, &cal, 5);
    assert_eq!(
        plain.makespan, idle.makespan,
        "idle board moved the makespan"
    );
    assert_eq!(idle.faults.injected, 0);
}

/// Streaming accounting, the M:N generalization of the DYAD check:
/// every *step delivery* (steps × subscribers per group) ends consumed,
/// observed lost via a tombstone, or given up with a typed failure —
/// and no delivery happens twice.
fn check_streaming_accounting(class: &str, fanout: u32, m: &RunMetrics) {
    let total = u64::from(PAIRS * fanout) * FRAMES;
    let accounted =
        m.streaming.steps_consumed + m.faults.frames_lost_observed + m.faults.consume_failures;
    assert!(
        accounted >= total,
        "streaming/{class}: {accounted} of {total} deliveries accounted for \
         (consumed {}, lost {}, failures {})",
        m.streaming.steps_consumed,
        m.faults.frames_lost_observed,
        m.faults.consume_failures
    );
    assert!(
        m.streaming.steps_consumed <= total,
        "streaming/{class}: {} consumes for {total} deliveries — a step was consumed twice",
        m.streaming.steps_consumed
    );
}

/// The streaming backend survives the same per-class matrix, in the
/// genuinely M:N broadcast shape (1 publisher → 2 subscribers per
/// group) so the fault windows hit the window/ack machinery too.
#[test]
fn streaming_survives_every_fault_class() {
    const FANOUT: u32 = 2;
    for (class, kind) in fault_classes(Solution::Streaming) {
        let wf = base(Solution::Streaming)
            .with_fanout(FANOUT)
            .with_faults(FaultConfig::scheduled(vec![FaultEvent {
                at: ms(1000),
                kind,
            }]));
        let m = run_once(&wf, &Calibration::quiet(), 7);
        check_common(class, Solution::Streaming, &m);
        check_streaming_accounting(class, FANOUT, &m);
    }
}

/// The PR 10 headline A/B: a node crash takes out every subscriber of
/// every group mid-campaign while the publishers keep producing into a
/// small bounded window.
///
/// * `reclaim_on_crash = true`: each faulted window sweep drops ack
///   entries owed by the dead node, so publishers free-run through the
///   outage and the restarted subscribers drain retained steps.
/// * `reclaim_on_crash = false`: the window fills and head-of-line
///   stalls until the restart — strictly more publisher stall time and
///   never a shorter campaign.
///
/// Both legs terminate with full delivery accounting and are
/// byte-stable per seed.
#[test]
fn subscriber_crash_reclaim_beats_head_of_line_stall() {
    const FANOUT: u32 = 2;
    let cal = Calibration::quiet();
    let leg = |reclaim: bool| {
        base(Solution::Streaming)
            .with_fanout(FANOUT)
            // Window 1 and a 3 s outage: at the ~0.8 s frame period the
            // publishers produce ~4 steps while every subscriber is
            // down, so an unreclaimed window must head-of-line stall.
            .with_stream_window(1)
            .with_window_reclaim(reclaim)
            .with_faults(FaultConfig::scheduled(vec![FaultEvent {
                at: ms(1000),
                // Node 1 hosts every subscriber of both groups.
                kind: FaultKind::NodeCrash {
                    node: 1,
                    down_for: ms(3000),
                },
            }]))
    };
    let reclaim = run_once(&leg(true), &cal, 7);
    let stall = run_once(&leg(false), &cal, 7);
    for (name, m) in [("reclaim", &reclaim), ("stall", &stall)] {
        assert_eq!(m.faults.crashes, 1, "{name}: crash never fired");
        assert_eq!(m.faults.restarts, 1, "{name}: node never restarted");
        check_streaming_accounting(name, FANOUT, m);
    }
    assert!(
        reclaim.streaming.slots_reclaimed > 0,
        "reclaim leg never reclaimed a slot"
    );
    assert_eq!(
        stall.streaming.slots_reclaimed, 0,
        "stall leg must not reclaim"
    );
    assert!(
        reclaim.streaming.window_stall_secs < stall.streaming.window_stall_secs,
        "reclaim stalled {}s, head-of-line {}s — reclaim should stall less",
        reclaim.streaming.window_stall_secs,
        stall.streaming.window_stall_secs
    );
    assert!(
        reclaim.makespan <= stall.makespan,
        "reclaim makespan {:?} worse than head-of-line {:?}",
        reclaim.makespan,
        stall.makespan
    );
    // Byte-stability of both legs.
    for (name, wf, m) in [
        ("reclaim", leg(true), &reclaim),
        ("stall", leg(false), &stall),
    ] {
        let again = run_once(&wf, &cal, 7);
        assert_eq!(m.makespan, again.makespan, "{name}: makespan drifted");
        assert_eq!(m.events, again.events, "{name}: event count drifted");
    }
}

/// Same seed ⇒ byte-identical generated schedule; different seed ⇒ a
/// different one (the generator actually uses its seed).
#[test]
fn same_seed_gives_bit_identical_fault_schedules() {
    let horizon = SimDuration::from_secs_f64(10.0);
    for &seed in &SEEDS {
        let a = FaultConfig::chaos(seed, 3).build_plan(horizon, 4, 2, 0);
        let b = FaultConfig::chaos(seed, 3).build_plan(horizon, 4, 2, 0);
        assert!(!a.describe().is_empty(), "seed {seed}: empty plan");
        assert_eq!(
            a.describe(),
            b.describe(),
            "seed {seed}: schedule not reproducible"
        );
        let c = FaultConfig::chaos(seed ^ 1, 3).build_plan(horizon, 4, 2, 0);
        assert_ne!(
            a.describe(),
            c.describe(),
            "seed {seed}: schedule ignores its seed"
        );
    }
}

/// Generated chaos plans (all classes at once) terminate on every
/// backend, and rerunning the same seed reduces to a byte-identical
/// serialized report — fault counters, recovery split and all.
#[test]
fn same_seed_chaos_runs_produce_byte_identical_reports() {
    let cal = Calibration::quiet();
    for &seed in &SEEDS {
        for solution in [
            Solution::Dyad,
            Solution::Lustre,
            Solution::Xfs,
            Solution::Streaming,
        ] {
            let wf = base(solution).with_faults(FaultConfig::chaos(seed, 1));
            let a = run_once(&wf, &cal, seed);
            assert!(
                a.faults.injected > 0,
                "{solution:?} seed {seed}: generated plan injected nothing"
            );
            let b = run_once(&wf, &cal, seed);
            let ra = StudyReport::from_runs(&wf, &[a]).to_json();
            let rb = StudyReport::from_runs(&wf, &[b]).to_json();
            assert_eq!(ra, rb, "{solution:?} seed {seed}: report not byte-stable");
        }
    }
}

/// The PR 7 headline A/B: chaos kills one KVS broker shard mid-campaign.
///
/// * Replicated mesh (4 shards, R=2): every key the dead shard owned has
///   a live replica holding an acked copy, clients fail over, parked
///   waits are flushed and re-parked on replicas — the campaign heals
///   and completes with every frame consumed.
/// * Legacy single broker: the same crash takes the whole metadata
///   plane down. The workflow must *terminate* through the typed
///   failure path (counted produce/consume failures), never hang.
///
/// Both legs are asserted byte-stable per seed across the CI seed set.
#[test]
fn shard_kill_heals_replicated_mesh_but_terminates_single_broker() {
    let cal = Calibration::quiet();
    let total = PAIRS as u64 * FRAMES;
    for &seed in &SEEDS {
        // Leg A: sharded + replicated mesh, shard 1 dies at 1 s.
        let meshed = base(Solution::Dyad)
            .with_kvs_shards(4)
            .with_kvs_replication(2)
            .with_faults(FaultConfig::scheduled(vec![FaultEvent {
                at: ms(1000),
                kind: FaultKind::KvsShardCrash { shard: 1 },
            }]));
        let a = run_once(&meshed, &cal, seed);
        assert_eq!(
            a.faults.kvs_shard_crashes, 1,
            "seed {seed}: shard crash never fired"
        );
        assert_eq!(
            a.staging.acks_published, total,
            "seed {seed}: replicated mesh failed to heal — only {} of {total} \
             frames consumed (consume failures: {})",
            a.staging.acks_published, a.faults.consume_failures
        );
        assert_eq!(
            a.faults.consume_failures + a.faults.produce_failures,
            0,
            "seed {seed}: replicated mesh leaked typed failures"
        );
        assert!(
            a.kvs.deltas_sent > 0 && a.kvs.deltas_applied > 0,
            "seed {seed}: replication never shipped a delta"
        );
        let a2 = run_once(&meshed, &cal, seed);
        assert_eq!(
            a.makespan, a2.makespan,
            "seed {seed}: mesh leg not byte-stable"
        );
        assert_eq!(
            a.events, a2.events,
            "seed {seed}: mesh leg event count drifted"
        );

        // Leg B: legacy single broker (it *is* shard 0), same crash.
        let single = base(Solution::Dyad).with_faults(FaultConfig::scheduled(vec![FaultEvent {
            at: ms(1000),
            kind: FaultKind::KvsShardCrash { shard: 0 },
        }]));
        let b = run_once(&single, &cal, seed);
        assert!(
            b.faults.consume_failures + b.faults.produce_failures > 0,
            "seed {seed}: single-broker leg should terminate via typed failures"
        );
        assert!(
            b.staging.acks_published < total,
            "seed {seed}: single-broker leg completed despite a dead metadata plane"
        );
        let b2 = run_once(&single, &cal, seed);
        assert_eq!(
            b.makespan, b2.makespan,
            "seed {seed}: single-broker leg not byte-stable"
        );
        assert_eq!(
            b.events, b2.events,
            "seed {seed}: single-broker leg event count drifted"
        );
    }
}

/// Generated chaos plans that include the shard-crash class still
/// terminate on the replicated mesh, and the shard-crash knob leaves
/// non-mesh plans byte-identical (class 7 is appended, never interleaved).
#[test]
fn chaos_generator_with_shard_class_terminates_on_mesh() {
    let horizon = SimDuration::from_secs_f64(10.0);
    // Plan stability: n_kvs_shards = 0 reproduces the pre-mesh plan —
    // stripping shard-crash events from a shard-aware plan leaves the
    // exact event list a shard-free plan generates (class 7 draws come
    // after every pre-existing class, so earlier draws are untouched).
    for &seed in &SEEDS {
        let pre = FaultConfig::chaos(seed, 2).build_plan(horizon, 4, 2, 0);
        let with = FaultConfig::chaos(seed, 2).build_plan(horizon, 4, 2, 4);
        let kept: Vec<&FaultEvent> = with
            .events()
            .iter()
            .filter(|e| !matches!(e.kind, FaultKind::KvsShardCrash { .. }))
            .collect();
        assert_eq!(
            pre.events().iter().collect::<Vec<_>>(),
            kept,
            "seed {seed}: shard-crash class perturbed the existing plan"
        );
        assert!(
            with.len() > pre.len(),
            "seed {seed}: shard-crash class generated no events"
        );
    }
    // And a mesh run under the full generated plan terminates.
    let wf = base(Solution::Dyad)
        .with_kvs_shards(4)
        .with_kvs_replication(2)
        .with_faults(FaultConfig::chaos(SEEDS[0], 1));
    let m = run_once(&wf, &Calibration::quiet(), SEEDS[0]);
    assert!(
        m.faults.injected > 0,
        "generated mesh plan injected nothing"
    );
    check_dyad_accounting("mesh_chaos", &m);
}

/// A disabled `FaultConfig` — whatever its seed says — must
/// leave the run bit-identical to one that never mentioned faults: same
/// makespan, same event count, same counters.
#[test]
fn disabled_fault_config_leaves_runs_bit_identical() {
    let cal = Calibration::quiet();
    for solution in [
        Solution::Dyad,
        Solution::Lustre,
        Solution::Xfs,
        Solution::Streaming,
    ] {
        let plain = base(solution);
        let disabled = base(solution).with_faults(FaultConfig {
            events_per_class: 0,
            seed: 0xDEAD_BEEF,
            scheduled: Vec::new(),
        });
        let a = run_once(&plain, &cal, 3);
        let b = run_once(&disabled, &cal, 3);
        assert_eq!(a.makespan, b.makespan, "{solution:?}: makespan drifted");
        assert_eq!(a.events, b.events, "{solution:?}: event count drifted");
        assert_eq!(
            serde_json::to_string(&a.staging).unwrap(),
            serde_json::to_string(&b.staging).unwrap(),
            "{solution:?}: staging counters drifted"
        );
    }
}

/// An *armed* fault board whose only event lands an hour after the
/// workload finishes must not perturb the trajectory: the retrying
/// wrappers and recovery hooks are pure overhead-free pass-throughs
/// until a window actually opens.
#[test]
fn armed_board_with_out_of_window_plan_preserves_makespan() {
    let cal = Calibration::quiet();
    for solution in [
        Solution::Dyad,
        Solution::Lustre,
        Solution::Xfs,
        Solution::Streaming,
    ] {
        let plain = base(solution);
        let late = base(solution).with_faults(FaultConfig::scheduled(vec![FaultEvent {
            at: SimDuration::from_secs_f64(3600.0),
            kind: FaultKind::NodeCrash {
                node: 0,
                down_for: ms(100),
            },
        }]));
        let a = run_once(&plain, &cal, 5);
        let b = run_once(&late, &cal, 5);
        assert_eq!(
            a.makespan, b.makespan,
            "{solution:?}: armed-but-idle board changed the makespan"
        );
        assert_eq!(
            serde_json::to_string(&a.staging).unwrap(),
            serde_json::to_string(&b.staging).unwrap(),
            "{solution:?}: armed-but-idle board changed staging counters"
        );
        assert_eq!(
            b.faults.injected, 0,
            "{solution:?}: out-of-window event fired inside the run"
        );
    }
}

/// The detached ack task was the one place an ack could fail uncounted:
/// under the chaos plan at run seed 26 DYAD consumes every frame, but
/// one ack commit exhausts its retries inside a fault window. Every
/// consumed frame's ack is now either published or counted as dropped —
/// the sum equals the `analytics` regions entered at every run seed
/// (checked over 0..48 at both sizes), and only seed 26 drops one; its
/// neighbours pin that the count is not a constant.
#[test]
fn every_consumed_frame_acks_or_counts_a_dropped_ack() {
    for (pairs, seed) in [(4u32, 25), (4, 26), (4, 27), (8, 25), (8, 26), (8, 27)] {
        let wf = WorkflowConfig::new(
            Solution::Dyad,
            pairs,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_frames(64)
        .with_faults(FaultConfig::chaos(42, 2));
        let m = run_once(&wf, &Calibration::corona(), seed);
        let consumed: u64 = m
            .consumers
            .iter()
            .map(|p| p.node(&["analytics"]).map_or(0, |n| n.count))
            .sum();
        let typed_lost = m.faults.frames_lost_observed + m.faults.consume_failures;
        assert_eq!(
            consumed + typed_lost,
            u64::from(pairs) * 64,
            "{pairs} pairs, seed {seed}: a frame is neither consumed nor typed as lost"
        );
        // The dropped ack is not a lost frame: seed 26 consumes them all.
        assert!(
            seed != 26 || typed_lost == 0,
            "{pairs} pairs, seed 26: a frame went missing"
        );
        assert_eq!(
            m.faults.acks_dropped,
            u64::from(seed == 26),
            "{pairs} pairs, seed {seed}: dropped acks"
        );
        assert_eq!(
            m.staging.acks_published + m.faults.acks_dropped,
            consumed,
            "{pairs} pairs, seed {seed}: an ack is neither published nor counted"
        );
    }
}

/// A frame whose write exhausts an NVMe-error window and whose `Lost`
/// tombstone then exhausts a `kvs_delay` window fails its put as
/// `Transport`, and the role retries the put whole; otherwise the key is
/// never committed and its consumer parks until the hard stop. At plan
/// seed 11 that is pair 0's frame 25 at 39 s. Every frame ends consumed
/// or typed as lost.
#[test]
fn a_frame_whose_tombstone_fails_is_retried_not_stranded() {
    for (pairs, plan_seed) in [(4u32, 11), (8, 20240807)] {
        let wf = WorkflowConfig::new(
            Solution::Dyad,
            pairs,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_frames(64)
        .with_faults(FaultConfig::chaos(plan_seed, 2));
        let m = run_once(&wf, &Calibration::corona(), 7);
        let consumed: u64 = m
            .consumers
            .iter()
            .map(|p| p.node(&["analytics"]).map_or(0, |n| n.count))
            .sum();
        let typed_lost = m.faults.frames_lost_observed + m.faults.consume_failures;
        assert_eq!(
            consumed + typed_lost,
            u64::from(pairs) * 64,
            "{pairs} pairs, plan seed {plan_seed}: consumed {consumed}, typed lost {typed_lost}"
        );
    }
}

/// Consumed plus typed-lost frames of a DYAD run with an `nvme_frames`
/// staging budget per node, spill on, under `chaos(42, 2)` at run seed 7.
fn spill_run(pairs: u32, per_node: u32, frames: u64, nvme_frames: u64) -> u64 {
    let wf = WorkflowConfig::new(
        Solution::Dyad,
        pairs,
        Placement::Split {
            pairs_per_node: per_node,
        },
    )
    .with_frames(frames)
    .with_staging_budget(nvme_frames * Model::Jac.frame_bytes())
    .with_spill(true)
    .with_faults(FaultConfig::chaos(42, 2));
    let m = run_once(&wf, &Calibration::corona(), 7);
    let consumed: u64 = m
        .consumers
        .iter()
        .map(|p| p.node(&["analytics"]).map_or(0, |n| n.count))
        .sum();
    consumed + m.faults.frames_lost_observed + m.faults.consume_failures
}

/// A put whose metadata commit fails has already staged its bytes, in
/// state `Written`, and the role retries the put whole. Above the high
/// watermark the retry once waited in admission for the evictor, which
/// frees only published frames: it waited on its own copy until the
/// hard stop. One pair of four frames on a one-frame budget is the
/// smallest shape that stalled.
#[test]
fn a_retried_put_does_not_wait_on_its_own_copy() {
    assert_eq!(
        spill_run(1, 1, 4, 1),
        4,
        "a frame is neither consumed nor typed as lost"
    );
}

/// Two producers share a node and a two-frame budget. When the node's
/// only frame on the device is the other producer's `Written` frame,
/// whose metadata commit is retrying, an evictor pass frees nothing. It
/// once signalled release anyway: the blocked producer re-checked, woke
/// the evictor and waited again, and the clock never moved.
#[test]
fn a_pass_that_frees_nothing_does_not_spin_admission() {
    assert_eq!(
        spill_run(2, 2, 8, 2),
        2 * 8,
        "a frame is neither consumed nor typed as lost"
    );
}

/// The spill shape: 64 pairs × 32 frames, 8 pairs and an 8-frame budget
/// per node. Past the retry stall above, a spill whose metadata
/// republish fails in a broker outage is re-created by every later pass,
/// and a consumer whose owner is down falls back to that copy while it
/// is being rewritten: it once read an empty frame and panicked
/// decoding it. Every frame now ends consumed or typed as lost.
#[test]
fn the_spill_shape_finishes_under_chaos() {
    assert_eq!(
        spill_run(64, 8, 32, 8),
        64 * 32,
        "a frame is neither consumed nor typed as lost"
    );
}

/// A run that stalls ends as a panic its caller can catch, naming the
/// hard stop and the unfinished roles — never a process abort. The
/// stall is built in: the producers' node crashes at 1 s and stays down
/// past the hard stop. Tearing down the dead simulation drops parked
/// consumers' region guards, whose clock read once panicked inside a
/// destructor and aborted the process.
#[test]
fn a_stalled_run_is_a_catchable_panic() {
    let wf = WorkflowConfig::new(Solution::Dyad, 4, Placement::Split { pairs_per_node: 8 })
        .with_frames(8)
        .with_faults(FaultConfig::scheduled(vec![FaultEvent {
            at: ms(1000),
            kind: FaultKind::NodeCrash {
                node: 0,
                down_for: SimDuration::from_secs(10_000_000),
            },
        }]));
    let Err(panic) = std::panic::catch_unwind(|| run_once(&wf, &Calibration::corona(), 7)) else {
        panic!("a node down past the hard stop cannot finish");
    };
    let msg = panic
        .downcast_ref::<String>()
        .map_or("<not a String>", String::as_str);
    assert!(
        msg.contains("hard stop") && msg.contains("unfinished"),
        "{msg}"
    );
}

/// A streaming fan-out run under `chaos(42, 2)` at run seed 7, 8 groups
/// per node.
fn stream_chaos_run(groups: u32, steps: u64, fanout: u32) -> RunMetrics {
    let wf = WorkflowConfig::new(
        Solution::Streaming,
        groups,
        Placement::Split { pairs_per_node: 8 },
    )
    .with_frames(steps)
    .with_fanout(fanout)
    .with_faults(FaultConfig::chaos(42, 2));
    run_once(&wf, &Calibration::corona(), 7)
}

/// Consumed, typed-lost and given-up step deliveries of
/// [`stream_chaos_run`], against the deliveries planned (steps ×
/// subscribers).
fn stream_deliveries(groups: u32, steps: u64, fanout: u32) -> (u64, u64) {
    let m = stream_chaos_run(groups, steps, fanout);
    let accounted =
        m.streaming.steps_consumed + m.faults.frames_lost_observed + m.faults.consume_failures;
    (accounted, u64::from(groups * fanout) * steps)
}

/// A crash of the publishers' node loses the steps staged there; the
/// restart tombstones them, and each subscriber reads the tombstone as a
/// typed loss and never acks. The publisher's window once kept those
/// steps open: at 3 groups × 40 steps × fan-out 4 a publisher sat on a
/// window of lost steps while its subscribers waited for steps it could
/// not publish, until the hard stop. Every delivery now ends consumed or
/// typed as lost.
#[test]
fn a_step_lost_in_a_crash_frees_its_window_slot() {
    let (accounted, total) = stream_deliveries(3, 40, 4);
    assert_eq!(
        accounted, total,
        "a delivery is neither consumed nor typed as lost"
    );
}

/// The same fault plan at 4 groups × 64 steps × fan-out 4 spun past a
/// 150 s host timeout for the same reason.
#[test]
fn the_streaming_shape_finishes_under_chaos() {
    let (accounted, total) = stream_deliveries(4, 64, 4);
    assert_eq!(
        accounted, total,
        "a delivery is neither consumed nor typed as lost"
    );
}

/// Interned paths are numbered in the order a thread first sees them,
/// and a campaign worker keeps its thread's table across runs. A crash
/// once unlinked and republished a node's frames, and a dead KVS shard
/// woke its watches, in the hash order of those numbers, so a faulted
/// run moved with whatever its thread had interned before. The same run
/// on a fresh thread and on one that interned its step paths in reverse
/// first must be the same run.
#[test]
fn a_faulted_run_does_not_depend_on_the_threads_interner() {
    // Events, steps consumed, typed losses and consume failures.
    let trajectory = || {
        let m = stream_chaos_run(3, 40, 4);
        (
            m.events,
            m.streaming.steps_consumed,
            m.faults.frames_lost_observed,
            m.faults.consume_failures,
        )
    };
    let fresh = std::thread::spawn(trajectory).join().expect("fresh thread");
    let disturbed = std::thread::spawn(move || {
        for group in (0..3).rev() {
            for step in (0..40).rev() {
                simcore::intern::intern(&format!("/stream/steps/g{group:04}/s{step:05}"));
            }
        }
        trajectory()
    })
    .join()
    .expect("disturbed thread");
    assert_eq!(
        fresh, disturbed,
        "(events, steps consumed, typed losses, consume failures)"
    );
}

/// A producer node restarts while the KVS broker's node is down. Its
/// lost frames' `Lost` tombstones cannot be committed then; each was
/// tried once and dropped, the broker kept pointing at the dead copies,
/// and every consumer re-resolved them for its whole retry budget
/// (~130 s of simulated time) before giving up. Consumers launch late,
/// so node 1's first two frames are committed but unconsumed when it
/// crashes at 2 s; it restarts at 2.3 s, and the broker's node 0 is down
/// from 2.1 s to 4.1 s. The tombstones now land when the broker returns,
/// and each consumer reads its frame as lost.
#[test]
fn a_tombstone_committed_during_a_broker_outage_lands_when_it_returns() {
    let wf = WorkflowConfig::new(Solution::Dyad, 16, Placement::Split { pairs_per_node: 8 })
        .with_frames(4)
        .with_faults(FaultConfig::scheduled(vec![
            FaultEvent {
                at: ms(2000),
                kind: FaultKind::NodeCrash {
                    node: 1,
                    down_for: ms(300),
                },
            },
            FaultEvent {
                at: ms(2100),
                kind: FaultKind::NodeCrash {
                    node: 0,
                    down_for: ms(2000),
                },
            },
        ]));
    let mut cal = Calibration::quiet();
    cal.consumer_launch_delay = 4.0;
    let m = run_once(&wf, &cal, 7);
    assert_eq!(m.faults.restarts, 2);
    assert_eq!(
        m.faults.consume_failures, 0,
        "a consumer gave up on a frame"
    );
    assert!(
        m.faults.frames_lost_observed > 0,
        "no lost frame was observed"
    );
    let consumed: u64 = m
        .consumers
        .iter()
        .map(|p| p.node(&["analytics"]).map_or(0, |n| n.count))
        .sum();
    assert_eq!(
        consumed + m.faults.frames_lost_observed,
        16 * 4,
        "a frame is neither consumed nor typed as lost"
    );
}
