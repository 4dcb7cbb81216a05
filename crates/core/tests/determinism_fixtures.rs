//! Same-seed determinism against pinned fixtures (PR 4).
//!
//! Two fixture files guard the hot-path overhaul:
//!
//! * `determinism_pr4.json` — captured on the code *before* the
//!   virtual-time bandwidth model and executor rework. DYAD and XFS
//!   makespans must match it bit-for-bit (the virtual-time model is
//!   algebraically identical for their flow patterns); Lustre is allowed
//!   a tiny relative drift because exact finish tags replace the old
//!   `FINISH_EPS` residual threshold in a float-sensitive interference
//!   mix. Staging lifecycle counters must match exactly everywhere.
//! * `determinism_pr4_pinned.json` — captured on the *current* model.
//!   Everything, including event counts, must match exactly; any change
//!   here means a code change silently altered trajectories. Its
//!   `shapes` rows add what the DYAD/XFS/Lustre-coarse rows miss — every
//!   manual sync protocol, DYAD-on-PFS with and without the warm sync,
//!   streaming fan-out and fan-in — each fault-free and under a chaos
//!   plan, with fault totals and the reduced movement/idle split.
//!
//! To re-pin after an intentional trajectory change, run
//! `cargo test -p mdflow --test determinism_fixtures -- --ignored
//! --nocapture print_pinned_fixtures`, replace
//! `fixtures/determinism_pr4_pinned.json` with the JSON it prints, and
//! say so in the commit message.

use mdflow::prelude::*;

const BEFORE: &str = include_str!("fixtures/determinism_pr4.json");
const PINNED: &str = include_str!("fixtures/determinism_pr4_pinned.json");

/// Largest relative makespan drift tolerated for Lustre vs the
/// before-overhaul capture (observed ~1e-4 at 64 pairs).
const LUSTRE_TOL: f64 = 5e-4;

struct Fixture {
    solution: Solution,
    pairs: u32,
    frames: u64,
    seed: u64,
    makespan_ns: u64,
    events: u64,
    staging: serde_json::Value,
}

fn parse(raw: &'static str) -> Vec<Fixture> {
    let v: serde_json::Value = serde_json::from_str(raw).expect("fixture json");
    v["fixtures"]
        .as_array()
        .expect("fixtures array")
        .iter()
        .map(|f| Fixture {
            solution: f["solution"]
                .as_str()
                .expect("solution")
                .parse()
                .expect("solution name"),
            pairs: f["pairs"].as_u64().expect("pairs") as u32,
            frames: f["frames"].as_u64().expect("frames"),
            seed: f["seed"].as_u64().expect("seed"),
            makespan_ns: f["makespan_ns"].as_u64().expect("makespan_ns"),
            events: f["events"].as_u64().expect("events"),
            staging: f["staging"].clone(),
        })
        .collect()
}

fn run(f: &Fixture) -> RunMetrics {
    run_with_calibration(f, Calibration::corona())
}

/// The fig5/fig6 shape of a fixture case: XFS on one node, the others
/// split 8 pairs per node.
fn workflow(solution: Solution, pairs: u32, frames: u64) -> WorkflowConfig {
    let placement = match solution {
        Solution::Xfs => Placement::SingleNode,
        _ => Placement::Split { pairs_per_node: 8 },
    };
    WorkflowConfig::new(solution, pairs, placement).with_frames(frames)
}

fn run_with_calibration(f: &Fixture, cal: Calibration) -> RunMetrics {
    run_once(&workflow(f.solution, f.pairs, f.frames), &cal, f.seed)
}

fn staging_value(m: &RunMetrics) -> serde_json::Value {
    json_value(&m.staging)
}

/// `v` as the fixture file holds it: printed, then parsed back.
fn json_value(v: &impl serde::Serialize) -> serde_json::Value {
    serde_json::from_str(&serde_json::to_string(v).expect("json")).expect("json value")
}

/// DYAD and XFS reproduce the before-overhaul makespans bit-for-bit;
/// Lustre stays within a float-ulp-scale tolerance; staging counters
/// match exactly for every case.
#[test]
fn results_match_before_overhaul_fixtures() {
    for f in parse(BEFORE) {
        let m = run(&f);
        let got = m.makespan.nanos();
        match f.solution {
            Solution::Lustre => {
                let rel = (got as f64 - f.makespan_ns as f64).abs() / f.makespan_ns as f64;
                assert!(
                    rel <= LUSTRE_TOL,
                    "lustre {}p makespan drifted: {} vs {} (rel {rel:.2e})",
                    f.pairs,
                    got,
                    f.makespan_ns
                );
            }
            _ => assert_eq!(
                got, f.makespan_ns,
                "{} {}p makespan changed vs before-overhaul capture",
                f.solution, f.pairs
            ),
        }
        assert_eq!(
            staging_value(&m),
            f.staging,
            "{} {}p staging counters changed",
            f.solution,
            f.pairs
        );
    }
}

/// The current model reproduces its own pinned capture exactly —
/// makespans, event counts and staging counters. A failure here means a
/// change altered simulation trajectories; re-pin deliberately or fix
/// the regression.
#[test]
fn results_match_pinned_fixtures_exactly() {
    for f in parse(PINNED) {
        let m = run(&f);
        assert_eq!(
            m.makespan.nanos(),
            f.makespan_ns,
            "{} {}p makespan changed vs pinned capture",
            f.solution,
            f.pairs
        );
        assert_eq!(
            m.events, f.events,
            "{} {}p event count changed vs pinned capture",
            f.solution, f.pairs
        );
        assert_eq!(
            staging_value(&m),
            f.staging,
            "{} {}p staging counters changed",
            f.solution,
            f.pairs
        );
    }
}

/// Prints a fresh `determinism_pr4_pinned.json`: DYAD, XFS and Lustre at
/// 8 and 64 pairs × 12 frames, seed 2024, then the `shapes` rows, in the
/// file's own layout.
#[test]
#[ignore = "regenerates the pinned fixture; see the file header"]
fn print_pinned_fixtures() {
    use serde_json::{Number, Value};
    let num = |v: u64| Value::Number(Number::U64(v));
    let mut rows = Vec::new();
    for pairs in [8u32, 64] {
        for solution in [Solution::Dyad, Solution::Xfs, Solution::Lustre] {
            let m = run_once(&workflow(solution, pairs, 12), &Calibration::corona(), 2024);
            let fields = [
                ("solution", Value::String(solution.name().to_string())),
                ("pairs", num(pairs as u64)),
                ("frames", num(12)),
                ("seed", num(2024)),
                ("makespan_ns", num(m.makespan.nanos())),
                ("events", num(m.events)),
                ("staging", staging_value(&m)),
            ];
            rows.push(Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ));
        }
    }
    let shapes = SHAPES
        .into_iter()
        .flat_map(|name| [shape_row(name, false), shape_row(name, true)])
        .collect();
    let json = Value::Object(vec![
        ("fixtures".to_string(), Value::Array(rows)),
        ("shapes".to_string(), Value::Array(shapes)),
    ]);
    println!("{}", serde_json::to_string_pretty(&json).expect("json"));
}

/// The `shapes` rows of the pinned capture, by name.
const SHAPES: [&str; 10] = [
    "dyad",
    "xfs",
    "lustre",
    "lustre-fine",
    "lustre-polling",
    "lustre-lock",
    "dyad-on-pfs",
    "dyad-on-pfs-no-warm-sync",
    "streaming-1to3",
    "streaming-4to1",
];

/// Shape `name` at 8 pairs (groups) × 12 frames.
fn shape(name: &str) -> WorkflowConfig {
    let base = |solution| workflow(solution, 8, 12);
    let manual = |sync| {
        let mut wf = base(Solution::Lustre);
        wf.manual_sync = sync;
        wf
    };
    match name {
        "dyad" => base(Solution::Dyad),
        "xfs" => base(Solution::Xfs),
        "lustre" => base(Solution::Lustre),
        "lustre-fine" => manual(ManualSync::Fine),
        "lustre-polling" => manual(ManualSync::Polling),
        "lustre-lock" => manual(ManualSync::LockBased),
        "dyad-on-pfs" => base(Solution::DyadOnPfs),
        "dyad-on-pfs-no-warm-sync" => {
            let mut wf = base(Solution::DyadOnPfs);
            wf.dyad_warm_sync = false;
            wf
        }
        "streaming-1to3" => base(Solution::Streaming).with_fanout(3),
        "streaming-4to1" => base(Solution::Streaming).with_fanin(4),
        _ => panic!("unknown shape {name}"),
    }
}

/// What the pinned capture holds of shape `name` at seed 2024, under
/// `FaultConfig::chaos(42, 2)` when `chaos`: makespan, events, staging
/// and fault totals, and the reduced movement/idle split, every float
/// to the bit.
fn shape_row(name: &str, chaos: bool) -> serde_json::Value {
    use serde_json::{Number, Value};
    let mut wf = shape(name);
    if chaos {
        wf = wf.with_faults(FaultConfig::chaos(42, 2));
    }
    let m = run_once(&wf, &Calibration::corona(), 2024);
    let b = mdflow::report::reduce_run(&wf, &m);
    let fields = [
        ("shape", Value::String(name.to_string())),
        ("chaos", Value::Bool(chaos)),
        (
            "makespan_ns",
            Value::Number(Number::U64(m.makespan.nanos())),
        ),
        ("events", Value::Number(Number::U64(m.events))),
        ("staging", staging_value(&m)),
        ("faults", json_value(&m.faults)),
        ("production", json_value(&b.production)),
        ("consumption", json_value(&b.consumption)),
    ];
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// Every `shapes` row of the pinned capture replays exactly.
#[test]
fn shapes_match_pinned_fixtures_exactly() {
    let pinned: serde_json::Value = serde_json::from_str(PINNED).expect("fixture json");
    let rows = pinned["shapes"].as_array().expect("shapes array");
    assert_eq!(rows.len(), 2 * SHAPES.len());
    for row in rows {
        let name = row["shape"].as_str().expect("shape");
        let chaos = row["chaos"].as_bool().expect("chaos");
        assert_eq!(
            shape_row(name, chaos),
            *row,
            "{name} (chaos: {chaos}) changed vs pinned capture"
        );
    }
}

/// `TopologySpec::Flat` is the pinned-capture topology, and a leaf/spine
/// fabric that degenerates to a single leaf (radix ≥ node count,
/// oversubscription 1.0) builds no switch tiers at all — both must
/// replay the fig6 DYAD/XFS pinned schedules *bit-identically*:
/// makespans, event counts and staging counters. This is the PR 8
/// topology-plumbing guard: adding the topology axis must not perturb
/// any existing schedule.
#[test]
fn flat_and_degenerate_leaf_spine_replay_pinned_schedules() {
    let mut ls = Calibration::corona();
    ls.fabric = ls.fabric.with_topology(TopologySpec::LeafSpine {
        radix: 65_536,
        oversubscription: 1.0,
    });
    for f in parse(PINNED) {
        if f.solution == Solution::Lustre {
            continue; // fig6 is DYAD vs XFS; lustre is covered above
        }
        for cal in [Calibration::corona(), ls.clone()] {
            let topo = cal.fabric.topology;
            let m = run_with_calibration(&f, cal);
            assert_eq!(
                m.makespan.nanos(),
                f.makespan_ns,
                "{} {}p makespan drifted under {topo:?}",
                f.solution,
                f.pairs
            );
            assert_eq!(
                m.events, f.events,
                "{} {}p event count drifted under {topo:?}",
                f.solution, f.pairs
            );
            assert_eq!(
                staging_value(&m),
                f.staging,
                "{} {}p staging counters drifted under {topo:?}",
                f.solution,
                f.pairs
            );
        }
    }
}

/// Same seed twice in one process ⇒ identical everything (guards against
/// accidental nondeterminism from map iteration order, interner state or
/// wake ordering).
#[test]
fn back_to_back_runs_are_identical() {
    let wf = WorkflowConfig::new(Solution::Dyad, 8, Placement::Split { pairs_per_node: 8 })
        .with_frames(6);
    let cal = Calibration::corona();
    let a = run_once(&wf, &cal, 7);
    let b = run_once(&wf, &cal, 7);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(staging_value(&a), staging_value(&b));
}

/// Sharded and replicated schedules are byte-stable under parallel
/// campaign execution: a serial run and a `--jobs 8` run of the same
/// study produce byte-identical serialized reports, at 1 shard and at
/// 4 shards with replication.
#[test]
fn parallel_and_serial_mesh_campaigns_are_byte_identical() {
    let cal = Calibration::corona();
    for (shards, replication) in [(1u32, 1u32), (4, 2)] {
        let wf = WorkflowConfig::new(Solution::Dyad, 8, Placement::Split { pairs_per_node: 8 })
            .with_frames(6)
            .with_kvs_shards(shards)
            .with_kvs_replication(replication);
        let study = StudyConfig {
            workflow: wf,
            calibration: cal.clone(),
            repetitions: 4,
            seed: 42,
        };
        let serial = run_study_jobs(&study, 1).to_json();
        let parallel = run_study_jobs(&study, 8).to_json();
        assert_eq!(
            serial, parallel,
            "shards={shards} R={replication}: parallel execution drifted from serial"
        );
    }
}
