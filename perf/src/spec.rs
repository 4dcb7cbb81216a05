//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end
//! metric each should move. `BENCHMARK.json` at the repo root is
//! `perf --print-spec`; a test keeps the two equal.

use serde_json::Value;

use crate::json::{num, obj, text, uint};

/// Seconds one driver run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "dyad_scale",
        why: "DYAD, 16384 pairs x 3 frames on 8192 leaf/spine nodes: sharded calendar, fabric, transport and one KVS broker far beyond cache; cold KVS-wait sync dominates; pfs, streaming, faults idle",
    },
    WorkloadSpec {
        name: "lustre_ensemble",
        why: "Lustre, 512 pairs x 128 frames, flat fabric, interference on: pfs MDS/OST/ldlm and sync barriers do the work; kvs, dyad, staging, localfs, streaming do none - the bypass for DYAD-side changes",
    },
    WorkloadSpec {
        name: "stream_fanout",
        why: "Streaming, 1024 groups x fan-out 4 x 24 frames, window 4, leaf/spine: window/ack machinery, ack-driven staging retention, parked KVS watches, RMA; the only workload where streaming runs",
    },
    WorkloadSpec {
        name: "dyad_spill",
        why: "DYAD, 512 pairs x 64 bursty frames, 8-frame budget, spill-to-PFS, KVS mesh 4 shards R=2: evictor, backpressure, pfs as spill target, mesh, warm flock path - dyad_scale's layers used differently",
    },
    WorkloadSpec {
        name: "paper_suite",
        why: "The paper grid reduced: fig5, fig6/7, fig8 as 32 studies x 2 reps x 32 frames in one campaign: many small runs, so prepare, STMV template synthesis, report reduction and the XFS path carry weight",
    },
    WorkloadSpec {
        name: "chaos_matrix",
        why: "DYAD, XFS, Lustre x 4, 8 pairs x 64 frames under the chaos plan (seed 42, 2 per class), 16 reps each: the only workload with a fault board - probes, rpc retries, faulted bodies, typed losses",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "allocs_per_event",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "delivered_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Where a per-layer value comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// The traced rep of the workload being run.
    Traced,
    /// An isolated closed-loop probe (`src/probes/<layer>_<name>.rs`).
    Probe,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub source: Source,
    /// The end-to-end metric this layer metric should move …
    pub moves_metric: &'static str,
    /// … and the workloads on which it should (everywhere else the
    /// prediction is no change).
    pub moves_workload: &'static str,
}

const fn traced(
    name: &'static str,
    unit: &'static str,
    moves_metric: &'static str,
    moves_workload: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        source: Source::Traced,
        moves_metric,
        moves_workload,
    }
}

const fn probe(
    name: &'static str,
    unit: &'static str,
    moves_metric: &'static str,
    moves_workload: &'static str,
) -> Layer {
    Layer {
        source: Source::Probe,
        ..traced(name, unit, moves_metric, moves_workload)
    }
}

const ALL: &str = "all";
const DYAD_BOTH: &str = "dyad_scale, dyad_spill";
const STAGED: &str = "dyad_spill, stream_fanout";
const PFS_USERS: &str = "lustre_ensemble, dyad_spill";
const LEAF_SPINE: &str = "dyad_scale, stream_fanout";
const NOT_LUSTRE: &str = "dyad_scale, dyad_spill, stream_fanout, paper_suite";
const CAMPAIGNS: &str = "paper_suite, chaos_matrix";
/// Counts and simulated seconds: no host-performance change may move
/// them on any workload.
const IDENTITY: &str = "none (must repeat exactly)";

pub const PER_LAYER: [Layer; 78] = [
    // ---- from the traced rep: host seconds by phase --------------------
    traced(
        "core.prepare_s",
        "s",
        "setup_s",
        "paper_suite, chaos_matrix, dyad_scale",
    ),
    traced("core.run_setup_s", "s", "setup_s", "dyad_scale"),
    traced("core.run_sim_s", "s", "events_per_s", ALL),
    traced("core.teardown_s", "s", "wall_s", "dyad_scale"),
    traced("core.reduce_s", "s", "wall_s", "paper_suite"),
    // ---- from the traced rep: trajectory identity and counts -----------
    traced("core.events", "count", IDENTITY, ALL),
    traced("core.makespan_ns", "ns", IDENTITY, ALL),
    traced("simcore.shards", "count", "events_per_s", LEAF_SPINE),
    traced(
        "simcore.shard_imbalance",
        "ratio",
        "events_per_s",
        LEAF_SPINE,
    ),
    traced("kvs.commits", "count", IDENTITY, NOT_LUSTRE),
    traced("kvs.lookups", "count", IDENTITY, NOT_LUSTRE),
    traced("kvs.waits", "count", IDENTITY, NOT_LUSTRE),
    traced("kvs.deltas_sent", "count", IDENTITY, "dyad_spill"),
    traced("kvs.peak_queue", "count", IDENTITY, NOT_LUSTRE),
    traced("staging.spilled_frames", "count", IDENTITY, "dyad_spill"),
    traced("staging.evicted_frames", "count", IDENTITY, STAGED),
    traced(
        "staging.backpressure_stalls",
        "count",
        IDENTITY,
        "dyad_spill",
    ),
    traced("staging.backpressure_sim_s", "s", IDENTITY, "dyad_spill"),
    traced("staging.pfs_fallbacks", "count", IDENTITY, "dyad_spill"),
    traced("staging.peak_staged_mb", "MB", IDENTITY, STAGED),
    traced(
        "streaming.steps_published",
        "count",
        IDENTITY,
        "stream_fanout",
    ),
    traced(
        "streaming.steps_consumed",
        "count",
        IDENTITY,
        "stream_fanout",
    ),
    traced(
        "streaming.window_stalls",
        "count",
        IDENTITY,
        "stream_fanout",
    ),
    traced("streaming.cold_syncs", "count", IDENTITY, "stream_fanout"),
    traced("streaming.warm_syncs", "count", IDENTITY, "stream_fanout"),
    traced(
        "streaming.ack_refreshes",
        "count",
        IDENTITY,
        "stream_fanout",
    ),
    traced("faults.injected", "count", IDENTITY, "chaos_matrix"),
    traced("faults.rpc_retries", "count", IDENTITY, "chaos_matrix"),
    traced("faults.retry_backoff_sim_s", "s", IDENTITY, "chaos_matrix"),
    traced(
        "faults.frames_lost",
        "count",
        "delivered_share",
        "chaos_matrix",
    ),
    traced(
        "faults.consume_failures",
        "count",
        "delivered_share",
        "chaos_matrix",
    ),
    // ---- from the traced rep: the paper's split, simulated seconds -----
    traced("report.production_movement_sim_s", "s", IDENTITY, ALL),
    traced("report.production_idle_sim_s", "s", IDENTITY, ALL),
    traced("report.consumption_movement_sim_s", "s", IDENTITY, ALL),
    traced("report.consumption_idle_sim_s", "s", IDENTITY, ALL),
    traced("dyad.cold_sync_sim_s", "s", IDENTITY, "dyad_scale"),
    traced("dyad.warm_sync_sim_s", "s", IDENTITY, "dyad_spill"),
    traced("dyad.fetch_sim_s", "s", IDENTITY, DYAD_BOTH),
    traced("dyad.produce_sim_s", "s", IDENTITY, DYAD_BOTH),
    traced("pfs.read_sim_s", "s", IDENTITY, PFS_USERS),
    traced("pfs.write_sim_s", "s", IDENTITY, "lustre_ensemble"),
    traced("streaming.sync_sim_s", "s", IDENTITY, "stream_fanout"),
    traced(
        "streaming.window_wait_sim_s",
        "s",
        IDENTITY,
        "stream_fanout",
    ),
    // ---- from the traced rep: what tracing itself costs ----------------
    traced(
        "instrument.trace_overhead_ratio",
        "ratio",
        "wall_s",
        "none (traced rep only)",
    ),
    traced("instrument.trace_events", "count", IDENTITY, ALL),
    // ---- the host, not the simulator: one yardstick slice --------------
    traced(
        "host.yardstick_ms",
        "ms",
        "wall_s",
        "none (the host's speed; the three time metrics are divided by it)",
    ),
    // ---- isolated probes: host ns per operation ------------------------
    probe("simcore.timer_ns_per_event", "ns", "events_per_s", ALL),
    probe(
        "simcore.timer_cancel_ns_per_op",
        "ns",
        "events_per_s",
        "chaos_matrix, dyad_spill",
    ),
    probe("simcore.bandwidth_ns_per_flow", "ns", "events_per_s", ALL),
    probe("simcore.spawn_ns_per_task", "ns", "setup_s", "dyad_scale"),
    probe(
        "simcore.sync_ns_per_handoff",
        "ns",
        "events_per_s",
        "lustre_ensemble",
    ),
    probe(
        "cluster.fabric_flat_ns_per_send",
        "ns",
        "events_per_s",
        "lustre_ensemble, dyad_spill, paper_suite, chaos_matrix",
    ),
    probe(
        "cluster.fabric_leafspine_ns_per_send",
        "ns",
        "events_per_s",
        LEAF_SPINE,
    ),
    probe("cluster.nvme_ns_per_io", "ns", "events_per_s", NOT_LUSTRE),
    probe("transport.eager_ns_per_msg", "ns", "events_per_s", ALL),
    probe("transport.rendezvous_ns_per_msg", "ns", "events_per_s", ALL),
    probe("transport.rpc_ns_per_call", "ns", "events_per_s", ALL),
    probe(
        "kvs.codec_ns_per_roundtrip",
        "ns",
        "events_per_s",
        NOT_LUSTRE,
    ),
    probe(
        "kvs.commit_lookup_ns_per_op",
        "ns",
        "events_per_s",
        "dyad_scale",
    ),
    probe(
        "kvs.mesh_commit_lookup_ns_per_op",
        "ns",
        "events_per_s",
        "dyad_spill",
    ),
    probe(
        "kvs.wait_wake_ns_per_op",
        "ns",
        "events_per_s",
        "dyad_scale, stream_fanout",
    ),
    probe(
        "localfs.write_read_ns_per_file",
        "ns",
        "events_per_s",
        NOT_LUSTRE,
    ),
    probe("localfs.meta_ns_per_op", "ns", "events_per_s", NOT_LUSTRE),
    probe(
        "pfs.codec_ns_per_roundtrip",
        "ns",
        "events_per_s",
        PFS_USERS,
    ),
    probe(
        "pfs.write_read_ns_per_file",
        "ns",
        "events_per_s",
        PFS_USERS,
    ),
    probe(
        "staging.admit_ack_ns_per_frame",
        "ns",
        "events_per_s",
        STAGED,
    ),
    probe(
        "dyad.produce_consume_ns_per_frame",
        "ns",
        "events_per_s",
        DYAD_BOTH,
    ),
    probe("dyad.events_per_frame", "count", "events_per_s", DYAD_BOTH),
    probe(
        "streaming.publish_consume_ns_per_step",
        "ns",
        "events_per_s",
        "stream_fanout",
    ),
    probe(
        "streaming.events_per_step",
        "count",
        "events_per_s",
        "stream_fanout",
    ),
    probe(
        "faults.plan_generate_ns_per_event",
        "ns",
        "setup_s",
        "chaos_matrix",
    ),
    probe(
        "faults.board_probe_ns",
        "ns",
        "events_per_s",
        "chaos_matrix",
    ),
    probe("instrument.region_ns_per_visit", "ns", "events_per_s", ALL),
    probe(
        "thicket.aggregate_ns_per_profile",
        "ns",
        "wall_s",
        "none (traced rep only)",
    ),
    probe("mdsim.template_generate_ms", "ms", "setup_s", CAMPAIGNS),
    probe("mdsim.frame_segments_ns", "ns", "events_per_s", ALL),
    probe("mdsim.frame_decode_ns_per_mb", "ns", "events_per_s", ALL),
    probe(
        "analytics.contact_matrix_us",
        "us",
        "wall_s",
        "none (examples only)",
    ),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    obj(vec![
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "perf/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Value::Array(vec![text("perf")])),
        ("run_seconds", uint(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("name", text(l.name)),
                            ("unit", text(l.unit)),
                            // Every layer metric is a cost or a count
                            // that must not grow.
                            ("better", text(Better::Lower.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|l| l.name));
        for n in &names {
            assert!(well_formed(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|l| l.unit));
        for u in units {
            assert!(
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {u}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_names_a_real_end_to_end_metric_or_identity() {
        for l in &PER_LAYER {
            assert!(
                l.moves_metric == IDENTITY || end_to_end(l.moves_metric).is_some(),
                "{} moves unknown metric {}",
                l.name,
                l.moves_metric
            );
        }
    }

    #[test]
    fn workload_table_matches_the_builders() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn benchmark_json_round_trips() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(on_disk.len() <= 64 * 1024);
        let parsed = serde_json::from_str(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            benchmark_json(),
            "regenerate with `perf --print-spec`"
        );
        let again = serde_json::to_string_pretty(&parsed).unwrap();
        assert_eq!(serde_json::from_str(&again).unwrap(), parsed);
        let Value::Object(keys) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
