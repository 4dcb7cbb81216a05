//! One repetition of a workload, two ways.
//!
//! [`timed_rep`] is what the end-to-end metrics time: the whole list of
//! studies through `run_studies_jobs(.., 1)`, then `to_json`, then the
//! drop — prepare, runs, teardown, reduction and serialization, as a
//! user of the bench binaries pays them.
//!
//! [`counted_rep`] walks the same studies itself, one run at a time, so
//! it can see what the campaign executor does not return: events,
//! makespans, KVS totals, profiles, shard load, and (traced) the
//! simulator's own tracer. It serves as the untimed warm-up of every
//! child and, with `traced`, as the traced rep. Its reports must be
//! byte-identical to the timed reps' — that is the output check, and it
//! also proves this loop replays the executor's seeding.

use std::collections::BTreeMap;
use std::time::Instant;

use mdflow::prelude::*;
use serde_json::Value;
use simcore::trace::TraceEvent;

use crate::alloc;
use crate::json::{number_at, to_tree};
use crate::trace::Spans;
use crate::workloads::{owed_per_run, Workload};

pub struct TimedRep {
    pub wall_s: f64,
    pub setup_s: f64,
    pub sim_s: f64,
    pub allocs: u64,
    /// Every study's report, serialized; compared byte for byte.
    pub reports: String,
}

pub fn timed_rep(w: &Workload) -> TimedRep {
    let allocs_before = alloc::calls();
    let started = Instant::now();
    let (reports, stats) = run_studies_jobs(&w.studies, 1);
    let text = reports
        .iter()
        .map(StudyReport::to_json)
        .collect::<Vec<_>>()
        .join("\n");
    drop(reports);
    TimedRep {
        wall_s: started.elapsed().as_secs_f64(),
        setup_s: stats.setup_secs,
        sim_s: stats.sim_secs,
        allocs: alloc::calls() - allocs_before,
        reports: text,
    }
}

/// How the runs of a rep combine into one per-layer value.
#[derive(Clone, Copy)]
enum Combine {
    Sum,
    Max,
}

/// Counters read by key from each run's serialized totals:
/// `(metric, section, key, scale, combine)`.
const RUN_COUNTERS: [(&str, &str, &str, f64, Combine); 22] = [
    ("kvs.commits", "kvs", "commits", 1.0, Combine::Sum),
    ("kvs.lookups", "kvs", "lookups", 1.0, Combine::Sum),
    ("kvs.waits", "kvs", "waits", 1.0, Combine::Sum),
    ("kvs.deltas_sent", "kvs", "deltas_sent", 1.0, Combine::Sum),
    ("kvs.peak_queue", "kvs", "peak_queue", 1.0, Combine::Max),
    (
        "staging.spilled_frames",
        "staging",
        "spilled_frames",
        1.0,
        Combine::Sum,
    ),
    (
        "staging.evicted_frames",
        "staging",
        "evicted_frames",
        1.0,
        Combine::Sum,
    ),
    (
        "staging.backpressure_stalls",
        "staging",
        "backpressure_stalls",
        1.0,
        Combine::Sum,
    ),
    (
        "staging.backpressure_sim_s",
        "staging",
        "backpressure_stall_secs",
        1.0,
        Combine::Sum,
    ),
    (
        "staging.pfs_fallbacks",
        "staging",
        "pfs_fallbacks",
        1.0,
        Combine::Sum,
    ),
    (
        "staging.peak_staged_mb",
        "staging",
        "peak_staged_bytes",
        1e-6,
        Combine::Max,
    ),
    (
        "streaming.steps_published",
        "streaming",
        "steps_published",
        1.0,
        Combine::Sum,
    ),
    (
        "streaming.steps_consumed",
        "streaming",
        "steps_consumed",
        1.0,
        Combine::Sum,
    ),
    (
        "streaming.window_stalls",
        "streaming",
        "window_stalls",
        1.0,
        Combine::Sum,
    ),
    (
        "streaming.cold_syncs",
        "streaming",
        "cold_syncs",
        1.0,
        Combine::Sum,
    ),
    (
        "streaming.warm_syncs",
        "streaming",
        "warm_syncs",
        1.0,
        Combine::Sum,
    ),
    (
        "streaming.ack_refreshes",
        "streaming",
        "ack_refreshes",
        1.0,
        Combine::Sum,
    ),
    ("faults.injected", "faults", "injected", 1.0, Combine::Sum),
    (
        "faults.rpc_retries",
        "faults",
        "rpc_retries",
        1.0,
        Combine::Sum,
    ),
    (
        "faults.retry_backoff_sim_s",
        "faults",
        "retry_backoff_secs",
        1.0,
        Combine::Sum,
    ),
    (
        "faults.frames_lost",
        "faults",
        "frames_lost",
        1.0,
        Combine::Sum,
    ),
    (
        "faults.consume_failures",
        "faults",
        "consume_failures",
        1.0,
        Combine::Sum,
    ),
];

/// Simulated seconds per instrumented region, summed over every process
/// of every run: `(metric, thicket query)`.
const REGION_SECONDS: [(&str, &str); 6] = [
    ("dyad.cold_sync_sim_s", "**/dyad_fetch"),
    ("dyad.warm_sync_sim_s", "**/dyad_sync_flock"),
    ("dyad.fetch_sim_s", "**/dyad_get_data"),
    ("dyad.produce_sim_s", "dyad_produce"),
    ("streaming.sync_sim_s", "**/stream_sync"),
    ("streaming.window_wait_sim_s", "**/stream_window_wait"),
];

/// Per-layer values; `None` marks a report key that no longer exists.
pub type Layers = BTreeMap<&'static str, Option<f64>>;

fn combine(layers: &mut Layers, name: &'static str, value: Option<f64>, how: Combine) {
    let slot = layers.entry(name).or_insert(Some(0.0));
    *slot = match (*slot, value) {
        (Some(acc), Some(v)) => Some(match how {
            Combine::Sum => acc + v,
            Combine::Max => acc.max(v),
        }),
        _ => None,
    };
}

pub struct CountedRep {
    pub wall_s: f64,
    pub reports: String,
    pub events: u64,
    /// Sum of the runs' makespans.
    pub makespan_ns: u64,
    /// Frame deliveries that happened.
    pub delivered: u64,
    /// Deliveries that ended in a typed loss instead.
    pub lost: u64,
    pub layers: Layers,
    pub spans: Spans,
    /// The first run's simulator trace events (traced reps only).
    pub sim_events: Vec<TraceEvent>,
}

/// At most this many of the first run's simulator events go into the
/// trace file; the 16k-pair run records ~590k.
const SIM_EVENTS_IN_FILE: usize = 20_000;

pub fn counted_rep(w: &Workload, traced: bool) -> CountedRep {
    let mut spans = Spans::new();
    let mut layers = Layers::new();
    let mut arena = RunArena::new();
    let (mut events, mut makespan_ns, mut delivered, mut lost) = (0u64, 0u64, 0u64, 0u64);
    let mut trace_events = 0u64;
    let mut sim_events = Vec::new();
    let mut reports = Vec::with_capacity(w.studies.len());
    let mut run_no = 0u32;

    let rep = spans.open("rep", None, 0);
    for study in &w.studies {
        let wf = &study.workflow;
        // The campaign executor's seeding: rep r runs at `seed + r`, and
        // the frame template comes from the first run's seed.
        let seeds: Vec<u64> = (0..study.repetitions as u64)
            .map(|r| study.seed + r)
            .collect();
        let snap = spans.time("prepare", Some(rep), 0, || {
            ClusterSnapshot::prepare(wf, &study.calibration, seeds[0] ^ 0x7E3A)
        });
        let mut runs = Vec::with_capacity(seeds.len());
        for &seed in &seeds {
            run_no += 1;
            let run = spans.open("run", Some(rep), run_no);
            let started = Instant::now();
            let (m, t, tracer) = if traced {
                let (m, t, tracer) = run_once_traced_snap(&snap, seed, started);
                (m, t, Some(tracer))
            } else {
                let (m, t) = run_once_warm(&snap, seed, &mut arena);
                (m, t, None)
            };
            spans.close(run);
            spans.record("run.setup", Some(run), run_no, started, t.setup_secs);
            let sim_started = started + std::time::Duration::from_secs_f64(t.setup_secs);
            spans.record("run.sim", Some(run), run_no, sim_started, t.sim_secs);

            events += m.events;
            makespan_ns += m.makespan.nanos();
            let totals = crate::json::obj(vec![
                ("kvs", to_tree(&m.kvs)),
                ("staging", to_tree(&m.staging)),
                ("streaming", to_tree(&m.streaming)),
                ("faults", to_tree(&m.faults)),
            ]);
            for (metric, section, key, scale, how) in RUN_COUNTERS {
                let v = number_at(&totals, &[section, key]).map(|v| v * scale);
                combine(&mut layers, metric, v, how);
            }
            delivered += deliveries(wf, &m);
            lost += number_at(&totals, &["faults", "frames_lost_observed"]).unwrap_or(0.0) as u64
                + number_at(&totals, &["faults", "consume_failures"]).unwrap_or(0.0) as u64;
            if let Some(load) = t.shard_load {
                combine(
                    &mut layers,
                    "simcore.shards",
                    Some(load.shards as f64),
                    Combine::Max,
                );
                combine(
                    &mut layers,
                    "simcore.shard_imbalance",
                    Some(load.imbalance),
                    Combine::Max,
                );
            }
            if let Some(tracer) = tracer {
                trace_events += tracer.len() as u64;
                if run_no == 1 {
                    // The benchmark's own export work, kept out of the
                    // rep's self time by a span of its own.
                    sim_events = spans.time("trace_export", Some(rep), run_no, || {
                        let mut events = tracer.events();
                        events.truncate(SIM_EVENTS_IN_FILE);
                        events
                    });
                }
                spans.time("drop", Some(rep), run_no, || drop(tracer));
            }
            runs.push(m);
        }
        let report = spans.time("reduce", Some(rep), 0, || StudyReport::from_runs(wf, &runs));
        if traced {
            let agg = spans.time("thicket", Some(rep), 0, || {
                let profiles = runs
                    .iter()
                    .flat_map(|m| m.producers.iter().chain(&m.consumers))
                    .cloned()
                    .collect();
                thicket::Ensemble::from_profiles(profiles).aggregate()
            });
            region_seconds(&mut layers, wf, &agg);
        }
        spans.time("drop", Some(rep), 0, || {
            drop(runs);
            drop(snap);
        });
        reports.push(report);
    }
    let texts: Vec<String> = spans.time("to_json", Some(rep), 0, || {
        reports.iter().map(StudyReport::to_json).collect()
    });
    paper_split(&mut layers, &texts);
    spans.time("drop", Some(rep), 0, || drop(reports));
    spans.close(rep);

    layers.insert("core.events", Some(events as f64));
    layers.insert("core.makespan_ns", Some(makespan_ns as f64));
    layers.insert("core.prepare_s", Some(spans.total_secs("prepare")));
    layers.insert("core.run_setup_s", Some(spans.total_secs("run.setup")));
    layers.insert("core.run_sim_s", Some(spans.total_secs("run.sim")));
    // Teardown is the explicit drops plus what the run call spends
    // after the simulator stopped its own clock: dropping the cluster,
    // the substrates and every per-pair service.
    let inside_run =
        spans.total_secs("run") - spans.total_secs("run.setup") - spans.total_secs("run.sim");
    layers.insert(
        "core.teardown_s",
        Some(spans.total_secs("drop") + inside_run.max(0.0)),
    );
    layers.insert(
        "core.reduce_s",
        Some(spans.total_secs("reduce") + spans.total_secs("to_json")),
    );
    layers.insert("instrument.trace_events", Some(trace_events as f64));
    CountedRep {
        wall_s: spans.secs(rep),
        reports: texts.join("\n"),
        events,
        makespan_ns,
        delivered,
        lost,
        layers,
        spans,
        sim_events,
    }
}

/// Frame deliveries one run completed: every frame a consumer received
/// and went on to analyze, i.e. the `analytics` regions its profile
/// entered — the one place all four backends' consumer bodies reach only
/// with the data in hand. Not the staging acks: under a fault window an
/// ack can go unpublished after its frame was consumed (DYAD, 4 and 8
/// pairs, run seed 26 under the chaos plan: 256 consumed, 255 acked).
fn deliveries(wf: &WorkflowConfig, m: &RunMetrics) -> u64 {
    let analyzed: u64 = m
        .consumers
        .iter()
        .map(|p| p.node(&["analytics"]).map_or(0, |n| n.count))
        .sum();
    analyzed.min(owed_per_run(wf))
}

/// Total simulated seconds per region over one study's processes.
fn region_seconds(layers: &mut Layers, wf: &WorkflowConfig, agg: &thicket::AggProfile) {
    let total = |pattern: &str| -> f64 {
        agg.query(&thicket::Query::parse(pattern))
            .iter()
            .map(|(_, s)| s.mean_inclusive * s.appearances as f64)
            .sum()
    };
    for (metric, pattern) in REGION_SECONDS {
        combine(layers, metric, Some(total(pattern)), Combine::Sum);
    }
    // The manual bodies name their I/O regions the same on XFS and
    // Lustre; only Lustre's are PFS time. Spilled frames read back
    // from the PFS count for every staged backend.
    let on_pfs = wf.solution == Solution::Lustre;
    let reads = total("**/dyad_pfs_fallback")
        + total("**/stream_pfs_fallback")
        + if on_pfs {
            total("consume/read_single_buf")
        } else {
            0.0
        };
    let writes = if on_pfs {
        total("produce/write_single_buf")
    } else {
        0.0
    };
    combine(layers, "pfs.read_sim_s", Some(reads), Combine::Sum);
    combine(layers, "pfs.write_sim_s", Some(writes), Combine::Sum);
}

/// The paper's movement/idle split, un-normalized: per-frame seconds
/// from each run of the serialized reports, times the frames it moved.
fn paper_split(layers: &mut Layers, reports: &[String]) {
    const SPLIT: [(&str, &str, &str); 4] = [
        ("report.production_movement_sim_s", "production", "movement"),
        ("report.production_idle_sim_s", "production", "idle"),
        (
            "report.consumption_movement_sim_s",
            "consumption",
            "movement",
        ),
        ("report.consumption_idle_sim_s", "consumption", "idle"),
    ];
    for report in reports {
        let tree: Value = serde_json::from_str(report).expect("serializer output parses");
        let frames = number_at(&tree, &["workflow", "pairs"])
            .zip(number_at(&tree, &["workflow", "frames"]))
            .map(|(p, f)| p * f);
        let runs = tree["runs"].as_array().cloned().unwrap_or_default();
        for run in &runs {
            for (metric, side, part) in SPLIT {
                let v = number_at(run, &[side, part])
                    .zip(frames)
                    .map(|(s, n)| s * n);
                combine(layers, metric, v, Combine::Sum);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_consumed_frame_whose_ack_was_dropped_still_counts_as_delivered() {
        // Run seed 26 under the chaos plan: every frame is consumed, one
        // staging ack goes unpublished inside a fault window. Counting
        // acks left one delivery unaccounted for and failed the run.
        let wf = WorkflowConfig::new(Solution::Dyad, 4, Placement::Split { pairs_per_node: 8 })
            .with_frames(64)
            .with_faults(FaultConfig::chaos(42, 2));
        let w = Workload {
            name: "ack_dropped",
            studies: vec![StudyConfig {
                workflow: wf,
                repetitions: 1,
                seed: 26,
                calibration: Calibration::corona(),
            }],
            expected_rep_secs: 1.0,
            reference: (0, 0),
        };
        let rep = counted_rep(&w, false);
        assert_eq!(rep.delivered + rep.lost, w.owed());
        assert_eq!(rep.delivered, 256);
    }
}
