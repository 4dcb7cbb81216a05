//! Metadata-plane sweep for the sharded KVS mesh (PR 7).
//!
//! DYAD's loose coupling funnels every producer commit and every
//! consumer synchronization probe through the KVS. This harness measures
//! what sharding that plane buys: consumer sync latency (time inside
//! `dyad_consume → dyad_fetch`, i.e. from wanting a frame's metadata to
//! holding it) and broker congestion (worst per-shard peak of queued +
//! in-service requests) as the pair count scales from 256 to 4096 and
//! the shard count from 1 to 4. A replicated leg (4 shards, R=2)
//! measures what synchronous causal-delta replication costs on top.
//!
//! The workload deliberately stresses the metadata plane: warm sync is
//! disabled (every frame re-synchronizes through a parked server-side
//! watch) and the stride runs at 80x the paper's frame rate, so each
//! pair funnels a commit + wait + ack RPC stream through the brokers
//! every ~2.5 ms and broker queueing — not producer cadence — dominates
//! the measured latency once a single broker saturates.
//! All measured quantities are *simulated* time and deterministic
//! counters: same binary + same scale knobs ⇒ byte-identical numbers on
//! any host. The relations the sweep exists to show — latency monotone
//! non-increasing across 1→2→4 shards where the single broker saturates,
//! the 1→4 improvement, the R=2 overhead, the peak queue halving per
//! doubling — are tier-1 tests on this binary's own cell
//! (`crates/bench/tests/experiments.rs`, through `bench::run_cell`).
//!
//! `metadata_plane [--out DIR]` runs the sweep, prints a table and
//! writes `BENCH_PR7.json` (default: the current directory).
//!
//! Scale knobs: `METADATA_PAIRS` (comma list, default `256,1024,4096`)
//! and `METADATA_FRAMES` (default 3).

use bench::{env_or, num_f64, num_u64, obj, run_cell, write_record, MetadataCell};

const SHARDS: [u32; 3] = [1, 2, 4];

fn pairs_list() -> Vec<u32> {
    std::env::var("METADATA_PAIRS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect::<Vec<u32>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![256, 1024, 4096])
}

fn cell_json(c: &MetadataCell) -> serde_json::Value {
    obj(vec![
        ("pairs", num_u64(c.pairs as u64)),
        ("shards", num_u64(c.shards as u64)),
        ("replication", num_u64(c.replication as u64)),
        ("sync_ms", num_f64(c.sync_ms)),
        ("peak_queue", num_u64(c.peak_queue)),
        ("waits", num_u64(c.waits)),
        ("deltas_sent", num_u64(c.deltas_sent)),
        ("makespan_secs", num_f64(c.makespan_secs)),
    ])
}

/// Latency of the `(pairs, shards, replication)` cell, if measured.
fn sync_of(cells: &[MetadataCell], pairs: u32, shards: u32, replication: u32) -> Option<f64> {
    cells
        .iter()
        .find(|c| c.pairs == pairs && c.shards == shards && c.replication == replication)
        .map(|c| c.sync_ms)
}

fn record(cells: &[MetadataCell], pairs: &[u32], frames: u64) -> serde_json::Value {
    // Derived ratio block: `improvement_4x` is the 1-shard / 4-shard
    // sync-latency ratio per pair count (higher is better);
    // `replication_overhead` is R=2 / R=1 latency at 4 shards.
    let mut ratios = Vec::new();
    for &p in pairs {
        let (Some(s1), Some(s4)) = (sync_of(cells, p, 1, 1), sync_of(cells, p, 4, 1)) else {
            continue;
        };
        let mut fields = vec![
            ("pairs", num_u64(p as u64)),
            ("improvement_4x", num_f64(s1 / s4.max(1e-12))),
        ];
        if let Some(r2) = sync_of(cells, p, 4, 2) {
            fields.push(("replication_overhead", num_f64(r2 / s4.max(1e-12))));
        }
        ratios.push(obj(fields));
    }
    obj(vec![
        (
            "bench",
            serde_json::Value::String("metadata_plane".to_string()),
        ),
        ("pr", num_u64(7)),
        ("frames", num_u64(frames)),
        ("seed", num_u64(11)),
        (
            "cells",
            serde_json::Value::Array(cells.iter().map(cell_json).collect()),
        ),
        ("ratios", serde_json::Value::Array(ratios)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let frames = env_or("METADATA_FRAMES", 3);
    let pairs = pairs_list();
    println!(
        "METADATA-PLANE — KVS mesh sweep (pairs {pairs:?} x shards {SHARDS:?} at {frames} frames)"
    );
    println!(
        "  {:>6} {:>7} {:>5} {:>12} {:>11} {:>10} {:>12}",
        "pairs", "shards", "R", "sync (ms)", "peak queue", "waits", "deltas sent"
    );
    let mut cells = Vec::new();
    for &p in &pairs {
        for &s in &SHARDS {
            cells.push(run_cell(p, s, 1, frames));
        }
        // Replicated leg: what synchronous causal-delta sync costs on
        // top of the best unreplicated mesh.
        cells.push(run_cell(p, 4, 2, frames));
        for c in cells.iter().skip(cells.len() - 4) {
            println!(
                "  {:>6} {:>7} {:>5} {:>12.3} {:>11} {:>10} {:>12}",
                c.pairs, c.shards, c.replication, c.sync_ms, c.peak_queue, c.waits, c.deltas_sent
            );
        }
    }
    write_record(&args, "BENCH_PR7.json", &record(&cells, &pairs, frames));
}
