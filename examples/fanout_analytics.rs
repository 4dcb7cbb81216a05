//! Fan-out workflows — the "more diverse set of workflows" the paper's
//! conclusion points to as future work. One MD producer publishes each
//! frame once; N analytics consumers on different nodes each fetch it
//! independently (the monitoring + reduction + visualization pipelines
//! of §II-B). This is the streaming backend's 1 → N group: the KVS entry
//! is published once, every subscriber synchronizes against it, and the
//! producer's node serves every fetch from its one staged copy.
//!
//! ```sh
//! cargo run --release --example fanout_analytics
//! ```

use mdflow::prelude::*;
use thicket::{Ensemble, Query};

const CONSUMERS: u32 = 3;
const FRAMES: u64 = 16;

fn main() {
    // One group, one process per node: the producer on node 0, the
    // consumers on nodes 1..=N.
    let wf = WorkflowConfig::new(
        Solution::Streaming,
        1,
        Placement::Split { pairs_per_node: 1 },
    )
    .with_model(Model::ApoA1)
    .with_frames(FRAMES)
    .with_fanout(CONSUMERS);
    let run = run_once(&wf, &Calibration::corona(), 42);
    println!(
        "fan-out complete: 1 producer → {CONSUMERS} consumers × {FRAMES} frames \
         in {:.2} simulated s\n",
        run.makespan.as_secs_f64()
    );
    println!("per-consumer consumption profile (Thicket aggregate):");
    let mut ens = Ensemble::new();
    for (c, profile) in run.consumers.into_iter().enumerate() {
        let consume = profile.inclusive(&["stream_consume"]).as_millis_f64();
        let sync = profile
            .inclusive(&["stream_consume", "stream_sync"])
            .as_millis_f64();
        println!("  consumer {c}: stream_consume {consume:8.3} ms total (sync {sync:7.3} ms)");
        ens.push(profile);
    }
    let agg = ens.aggregate();
    let q = Query::parse("stream_consume/stream_get_data");
    println!(
        "\nmean RDMA fetch time across consumers: {:.3} ms/run",
        agg.query_time(&q) * 1e3 / CONSUMERS as f64
    );
    // The producer served every consumer's fetches from its node-local
    // copy — one publish, N reads, no producer-side re-sends.
    let st = run.streaming;
    println!(
        "producer stats: {} publishes, {} fetches served (expected {})",
        st.steps_published,
        st.fetches_served,
        CONSUMERS as u64 * FRAMES
    );
    assert_eq!(st.steps_published, FRAMES);
    assert_eq!(st.fetches_served, CONSUMERS as u64 * FRAMES);
    assert_eq!(st.bytes_consumed, CONSUMERS as u64 * st.bytes_published);
}
