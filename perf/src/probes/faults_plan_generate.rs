//! Chaos-plan generation: expanding a seeded `ChaosSpec` (64 nodes, 8
//! OSTs, 4 KVS shards, 8 events per class) into a concrete schedule.

use std::hint::black_box;
use std::time::Instant;

use faults::{ChaosSpec, FaultPlan};
use simcore::SimDuration;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "faults.plan_generate_ns_per_event",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const PLANS: u64 = 200;

fn batch() -> Sample {
    let spec = ChaosSpec {
        horizon: SimDuration::from_secs(60),
        n_nodes: 64,
        n_osts: 8,
        events_per_class: 8.0,
        mean_window_frac: 0.1,
        n_kvs_shards: 4,
    };
    let mut generated = 0usize;
    let started = Instant::now();
    for seed in 0..PLANS {
        generated += black_box(FaultPlan::generate(black_box(&spec), seed)).len();
    }
    Sample {
        ops: generated as f64,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
