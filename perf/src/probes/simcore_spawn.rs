//! Task spawn, first poll and completion: 10,000 tasks that finish at
//! once. Spawning is timed too — it is the set-up cost of a big run.

use std::time::Instant;

use simcore::Sim;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "simcore.spawn_ns_per_task",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const TASKS: u64 = 10_000;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let started = Instant::now();
    for i in 0..TASKS {
        sim.spawn(async move { std::hint::black_box(i) });
    }
    let report = sim.run();
    Sample {
        ops: TASKS as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
