//! Timer fire path: 1,000 tasks each sleeping 100 staggered intervals.

use std::time::Instant;

use simcore::{Sim, SimDuration};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "simcore.timer_ns_per_event",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

fn batch() -> Sample {
    let sim = Sim::new(0);
    for i in 0..1_000u64 {
        let ctx = sim.ctx();
        sim.spawn(async move {
            for k in 0..100 {
                ctx.sleep(SimDuration::from_nanos(1 + (i * 37 + k) % 997))
                    .await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: report.events_processed as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
