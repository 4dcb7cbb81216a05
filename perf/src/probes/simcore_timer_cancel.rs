//! Timer cancel path: a far-future sleep armed and cancelled by a short
//! timeout, so tombstones and compaction run instead of the fire path.

use std::time::Instant;

use simcore::{timeout, Sim, SimDuration};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "simcore.timer_cancel_ns_per_op",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const TASKS: u64 = 200;
const ITERS: u64 = 100;

fn batch() -> Sample {
    let sim = Sim::new(0);
    for _ in 0..TASKS {
        let ctx = sim.ctx();
        sim.spawn(async move {
            for _ in 0..ITERS {
                let _ = timeout(
                    &ctx,
                    SimDuration::from_nanos(10),
                    ctx.sleep(SimDuration::from_secs(1)),
                )
                .await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (TASKS * ITERS) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
