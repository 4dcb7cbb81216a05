//! Fair-share link under churn: 512 flows of staggered sizes join and
//! leave one `SharedBandwidth`, so membership changes constantly.

use std::time::Instant;

use simcore::resource::SharedBandwidth;
use simcore::{Sim, SimDuration};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "simcore.bandwidth_ns_per_flow",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const FLOWS: u64 = 512;
/// Transfers each flow makes back to back, rejoining the link each time.
const ROUNDS: u64 = 8;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let bw = SharedBandwidth::new(&ctx, 1e9);
    for i in 0..FLOWS {
        let bw = bw.clone();
        let ctx = ctx.clone();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(i * 100)).await;
            for r in 0..ROUNDS {
                bw.transfer_counted(1_000_000 + i * 1000 + r * 17).await;
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (FLOWS * ROUNDS) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
