//! Recorder churn: nested regions with an annotation per visit, the
//! per-frame instrumentation every workflow body pays.

use std::hint::black_box;
use std::time::Instant;

use instrument::Recorder;
use simcore::{Sim, SimDuration};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "instrument.region_ns_per_visit",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const ITERS: u64 = 5_000;
const REGIONS_PER_ITER: u64 = 3;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let rec = Recorder::new(&ctx);
    sim.spawn(async move {
        for _ in 0..ITERS {
            let outer = rec.region("produce");
            {
                let _write = rec.region("write");
                rec.annotate("bytes", 4096.0);
                ctx.sleep(SimDuration::from_nanos(5)).await;
            }
            {
                let _notify = rec.region("notify");
                rec.annotate("msgs", 1.0);
            }
            drop(outer);
        }
        black_box(rec.finish());
    });
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (ITERS * REGIONS_PER_ITER) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
