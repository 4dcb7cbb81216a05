//! NVMe device model: 64 tasks alternating 644 KiB writes and reads on
//! one device (a JAC frame is 644 KiB).

use std::time::Instant;

use cluster::{NodeSpec, NvmeDevice};
use simcore::Sim;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "cluster.nvme_ns_per_io",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const TASKS: u64 = 64;
const IOS_PER_TASK: u64 = 100;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
    for _ in 0..TASKS {
        let dev = dev.clone();
        sim.spawn(async move {
            for i in 0..IOS_PER_TASK {
                if i % 2 == 0 {
                    dev.write(644 << 10).await;
                } else {
                    dev.read(644 << 10).await;
                }
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (TASKS * IOS_PER_TASK) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
