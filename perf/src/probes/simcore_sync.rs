//! Channel hand-off between tasks: 64 ping-pong pairs, the shape of the
//! manual baselines' coarse barrier.

use std::time::Instant;

use simcore::sync::channel;
use simcore::Sim;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "simcore.sync_ns_per_handoff",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const PAIRS: u64 = 64;
const ROUND_TRIPS: u64 = 200;

fn batch() -> Sample {
    let sim = Sim::new(0);
    for _ in 0..PAIRS {
        let (ping_tx, mut ping_rx) = channel::<u64>();
        let (pong_tx, mut pong_rx) = channel::<u64>();
        sim.spawn(async move {
            for i in 0..ROUND_TRIPS {
                ping_tx.send(i);
                pong_rx.recv().await;
            }
        });
        sim.spawn(async move {
            while let Some(i) = ping_rx.recv().await {
                pong_tx.send(i);
            }
        });
    }
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (PAIRS * ROUND_TRIPS * 2) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
