//! Thicket aggregation: 2,048 consumer-shaped profiles (a DYAD call
//! tree, seven paths) reduced to per-path statistics.

use std::hint::black_box;
use std::time::Instant;

use instrument::{Profile, Recorder};
use simcore::{Sim, SimDuration};
use thicket::Ensemble;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "thicket.aggregate_ns_per_profile",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const PROFILES: usize = 2_048;

/// One consumer's profile: `dyad_consume` with its five children, plus
/// `analytics`, three frames each.
fn consumer_profile() -> Profile {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let handle = sim.spawn(async move {
        let rec = Recorder::new(&ctx);
        for _ in 0..3 {
            let consume = rec.region("dyad_consume");
            for child in [
                "dyad_fetch",
                "dyad_sync_flock",
                "dyad_get_data",
                "dyad_cons_store",
                "read_single_buf",
            ] {
                let _g = rec.region(child);
                rec.annotate("bytes", 644.0 * 1024.0);
                ctx.sleep(SimDuration::from_micros(7)).await;
            }
            drop(consume);
            let _g = rec.region("analytics");
            ctx.sleep(SimDuration::from_millis(1)).await;
        }
        rec.finish()
    });
    sim.run();
    handle.try_take().expect("profile task finished")
}

fn batch() -> Sample {
    let profiles = vec![consumer_profile(); PROFILES];
    let started = Instant::now();
    let agg = Ensemble::from_profiles(profiles).aggregate();
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(black_box(&agg).nodes.len(), 7);
    Sample {
        ops: PROFILES as f64,
        secs,
        events: 0,
    }
}
