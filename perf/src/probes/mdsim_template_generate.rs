//! Frame-template synthesis for STMV (1,066,628 atoms, ~30 MB): the
//! dominant cost of `ClusterSnapshot::prepare` for big-model studies.

use std::hint::black_box;
use std::time::Instant;

use mdsim::{FrameTemplate, Model};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "mdsim.template_generate_ms",
    per_sec: 1e3,
    events_metric: None,
    batch,
};

fn batch() -> Sample {
    let started = Instant::now();
    black_box(FrameTemplate::generate(black_box(Model::Stmv), 0x7E3A));
    Sample {
        ops: 1.0,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
