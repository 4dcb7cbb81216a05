//! Zero-copy frame emission: `frame_segments` on a JAC template, what a
//! producer calls once per frame.

use std::hint::black_box;
use std::time::Instant;

use mdsim::{FrameTemplate, Model};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "mdsim.frame_segments_ns",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const FRAMES: u64 = 20_000;

fn batch() -> Sample {
    let template = FrameTemplate::generate(Model::Jac, 1);
    let started = Instant::now();
    for step in 0..FRAMES {
        black_box(template.frame_segments(black_box(step)));
    }
    Sample {
        ops: FRAMES as f64,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
