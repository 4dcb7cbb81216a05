//! Full frame decode (header, checksum, positions) of flattened ApoA1
//! frames, per MB decoded.

use std::hint::black_box;
use std::time::Instant;

use mdsim::{Frame, FrameTemplate, Model};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "mdsim.frame_decode_ns_per_mb",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const FRAMES: u64 = 8;

fn batch() -> Sample {
    let template = FrameTemplate::generate(Model::ApoA1, 1);
    let flat = transport::flatten_payload(template.frame_segments(7));
    let started = Instant::now();
    for _ in 0..FRAMES {
        black_box(Frame::decode(black_box(flat.clone())).expect("valid frame"));
    }
    Sample {
        ops: FRAMES as f64 * flat.len() as f64 / 1e6,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
