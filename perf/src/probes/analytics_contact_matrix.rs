//! The in-situ analytics kernel: a 200-atom contact matrix.

use std::hint::black_box;
use std::time::Instant;

use analytics::ContactMatrix;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "analytics.contact_matrix_us",
    per_sec: 1e6,
    events_metric: None,
    batch,
};

const BUILDS: u64 = 200;

fn batch() -> Sample {
    let positions: Vec<[f64; 3]> = (0..200)
        .map(|i| {
            let i = i as f64;
            [
                (i * 0.37).sin() * 20.0 + 25.0,
                (i * 0.11).cos() * 20.0 + 25.0,
                i * 0.25,
            ]
        })
        .collect();
    let started = Instant::now();
    for _ in 0..BUILDS {
        black_box(ContactMatrix::build(black_box(&positions), [50.0; 3], 5.0));
    }
    Sample {
        ops: BUILDS as f64,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
