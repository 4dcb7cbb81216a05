//! PFS wire codec: one open (MDS request + layout response) and one
//! stripe write (OSS request + response), encoded and decoded.

use std::hint::black_box;
use std::time::Instant;

use pfs::{Layout, MdsRequest, MdsResponse, OssRequest, OssResponse};

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "pfs.codec_ns_per_roundtrip",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const ROUNDTRIPS: u64 = 10_000;

fn batch() -> Sample {
    let layout = Layout {
        stripe_size: 1 << 20,
        osts: vec![0, 1, 2, 3],
        objects: vec![101, 102, 103, 104],
    };
    let started = Instant::now();
    for i in 0..ROUNDTRIPS {
        let open = MdsRequest::Open {
            path: "/lustre/pair-0042/frame-000017.bin".to_string(),
        };
        black_box(MdsRequest::decode(black_box(open.encode())));
        let meta = MdsResponse::Meta {
            layout: layout.clone(),
            size: 644 << 10,
        };
        black_box(MdsResponse::decode(black_box(meta.encode())));
        let write = OssRequest::Write {
            object: 101,
            offset: i << 20,
            len: 1 << 20,
            total: 644 << 10,
        };
        black_box(OssRequest::decode(black_box(write.encode())));
        black_box(OssResponse::decode(black_box(OssResponse::Ok.encode())));
    }
    Sample {
        ops: ROUNDTRIPS as f64,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
