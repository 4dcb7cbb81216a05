//! KVS wire codec: a commit request and its value response, encoded and
//! decoded (the per-RPC work on both ends of every metadata operation).

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use kvs::{Request, Response};
use simcore::intern::intern;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "kvs.codec_ns_per_roundtrip",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const ROUNDTRIPS: u64 = 10_000;

fn batch() -> Sample {
    let key = intern("/dyad/pair-0042/frame-000017.bin");
    let value = Bytes::from(vec![3u8; 24]);
    let started = Instant::now();
    for version in 0..ROUNDTRIPS {
        let req = Request::Commit {
            key,
            value: value.clone(),
        };
        black_box(Request::decode(black_box(req.encode())));
        let resp = Response::Value {
            version,
            value: value.clone(),
        };
        black_box(Response::decode(black_box(resp.encode())));
    }
    Sample {
        ops: ROUNDTRIPS as f64,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
