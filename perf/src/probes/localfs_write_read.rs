//! Local XFS data path: create, write, close, open, read and unlink a
//! 644 KiB file (one JAC frame), 64 files per batch.

use std::time::Instant;

use bytes::Bytes;
use cluster::{NodeSpec, NvmeDevice};
use localfs::{LocalFs, LocalFsSpec};
use simcore::Sim;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "localfs.write_read_ns_per_file",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const FILES: u64 = 64;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let fs = LocalFs::new(
        &ctx,
        NvmeDevice::new(&ctx, &NodeSpec::corona()),
        LocalFsSpec::default(),
    );
    let payload = Bytes::from(vec![7u8; 644 << 10]);
    sim.spawn(async move {
        fs.mkdir_p("/probe").await.expect("mkdir");
        for i in 0..FILES {
            let path = format!("/probe/f{i}");
            let fd = fs.create(&path).await.expect("create");
            fs.write_bytes(fd, payload.clone()).await.expect("write");
            fs.close(fd).await.expect("close");
            let fd = fs.open(&path).await.expect("open");
            fs.read_segments(fd).await.expect("read");
            fs.close(fd).await.expect("close");
            fs.unlink(&path).await.expect("unlink");
        }
    });
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: FILES as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
