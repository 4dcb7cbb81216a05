//! Local XFS metadata path: create, close, stat, rename, flock, funlock
//! and unlink on empty files (one op = one of those seven calls).

use std::time::Instant;

use cluster::{NodeSpec, NvmeDevice};
use localfs::{LocalFs, LocalFsSpec, LockKind};
use simcore::Sim;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "localfs.meta_ns_per_op",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const FILES: u64 = 500;
const OPS_PER_FILE: u64 = 7;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let fs = LocalFs::new(
        &ctx,
        NvmeDevice::new(&ctx, &NodeSpec::corona()),
        LocalFsSpec::default(),
    );
    sim.spawn(async move {
        fs.mkdir_p("/probe/meta").await.expect("mkdir");
        for i in 0..FILES {
            let tmp = format!("/probe/meta/f{i}.tmp");
            let path = format!("/probe/meta/f{i}");
            let fd = fs.create(&tmp).await.expect("create");
            fs.close(fd).await.expect("close");
            fs.stat(&tmp).await.expect("stat");
            fs.rename(&tmp, &path).await.expect("rename");
            fs.flock(&path, LockKind::Shared).await.expect("flock");
            fs.funlock(&path, LockKind::Shared).await.expect("funlock");
            fs.unlink(&path).await.expect("unlink");
        }
    });
    let started = Instant::now();
    let report = sim.run();
    Sample {
        ops: (FILES * OPS_PER_FILE) as f64,
        secs: started.elapsed().as_secs_f64(),
        events: report.events_processed,
    }
}
