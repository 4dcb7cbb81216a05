//! The fault board's read side on an armed, idle board: the probes every
//! substrate calls per operation when a plan is present (node up,
//! reachable, NVMe factor and error, OST factor, KVS delay).

use std::hint::black_box;
use std::time::Instant;

use faults::FaultBoard;
use simcore::Sim;

use super::{Probe, Sample};

pub const PROBE: Probe = Probe {
    metric: "faults.board_probe_ns",
    per_sec: 1e9,
    events_metric: None,
    batch,
};

const NODES: u32 = 64;
const SWEEPS: u64 = 2_000;
const PROBES_PER_NODE: u64 = 6;

fn batch() -> Sample {
    let sim = Sim::new(0);
    let board = FaultBoard::new(&sim.ctx(), NODES as usize, 8);
    let mut healthy = 0u64;
    let started = Instant::now();
    for _ in 0..SWEEPS {
        for n in 0..NODES {
            let n = black_box(n);
            healthy += board.node_up(n) as u64
                + board.reachable(n, (n + 1) % NODES) as u64
                + (board.nvme_factor(n) == 1.0) as u64
                + !board.nvme_error(n) as u64
                + (board.ost_factor(n % 8) == 1.0) as u64
                + board.kvs_delay().is_none() as u64;
        }
    }
    let ops = SWEEPS * NODES as u64 * PROBES_PER_NODE;
    assert_eq!(black_box(healthy), ops, "an idle board reported a fault");
    Sample {
        ops: ops as f64,
        secs: started.elapsed().as_secs_f64(),
        events: 0,
    }
}
