//! `scale` — scale-ceiling benchmark (PR 8, extended in PR 9).
//!
//! Sweeps producer/consumer pairs (default {4k, 16k, 64k, 128k}) over a
//! leaf/spine cluster that approaches 10k nodes at the top point, and
//! records per-point events/s, wall clock, allocation rate and heap
//! footprint into `BENCH_PR9.json`. The sweep runs ascending so the
//! monotone allocator high-water mark attributes footprint growth to
//! each point: a point's heap-per-pair is its post-run high-water delta
//! over the pre-sweep baseline divided by its pair count.
//!
//! Modes / knobs:
//!
//! * `scale [--out DIR]` — run the sweep, print a table, write
//!   `BENCH_PR9.json`.
//! * `scale --enforce` (or `SCALE_ENFORCE=1`) — additionally fail
//!   (exit 1) unless the scale-free ratios hold across the sweep:
//!   sim-phase events/s within `SCALE_EPS_FACTOR` (default 4.0) of the
//!   first point, heap/pair within `SCALE_RSS_FACTOR` (default 1.25) of
//!   the first point, and consecutive setup times growing no faster
//!   than `SCALE_SETUP_FACTOR` (default 1.5) times the pair-count ratio
//!   — the guard against the superlinear setup cliff fixed in PR 9.
//! * `SCALE_PAIRS` — comma-separated pair counts
//!   (default `4096,16384,65536,131072`; CI runs `4096,16384` with the
//!   tighter `SCALE_EPS_FACTOR=2.0`).
//! * `SCALE_FRAMES` — frames per pair (default 3).
//!
//! Every gate is a ratio inside one sweep on one host. Absolute
//! events/s is `perf`'s to check (`events_per_s` on `dyad_scale`, parent
//! against change with the host-slowdown yardstick): a floor captured on
//! another machine gates the host, not the code.
//!
//! The default `SCALE_EPS_FACTOR` of 4.0 reflects measured behavior on
//! a 1-vCPU host: throughput holds ≥1M events/s through 16k pairs, then
//! degrades toward 128k as the working set (~3.5 GB) overruns the cache
//! — per-event cost is flat in allocations (~1.1-1.6/event at every
//! point) but rises in stall time. Heap/pair *decreases* with scale, so
//! the memory gate stays tight at 1.25x.
//!
//! Methodology notes (see EXPERIMENTS.md): events/s is reported for the
//! sim phase (`RunTimings::sim_secs`, the event-loop cost the scale
//! ceiling is about) *and* wall-inclusive (setup + sim), so setup-bound
//! points are visible rather than hidden. Runs go through the warm-arena
//! path with one arena across the sweep, like the campaign executor.
//! `peak_rss_bytes` is the absolute `VmHWM` after each point; the
//! per-pair gate uses the counting-allocator high-water delta instead,
//! so the gate is unaffected by allocator-level overcommit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use bench::{env_or, num_f64, num_u64, obj, rss_peak_bytes, write_record};
use mdflow::prelude::*;

/// Counting wrapper over the system allocator: total allocation calls
/// plus live-byte current/high-water marks, so the sweep can report
/// allocs/event and attribute heap growth per point independently of
/// `VmHWM`.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static HEAP_LIVE: AtomicU64 = AtomicU64::new(0);
static HEAP_HWM: AtomicU64 = AtomicU64::new(0);

fn heap_account(bytes: u64) {
    ALLOC_CALLS.fetch_add(1, Relaxed);
    let live = HEAP_LIVE.fetch_add(bytes, Relaxed) + bytes;
    HEAP_HWM.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            heap_account(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            heap_account(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        HEAP_LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            HEAP_LIVE.fetch_sub(layout.size() as u64, Relaxed);
            heap_account(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured sweep point.
struct Point {
    pairs: u32,
    frames: u64,
    nodes: usize,
    events: u64,
    makespan_ns: u64,
    setup_secs: f64,
    sim_secs: f64,
    /// Allocator calls made by this point.
    allocs: u64,
    /// Allocator high-water mark after this point minus the pre-sweep
    /// baseline (the footprint signal the per-pair gate uses).
    heap_delta_bytes: u64,
    /// Absolute `VmHWM` after this point (0 off-linux).
    peak_rss_bytes: u64,
}

impl Point {
    fn eps_sim(&self) -> f64 {
        self.events as f64 / self.sim_secs.max(1e-9)
    }
    fn eps_wall(&self) -> f64 {
        self.events as f64 / (self.setup_secs + self.sim_secs).max(1e-9)
    }
    fn heap_per_pair(&self) -> f64 {
        self.heap_delta_bytes as f64 / self.pairs as f64
    }
    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// The sweep workload: DYAD on a quiet testbed (no PFS interference
/// noise — this measures the simulator, not the paper's jitter), pairs
/// packed so the node count approaches 10k at the top point, on an
/// oversubscribed leaf/spine fabric so the tier model is actually on
/// the hot path.
fn workload(pairs: u32, frames: u64) -> (WorkflowConfig, Calibration) {
    let pairs_per_node = pairs.div_ceil(10_000).max(1);
    let wf = WorkflowConfig::new(Solution::Dyad, pairs, Placement::Split { pairs_per_node })
        .with_frames(frames);
    let mut cal = Calibration::quiet();
    cal.fabric = cal.fabric.with_topology(TopologySpec::LeafSpine {
        radix: 32,
        oversubscription: 2.0,
    });
    (wf, cal)
}

fn run_point(pairs: u32, frames: u64, arena: &mut RunArena, heap_base: u64) -> Point {
    let (wf, cal) = workload(pairs, frames);
    let nodes = pairs.div_ceil(pairs.div_ceil(10_000).max(1)) as usize;
    let allocs_before = ALLOC_CALLS.load(Relaxed);
    let snap = ClusterSnapshot::new(&wf, &cal);
    let (m, t) = run_once_warm(&snap, 0x5CA1E, arena);
    Point {
        pairs,
        frames,
        nodes,
        events: m.events,
        makespan_ns: m.makespan.nanos(),
        setup_secs: t.setup_secs,
        sim_secs: t.sim_secs,
        allocs: ALLOC_CALLS.load(Relaxed) - allocs_before,
        heap_delta_bytes: HEAP_HWM.load(Relaxed).saturating_sub(heap_base),
        peak_rss_bytes: rss_peak_bytes(),
    }
}

fn record(points: &[Point], heap_base: u64) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = points
        .iter()
        .map(|p| {
            obj(vec![
                ("pairs", num_u64(p.pairs as u64)),
                ("frames", num_u64(p.frames)),
                ("nodes", num_u64(p.nodes as u64)),
                ("events", num_u64(p.events)),
                ("makespan_ns", num_u64(p.makespan_ns)),
                ("setup_secs", num_f64(p.setup_secs)),
                ("sim_secs", num_f64(p.sim_secs)),
                ("events_per_sec_sim", num_f64(p.eps_sim())),
                ("events_per_sec_wall", num_f64(p.eps_wall())),
                ("allocs", num_u64(p.allocs)),
                ("allocs_per_event", num_f64(p.allocs_per_event())),
                ("heap_delta_bytes", num_u64(p.heap_delta_bytes)),
                ("heap_per_pair_bytes", num_f64(p.heap_per_pair())),
                ("peak_rss_bytes", num_u64(p.peak_rss_bytes)),
            ])
        })
        .collect();
    obj(vec![
        ("bench", serde_json::Value::String("scale".to_string())),
        ("pr", num_u64(9)),
        ("heap_baseline_bytes", num_u64(heap_base)),
        ("points", serde_json::Value::Array(rows)),
    ])
}

/// Scale-free ratio gates, self-contained (no baseline file needed):
/// the sweep itself is the baseline, anchored at its first point —
/// except the setup gate, which compares consecutive points so a single
/// superlinear step (the PR 8 fault cliff) cannot hide behind a cheap
/// anchor.
fn enforce(points: &[Point]) -> bool {
    let eps_factor: f64 = env_or("SCALE_EPS_FACTOR", 4.0);
    let rss_factor: f64 = env_or("SCALE_RSS_FACTOR", 1.25);
    // 1.5x headroom over linear: setup points are sub-second and noisy
    // (observed run-to-run swings of ~30%), while the superlinear cliff
    // this guards against was a 10.5x consecutive ratio in BENCH_PR8.
    let setup_factor: f64 = env_or("SCALE_SETUP_FACTOR", 1.5);
    let first = &points[0];
    let mut ok = true;
    for (i, p) in points.iter().enumerate().skip(1) {
        let eps_ratio = first.eps_sim() / p.eps_sim().max(1e-9);
        if eps_ratio > eps_factor {
            eprintln!(
                "scale: GATE FAIL {}k pairs: {:.0} events/s (sim) is {:.2}x below the \
                 {}k-pair point ({:.0}); allowed factor {eps_factor}",
                p.pairs / 1000,
                p.eps_sim(),
                eps_ratio,
                first.pairs / 1000,
                first.eps_sim(),
            );
            ok = false;
        }
        let rss_ratio = p.heap_per_pair() / first.heap_per_pair().max(1e-9);
        if rss_ratio > rss_factor {
            eprintln!(
                "scale: GATE FAIL {}k pairs: {:.0} B/pair heap is {:.2}x the {}k-pair \
                 point ({:.0} B/pair); allowed factor {rss_factor}",
                p.pairs / 1000,
                p.heap_per_pair(),
                rss_ratio,
                first.pairs / 1000,
                first.heap_per_pair(),
            );
            ok = false;
        }
        // Setup must grow no faster than the pair count between
        // consecutive points (times the tolerance factor).
        let prev = &points[i - 1];
        let setup_ratio = p.setup_secs / prev.setup_secs.max(1e-9);
        let pair_ratio = p.pairs as f64 / prev.pairs as f64;
        if setup_ratio > setup_factor * pair_ratio {
            eprintln!(
                "scale: GATE FAIL {}k pairs: setup {:.2}s is {setup_ratio:.2}x the \
                 {}k-pair point ({:.2}s); allowed {:.2}x ({setup_factor} x pair ratio \
                 {pair_ratio:.2})",
                p.pairs / 1000,
                p.setup_secs,
                prev.pairs / 1000,
                prev.setup_secs,
                setup_factor * pair_ratio,
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pairs_list: Vec<u32> = std::env::var("SCALE_PAIRS")
        .unwrap_or_else(|_| "4096,16384,65536,131072".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("SCALE_PAIRS entries must be u32"))
        .collect();
    let frames = env_or("SCALE_FRAMES", NonZeroU64::new(3).expect("positive")).get();
    assert!(
        pairs_list.windows(2).all(|w| w[0] < w[1]),
        "SCALE_PAIRS must be ascending (the heap attribution depends on it)"
    );

    println!("SCALE — leaf/spine scale-ceiling benchmark");
    let heap_base = HEAP_HWM.load(Relaxed);
    let mut arena = RunArena::new();
    let mut points = Vec::new();
    for &pairs in &pairs_list {
        let p = run_point(pairs, frames, &mut arena, heap_base);
        println!(
            "  {:>7} pairs {:>6} nodes | setup {:>6.2}s sim {:>7.2}s | {:>11} events | \
             {:>10.0} ev/s sim ({:>8.0} wall) | {:>4.2} allocs/ev | {:>7.0} B/pair heap",
            p.pairs,
            p.nodes,
            p.setup_secs,
            p.sim_secs,
            p.events,
            p.eps_sim(),
            p.eps_wall(),
            p.allocs_per_event(),
            p.heap_per_pair(),
        );
        points.push(p);
    }

    write_record(&args, "BENCH_PR9.json", &record(&points, heap_base));

    let enforce_requested = args.iter().any(|a| a == "--enforce")
        || std::env::var("SCALE_ENFORCE").is_ok_and(|v| v == "1");
    if enforce_requested {
        if !enforce(&points) {
            std::process::exit(1);
        }
        println!("  scale gates: OK");
    }
}
