//! Host-speed yardstick. The sandbox this benchmark runs in shares its
//! cores and caches: the same rep of the same binary takes 1.5–2× as
//! long for minutes at a time, on both vCPUs at once, and then recovers,
//! while the guest sees next to no steal. Raw wall times therefore
//! measure the neighbours, not the simulator: ten-seed sets of one
//! commit an hour apart differed by up to 69 % in their median wall time
//! and spread (interquartile over median) by up to 53 % within a set.
//!
//! The yardstick is a fixed, deterministic piece of work that belongs to
//! the benchmark alone: a small discrete-event loop (binary heap,
//! scattered per-actor state, hashing, short-lived allocations) that
//! calls nothing in the simulator, so no change to the simulator can
//! move it. It is timed before the first timed rep and after every one.
//! How long it took ([`slowdown`]), relative to [`NOMINAL_SLICE_SECS`],
//! is how slow the host was during the run; the run's time metrics are divided by that
//! factor and so read in seconds of the reference host. The raw times
//! and the factor stay in the run's output beside them.
//!
//! Why this kind of work: timed side by side, an arithmetic-only loop
//! barely notices the slow phases (its time moves by under 10 % while a
//! rep's moves by 70 %), so they are contention in the memory hierarchy,
//! not clock speed, and a pointer chase over 64 MB follows them less
//! closely than the event loop below, which slows as the simulator does:
//! over the ten runs of a workload, log raw wall time against log
//! slowdown has slope 0.7–1.1 and correlation 0.6–0.95.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Seconds one slice takes on the reference host in a calm phase. It
/// fixes the unit of the normalized times; between two runs on one host
/// it cancels.
pub const NOMINAL_SLICE_SECS: f64 = 0.020;

/// Slices per sample; a sample is their mean, as a rep's time is the
/// mean over everything that happened to the host during it. Eight, not
/// four: in a calm hour, where the correction can only add noise, the
/// worst workload's spread was 16 % with four and 10 % with eight.
const SLICES: usize = 8;

const ACTORS: usize = 1 << 14;
const EVENTS_PER_SLICE: usize = 200_000;

struct Actor {
    clock: u64,
    hash: u64,
    visits: u64,
    note: Vec<u8>,
}

/// The yardstick's state (~3.5 MB), built once per process so that
/// building it is never inside a sample.
pub struct Yardstick {
    actors: Vec<Actor>,
    calendar: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Yardstick {
    pub fn new() -> Self {
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let actors = (0..ACTORS)
            .map(|_| Actor {
                clock: 0,
                hash: xorshift(&mut rng),
                visits: 0,
                note: Vec::new(),
            })
            .collect();
        let calendar = (0..ACTORS as u32)
            .map(|id| Reverse((xorshift(&mut rng) % 1024, id)))
            .collect();
        Yardstick {
            actors,
            calendar,
            rng,
        }
    }

    /// One slice: a fixed number of events, each popping the earliest
    /// actor, reading a second actor picked at random, and now and then
    /// replacing a short heap-allocated note.
    fn slice(&mut self) -> u64 {
        let mut check = 0u64;
        for _ in 0..EVENTS_PER_SLICE {
            let Reverse((at, id)) = self
                .calendar
                .pop()
                .expect("every pop is followed by a push");
            let r = xorshift(&mut self.rng);
            let peer = (r >> 20) as usize % ACTORS;
            let peer_hash = self.actors[peer].hash;
            let a = &mut self.actors[id as usize];
            a.clock = at;
            a.visits += 1;
            a.hash = (a.hash ^ peer_hash)
                .wrapping_mul(0x100_0000_01B3)
                .rotate_left(23);
            if r.is_multiple_of(8) {
                a.note = vec![r as u8; 32 + (r >> 8) as usize % 224];
            }
            check = check.wrapping_add(a.hash ^ a.note.len() as u64);
            self.calendar.push(Reverse((at + 1 + r % 4096, id)));
        }
        check
    }

    /// Mean seconds per slice over one sample.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..SLICES {
            std::hint::black_box(self.slice());
        }
        started.elapsed().as_secs_f64() / SLICES as f64
    }
}

/// How slow the host was during a run, from the samples taken around
/// its reps: 1.0 is the reference host in a calm phase. The largest and
/// the smallest sample are left out when four or more were taken: the
/// run's times are medians over its reps, which a burst that hits one
/// rep does not move, so a burst that hits one sample must not move the
/// factor either (with the plain mean, one ten-seed set of `chaos_matrix`
/// spread by 21 % corrected against 11 % raw; trimmed, by 11 %).
pub fn slowdown(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 4 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64 / NOMINAL_SLICE_SECS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        // Same state, same events, same checksum: the yardstick does the
        // same work every time it is built.
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        assert_eq!(a.slice(), b.slice());
        assert_eq!(a.slice(), b.slice());
        assert_eq!(a.calendar.len(), ACTORS);
        assert!(a.sample() > 0.0);
    }

    #[test]
    fn slowdown_is_relative_to_the_nominal_slice_and_ignores_one_burst() {
        let n = NOMINAL_SLICE_SECS;
        assert!((slowdown(&[2.0 * n; 3]) - 2.0).abs() < 1e-12);
        assert!((slowdown(&[n, 3.0 * n]) - 2.0).abs() < 1e-12);
        // Four or more: the extremes are dropped.
        assert!((slowdown(&[n, 9.0 * n, n, n]) - 1.0).abs() < 1e-12);
        assert!((slowdown(&[2.0 * n, 0.1 * n, 4.0 * n, 9.0 * n, 3.0 * n]) - 3.0).abs() < 1e-12);
    }
}
