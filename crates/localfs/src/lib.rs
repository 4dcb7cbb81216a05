//! # localfs — an XFS-like node-local filesystem
//!
//! The paper's single-node baseline stores frames on each node's NVMe
//! through XFS. This crate implements a compact but structurally faithful
//! XFS-style filesystem over the simulated [`cluster::NvmeDevice`]:
//!
//! * **allocation groups** with extent-based allocation (round-robin AG
//!   rotoring, first-fit within a group, coalescing on free);
//! * **inodes** holding extent maps, hierarchical **directories**;
//! * a **metadata write-ahead journal** flushed on `close` of a written
//!   descriptor;
//! * a **page cache** that nothing evicts: every read costs memory
//!   bandwidth;
//! * POSIX-style advisory **flock** (used by DYAD's warm-path
//!   synchronization and by the manual-sync baselines);
//! * a `statfs(2)`-style usage query, [`LocalFs::statvfs`], which the
//!   staging watermarks poll.
//!
//! A file is written one way and read one way: [`LocalFs::create`]
//! truncates and returns a descriptor that appends rope segments
//! ([`LocalFs::write_bytes`]), and [`LocalFs::open`] +
//! [`LocalFs::read_segments`] return the rope. File contents are real
//! bytes — what a consumer reads is bit-identical to what the producer
//! wrote, so the analytics stack downstream operates on genuine frame
//! data.

#![warn(missing_docs)]

mod alloc;
mod error;
mod fs;
mod journal;

pub use error::{FsError, FsResult};
pub use fs::{LocalFs, LocalFsSpec, LockKind};

#[cfg(test)]
mod fsck;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cluster::{NodeSpec, NvmeDevice};
    use simcore::{Sim, SimDuration};

    pub(crate) fn fs(sim: &Sim) -> LocalFs {
        let ctx = sim.ctx();
        let dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
        LocalFs::new(&ctx, dev, LocalFsSpec::default())
    }

    /// Open `path`, read its rope, close it, and return the bytes.
    pub(crate) async fn read_file(f: &LocalFs, path: &str) -> FsResult<Vec<u8>> {
        let fd = f.open(path).await?;
        let rope = f.read_segments(fd).await?;
        f.close(fd).await?;
        Ok(rope.iter().flat_map(|seg| seg.iter().copied()).collect())
    }

    /// Create `path` and write `data` to it as one segment.
    pub(crate) async fn write_file(f: &LocalFs, path: &str, data: Vec<u8>) -> FsResult<()> {
        let fd = f.create(path).await?;
        f.write_bytes(fd, Bytes::from(data)).await?;
        f.close(fd).await
    }

    #[test]
    fn write_then_read_round_trips() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let want = payload.clone();
        let h = sim.spawn(async move {
            f.mkdir_p("/data").await.unwrap();
            write_file(&f, "/data/frame0", payload).await.unwrap();
            read_file(&f, "/data/frame0").await.unwrap()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), want);
    }

    #[test]
    fn missing_file_errors() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let h = sim.spawn(async move { f.open("/nope").await.err() });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(FsError::NotFound));
    }

    #[test]
    fn create_requires_parent_dir() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let h = sim.spawn(async move { f.create("/no/such/dir/file").await.err() });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(FsError::NotFound));
    }

    #[test]
    fn create_truncates_existing() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let h = sim.spawn(async move {
            write_file(&f, "/a", b"0123456789".to_vec()).await.unwrap();
            write_file(&f, "/a", b"xy".to_vec()).await.unwrap();
            (
                f.stat("/a").await.unwrap().size,
                read_file(&f, "/a").await.unwrap(),
            )
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (2, b"xy".to_vec()));
    }

    #[test]
    fn write_charges_device_time() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let fd = f.create("/big").await.unwrap();
            let before = ctx.now();
            // 1 ms at 3 GB/s.
            f.write_bytes(fd, Bytes::from(vec![0u8; 3_000_000]))
                .await
                .unwrap();
            (ctx.now() - before).as_micros_f64()
        });
        sim.run();
        let us = h.try_take().unwrap();
        assert!((us - 1025.0).abs() < 5.0, "write took {us} µs");
    }

    #[test]
    fn cached_read_is_memory_speed() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let ctx = sim.ctx();
        let f2 = f.clone();
        let h = sim.spawn(async move {
            let f = f2;
            write_file(&f, "/c", vec![7u8; 2_000_000]).await.unwrap();
            let fd = f.open("/c").await.unwrap();
            let before = ctx.now();
            let rope = f.read_segments(fd).await.unwrap();
            let took = ctx.now() - before;
            (
                took.as_micros_f64(),
                rope.iter().map(|seg| seg.len()).sum::<usize>(),
            )
        });
        sim.run();
        let (us, len) = h.try_take().unwrap();
        assert_eq!(len, 2_000_000);
        // 2 MB at 20 GB/s = 100 µs, not the 333 µs+latency a device read
        // would cost.
        assert!((us - 100.0).abs() < 5.0, "read took {us} µs");
        assert_eq!(f.stats().reads, 1);
    }

    #[test]
    fn unlink_frees_space() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let free0 = f.statvfs().free_bytes;
        let f2 = f.clone();
        let h = sim.spawn(async move {
            write_file(&f2, "/x", vec![0u8; 1_000_000]).await.unwrap();
            let mid = f2.statvfs().free_bytes;
            f2.unlink("/x").await.unwrap();
            (mid, f2.exists("/x"))
        });
        sim.run();
        let (mid, exists) = h.try_take().unwrap();
        assert!(mid < free0);
        assert!(!exists);
        assert_eq!(f.statvfs().free_bytes, free0);
    }

    #[test]
    fn stat_reports_size_and_extents() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let h = sim.spawn(async move {
            f.mkdir_p("/d").await.unwrap();
            write_file(&f, "/d/f", vec![0u8; 10_000]).await.unwrap();
            let fst = f.stat("/d/f").await.unwrap();
            let dst = f.stat("/d").await.unwrap();
            (fst, dst)
        });
        sim.run();
        let (fst, dst) = h.try_take().unwrap();
        assert_eq!(fst.size, 10_000);
        assert!(!fst.is_dir);
        assert!(fst.extents >= 1);
        assert!(dst.is_dir);
    }

    #[test]
    fn journal_flushes_on_close() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let f2 = f.clone();
        sim.spawn(async move {
            write_file(&f2, "/j", b"data".to_vec()).await.unwrap();
        });
        sim.run();
        let js = f.journal_stats();
        assert!(js.flushes >= 1);
        assert!(js.bytes_flushed > 0);
    }

    /// Two closes whose journal flushes overlap, the later-started one
    /// finishing last: each flush writes what was pending when it
    /// started, and neither re-queues the other's records nor resets the
    /// statistics.
    #[test]
    fn overlapping_closes_keep_the_journal_whole() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            f.mkdir_p("/d").await.unwrap();
            for i in 0..50 {
                write_file(&f, &format!("/d/f{i}"), vec![1u8; 4096])
                    .await
                    .unwrap();
            }
            let settled = f.journal_stats();
            // A written file's close (create, write, close: its flush
            // starts at 28.4 µs) and an empty file's (from 31 µs).
            let written = ctx.spawn({
                let f = f.clone();
                async move { write_file(&f, "/d/a", vec![2u8; 4096]).await.unwrap() }
            });
            let empty = ctx.spawn({
                let (f, ctx) = (f.clone(), ctx.clone());
                async move {
                    ctx.sleep(SimDuration::from_micros(29)).await;
                    let fd = f.create("/d/b").await.unwrap();
                    f.close(fd).await.unwrap();
                }
            });
            written.await;
            empty.await;
            let overlapped = f.journal_stats();
            // The next ordinary close flushes its own four records.
            let fd = f.create("/d/c").await.unwrap();
            f.write_bytes(fd, Bytes::from(vec![3u8; 4096]))
                .await
                .unwrap();
            let t0 = ctx.now();
            f.close(fd).await.unwrap();
            let took = ctx.now() - t0;
            let next = f.journal_stats().bytes_flushed - overlapped.bytes_flushed;
            (settled, overlapped, next, took)
        });
        assert!(sim.run().is_clean());
        let (settled, overlapped, next, took) = h.try_take().unwrap();
        let stats = |records, flushes, bytes_flushed| crate::journal::JournalStats {
            records,
            flushes,
            bytes_flushed,
        };
        // One directory (2 records) and 50 files (4 each); every flush
        // adds a commit record of 512 B.
        assert_eq!(settled, stats(202, 50, 129_024));
        assert_eq!(overlapped, stats(208, 52, 133_120));
        assert_eq!(next, 2_560, "the next close flushed {next} B");
        // 25 µs latency + 2,560 B at 3 GB/s.
        assert_eq!(took.nanos(), 25_854, "the next close took {took:?}");
    }

    #[test]
    fn exclusive_flock_blocks_second_locker() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let order: std::rc::Rc<std::cell::RefCell<Vec<&'static str>>> = Default::default();
        {
            let f = f.clone();
            let ctx = sim.ctx();
            let order = order.clone();
            sim.spawn(async move {
                let fd = f.create("/lock").await.unwrap();
                f.close(fd).await.unwrap();
                f.flock("/lock", LockKind::Exclusive).await.unwrap();
                order.borrow_mut().push("p-locked");
                ctx.sleep(SimDuration::from_millis(5)).await;
                f.funlock("/lock", LockKind::Exclusive).await.unwrap();
            });
        }
        {
            let f = f.clone();
            let ctx = sim.ctx();
            let order = order.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                f.flock("/lock", LockKind::Shared).await.unwrap();
                order.borrow_mut().push("c-locked");
                f.funlock("/lock", LockKind::Shared).await.unwrap();
            });
        }
        assert!(sim.run().is_clean());
        assert_eq!(*order.borrow(), vec!["p-locked", "c-locked"]);
    }

    #[test]
    fn shared_locks_coexist() {
        // Two shared holders at once take no longer than the two lock
        // calls; an exclusive locker waits until both have let go.
        let sim = Sim::new(0);
        let f = fs(&sim);
        let ctx = sim.ctx();
        let op = f.spec().lock_op_cost;
        let h = sim.spawn(async move {
            let fd = f.create("/s").await.unwrap();
            f.close(fd).await.unwrap();
            let t0 = ctx.now();
            f.flock("/s", LockKind::Shared).await.unwrap();
            f.flock("/s", LockKind::Shared).await.unwrap();
            let both_shared = ctx.now() - t0;
            let writer = {
                let (f, ctx) = (f.clone(), ctx.clone());
                ctx.clone().spawn(async move {
                    f.flock("/s", LockKind::Exclusive).await.unwrap();
                    ctx.now()
                })
            };
            ctx.sleep(SimDuration::from_millis(1)).await;
            f.funlock("/s", LockKind::Shared).await.unwrap();
            f.funlock("/s", LockKind::Shared).await.unwrap();
            let released = ctx.now();
            (both_shared, released, writer.await)
        });
        assert!(sim.run().is_clean());
        let (both_shared, released, exclusive_at) = h.try_take().unwrap();
        assert_eq!(both_shared, op + op, "the second shared lock waited");
        assert_eq!(exclusive_at, released, "the exclusive lock waits for both");
    }

    /// The staged plane's probe (flock, then funlock) on a frame whose
    /// cache copy another session renames into place meanwhile: the
    /// unlock releases the file that was locked, and the new file was
    /// never locked.
    #[test]
    fn funlock_releases_the_locked_file_when_a_rename_replaces_it() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let ctx = sim.ctx();
        let op = f.spec().lock_op_cost;
        let h = sim.spawn(async move {
            write_file(&f, "/frame", vec![1u8; 64]).await.unwrap();
            write_file(&f, "/frame.tmp", vec![2u8; 64]).await.unwrap();
            f.flock("/frame", LockKind::Shared).await.unwrap();
            // A rename costs `meta_cpu` (2 µs), less than the unlock's
            // 5 µs, so it lands while the unlock is in flight.
            let renamed = ctx.spawn({
                let f = f.clone();
                async move { f.rename("/frame.tmp", "/frame").await.unwrap() }
            });
            let unlocked = f.funlock("/frame", LockKind::Shared).await;
            renamed.await;
            let t0 = ctx.now();
            f.flock("/frame", LockKind::Exclusive).await.unwrap();
            (
                unlocked,
                ctx.now() - t0,
                read_file(&f, "/frame").await.unwrap(),
            )
        });
        assert!(sim.run().is_clean());
        let (unlocked, exclusive_took, data) = h.try_take().unwrap();
        assert_eq!(unlocked, Ok(()));
        assert_eq!(exclusive_took, op, "the renamed-in file was locked");
        assert_eq!(data, vec![2u8; 64]);
    }

    #[test]
    fn io_error_probe_gates_operations() {
        let sim = Sim::new(0);
        let mut f = fs(&sim);
        let erroring = std::rc::Rc::new(std::cell::Cell::new(false));
        let e2 = erroring.clone();
        f.set_io_error_probe(std::rc::Rc::new(move || e2.get()));
        let h = sim.spawn(async move {
            write_file(&f, "/ok", b"healthy".to_vec()).await.unwrap();
            erroring.set(true);
            let during = (
                f.create("/new").await.err(),
                f.open("/ok").await.err(),
                f.stat("/ok").await.err(),
            );
            erroring.set(false);
            (during, read_file(&f, "/ok").await.unwrap())
        });
        sim.run();
        let (during, data) = h.try_take().unwrap();
        assert_eq!(
            during,
            (Some(FsError::Io), Some(FsError::Io), Some(FsError::Io))
        );
        assert_eq!(data, b"healthy");
    }

    #[test]
    fn nospace_on_tiny_volume() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
        let spec = LocalFsSpec {
            capacity_bytes: 64 * 4096,
            ..LocalFsSpec::default()
        };
        let f = LocalFs::new(&ctx, dev, spec);
        let h = sim.spawn(async move {
            let fd = f.create("/fat").await.unwrap();
            f.write_bytes(fd, Bytes::from(vec![0u8; 1_000_000]))
                .await
                .err()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(FsError::NoSpace));
    }

    #[test]
    fn concurrent_writers_contend_on_device() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let mut hs = Vec::new();
        for i in 0..4 {
            let f = f.clone();
            let ctx = sim.ctx();
            hs.push(sim.spawn(async move {
                write_file(&f, &format!("/w{i}"), vec![0u8; 750_000])
                    .await
                    .unwrap();
                ctx.now().as_secs_f64() * 1e6
            }));
        }
        sim.run();
        // 4 × 0.75 MB concurrently on a 3 GB/s device ≈ 1 ms each.
        for h in hs {
            let t = h.try_take().unwrap();
            assert!(t > 900.0 && t < 1300.0, "finished at {t} µs");
        }
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn arbitrary_write_read_round_trips(
                chunks in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..10_000), 1..8)
            ) {
                let sim = Sim::new(0);
                let f = fs(&sim);
                let expected: Vec<u8> = chunks.concat();
                let h = sim.spawn(async move {
                    let fd = f.create("/p").await.unwrap();
                    for c in chunks {
                        f.write_bytes(fd, Bytes::from(c)).await.unwrap();
                    }
                    f.close(fd).await.unwrap();
                    read_file(&f, "/p").await.unwrap()
                });
                sim.run();
                prop_assert_eq!(h.try_take().unwrap(), expected);
            }
        }
    }
}

#[cfg(test)]
mod segment_tests {
    use crate::tests::fs;
    use bytes::Bytes;
    use simcore::Sim;

    #[test]
    fn write_bytes_appends_zero_copy_segments() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let big = Bytes::from(vec![5u8; 100_000]);
        let big2 = big.clone();
        let h = sim.spawn(async move {
            let fd = f.create("/z").await.unwrap();
            f.write_bytes(fd, big2.clone()).await.unwrap();
            f.write_bytes(fd, big2).await.unwrap();
            f.close(fd).await.unwrap();
            let fd = f.open("/z").await.unwrap();
            let segs = f.read_segments(fd).await.unwrap();
            f.close(fd).await.unwrap();
            segs
        });
        sim.run();
        let segs = h.try_take().unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], big);
        // Zero-copy: the returned segment shares storage with the input.
        assert_eq!(segs[0].as_ptr(), big.as_ptr());
    }

    #[test]
    fn single_segment_read_is_zero_copy() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let payload = Bytes::from(vec![9u8; 64_000]);
        let p2 = payload.clone();
        let h = sim.spawn(async move {
            let fd = f.create("/one").await.unwrap();
            f.write_bytes(fd, p2).await.unwrap();
            f.close(fd).await.unwrap();
            let fd = f.open("/one").await.unwrap();
            let got = f.read_segments(fd).await.unwrap();
            f.close(fd).await.unwrap();
            got
        });
        sim.run();
        let got = h.try_take().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].as_ptr(), payload.as_ptr());
    }
}

#[cfg(test)]
mod rename_tests {
    use super::*;
    use crate::tests::{fs, read_file, write_file};
    use simcore::Sim;

    #[test]
    fn rename_moves_content_atomically() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let h = sim.spawn(async move {
            write_file(&f, "/x.tmp", b"payload".to_vec()).await.unwrap();
            f.rename("/x.tmp", "/x").await.unwrap();
            let gone = !f.exists("/x.tmp");
            (gone, read_file(&f, "/x").await.unwrap())
        });
        sim.run();
        let (gone, data) = h.try_take().unwrap();
        assert!(gone);
        assert_eq!(data, b"payload");
    }

    #[test]
    fn rename_replaces_destination_and_frees_space() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let free0 = f.statvfs().free_bytes;
        let f2 = f.clone();
        sim.spawn(async move {
            write_file(&f2, "/old", vec![1u8; 500_000]).await.unwrap();
            write_file(&f2, "/new.tmp", b"v2".to_vec()).await.unwrap();
            f2.rename("/new.tmp", "/old").await.unwrap();
            assert_eq!(read_file(&f2, "/old").await.unwrap(), b"v2");
        });
        sim.run();
        // The replaced 500 kB file's extents were returned.
        let used = free0 - f.statvfs().free_bytes;
        assert!(used < 10_000, "leaked {used} bytes");
        assert!(f.fsck().is_clean());
    }

    #[test]
    fn rename_missing_source_errors() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let h = sim.spawn(async move { f.rename("/ghost", "/dst").await.err() });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(FsError::NotFound));
    }
}
