//! Filesystem consistency checking — the invariants a real `xfs_repair`
//! would verify: the oracle the property tests check the filesystem against.

use std::collections::HashMap;

use crate::fs::LocalFs;

/// A consistency violation found by [`LocalFs::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FsckIssue {
    /// Two files (or one file twice) claim the same block.
    OverlappingExtents {
        /// First block of the overlap.
        block: u64,
    },
    /// A file's extent capacity is smaller than its content size.
    SizeExceedsExtents {
        /// Inode number.
        ino: u64,
        /// Content bytes.
        size: u64,
        /// Bytes of allocated extent capacity.
        capacity: u64,
    },
    /// Allocator accounting disagrees with the sum of file extents.
    FreeSpaceMismatch {
        /// Blocks the allocator reports free.
        allocator_free: u64,
        /// Blocks implied free by the inode extents.
        implied_free: u64,
    },
    /// A directory references a missing inode.
    DanglingDirent {
        /// The missing inode number.
        ino: u64,
    },
    /// The superblock's running used-blocks counter disagrees with the
    /// sum of all inode extents (catches lost/double frees after
    /// unlink-heavy workloads such as staging eviction).
    UsageCounterMismatch {
        /// Blocks the superblock counter reports used.
        counter: u64,
        /// Blocks actually claimed by inode extents.
        extents: u64,
    },
}

/// Result of a consistency check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FsckReport {
    /// All violations found (empty = consistent).
    pub issues: Vec<FsckIssue>,
    /// Files visited.
    pub files: usize,
    /// Directories visited.
    pub dirs: usize,
    /// Blocks in use by file extents.
    pub used_blocks: u64,
}

impl FsckReport {
    /// True when no violations were found.
    pub(crate) fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl LocalFs {
    /// Check on-disk-structure invariants: no overlapping extents, sizes
    /// within allocated capacity, allocator free-space accounting, and
    /// no dangling directory entries. Zero simulated cost (a debugging
    /// facility, not an I/O operation).
    pub(crate) fn fsck(&self) -> FsckReport {
        let mut report = FsckReport::default();
        let (entries, total_blocks, allocator_free, block_size, used_counter) =
            self.fsck_snapshot();
        report.files = entries.iter().filter(|e| !e.is_dir).count();
        report.dirs = entries.iter().filter(|e| e.is_dir).count();

        // Extent overlap + per-file capacity.
        let mut claimed: HashMap<u64, u64> = HashMap::new();
        for e in &entries {
            let mut capacity = 0u64;
            for &(start, len) in &e.extents {
                capacity += len * block_size;
                for b in start..start + len {
                    if claimed.insert(b, e.ino).is_some() {
                        report
                            .issues
                            .push(FsckIssue::OverlappingExtents { block: b });
                    }
                }
            }
            report.used_blocks += e.extents.iter().map(|&(_, l)| l).sum::<u64>();
            if e.size > capacity {
                report.issues.push(FsckIssue::SizeExceedsExtents {
                    ino: e.ino,
                    size: e.size,
                    capacity,
                });
            }
            if e.dangling {
                report.issues.push(FsckIssue::DanglingDirent { ino: e.ino });
            }
        }

        // Allocator accounting.
        let implied_free = total_blocks - report.used_blocks;
        if implied_free != allocator_free {
            report.issues.push(FsckIssue::FreeSpaceMismatch {
                allocator_free,
                implied_free,
            });
        }
        // Superblock usage counter vs. the extents themselves.
        if used_counter != report.used_blocks {
            report.issues.push(FsckIssue::UsageCounterMismatch {
                counter: used_counter,
                extents: report.used_blocks,
            });
        }
        report
    }
}

/// Internal per-inode view for fsck (filled by `LocalFs::fsck_snapshot`).
pub(crate) struct FsckEntry {
    pub(crate) ino: u64,
    pub(crate) is_dir: bool,
    pub(crate) size: u64,
    pub(crate) extents: Vec<(u64, u64)>,
    pub(crate) dangling: bool,
}

#[cfg(test)]
mod tests {
    use crate::tests::{fs, read_file, write_file};
    use simcore::Sim;

    #[test]
    fn fresh_fs_is_clean() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let r = f.fsck();
        assert!(r.is_clean(), "{:?}", r.issues);
        assert_eq!(r.files, 0);
        assert_eq!(r.dirs, 1); // root
    }

    #[test]
    fn busy_fs_stays_consistent() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let f2 = f.clone();
        sim.spawn(async move {
            f2.mkdir_p("/a/b").await.unwrap();
            for i in 0..10 {
                let data = vec![i as u8; 10_000 * (i + 1)];
                write_file(&f2, &format!("/a/b/f{i}"), data).await.unwrap();
            }
            // Churn: delete some, rewrite others, publish over one.
            for i in (0..10).step_by(2) {
                f2.unlink(&format!("/a/b/f{i}")).await.unwrap();
            }
            for i in (1..10).step_by(2) {
                write_file(&f2, &format!("/a/b/f{i}"), vec![0xFF; 5_000])
                    .await
                    .unwrap();
            }
            write_file(&f2, "/a/b/f1.tmp", vec![1, 2, 3]).await.unwrap();
            f2.rename("/a/b/f1.tmp", "/a/b/f1").await.unwrap();
        });
        sim.run();
        let r = f.fsck();
        assert!(r.is_clean(), "{:?}", r.issues);
        assert_eq!(r.files, 5);
    }

    #[test]
    fn statvfs_tracks_usage_through_unlink_churn() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let f2 = f.clone();
        sim.spawn(async move {
            assert_eq!(f2.statvfs().used_bytes, 0);
            for i in 0..32 {
                write_file(&f2, &format!("/x{i}"), vec![1u8; 100_000])
                    .await
                    .unwrap();
            }
            let v = f2.statvfs();
            // 100 000 B rounds up to 25 blocks of 4 KiB.
            assert_eq!(v.used_bytes, 32 * 25 * 4096);
            assert_eq!(v.free_bytes + v.used_bytes, v.capacity_bytes);
            for i in 0..32 {
                f2.unlink(&format!("/x{i}")).await.unwrap();
            }
            assert_eq!(f2.statvfs().used_bytes, 0);
        });
        sim.run();
        assert!(f.fsck().is_clean());
    }

    #[test]
    fn unlink_with_open_fd_defers_extent_free_until_close() {
        let sim = Sim::new(0);
        let f = fs(&sim);
        let f2 = f.clone();
        sim.spawn(async move {
            write_file(&f2, "/victim", vec![3u8; 40_960]).await.unwrap();
            let rd = f2.open("/victim").await.unwrap();
            // Evictor-style unlink while the reader holds a descriptor.
            f2.unlink("/victim").await.unwrap();
            assert!(!f2.exists("/victim"));
            // Blocks stay allocated and the data stays readable.
            assert_eq!(f2.statvfs().used_bytes, 40_960);
            assert!(f2.fsck().is_clean(), "{:?}", f2.fsck().issues);
            let rope = f2.read_segments(rd).await.unwrap();
            assert_eq!(rope.iter().map(|seg| seg.len()).sum::<usize>(), 40_960);
            f2.close(rd).await.unwrap();
            // Last close reaps the orphan.
            assert_eq!(f2.statvfs().used_bytes, 0);
        });
        sim.run();
        assert!(f.fsck().is_clean(), "{:?}", f.fsck().issues);
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use crate::{FsError, LocalFs, LocalFsSpec};
        use bytes::Bytes;
        use cluster::{NodeSpec, NvmeDevice};
        use proptest::prelude::*;
        use simcore::SimDuration;
        use std::cell::RefCell;
        use std::collections::BTreeMap;
        use std::rc::Rc;

        /// A file a writer names: one of its own, which only it creates
        /// and writes, or one of the names every writer publishes to.
        #[derive(Debug, Clone, Copy)]
        enum Name {
            Own(u8),
            Shared(u8),
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// create, one `write_bytes` per segment length, close.
            Write(u8, Vec<u16>),
            /// Publish across directories: write the writer's tmp file,
            /// then rename it onto a shared name.
            Publish(u8, Vec<u16>),
            /// The staged plane's publish, within one directory: write
            /// `/pub/f{k}.tmp-{id}`, then rename it onto `/pub/f{k}`.
            PublishInPlace(u8, Vec<u16>),
            Unlink(Name),
            /// open, unlink, then read across the unlink.
            ReadAcrossUnlink(Name),
        }

        fn arb_name() -> impl Strategy<Value = Name> {
            prop_oneof![
                (0u8..3).prop_map(Name::Own),
                (0u8..3).prop_map(Name::Shared)
            ]
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let segments = || proptest::collection::vec(1u16..5000, 1..4);
            prop_oneof![
                (0u8..3, segments()).prop_map(|(k, s)| Op::Write(k, s)),
                (0u8..3, segments()).prop_map(|(k, s)| Op::Publish(k, s)),
                (0u8..3, segments()).prop_map(|(k, s)| Op::PublishInPlace(k, s)),
                arb_name().prop_map(Op::Unlink),
                arb_name().prop_map(Op::ReadAcrossUnlink),
            ]
        }

        /// What every path holds, updated as each operation returns: the
        /// simulator runs one task at a time, so nothing moves between an
        /// operation's effect and the update.
        type Model = Rc<RefCell<BTreeMap<String, Vec<u8>>>>;

        struct Writer {
            f: LocalFs,
            id: usize,
            model: Model,
        }

        impl Writer {
            fn path(&self, name: Name) -> String {
                match name {
                    Name::Own(k) => format!("/w{}/f{k}", self.id),
                    Name::Shared(k) => format!("/pub/f{k}"),
                }
            }

            /// Write `path` as one segment per length, each filled from
            /// `tag` on; returns the bytes written.
            async fn write(&self, path: &str, lens: &[u16], tag: u8) -> Vec<u8> {
                let fd = self.f.create(path).await.unwrap();
                let mut all = Vec::new();
                for (s, &n) in lens.iter().enumerate() {
                    let seg = vec![tag.wrapping_add(s as u8); usize::from(n)];
                    all.extend_from_slice(&seg);
                    self.f.write_bytes(fd, Bytes::from(seg)).await.unwrap();
                }
                self.f.close(fd).await.unwrap();
                all
            }

            async fn run(&self, step: usize, op: &Op) -> Result<(), String> {
                let tag = (self.id * 61 + step * 7) as u8;
                match op {
                    Op::Write(k, lens) => {
                        let path = self.path(Name::Own(*k));
                        let data = self.write(&path, lens, tag).await;
                        self.model.borrow_mut().insert(path, data);
                    }
                    Op::Publish(k, lens) => {
                        let tmp = format!("/w{}/tmp", self.id);
                        self.publish(&tmp, self.path(Name::Shared(*k)), lens, tag)
                            .await;
                    }
                    Op::PublishInPlace(k, lens) => {
                        let path = self.path(Name::Shared(*k));
                        let tmp = format!("{path}.tmp-{}", self.id);
                        self.publish(&tmp, path, lens, tag).await;
                    }
                    Op::Unlink(name) => self.unlink(&self.path(*name)).await?,
                    Op::ReadAcrossUnlink(name) => {
                        let path = self.path(*name);
                        let fd = match self.f.open(&path).await {
                            Ok(fd) => fd,
                            Err(e) => return self.absent(&path, e),
                        };
                        let want = self.model.borrow().get(&path).cloned();
                        self.unlink(&path).await?;
                        let rope = self.f.read_segments(fd).await.unwrap();
                        self.f.close(fd).await.unwrap();
                        let got: Vec<u8> = rope.iter().flat_map(|s| s.iter().copied()).collect();
                        if want.as_ref() != Some(&got) {
                            return Err(format!(
                                "{path}: read {} B across the unlink, opened {:?} B",
                                got.len(),
                                want.map(|w| w.len())
                            ));
                        }
                    }
                }
                Ok(())
            }

            /// Write `tmp`, then rename it onto `path`.
            async fn publish(&self, tmp: &str, path: String, lens: &[u16], tag: u8) {
                let data = self.write(tmp, lens, tag).await;
                self.f.rename(tmp, &path).await.unwrap();
                self.model.borrow_mut().insert(path, data);
            }

            async fn unlink(&self, path: &str) -> Result<(), String> {
                match self.f.unlink(path).await {
                    Ok(()) => match self.model.borrow_mut().remove(path) {
                        Some(_) => Ok(()),
                        None => Err(format!("{path}: unlinked a file nothing wrote")),
                    },
                    Err(e) => self.absent(path, e),
                }
            }

            /// An operation on `path` failed with `e`: right only when
            /// nothing holds `path`.
            fn absent(&self, path: &str, e: FsError) -> Result<(), String> {
                if e == FsError::NotFound && !self.model.borrow().contains_key(path) {
                    Ok(())
                } else {
                    Err(format!("{path}: {e:?} on a file the model holds"))
                }
            }
        }

        // 2–4 writers that start inside one journal flush of each other
        // (a flush takes ~26 µs), so their closes overlap.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn arbitrary_op_sequences_keep_fs_consistent(
                writers in proptest::collection::vec(
                    (0u64..31, proptest::collection::vec(arb_op(), 1..12)),
                    2..5,
                )
            ) {
                let sim = Sim::new(0);
                let ctx = sim.ctx();
                let dev = NvmeDevice::new(&ctx, &NodeSpec::corona());
                let f = LocalFs::new(&ctx, dev.clone(), LocalFsSpec::default());
                let model: Model = Rc::default();
                let (f2, model2) = (f.clone(), model.clone());
                let h = sim.spawn(async move {
                    let (f, model) = (f2, model2);
                    f.mkdir_p("/pub").await.unwrap();
                    for id in 0..writers.len() {
                        f.mkdir_p(&format!("/w{id}")).await.unwrap();
                    }
                    let tasks: Vec<_> = writers
                        .into_iter()
                        .enumerate()
                        .map(|(id, (start_us, ops))| {
                            let writer = Writer {
                                f: f.clone(),
                                id,
                                model: model.clone(),
                            };
                            let ctx2 = ctx.clone();
                            ctx.spawn(async move {
                                ctx2.sleep(SimDuration::from_micros(start_us)).await;
                                for (step, op) in ops.iter().enumerate() {
                                    writer.run(step, op).await?;
                                }
                                Ok::<(), String>(())
                            })
                        })
                        .collect();
                    for task in tasks {
                        task.await?;
                    }
                    // End on one close, so no journal record is left pending.
                    write_file(&f, "/end", vec![0xE0; 100]).await.unwrap();
                    model.borrow_mut().insert("/end".to_string(), vec![0xE0; 100]);
                    let want = model.borrow().clone();
                    for (path, data) in &want {
                        let got = read_file(&f, path).await.unwrap();
                        if &got != data {
                            return Err(format!(
                                "{path}: read {} B, last wrote {} B",
                                got.len(),
                                data.len()
                            ));
                        }
                    }
                    Ok(want.len())
                });
                prop_assert!(sim.run().is_clean());
                let files = h.try_take().unwrap().map_err(TestCaseError::fail)?;
                let r = f.fsck();
                prop_assert!(r.is_clean(), "{:?}", r.issues);
                prop_assert_eq!(r.files, files);
                // The journal conserves bytes: every byte the device wrote
                // is file data or a counted flush, and every flush is its
                // records plus one commit record.
                let (st, js) = (f.stats(), f.journal_stats());
                prop_assert_eq!(
                    dev.write_stats().bytes_moved,
                    st.bytes_written + js.bytes_flushed
                );
                prop_assert_eq!(
                    js.bytes_flushed,
                    (js.records + js.flushes) * f.spec().journal_record_bytes
                );
            }
        }
    }
}
