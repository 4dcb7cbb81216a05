//! The XFS-like node-local filesystem.
//!
//! Structure follows XFS at the level the experiments observe: a
//! block-addressed volume split into allocation groups with extent-based
//! allocation, inodes holding extent maps, hierarchical directories, a
//! metadata write-ahead journal, a page cache serving re-reads at memory
//! speed, and POSIX-style advisory `flock`.
//!
//! One way in and one way out: a descriptor from [`LocalFs::create`]
//! appends rope segments, and [`LocalFs::read_segments`] hands the rope
//! back. Data writes are charged write-through on the node's NVMe (the
//! workflow measures POSIX write cost, as the paper does); metadata
//! mutations accumulate journal records flushed on `close` of a written
//! descriptor; reads cost memory bandwidth when the spec enables the
//! page cache (nothing evicts, so every written byte is resident),
//! otherwise the device.

// Bodies a process awaits are not `async fn`, which would store each argument
// twice in the state machine (DESIGN.md §11, "Each value once").
#![allow(clippy::manual_async_fn)]

use simcore::intern::{intern, FxHashMap, FxHashSet, Symbol};
use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NvmeDevice;
use simcore::sync::SharedLock;
use simcore::{Ctx, SimDuration};

use crate::alloc::{Extent, ExtentAllocator};
use crate::error::{FsError, FsResult};
use crate::journal::Journal;

/// Filesystem tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct LocalFsSpec {
    /// Volume block size in bytes.
    pub block_size: u64,
    /// Number of allocation groups.
    pub ag_count: usize,
    /// Volume capacity in bytes.
    pub capacity_bytes: u64,
    /// On-disk size of one journal record.
    pub journal_record_bytes: u64,
    /// CPU cost of a metadata operation (path lookup, inode touch).
    pub meta_cpu: SimDuration,
    /// Cost of one flock/funlock call.
    pub lock_op_cost: SimDuration,
    /// Memory bandwidth a read costs, bytes/second: nothing evicts, so
    /// every written byte stays in the page cache.
    pub mem_bw: f64,
}

impl Default for LocalFsSpec {
    /// XFS on a Corona NVMe: 4 KiB blocks, 8 AGs, 3.5 TB volume.
    fn default() -> Self {
        LocalFsSpec {
            block_size: 4096,
            ag_count: 8,
            capacity_bytes: 3_500_000_000_000,
            journal_record_bytes: 512,
            meta_cpu: SimDuration::from_micros(2),
            lock_op_cost: SimDuration::from_micros(5),
            mem_bw: 20.0e9,
        }
    }
}

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Ino(u64);

/// Open file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(u64);

/// What a descriptor may do: [`LocalFs::create`] opens for writing,
/// [`LocalFs::open`] for reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpenMode {
    Read,
    Write,
}

/// flock kinds: a shared (read) or exclusive (write) lock.
pub use simcore::sync::LockKind;

/// Metadata returned by [`LocalFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: u64,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// True for directories.
    pub is_dir: bool,
    /// Number of extents backing the file.
    pub extents: usize,
}

/// Volume-level usage snapshot returned by [`LocalFs::statvfs`] — the
/// `statfs(2)`-style free-space query the staging watermark logic polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatVfs {
    /// Volume capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes not allocated to any extent.
    pub free_bytes: u64,
    /// Bytes allocated to file extents (block-granular).
    pub used_bytes: u64,
    /// Volume block size.
    pub block_size: u64,
}

enum InodeKind {
    File {
        /// File content as an ordered rope of segments, each write's
        /// `Bytes` appended as it came (zero-copy).
        segments: Vec<Bytes>,
        /// Total content length (sum of segment lengths).
        size: u64,
        extents: Vec<Extent>,
        /// Open descriptors on this file (directories are never opened),
        /// so an unlink decides "free now or orphan" without scanning
        /// the descriptor table.
        open: u32,
    },
    Dir {
        children: FxHashMap<Symbol, Ino>,
    },
}

struct Inode {
    kind: InodeKind,
    /// Advisory-lock state, created by the first `flock` on the inode:
    /// most inodes (every directory, every file of a cold-sync run) are
    /// never locked.
    lock: Option<SharedLock>,
}

impl Inode {
    fn new_file() -> Self {
        Inode {
            kind: InodeKind::File {
                segments: Vec::new(),
                size: 0,
                extents: Vec::new(),
                open: 0,
            },
            lock: None,
        }
    }

    fn new_dir() -> Self {
        Inode {
            kind: InodeKind::Dir {
                children: FxHashMap::default(),
            },
            lock: None,
        }
    }
}

struct OpenFile {
    ino: Ino,
    offset: u64,
    mode: OpenMode,
}

/// The inode table: a slab indexed by inode number. Numbers are handed
/// out densely from 1 and a freed number is reused, so the table is as
/// long as the most inodes that were ever live at once and a lookup is
/// an index. (A hash map keyed by `Ino` paid a 16-bucket rehash — 1.3 KB
/// — on every filesystem that holds more than seven inodes, which at
/// 16,384 filesystems was the third-largest structure of a run.) A
/// number is only reused once nothing can name the old inode: directory
/// entries go first, and an inode with open descriptors is parked in
/// `FsInner::orphans` until the last one closes.
#[derive(Default)]
struct InodeTable {
    /// `slots[ino - 1]`.
    slots: Vec<Option<Inode>>,
    free: Vec<Ino>,
}

impl InodeTable {
    fn get(&self, ino: Ino) -> Option<&Inode> {
        self.slots.get(ino.0 as usize - 1)?.as_ref()
    }

    fn get_mut(&mut self, ino: Ino) -> Option<&mut Inode> {
        self.slots.get_mut(ino.0 as usize - 1)?.as_mut()
    }

    fn insert(&mut self, node: Inode) -> Ino {
        match self.free.pop() {
            Some(ino) => {
                self.slots[ino.0 as usize - 1] = Some(node);
                ino
            }
            None => {
                self.slots.push(Some(node));
                Ino(self.slots.len() as u64)
            }
        }
    }

    fn remove(&mut self, ino: Ino) -> Inode {
        let node = self.slots[ino.0 as usize - 1]
            .take()
            .expect("removed inode is live");
        self.free.push(ino);
        node
    }
}

impl std::ops::Index<Ino> for InodeTable {
    type Output = Inode;
    fn index(&self, ino: Ino) -> &Inode {
        self.get(ino).expect("inode is live")
    }
}

impl std::ops::IndexMut<Ino> for InodeTable {
    fn index_mut(&mut self, ino: Ino) -> &mut Inode {
        self.get_mut(ino).expect("inode is live")
    }
}

struct FsInner {
    inodes: InodeTable,
    root: Ino,
    fds: FxHashMap<Fd, OpenFile>,
    next_fd: u64,
    alloc: ExtentAllocator,
    journal: Journal,
    #[cfg(test)]
    stats: FsStats,
    /// Blocks currently allocated to file extents, tracked independently
    /// of the allocator so fsck can cross-check the two accountings.
    used_blocks: u64,
    /// Unlinked (or rename-replaced) inodes still referenced by an open
    /// descriptor. POSIX semantics: the extents are freed only when the
    /// last descriptor closes, so a concurrent reader — e.g. a consumer
    /// mid-fetch while the staging evictor retires the frame — keeps a
    /// consistent view of the data.
    orphans: FxHashSet<Ino>,
    /// Host-side dentry cache: interned absolute directory path → inode.
    /// Directories are never unlinked or renamed (both refuse
    /// `IsDirectory`), so a cached entry can never go stale. This is a
    /// pure host-time optimisation — every operation still charges its
    /// `meta_cpu` sim cost — so it cannot perturb trajectories. The
    /// `RefCell` lets read-only lookups populate it.
    dcache: RefCell<FxHashMap<Symbol, Ino>>,
}

impl FsInner {
    /// Return extents to the allocator and the usage counter together.
    fn free_extents(&mut self, extents: &[Extent]) {
        self.used_blocks -= extents.iter().map(|e| e.len).sum::<u64>();
        self.alloc.free(extents);
    }

    /// Drop an inode whose last name just went away: free immediately
    /// when no descriptor references it, otherwise park it as an orphan
    /// until the last [`LocalFs::close`].
    fn remove_or_orphan(&mut self, ino: Ino) {
        if matches!(self.inodes[ino].kind, InodeKind::File { open, .. } if open > 0) {
            self.orphans.insert(ino);
            return;
        }
        self.reap(ino);
    }

    /// Drop an inode nothing references any more and free its extents.
    fn reap(&mut self, ino: Ino) {
        if let InodeKind::File { extents, .. } = self.inodes.remove(ino).kind {
            self.free_extents(&extents);
        }
    }

    /// Register a descriptor on file `ino`, at offset 0.
    fn open_fd(&mut self, ino: Ino, mode: OpenMode) -> Fd {
        match &mut self.inodes[ino].kind {
            InodeKind::File { open, .. } => *open += 1,
            InodeKind::Dir { .. } => unreachable!("directories are never opened"),
        }
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(
            fd,
            OpenFile {
                ino,
                offset: 0,
                mode,
            },
        );
        fd
    }
}

/// A node-local XFS-like filesystem bound to one NVMe device.
#[derive(Clone)]
pub struct LocalFs {
    ctx: Ctx,
    dev: NvmeDevice,
    spec: LocalFsSpec,
    inner: Rc<RefCell<FsInner>>,
    io_probe: Option<Rc<dyn Fn() -> bool>>,
}

/// Split a path into `(parent directory, final name)` without
/// allocating. The directory part may retain interior empty components
/// ("a//b"); walkers filter those out.
fn dir_and_name(path: &str) -> (&str, &str) {
    let p = path.trim_matches('/');
    match p.rsplit_once('/') {
        Some((dir, name)) => (dir, name),
        None => ("", p),
    }
}

impl LocalFs {
    /// Create (format) a filesystem on `dev`.
    pub fn new(ctx: &Ctx, dev: NvmeDevice, spec: LocalFsSpec) -> Self {
        let total_blocks = spec.capacity_bytes / spec.block_size;
        let mut inodes = InodeTable::default();
        let root = inodes.insert(Inode::new_dir());
        LocalFs {
            ctx: ctx.clone(),
            dev,
            spec,
            inner: Rc::new(RefCell::new(FsInner {
                inodes,
                root,
                fds: FxHashMap::default(),
                next_fd: 3, // 0,1,2 "reserved", POSIX-style
                alloc: ExtentAllocator::new(total_blocks, spec.ag_count),
                journal: Journal::new(spec.journal_record_bytes),
                #[cfg(test)]
                stats: FsStats::default(),
                used_blocks: 0,
                orphans: FxHashSet::default(),
                dcache: RefCell::new(FxHashMap::default()),
            })),
            io_probe: None,
        }
    }

    /// Attach a device-error probe: while it returns `true`, operations
    /// that touch the device fail with [`FsError::Io`] (EIO), as a
    /// controller reset or failing NAND would surface. Used by the
    /// fault-injection layer; without a probe nothing changes.
    pub fn set_io_error_probe(&mut self, probe: Rc<dyn Fn() -> bool>) {
        self.io_probe = Some(probe);
    }

    fn device_check(&self) -> FsResult<()> {
        match &self.io_probe {
            Some(p) if p() => Err(FsError::Io),
            _ => Ok(()),
        }
    }

    /// `statfs(2)`-style volume usage query. Zero sim-time cost: the
    /// superblock counters are in memory, as on a real kernel, and the
    /// staging watermark logic polls this on every admission check.
    pub fn statvfs(&self) -> StatVfs {
        let inner = self.inner.borrow();
        StatVfs {
            // Whole blocks only, like statvfs(2)'s f_blocks × f_frsize:
            // a device tail smaller than one block is not allocatable.
            capacity_bytes: (self.spec.capacity_bytes / self.spec.block_size)
                * self.spec.block_size,
            free_bytes: inner.alloc.free_blocks() * self.spec.block_size,
            used_bytes: inner.used_blocks * self.spec.block_size,
            block_size: self.spec.block_size,
        }
    }

    /// Resolve a directory path, consulting the dentry cache first. A
    /// miss walks component-by-component and caches the result (only
    /// when it is actually a directory — files can be renamed away, so
    /// a file-terminated prefix is returned uncached for the caller to
    /// reject).
    fn resolve_dir(inner: &FsInner, dir: &str) -> FsResult<Ino> {
        if dir.is_empty() {
            return Ok(inner.root);
        }
        let sym = intern(dir);
        if let Some(&ino) = inner.dcache.borrow().get(&sym) {
            return Ok(ino);
        }
        let mut cur = inner.root;
        for comp in dir.split('/').filter(|c| !c.is_empty()) {
            let node = inner.inodes.get(cur).ok_or(FsError::NotFound)?;
            match &node.kind {
                InodeKind::Dir { children } => {
                    cur = *children.get(&intern(comp)).ok_or(FsError::NotFound)?;
                }
                InodeKind::File { .. } => return Err(FsError::NotDirectory),
            }
        }
        if matches!(
            inner.inodes.get(cur).map(|n| &n.kind),
            Some(InodeKind::Dir { .. })
        ) {
            inner.dcache.borrow_mut().insert(sym, cur);
        }
        Ok(cur)
    }

    /// The entry `name` of directory `dir`, if it has one.
    fn child(inner: &FsInner, dir: Ino, name: Symbol) -> FsResult<Option<Ino>> {
        match &inner.inodes.get(dir).ok_or(FsError::NotFound)?.kind {
            InodeKind::Dir { children } => Ok(children.get(&name).copied()),
            InodeKind::File { .. } => Err(FsError::NotDirectory),
        }
    }

    fn lookup(inner: &FsInner, path: &str) -> FsResult<Ino> {
        let (dir, name) = dir_and_name(path);
        if name.is_empty() {
            return Ok(inner.root);
        }
        let parent = Self::resolve_dir(inner, dir)?;
        Self::child(inner, parent, intern(name))?.ok_or(FsError::NotFound)
    }

    fn lookup_parent<'p>(inner: &FsInner, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let (dir, name) = dir_and_name(path);
        if name.is_empty() {
            return Err(FsError::AlreadyExists);
        }
        let parent = Self::resolve_dir(inner, dir)?;
        Ok((parent, name))
    }

    /// Create every missing directory along `path`.
    pub fn mkdir_p<'a>(&'a self, path: &'a str) -> impl Future<Output = FsResult<()>> + 'a {
        async move {
            self.device_check()?;
            self.ctx.sleep(self.spec.meta_cpu).await;
            let mut inner = self.inner.borrow_mut();
            let p = path.trim_matches('/');
            if p.is_empty() {
                return Ok(());
            }
            // Fast path: the whole chain was seen before, so every directory
            // already exists and no journal records would be appended.
            let whole = intern(p);
            if inner.dcache.borrow().contains_key(&whole) {
                return Ok(());
            }
            let mut cur = inner.root;
            for comp in p.split('/').filter(|c| !c.is_empty()) {
                let name = intern(comp);
                cur = match Self::child(&inner, cur, name)? {
                    Some(ino) => ino,
                    None => {
                        let ino = inner.inodes.insert(Inode::new_dir());
                        match &mut inner.inodes[cur].kind {
                            InodeKind::Dir { children } => {
                                children.insert(name, ino);
                            }
                            InodeKind::File { .. } => unreachable!(),
                        }
                        inner.journal.append(); // directory entry
                        inner.journal.append(); // inode
                        ino
                    }
                };
            }
            inner.dcache.borrow_mut().insert(whole, cur);
            Ok(())
        }
    }

    /// Create (or truncate) a file for writing.
    pub fn create<'a>(&'a self, path: &'a str) -> impl Future<Output = FsResult<Fd>> + 'a {
        async move {
            self.device_check()?;
            self.ctx.sleep(self.spec.meta_cpu).await;
            let mut inner = self.inner.borrow_mut();
            let (parent, name) = Self::lookup_parent(&inner, path)?;
            let name = intern(name);
            let ino = match Self::child(&inner, parent, name)? {
                Some(ino) => {
                    // Truncate.
                    let freed = {
                        let node = &mut inner.inodes[ino];
                        match &mut node.kind {
                            InodeKind::File {
                                segments,
                                size,
                                extents,
                                ..
                            } => {
                                segments.clear();
                                *size = 0;
                                std::mem::take(extents)
                            }
                            InodeKind::Dir { .. } => return Err(FsError::IsDirectory),
                        }
                    };
                    inner.free_extents(&freed);
                    inner.journal.append(); // inode
                    ino
                }
                None => {
                    let ino = inner.inodes.insert(Inode::new_file());
                    match &mut inner.inodes[parent].kind {
                        InodeKind::Dir { children } => {
                            children.insert(name, ino);
                        }
                        InodeKind::File { .. } => unreachable!(),
                    }
                    inner.journal.append(); // directory entry
                    inner.journal.append(); // inode
                    ino
                }
            };
            Ok(inner.open_fd(ino, OpenMode::Write))
        }
    }

    /// Open an existing file read-only.
    pub fn open<'a>(&'a self, path: &'a str) -> impl Future<Output = FsResult<Fd>> + 'a {
        async move {
            self.device_check()?;
            self.ctx.sleep(self.spec.meta_cpu).await;
            let mut inner = self.inner.borrow_mut();
            let ino = Self::lookup(&inner, path)?;
            if matches!(inner.inodes[ino].kind, InodeKind::Dir { .. }) {
                return Err(FsError::IsDirectory);
            }
            Ok(inner.open_fd(ino, OpenMode::Read))
        }
    }

    /// Append `data` to the file as one more rope segment, without
    /// copying it, and charge the device write-through.
    pub fn write_bytes(&self, fd: Fd, data: Bytes) -> impl Future<Output = FsResult<()>> + '_ {
        async move {
            self.device_check()?;
            let bytes = data.len() as u64;
            {
                let mut inner = self.inner.borrow_mut();
                let of = inner.fds.get(&fd).ok_or(FsError::BadDescriptor)?;
                if of.mode == OpenMode::Read {
                    return Err(FsError::BadDescriptor);
                }
                let ino = of.ino;
                let offset = of.offset;
                let end = offset + bytes;
                // Grow the extent map to cover `end`.
                let cur_blocks = match &inner.inodes[ino].kind {
                    InodeKind::File { extents, size, .. } => {
                        // `create` truncated the file, so a descriptor only
                        // ever appends.
                        debug_assert_eq!(offset, *size, "a write descriptor appends");
                        extents.iter().map(|e| e.len).sum::<u64>()
                    }
                    InodeKind::Dir { .. } => return Err(FsError::IsDirectory),
                };
                let need_blocks = end.div_ceil(self.spec.block_size);
                if need_blocks > cur_blocks {
                    let new = inner.alloc.alloc(need_blocks - cur_blocks)?;
                    inner.used_blocks += need_blocks - cur_blocks;
                    let n_new = new.len();
                    match &mut inner.inodes[ino].kind {
                        InodeKind::File { extents, .. } => extents.extend(new),
                        InodeKind::Dir { .. } => unreachable!(),
                    }
                    for _ in 0..n_new {
                        inner.journal.append(); // extent map
                    }
                }
                match &mut inner.inodes[ino].kind {
                    InodeKind::File { segments, size, .. } => {
                        segments.push(data);
                        *size = end;
                    }
                    InodeKind::Dir { .. } => unreachable!(),
                }
                inner.fds.get_mut(&fd).unwrap().offset = end;
                inner.journal.append(); // inode
                #[cfg(test)]
                {
                    inner.stats.bytes_written += bytes;
                }
            }
            // Charge the device outside the borrow.
            self.dev.write(bytes).await;
            Ok(())
        }
    }

    /// Zero-copy read of the remainder of the file: returns the segment
    /// rope (clones of the stored `Bytes`), advancing the offset to EOF.
    /// Costs memory bandwidth (every byte is in the page cache); an empty
    /// read costs nothing.
    pub fn read_segments(&self, fd: Fd) -> impl Future<Output = FsResult<Vec<Bytes>>> + '_ {
        async move {
            self.device_check()?;
            let (parts, n) = {
                let mut inner = self.inner.borrow_mut();
                let of = inner.fds.get(&fd).ok_or(FsError::BadDescriptor)?;
                let offset = of.offset;
                let parts = match &inner.inodes[of.ino].kind {
                    InodeKind::File { segments, .. } => {
                        let mut parts = Vec::new();
                        let mut base = 0u64;
                        for seg in segments {
                            let seg_end = base + seg.len() as u64;
                            if seg_end > offset {
                                let start_in = offset.saturating_sub(base) as usize;
                                parts.push(seg.slice(start_in..));
                            }
                            base = seg_end;
                        }
                        parts
                    }
                    InodeKind::Dir { .. } => return Err(FsError::IsDirectory),
                };
                let n: u64 = parts.iter().map(|p| p.len() as u64).sum();
                inner.fds.get_mut(&fd).unwrap().offset = offset + n;
                #[cfg(test)]
                {
                    inner.stats.reads += 1;
                }
                (parts, n)
            };
            if n > 0 {
                self.ctx
                    .sleep(SimDuration::from_secs_f64(n as f64 / self.spec.mem_bw))
                    .await;
            }
            Ok(parts)
        }
    }

    /// Write what the journal holds now to the device. The take is
    /// synchronous, so no borrow spans the device await and a flush that
    /// overlaps another only writes what arrived after that one's take.
    fn flush_journal(&self) -> impl Future<Output = ()> + '_ {
        async move {
            let bytes = self.inner.borrow_mut().journal.take_flush();
            if let Some(bytes) = bytes {
                self.dev.write(bytes).await;
            }
        }
    }

    /// Close a descriptor, flushing journaled metadata (matching the
    /// workflow's write-then-close pattern).
    pub fn close(&self, fd: Fd) -> impl Future<Output = FsResult<()>> + '_ {
        async move {
            let was_write = {
                let mut inner = self.inner.borrow_mut();
                let of = inner.fds.remove(&fd).ok_or(FsError::BadDescriptor)?;
                let still_open = match &mut inner.inodes[of.ino].kind {
                    InodeKind::File { open, .. } => {
                        *open -= 1;
                        *open > 0
                    }
                    InodeKind::Dir { .. } => unreachable!("directories are never opened"),
                };
                // Reap an orphaned inode once its last descriptor closes.
                if !still_open && inner.orphans.remove(&of.ino) {
                    inner.reap(of.ino);
                    inner.journal.append(); // extent map
                }
                of.mode != OpenMode::Read
            };
            if was_write {
                self.flush_journal().await;
            }
            Ok(())
        }
    }

    /// Atomically rename a file (the classic write-to-temp-then-rename
    /// publication pattern). The destination is replaced if it exists.
    pub fn rename<'a>(
        &'a self,
        from: &'a str,
        to: &'a str,
    ) -> impl Future<Output = FsResult<()>> + 'a {
        async move {
            self.device_check()?;
            self.ctx.sleep(self.spec.meta_cpu).await;
            let mut inner = self.inner.borrow_mut();
            // Detach the source dirent.
            let (src_parent, src_name) = Self::lookup_parent(&inner, from)?;
            let src_name = intern(src_name);
            let ino = Self::child(&inner, src_parent, src_name)?.ok_or(FsError::NotFound)?;
            if matches!(inner.inodes[ino].kind, InodeKind::Dir { .. }) {
                return Err(FsError::IsDirectory);
            }
            // A publish (`x.tmp` → `x`) stays in one directory: resolve it once.
            let (dst_parent, dst_name) = match dir_and_name(to) {
                (dir, name) if !name.is_empty() && dir == dir_and_name(from).0 => {
                    (src_parent, name)
                }
                _ => Self::lookup_parent(&inner, to)?,
            };
            let dst_name = intern(dst_name);
            // Replace any existing destination, freeing its extents.
            if let Some(old) = Self::child(&inner, dst_parent, dst_name)? {
                if matches!(inner.inodes[old].kind, InodeKind::Dir { .. }) {
                    return Err(FsError::IsDirectory);
                }
                inner.remove_or_orphan(old);
            }
            match &mut inner.inodes[src_parent].kind {
                InodeKind::Dir { children } => {
                    children.remove(&src_name);
                }
                InodeKind::File { .. } => unreachable!(),
            }
            match &mut inner.inodes[dst_parent].kind {
                InodeKind::Dir { children } => {
                    children.insert(dst_name, ino);
                }
                InodeKind::File { .. } => unreachable!(),
            }
            inner.journal.append(); // directory entry, removed
            inner.journal.append(); // directory entry, added
            Ok(())
        }
    }

    /// Remove a file, freeing its extents.
    pub fn unlink<'a>(&'a self, path: &'a str) -> impl Future<Output = FsResult<()>> + 'a {
        async move {
            self.device_check()?;
            self.ctx.sleep(self.spec.meta_cpu).await;
            let mut inner = self.inner.borrow_mut();
            let (parent, name) = Self::lookup_parent(&inner, path)?;
            let name = intern(name);
            let ino = Self::child(&inner, parent, name)?.ok_or(FsError::NotFound)?;
            if matches!(inner.inodes[ino].kind, InodeKind::Dir { .. }) {
                return Err(FsError::IsDirectory);
            }
            match &mut inner.inodes[parent].kind {
                InodeKind::Dir { children } => {
                    children.remove(&name);
                }
                InodeKind::File { .. } => unreachable!(),
            }
            inner.remove_or_orphan(ino);
            inner.journal.append(); // directory entry
            inner.journal.append(); // extent map
            Ok(())
        }
    }

    /// Stat a path.
    pub fn stat<'a>(&'a self, path: &'a str) -> impl Future<Output = FsResult<Stat>> + 'a {
        async move {
            self.device_check()?;
            self.ctx.sleep(self.spec.meta_cpu).await;
            let inner = self.inner.borrow();
            let ino = Self::lookup(&inner, path)?;
            let st = match &inner.inodes[ino].kind {
                InodeKind::File { size, extents, .. } => Stat {
                    ino: ino.0,
                    size: *size,
                    is_dir: false,
                    extents: extents.len(),
                },
                InodeKind::Dir { .. } => Stat {
                    ino: ino.0,
                    size: 0,
                    is_dir: true,
                    extents: 0,
                },
            };
            Ok(st)
        }
    }

    /// Zero-cost existence probe: the staged plane's check for a frame
    /// already on this node ([`LocalFs::stat`] charges a metadata op).
    pub fn exists(&self, path: &str) -> bool {
        Self::lookup(&self.inner.borrow(), path).is_ok()
    }

    /// Acquire an advisory lock on `path`, blocking while incompatible
    /// locks are held. The file must exist.
    pub fn flock<'a>(
        &'a self,
        path: &'a str,
        kind: LockKind,
    ) -> impl Future<Output = FsResult<()>> + 'a {
        async move {
            self.ctx.sleep(self.spec.lock_op_cost).await;
            let lock = {
                let mut inner = self.inner.borrow_mut();
                let ino = Self::lookup(&inner, path)?;
                inner.inodes[ino].lock.get_or_insert_default().clone()
            };
            lock.acquire(kind).await;
            Ok(())
        }
    }

    /// Release a lock taken with [`LocalFs::flock`]. The lock released is
    /// the one on the file `path` names when the call is made: a rename
    /// that replaces the file while the call is in flight does not move
    /// it to the new file (POSIX unlocks the open file, not the name).
    pub fn funlock<'a>(
        &'a self,
        path: &'a str,
        kind: LockKind,
    ) -> impl Future<Output = FsResult<()>> + 'a {
        async move {
            let lock = {
                let inner = self.inner.borrow();
                Self::lookup(&inner, path).map(|ino| inner.inodes[ino].lock.clone())
            };
            self.ctx.sleep(self.spec.lock_op_cost).await;
            lock?.expect("funlock without flock").release(kind);
            Ok(())
        }
    }
}

#[cfg(test)]
impl InodeTable {
    /// Live inodes in inode-number order.
    fn iter(&self) -> impl Iterator<Item = (Ino, &Inode)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, n)| Some((Ino(i as u64 + 1), n.as_ref()?)))
    }
}

/// What the tests count of a filesystem's operations.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FsStats {
    /// [`LocalFs::read_segments`] calls.
    pub(crate) reads: u64,
    /// Bytes written.
    pub(crate) bytes_written: u64,
}

#[cfg(test)]
impl LocalFs {
    /// The spec the filesystem was formatted with.
    pub(crate) fn spec(&self) -> LocalFsSpec {
        self.spec
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> FsStats {
        self.inner.borrow().stats
    }

    /// Journal statistics.
    pub(crate) fn journal_stats(&self) -> crate::journal::JournalStats {
        self.inner.borrow().journal.stats
    }

    /// Snapshot the structures fsck needs: per-inode entries, total
    /// blocks, allocator-reported free blocks, the block size, and the
    /// superblock's independent used-blocks counter.
    pub(crate) fn fsck_snapshot(&self) -> (Vec<crate::fsck::FsckEntry>, u64, u64, u64, u64) {
        let inner = self.inner.borrow();
        let mut entries = Vec::new();
        // Reachability: which inodes do directory entries reference?
        let mut referenced: Vec<Ino> = vec![inner.root];
        for (_, node) in inner.inodes.iter() {
            if let InodeKind::Dir { children } = &node.kind {
                referenced.extend(children.values().copied());
            }
        }
        // Dangling dirents: references to inodes that do not exist.
        for &ino in &referenced {
            if inner.inodes.get(ino).is_none() {
                entries.push(crate::fsck::FsckEntry {
                    ino: ino.0,
                    is_dir: false,
                    size: 0,
                    extents: Vec::new(),
                    dangling: true,
                });
            }
        }
        for (ino, node) in inner.inodes.iter() {
            match &node.kind {
                InodeKind::File { size, extents, .. } => {
                    entries.push(crate::fsck::FsckEntry {
                        ino: ino.0,
                        is_dir: false,
                        size: *size,
                        extents: extents.iter().map(|e| (e.start, e.len)).collect(),
                        dangling: false,
                    });
                }
                InodeKind::Dir { .. } => entries.push(crate::fsck::FsckEntry {
                    ino: ino.0,
                    is_dir: true,
                    size: 0,
                    extents: Vec::new(),
                    dangling: false,
                }),
            }
        }
        let total_blocks = self.spec.capacity_bytes / self.spec.block_size;
        (
            entries,
            total_blocks,
            inner.alloc.free_blocks(),
            self.spec.block_size,
            inner.used_blocks,
        )
    }
}
