//! String interning and fast hashing for hot-path keys.
//!
//! The workloads publish and look up the same frame paths
//! (`.../frame0042.dcd`) thousands of times per run; keying the KVS
//! store, staging tables and file-system maps by [`Symbol`] instead of
//! `String` replaces repeated SipHash passes over long paths with a
//! single intern per distinct string and O(1) integer-keyed map hits
//! afterwards.
//!
//! The interner is thread-local: the simulator is single-threaded, so a
//! run only ever sees one table, and parallel sweeps (one run per campaign
//! worker) each reuse their worker's table across runs. Tables are
//! append-only and bounded by the number of distinct strings a worker
//! ever interns. Symbols are only meaningful on the thread that created
//! them and must not be stored in cross-run results.
//!
//! The text itself lives in one process-wide, append-only arena shared by
//! every thread's table: each distinct string is stored once, packed into
//! large chunks, and never freed, so [`Symbol::resolve`] hands out a
//! `&'static str`. A string per heap block would not do: a run interns
//! most of its paths as it goes, so each block would be a permanent
//! island among the run's short-lived allocations and would keep the
//! heap they leave behind fragmented for every later run on the thread.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// An interned string: a dense integer id that is `Copy`, `Eq` and cheap
/// to hash. Obtain one with [`intern`]; get the text back with
/// [`Symbol::resolve`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The interned text. O(1) table lookup into the text arena.
    pub fn resolve(self) -> &'static str {
        INTERNER.with(|i| i.borrow().strings[self.0 as usize])
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Symbol({}: {:?})", self.0, self.resolve())
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

#[derive(Default)]
struct Interner {
    ids: FxHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
    /// [`intern`] calls on this thread, hits and misses alike.
    probes: u64,
}

thread_local! {
    static INTERNER: RefCell<Interner> = RefCell::new(Interner::default());
}

/// Intern `s`, returning its stable (per-thread) [`Symbol`].
pub fn intern(s: &str) -> Symbol {
    INTERNER.with(|i| {
        let mut i = i.borrow_mut();
        i.probes += 1;
        if let Some(&id) = i.ids.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(i.strings.len()).expect("interner overflow");
        let text = store(s);
        i.strings.push(text);
        i.ids.insert(text, id);
        Symbol(id)
    })
}

/// The [`Symbol`] of `s` if this thread interned it before; `None`
/// otherwise, and nothing is interned.
pub fn interned(s: &str) -> Option<Symbol> {
    INTERNER.with(|i| i.borrow().ids.get(s).map(|&id| Symbol(id)))
}

/// The process-wide text arena: every distinct string any thread has
/// interned, and the unused tail of the chunk the next one goes into.
struct Text {
    stored: FxHashSet<&'static str>,
    free: &'static mut [u8],
}

static TEXT: Mutex<Text> = Mutex::new(Text {
    stored: HashSet::with_hasher(BuildHasherDefault::new()),
    free: &mut [],
});

/// Bytes per arena chunk: thousands of paths per allocator call.
const CHUNK: usize = 256 * 1024;

/// `s` in the text arena, copied there unless some thread stored it
/// already. Only a thread's first sight of a string takes the lock.
fn store(s: &str) -> &'static str {
    let mut text = TEXT
        .lock()
        .expect("a thread panicked storing interned text");
    if let Some(&stored) = text.stored.get(s) {
        return stored;
    }
    if text.free.len() < s.len() {
        text.free = vec![0; CHUNK.max(s.len())].leak();
    }
    let (head, tail) = std::mem::take(&mut text.free).split_at_mut(s.len());
    head.copy_from_slice(s.as_bytes());
    text.free = tail;
    let stored: &'static str = std::str::from_utf8(head).expect("copied from a str");
    text.stored.insert(stored);
    stored
}

/// [`intern`] calls made on this thread so far: a work counter, exact
/// and deterministic, so one more intern per frame shows as a difference
/// of one where host time would need many runs to resolve it.
pub fn probes() -> u64 {
    INTERNER.with(|i| i.borrow().probes)
}

// ---------------------------------------------------------------------------
// FxHash-style hasher
// ---------------------------------------------------------------------------

/// Multiplicative word-at-a-time hasher in the style of rustc's FxHash:
/// not DoS-resistant, but several times faster than SipHash for the short
/// integer and string keys on the simulator's hot paths (and the
/// simulator never hashes adversarial input).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab" and "ab\0" differ.
            buf[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`]. Drop-in for hot-path tables keyed by
/// [`Symbol`] or small integers.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("alpha/frame0001.dcd");
        let b = intern("alpha/frame0001.dcd");
        let c = intern("alpha/frame0002.dcd");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.resolve(), "alpha/frame0001.dcd");
        assert_eq!(c.resolve(), "alpha/frame0002.dcd");
    }

    #[test]
    fn symbols_key_fx_maps() {
        let mut m: FxHashMap<Symbol, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(intern(&format!("key{i}")), i);
        }
        for i in 0..100 {
            assert_eq!(m[&intern(&format!("key{i}"))], i);
        }
    }

    #[test]
    fn fxhash_distinguishes_tails() {
        fn h(b: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        }
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
        assert_ne!(h(b""), h(b"\0"));
    }

    /// The arena holds one copy of a string however many threads intern
    /// it, so it is bounded by the distinct strings a process interns.
    #[test]
    fn threads_share_one_copy_of_the_text() {
        let here = intern("shared/text/path").resolve();
        let there = std::thread::spawn(|| intern("shared/text/path").resolve())
            .join()
            .expect("interning thread");
        assert_eq!(here, "shared/text/path");
        assert_eq!(here.as_ptr(), there.as_ptr());
    }

    #[test]
    fn probes_count_hits_and_misses() {
        let before = probes();
        intern("probe/new");
        intern("probe/new");
        assert_eq!(probes() - before, 2);
    }

    #[test]
    fn interned_finds_without_interning() {
        let before = probes();
        assert_eq!(interned("lookup/absent"), None);
        assert_eq!(interned("lookup/absent"), None, "a miss interns nothing");
        assert_eq!(probes(), before, "a lookup is not an intern call");
        let s = intern("lookup/present");
        assert_eq!(interned("lookup/present"), Some(s));
    }

    #[test]
    fn display_round_trips() {
        let s = intern("pfs/ost3/stripe9");
        assert_eq!(format!("{s}"), "pfs/ost3/stripe9");
        assert!(format!("{s:?}").contains("pfs/ost3/stripe9"));
    }
}
