//! A write-ahead metadata journal in the XFS mould.
//!
//! Metadata mutations (inode updates, directory entries, extent-map
//! changes) append fixed-size records to an in-memory log buffer; the
//! `close` of a written descriptor forces the accumulated records to the
//! device as one sequential write. The journal never stores file *data*
//! (XFS journals metadata only; data is written in place).

/// The in-memory journal front-end.
#[derive(Debug, Clone)]
pub(crate) struct Journal {
    record_bytes: u64,
    pending_bytes: u64,
    #[cfg(test)]
    pub(crate) stats: JournalStats,
}

impl Journal {
    /// Create a journal whose records are `record_bytes` each on disk.
    pub(crate) fn new(record_bytes: u64) -> Self {
        Journal {
            record_bytes,
            pending_bytes: 0,
            #[cfg(test)]
            stats: JournalStats::default(),
        }
    }

    /// Append a record to the log buffer (no device I/O yet).
    pub(crate) fn append(&mut self) {
        self.pending_bytes += self.record_bytes;
        #[cfg(test)]
        {
            self.stats.records += 1;
        }
    }

    /// Take the pending records, plus a commit record, as one flush: the
    /// bytes the caller writes to the device in one sequential write.
    /// `None` when nothing is pending. Records appended while that write
    /// is in flight wait for the next flush.
    pub(crate) fn take_flush(&mut self) -> Option<u64> {
        if self.pending_bytes == 0 {
            return None;
        }
        let bytes = self.pending_bytes + self.record_bytes; // + commit record
        self.pending_bytes = 0;
        #[cfg(test)]
        {
            self.stats.flushes += 1;
            self.stats.bytes_flushed += bytes;
        }
        Some(bytes)
    }
}

/// What the tests count of a journal's records and flushes.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct JournalStats {
    /// Records appended.
    pub(crate) records: u64,
    /// Physical flushes to the device.
    pub(crate) flushes: u64,
    /// Bytes written to the log device.
    pub(crate) bytes_flushed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_accumulates_and_flush_clears() {
        let mut j = Journal::new(512);
        j.append();
        j.append();
        assert_eq!(j.pending_bytes, 1024);
        assert_eq!(j.take_flush(), Some(1536)); // 2 records + commit
        assert_eq!(
            j.stats,
            JournalStats {
                records: 2,
                flushes: 1,
                bytes_flushed: 1536
            }
        );
        assert_eq!(j.pending_bytes, 0);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut j = Journal::new(512);
        assert_eq!(j.take_flush(), None);
        assert_eq!(j.stats, JournalStats::default());
    }
}
