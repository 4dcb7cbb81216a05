//! Filesystem error type (POSIX-errno flavoured).

/// Errors returned by [`crate::LocalFs`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Path component or file does not exist (ENOENT).
    NotFound,
    /// File already exists where exclusivity was required (EEXIST).
    AlreadyExists,
    /// No free extents large enough (ENOSPC).
    NoSpace,
    /// Operated on a directory where a file was required (EISDIR).
    IsDirectory,
    /// A non-final path component is not a directory (ENOTDIR).
    NotDirectory,
    /// File descriptor is stale or of the wrong mode (EBADF).
    BadDescriptor,
    /// Device-level I/O error (EIO) — injected while the backing NVMe is
    /// in a fault window.
    Io,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::AlreadyExists => "file exists",
            FsError::NoSpace => "no space left on device",
            FsError::IsDirectory => "is a directory",
            FsError::NotDirectory => "not a directory",
            FsError::BadDescriptor => "bad file descriptor",
            FsError::Io => "input/output error",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// Convenience alias.
pub type FsResult<T> = Result<T, FsError>;
