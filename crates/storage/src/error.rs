//! Storage-layer failure taxonomy.
//!
//! Until this module existed the store traits had a panicking contract:
//! fine for an experiment substrate, fatal for the ROADMAP's
//! serve-heavy-traffic goal. [`StorageError`] classifies every way a page
//! read can go wrong, and [`StorageError::is_transient`] encodes the
//! retry policy: transient kinds are retried with bounded backoff by
//! [`crate::SharedBufferPool`], everything else surfaces immediately.

use std::fmt;
use std::io;

/// Result alias for storage-layer operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// A failure reading or validating pages of a database file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The underlying I/O operation failed. `io::Error` is not `Clone`,
    /// so the kind and rendered message are captured instead.
    Io {
        /// Page being read when the error occurred.
        page: usize,
        /// The `io::ErrorKind` of the underlying failure.
        kind: io::ErrorKind,
        /// Rendered message of the underlying failure.
        message: String,
    },
    /// A page's content did not match its recorded CRC32 checksum.
    CorruptPage {
        /// The corrupt page's number.
        page: usize,
        /// Checksum recorded for the page.
        expected: u32,
        /// Checksum computed from the bytes actually read.
        actual: u32,
    },
    /// The file holds fewer pages than its header promises.
    Truncated {
        /// Pages actually present.
        pages: usize,
        /// Pages the header implies.
        expected: usize,
    },
    /// The file header (or checksum trailer) failed validation.
    BadHeader {
        /// What failed to validate.
        reason: String,
    },
    /// The file length is not a usable whole number of pages.
    BadLength {
        /// Observed file length in bytes.
        bytes: u64,
    },
    /// A transient failure persisted through the whole retry budget.
    RetriesExhausted {
        /// Page being read.
        page: usize,
        /// Attempts made (initial read plus retries).
        attempts: u32,
        /// The error returned by the final attempt.
        last: Box<StorageError>,
    },
}

impl StorageError {
    /// Whether a retry may plausibly succeed.
    ///
    /// Interrupted/timed-out/would-block I/O is retried, and so are
    /// checksum mismatches: a mismatch detected on read may be transport
    /// corruption (bus, DMA, torn buffer) rather than corruption at rest,
    /// and re-reading is cheap. Structural errors (truncation, bad
    /// header, bad length) and an already-exhausted retry budget are
    /// final.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io { kind, .. } => matches!(
                kind,
                io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            StorageError::CorruptPage { .. } => true,
            _ => false,
        }
    }

    /// The page number the error is about, when it concerns one page.
    pub fn page(&self) -> Option<usize> {
        match self {
            StorageError::Io { page, .. }
            | StorageError::CorruptPage { page, .. }
            | StorageError::RetriesExhausted { page, .. } => Some(*page),
            _ => None,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io {
                page,
                kind,
                message,
            } => {
                write!(f, "I/O error reading page {page} ({kind:?}): {message}")
            }
            StorageError::CorruptPage {
                page,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch on page {page}: expected {expected:#010x}, got {actual:#010x}"
            ),
            StorageError::Truncated { pages, expected } => {
                write!(f, "truncated database: {pages} pages, expected {expected}")
            }
            StorageError::BadHeader { reason } => write!(f, "corrupt header: {reason}"),
            StorageError::BadLength { bytes } => write!(
                f,
                "file length {bytes} is not a non-empty multiple of the page size"
            ),
            StorageError::RetriesExhausted {
                page,
                attempts,
                last,
            } => write!(
                f,
                "page {page} still failing after {attempts} attempts: {last}"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for io::Error {
    fn from(e: StorageError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// A page read that failed inside a query fails that query with
/// [`KnMatchError::Storage`](knmatch_core::KnMatchError::Storage).
impl From<StorageError> for knmatch_core::KnMatchError {
    fn from(e: StorageError) -> Self {
        knmatch_core::KnMatchError::Storage {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        let interrupted = StorageError::Io {
            page: 3,
            kind: io::ErrorKind::Interrupted,
            message: "injected".into(),
        };
        let hard = StorageError::Io {
            page: 3,
            kind: io::ErrorKind::NotFound,
            message: "gone".into(),
        };
        let corrupt = StorageError::CorruptPage {
            page: 1,
            expected: 1,
            actual: 2,
        };
        assert!(interrupted.is_transient());
        assert!(!hard.is_transient());
        assert!(corrupt.is_transient());
        assert!(!StorageError::BadLength { bytes: 7 }.is_transient());
        let exhausted = StorageError::RetriesExhausted {
            page: 3,
            attempts: 3,
            last: Box::new(interrupted),
        };
        assert!(!exhausted.is_transient());
        assert_eq!(exhausted.page(), Some(3));
        assert_eq!(StorageError::BadLength { bytes: 7 }.page(), None);
    }

    #[test]
    fn displays_are_actionable() {
        let e = StorageError::CorruptPage {
            page: 9,
            expected: 0xDEAD_BEEF,
            actual: 0x1234_5678,
        };
        let s = e.to_string();
        assert!(s.contains("page 9"), "{s}");
        assert!(s.contains("0xdeadbeef"), "{s}");
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("checksum mismatch"));
    }
}
