//! Typed errors for the page store and buffer pool.

use std::io;

/// An error produced while opening, reading, or writing a page store.
///
/// Every failure mode is a typed variant — corrupt files are *rejected*,
/// never a source of panics or undefined behavior.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with the store magic; it is not a page
    /// file (or it was truncated before the header).
    BadMagic,
    /// The file's format version is not one this build understands.
    BadVersion(u32),
    /// The header declares a page size different from [`PAGE_SIZE`]
    /// (`crate::PAGE_SIZE`).
    BadPageSize(u32),
    /// The header checksum does not match the header bytes.
    HeaderChecksum,
    /// The file is shorter than its header says it should be.
    Truncated {
        /// Bytes the header implies the file holds.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The header's root page id is outside the file.
    BadRoot {
        /// The out-of-range root page id.
        root: u32,
        /// Number of pages in the file.
        page_count: u32,
    },
    /// A page read produced bytes whose checksum does not match the
    /// checksum recorded at write time: the page is corrupt.
    PageChecksum {
        /// The corrupt page.
        page: u32,
    },
    /// A read referenced a page id beyond the file.
    PageOutOfRange {
        /// The requested page.
        page: u32,
        /// Number of pages in the store.
        page_count: u32,
    },
    /// The store holds no pages (a page file must at least hold a root).
    Empty,
    /// A write, grow, or commit was attempted on a store without a
    /// write path: a read-only backend, or a page file opened without
    /// write permission.
    ReadOnly,
    /// The store would hold more pages than its `u32` page ids can
    /// number.
    TooManyPages,
    /// A read or write buffer was not a whole number of pages (one
    /// page for single-page reads and writes); carries its length.
    BadBufferSize(usize),
    /// Another live process holds the advisory lock on this page file:
    /// opening (or re-creating) it now could corrupt a reader. The lock
    /// is a `<name>.lock` sibling; a crashed holder's stale lock is
    /// reclaimed automatically when its process is gone.
    Locked {
        /// Path of the lock file that is held.
        lock_path: std::path::PathBuf,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "page store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a page file (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported page file version {v}"),
            StoreError::BadPageSize(s) => write!(f, "unsupported page size {s}"),
            StoreError::HeaderChecksum => write!(f, "header checksum mismatch"),
            StoreError::Truncated { expected, actual } => {
                write!(f, "file truncated: expected {expected} bytes, found {actual}")
            }
            StoreError::BadRoot { root, page_count } => {
                write!(f, "root page {root} out of range (file holds {page_count} pages)")
            }
            StoreError::PageChecksum { page } => {
                write!(f, "checksum mismatch reading page {page} (corrupt page)")
            }
            StoreError::PageOutOfRange { page, page_count } => {
                write!(f, "page {page} out of range (store holds {page_count} pages)")
            }
            StoreError::Empty => write!(f, "page store holds no pages"),
            StoreError::ReadOnly => write!(
                f,
                "page store is read-only (a read-only backend, or a page file opened \
                 without write permission)"
            ),
            StoreError::TooManyPages => write!(f, "page count overflows u32 page ids"),
            StoreError::BadBufferSize(len) => {
                write!(f, "buffer of {len} bytes is not a whole number of pages")
            }
            StoreError::Locked { lock_path } => {
                write!(
                    f,
                    "page file is locked by another process (lock file {})",
                    lock_path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::PageChecksum { page: 7 };
        assert!(e.to_string().contains("page 7"));
        let e = StoreError::Truncated { expected: 100, actual: 10 };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let e = StoreError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
    }
}
