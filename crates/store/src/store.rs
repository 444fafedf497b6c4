//! The [`PageStore`] trait and its two backends.
//!
//! A page store is a flat array of fixed-size pages plus a small
//! metadata record ([`StoreMeta`]). [`MemStore`] keeps the pages in a
//! `Vec` (the arena behavior the reproduction started with, now behind
//! the same interface); [`FileStore`] is a real on-disk page file, so
//! every physical read is an actual `read` syscall verified against a
//! checksum recorded at write time.
//!
//! # File layout (version 2, little-endian)
//!
//! Every page file supports in-place mutation with **copy-on-write
//! shadow paging**: dirty pages are always written to freshly allocated
//! page ids (never over a page reachable from the committed root), and
//! a commit is an atomic root flip between two ping-pong header slots.
//! Each page embeds its own CRC-32, so no central table has to change
//! alongside the flip.
//!
//! ```text
//! offset            size              field
//! 0                 4096              header slot 0
//! 4096              4096              header slot 1
//! 8192              count · 4096      data pages; bytes [4092..4096) of
//!                                     each page hold the CRC-32 of
//!                                     bytes [0..4092)
//! ```
//!
//! Each header slot:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"NWCPAGE\x01"
//! 8       4     format version (2)
//! 12      4     page size (4096)
//! 16      4     page count
//! 20      4     root page id
//! 24      32    user metadata (4 × u64, opaque)
//! 56      8     commit generation (u64, strictly increasing)
//! 64      4     CRC-32 of slot bytes 0..64
//! ```
//!
//! Generation `g` lives in slot `(g + 1) % 2`, so successive commits
//! alternate slots and a torn slot write can only hit the *previous*
//! commit's inactive slot. [`FileStore::commit`] orders `sync_all`
//! (data) → inactive-slot write → `sync_all` (header); open picks the
//! valid slot with the highest generation and falls back to the other
//! on a checksum mismatch, so a crash at any commit point reopens as
//! exactly the old or the new tree — the same all-or-nothing discipline
//! [`FileStore::create`]'s staged rename gives whole-file saves.
//!
//! Version 1 (a read-only format with one header page and a central
//! checksum table) is no longer read: [`FileStore::open`] refuses it
//! with [`StoreError::BadVersion`]`(1)`. Re-save such a file from its
//! source data.
//!
//! Data pages start on a page-aligned offset, so the operating system's
//! own page cache and read-ahead behave as they would for any database
//! file.

use crate::checksum::crc32;
use crate::error::StoreError;
use crate::PAGE_SIZE;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const MAGIC: [u8; 8] = *b"NWCPAGE\x01";
const VERSION: u32 = 2;
/// Bytes of a header slot that carry content (the rest of the slot's
/// page is padding): 64 header bytes + 4 CRC bytes.
const SLOT_LEN: usize = 68;
/// Per-page payload bytes (the final 4 bytes hold the page's embedded
/// CRC-32).
const PAGE_PAYLOAD: usize = PAGE_SIZE - 4;
/// Byte offset of data page 0: after the two header slots.
const DATA_OFFSET: u64 = 2 * PAGE_SIZE as u64;

/// Metadata describing a page store: its shape plus 32 opaque bytes for
/// the client (the R\*-tree packs its `TreeParams` and length there —
/// the store itself never interprets them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Size of every page, bytes. Always [`PAGE_SIZE`].
    pub page_size: u32,
    /// Number of pages in the store.
    pub page_count: u32,
    /// The client's designated root page (must be `< page_count`).
    pub root_page: u32,
    /// Opaque client words, persisted verbatim.
    pub user: [u64; 4],
}

impl StoreMeta {
    /// Metadata for a store of `page_count` pages rooted at `root_page`.
    pub fn new(page_count: u32, root_page: u32, user: [u64; 4]) -> Self {
        StoreMeta {
            page_size: PAGE_SIZE as u32,
            page_count,
            root_page,
            user,
        }
    }

    fn validate(&self) -> Result<(), StoreError> {
        if self.page_size != PAGE_SIZE as u32 {
            return Err(StoreError::BadPageSize(self.page_size));
        }
        if self.page_count == 0 {
            return Err(StoreError::Empty);
        }
        if self.root_page >= self.page_count {
            return Err(StoreError::BadRoot {
                root: self.root_page,
                page_count: self.page_count,
            });
        }
        Ok(())
    }
}

/// The page count of `pages`, or [`StoreError::TooManyPages`] when it
/// does not fit the format's `u32` page ids.
fn page_count_of<T>(pages: &[T]) -> Result<u32, StoreError> {
    u32::try_from(pages.len()).map_err(|_| StoreError::TooManyPages)
}

/// Rejects a page buffer that is not exactly one page long.
fn check_page_buf(len: usize) -> Result<(), StoreError> {
    if len == PAGE_SIZE {
        Ok(())
    } else {
        Err(StoreError::BadBufferSize(len))
    }
}

/// The little-endian `u32` at `buf[at..at + 4]`; `None` past the end.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

/// The little-endian `u64` at `buf[at..at + 8]`; `None` past the end.
fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// A read-only array of fixed-size pages with metadata.
///
/// Implementations are `Send + Sync`: queries run from many threads at
/// once, and the buffer pool calls [`PageStore::read_page`] on misses
/// from whichever thread missed. Every successful `read_page` counts as
/// one physical read.
pub trait PageStore: Send + Sync {
    /// The store's metadata record.
    fn meta(&self) -> StoreMeta;

    /// Reads page `page` into `buf` (which must be exactly
    /// [`PAGE_SIZE`] bytes), verifying integrity where the backend can.
    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError>;

    /// As [`PageStore::read_page`], but the read is **not** charged to
    /// the physical-read counter. For bookkeeping walks that the I/O
    /// accounting deliberately excludes (entry iteration, index builds,
    /// invariant checks) — never for query paths.
    fn read_page_uncounted(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError>;

    /// Reads `buf.len() / PAGE_SIZE` consecutive pages starting at
    /// `first` into `buf` — a batched bookkeeping read. Like
    /// [`PageStore::read_page_uncounted`] this is **not** charged to the
    /// physical-read counter. No library code calls it; it loops
    /// single-page reads. `buf` must be a whole number of pages.
    fn read_run_uncounted(&self, first: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        if !buf.len().is_multiple_of(PAGE_SIZE) {
            return Err(StoreError::BadBufferSize(buf.len()));
        }
        for (i, chunk) in buf.chunks_mut(PAGE_SIZE).enumerate() {
            let page = u32::try_from(i)
                .ok()
                .and_then(|i| first.checked_add(i))
                .ok_or(StoreError::TooManyPages)?;
            self.read_page_uncounted(page, chunk)?;
        }
        Ok(())
    }

    /// Number of successful physical page reads since construction or
    /// the last [`PageStore::reset_counters`].
    fn physical_reads(&self) -> u64;

    /// Zeroes the physical-read counter (e.g. after a warm-up scan).
    fn reset_counters(&self);

    /// Flushes any buffered writes to durable storage. A no-op for
    /// read-only and in-memory backends.
    fn sync(&self) -> Result<(), StoreError>;

    /// Whether this store accepts [`PageStore::write_page`],
    /// [`PageStore::grow`], and [`PageStore::commit`]. Read-only
    /// backends (the default) return `false`.
    fn is_writable(&self) -> bool {
        false
    }

    /// Writes `buf` (exactly [`PAGE_SIZE`] bytes) to page `page`.
    ///
    /// The final 4 bytes of every page are reserved for backend
    /// integrity metadata (the embedded CRC-32 of a [`FileStore`]);
    /// callers must leave them zero. The write is
    /// **not** durable until [`PageStore::commit`]; shadow-paging
    /// callers only ever write pages unreachable from the committed
    /// root, so a crash before commit cannot corrupt committed state.
    fn write_page(&self, _page: u32, _buf: &[u8]) -> Result<(), StoreError> {
        Err(StoreError::ReadOnly)
    }

    /// Appends `additional` zeroed pages, returning the id of the first
    /// new page. Growth is provisional until the next
    /// [`PageStore::commit`] records the enlarged page count.
    fn grow(&self, _additional: u32) -> Result<u32, StoreError> {
        Err(StoreError::ReadOnly)
    }

    /// Atomically publishes every write since the last commit: after
    /// `commit` returns, [`PageStore::meta`] reports `root_page`,
    /// `user`, and the grown page count, and a crash-reopen yields
    /// exactly this state. On failure the previously committed state
    /// remains intact and the caller may retry.
    fn commit(&self, _root_page: u32, _user: [u64; 4]) -> Result<(), StoreError> {
        Err(StoreError::ReadOnly)
    }
}

// A shared handle is a store: callers keep an `Arc` to a wrapped store
// (e.g. a `FaultStore`) for scripting and counters while the tree owns
// another clone of the same handle.
impl<S: PageStore + ?Sized> PageStore for Arc<S> {
    fn meta(&self) -> StoreMeta {
        (**self).meta()
    }

    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        (**self).read_page(page, buf)
    }

    fn read_page_uncounted(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        (**self).read_page_uncounted(page, buf)
    }

    fn physical_reads(&self) -> u64 {
        (**self).physical_reads()
    }

    fn reset_counters(&self) {
        (**self).reset_counters()
    }

    fn sync(&self) -> Result<(), StoreError> {
        (**self).sync()
    }

    fn is_writable(&self) -> bool {
        (**self).is_writable()
    }

    fn write_page(&self, page: u32, buf: &[u8]) -> Result<(), StoreError> {
        (**self).write_page(page, buf)
    }

    fn grow(&self, additional: u32) -> Result<u32, StoreError> {
        (**self).grow(additional)
    }

    fn commit(&self, root_page: u32, user: [u64; 4]) -> Result<(), StoreError> {
        (**self).commit(root_page, user)
    }
}

// ---------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------

/// An in-memory [`PageStore`]: pages live in a `Vec`. This is the
/// pre-storage-engine behavior behind the storage interface — useful for
/// tests and for buffer-pool experiments without touching a filesystem.
/// [`MemStore::new_writable`] opts into the write path (no durability —
/// commit just republishes the in-memory metadata), which lets tests
/// exercise shadow-paging clients without a filesystem.
pub struct MemStore {
    state: Mutex<MemState>,
    writable: bool,
    reads: AtomicU64,
}

struct MemState {
    /// Committed metadata. `page_count` lags `pages.len()` between a
    /// `grow` and the commit that publishes it.
    meta: StoreMeta,
    pages: Vec<[u8; PAGE_SIZE]>,
}

impl MemState {
    fn page_count(&self) -> u32 {
        // `new` and `grow` keep the page count within `u32`.
        self.pages.len() as u32
    }
}

impl MemStore {
    /// Builds a read-only store over `pages` rooted at `root_page`.
    pub fn new(
        pages: Vec<[u8; PAGE_SIZE]>,
        root_page: u32,
        user: [u64; 4],
    ) -> Result<MemStore, StoreError> {
        let meta = StoreMeta::new(page_count_of(&pages)?, root_page, user);
        meta.validate()?;
        Ok(MemStore {
            state: Mutex::new(MemState { meta, pages }),
            writable: false,
            reads: AtomicU64::new(0),
        })
    }

    /// As [`MemStore::new`], but accepting writes, growth, and commits.
    pub fn new_writable(
        pages: Vec<[u8; PAGE_SIZE]>,
        root_page: u32,
        user: [u64; 4],
    ) -> Result<MemStore, StoreError> {
        let mut store = MemStore::new(pages, root_page, user)?;
        store.writable = true;
        Ok(store)
    }

    fn lock_state(&self) -> MutexGuard<'_, MemState> {
        // Nothing in this module panics while holding the lock; recover
        // rather than cascade a caller's unwind.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access to one page, for corruption-injection in tests;
    /// `None` past the last page.
    pub fn page_mut(&mut self, page: u32) -> Option<&mut [u8; PAGE_SIZE]> {
        let state = self
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        state.pages.get_mut(page as usize)
    }
}

impl PageStore for MemStore {
    fn meta(&self) -> StoreMeta {
        self.lock_state().meta
    }

    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read_page_uncounted(page, buf)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read_page_uncounted(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        check_page_buf(buf.len())?;
        let state = self.lock_state();
        let src = state
            .pages
            .get(page as usize)
            .ok_or(StoreError::PageOutOfRange {
                page,
                page_count: state.page_count(),
            })?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn physical_reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn reset_counters(&self) {
        self.reads.store(0, Ordering::Relaxed);
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn is_writable(&self) -> bool {
        self.writable
    }

    fn write_page(&self, page: u32, buf: &[u8]) -> Result<(), StoreError> {
        if !self.writable {
            return Err(StoreError::ReadOnly);
        }
        check_page_buf(buf.len())?;
        let mut state = self.lock_state();
        let page_count = state.page_count();
        let dst = state
            .pages
            .get_mut(page as usize)
            .ok_or(StoreError::PageOutOfRange { page, page_count })?;
        dst.copy_from_slice(buf);
        Ok(())
    }

    fn grow(&self, additional: u32) -> Result<u32, StoreError> {
        if !self.writable {
            return Err(StoreError::ReadOnly);
        }
        let mut state = self.lock_state();
        let first = state.page_count();
        let total = first
            .checked_add(additional)
            .ok_or(StoreError::TooManyPages)?;
        state.pages.resize(total as usize, [0u8; PAGE_SIZE]);
        Ok(first)
    }

    fn commit(&self, root_page: u32, user: [u64; 4]) -> Result<(), StoreError> {
        if !self.writable {
            return Err(StoreError::ReadOnly);
        }
        let mut state = self.lock_state();
        let meta = StoreMeta::new(state.page_count(), root_page, user);
        meta.validate()?;
        state.meta = meta;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------

/// An on-disk [`PageStore`]: a page file with two checksummed header
/// slots and a CRC-32 embedded in every page (see the module docs).
/// Create one with [`FileStore::create`], open one with
/// [`FileStore::open`]. A file opened with write permission accepts
/// shadow-paged writes and commits; without it the store is read-only.
pub struct FileStore {
    // The pool serializes loads anyway, so a mutex (portable) costs no
    // extra contention over platform positioned-read APIs.
    file: Mutex<File>,
    /// Committed metadata: what a crash-reopen would observe.
    meta: Mutex<StoreMeta>,
    /// Committed commit generation.
    generation: AtomicU64,
    /// Total pages in the file, **including** grown-but-uncommitted
    /// ones — the bound for reads and writes. Equals the committed
    /// page count except between a [`FileStore::grow`] and the next
    /// commit.
    pages_total: AtomicU32,
    /// Whether the write path is available: the file was opened with
    /// write permission.
    writable: bool,
    reads: AtomicU64,
    /// Advisory path lock, released when the store drops.
    _lock: PathLock,
}

/// Encodes one header slot (a full page, content in the first
/// [`SLOT_LEN`] bytes). Generation `g` always lands in slot
/// `(g + 1) % 2`.
fn encode_header(meta: &StoreMeta, generation: u64) -> [u8; PAGE_SIZE] {
    let mut h = [0u8; PAGE_SIZE];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&meta.page_size.to_le_bytes());
    h[16..20].copy_from_slice(&meta.page_count.to_le_bytes());
    h[20..24].copy_from_slice(&meta.root_page.to_le_bytes());
    for (i, w) in meta.user.iter().enumerate() {
        h[24 + i * 8..32 + i * 8].copy_from_slice(&w.to_le_bytes());
    }
    h[56..64].copy_from_slice(&generation.to_le_bytes());
    let slot_crc = crc32(&h[0..64]);
    h[64..68].copy_from_slice(&slot_crc.to_le_bytes());
    h
}

/// The file offset of header slot `(generation + 1) % 2`.
fn slot_offset(generation: u64) -> u64 {
    ((generation + 1) % 2) * PAGE_SIZE as u64
}

/// Decodes `buf` as a header slot; `None` when the magic, checksum,
/// version, or metadata is invalid (a torn or never-written slot — the
/// caller falls back to the sibling slot).
fn parse_slot(buf: &[u8]) -> Option<(StoreMeta, u64)> {
    if buf.get(0..8)? != MAGIC {
        return None;
    }
    if crc32(buf.get(0..64)?) != le_u32(buf, 64)? || le_u32(buf, 8)? != VERSION {
        return None;
    }
    let mut user = [0u64; 4];
    for (i, w) in user.iter_mut().enumerate() {
        *w = le_u64(buf, 24 + i * 8)?;
    }
    let meta = StoreMeta {
        page_size: le_u32(buf, 12)?,
        page_count: le_u32(buf, 16)?,
        root_page: le_u32(buf, 20)?,
        user,
    };
    meta.validate().ok()?;
    Some((meta, le_u64(buf, 56)?))
}

/// Stamps the embedded CRC-32 trailer onto a copy of `page`. The
/// payload region is everything before the trailer.
fn stamp_page_crc(page: &[u8; PAGE_SIZE]) -> [u8; PAGE_SIZE] {
    let mut stamped = *page;
    let crc = crc32(&stamped[..PAGE_PAYLOAD]);
    stamped[PAGE_PAYLOAD..].copy_from_slice(&crc.to_le_bytes());
    stamped
}

/// Byte offset of data page `page`.
fn page_offset(page: u32) -> u64 {
    DATA_OFFSET + page as u64 * PAGE_SIZE as u64
}

/// The sibling temp path `create` stages its writes in: `<name>.tmp`
/// next to the target. Deterministic so [`FileStore::open`] can clean a
/// stray one left by a crash (the layer assumes a single writer per
/// path, which `save_to_path`-style callers satisfy).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "pagefile".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// The advisory lock sibling `<name>.lock` next to a page file.
fn lock_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "pagefile".into());
    name.push(".lock");
    path.with_file_name(name)
}

/// An exclusive advisory lock on a page-file path, held for the life of
/// a [`FileStore`] (reader or writer alike): a second process cannot
/// re-create a file an open reader is using, and a reader cannot open a
/// file mid-rewrite. Implemented as an `O_EXCL`-created `<name>.lock`
/// sibling holding the owner's pid; released (unlinked) on drop.
struct PathLock {
    path: PathBuf,
}

/// Whether the lock file's recorded owner is provably dead. Only
/// trustworthy where `/proc` exposes live pids (Linux); elsewhere be
/// conservative and treat the lock as held.
fn lock_holder_is_gone(lock_path: &Path) -> bool {
    if !Path::new("/proc/self").exists() {
        return false;
    }
    match fs::read_to_string(lock_path) {
        Ok(s) => match s.trim().parse::<u32>() {
            Ok(pid) => !Path::new(&format!("/proc/{pid}")).exists(),
            Err(_) => false,
        },
        Err(_) => false,
    }
}

impl PathLock {
    fn acquire(target: &Path) -> Result<PathLock, StoreError> {
        let lock_path = lock_sibling(target);
        // Two rounds: the second exists solely to grab a stale lock the
        // first round reclaimed from a crashed holder.
        for _ in 0..2 {
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(mut f) => {
                    // Best-effort pid tag — stale-lock reclaim reads it;
                    // the lock is valid even if the write fails.
                    let _ = f.write_all(std::process::id().to_string().as_bytes());
                    return Ok(PathLock { path: lock_path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if lock_holder_is_gone(&lock_path) {
                        fs::remove_file(&lock_path).ok();
                        continue;
                    }
                    return Err(StoreError::Locked { lock_path });
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(StoreError::Locked { lock_path })
    }
}

impl Drop for PathLock {
    fn drop(&mut self) {
        fs::remove_file(&self.path).ok();
    }
}

/// Fsyncs `path`'s parent directory so a just-renamed entry is durable.
fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // Directories cannot be opened for syncing on every platform; only
    // where the platform refuses the open is the rename itself the best
    // available guarantee. Any other open failure — like any sync
    // failure — is a real durability error and must surface.
    match File::open(parent) {
        Ok(dir) => dir.sync_all(),
        Err(e) if matches!(
            e.kind(),
            io::ErrorKind::Unsupported | io::ErrorKind::PermissionDenied
        ) =>
        {
            Ok(())
        }
        Err(e) => Err(e),
    }
}

impl FileStore {
    /// Writes a new page file at `path` (replacing any existing file)
    /// and returns the opened, writable store.
    ///
    /// The replacement is **all-or-nothing**: bytes are staged in a
    /// sibling `<name>.tmp`, fsynced, then atomically renamed over
    /// `path`, and the parent directory is fsynced so the rename itself
    /// is durable. A crash at any point leaves either the old file or
    /// the new one — never a truncated hybrid — plus at worst a stray
    /// temp file that [`FileStore::open`] cleans up.
    ///
    /// Each page's final 4 bytes are overwritten with its embedded
    /// CRC-32 trailer, so callers must leave them zero.
    ///
    /// The path's advisory lock is taken first and held until the
    /// returned store drops: while another process has the file open
    /// (reading or writing), `create` returns [`StoreError::Locked`]
    /// instead of rewriting pages under an active reader.
    pub fn create(
        path: &Path,
        root_page: u32,
        user: [u64; 4],
        pages: &[[u8; PAGE_SIZE]],
    ) -> Result<FileStore, StoreError> {
        let lock = PathLock::acquire(path)?;
        let meta = StoreMeta::new(page_count_of(pages)?, root_page, user);
        meta.validate()?;
        let generation = 1u64;
        debug_assert_eq!(slot_offset(generation), 0, "first commit lives in slot 0");
        let header = encode_header(&meta, generation);

        let tmp = tmp_sibling(path);
        let write_and_swap = |tmp: &Path| -> Result<File, StoreError> {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(tmp)?;
            file.write_all(&header)?;
            // Slot 1 stays zeroed (invalid) until the first in-place
            // commit writes generation 2 there.
            file.write_all(&[0u8; PAGE_SIZE])?;
            for p in pages {
                debug_assert!(
                    p[PAGE_PAYLOAD..].iter().all(|&b| b == 0),
                    "page trailer bytes are reserved for the CRC"
                );
                file.write_all(&stamp_page_crc(p))?;
            }
            file.sync_all()?;
            // The handle stays valid across the rename (same inode).
            fs::rename(tmp, path)?;
            fsync_parent_dir(path)?;
            Ok(file)
        };
        let file = write_and_swap(&tmp).inspect_err(|_| {
            // Failed mid-stage: the target is untouched; drop the
            // half-written temp file if one was created.
            fs::remove_file(&tmp).ok();
        })?;

        Ok(FileStore {
            file: Mutex::new(file),
            meta: Mutex::new(meta),
            generation: AtomicU64::new(generation),
            pages_total: AtomicU32::new(meta.page_count),
            writable: true,
            reads: AtomicU64::new(0),
            _lock: lock,
        })
    }

    /// Opens an existing page file, validating the magic, version, page
    /// size, header slot checksums, root page and file length. Page
    /// checksums are verified on each read. Corrupt files are rejected
    /// with a typed [`StoreError`]; a version-1 file with
    /// [`StoreError::BadVersion`]`(1)`.
    ///
    /// The file opens writable when the filesystem permits (read-only
    /// otherwise). A file whose most recent header slot was torn by a
    /// crash falls back to the sibling slot — the previous committed
    /// state — and pages grown by a crashed, never-committed batch are
    /// trimmed.
    ///
    /// Holds the path's advisory lock for the store's lifetime, so a
    /// concurrent [`FileStore::create`] cannot rewrite the file under
    /// this reader — it gets [`StoreError::Locked`] instead.
    pub fn open(path: &Path) -> Result<FileStore, StoreError> {
        let lock = PathLock::acquire(path)?;
        // A stray staging file here means a previous save crashed after
        // writing it but before (or during) the rename. It is never the
        // authoritative copy — remove it best-effort and ignore failure
        // (e.g. something unrelated occupies the name).
        fs::remove_file(tmp_sibling(path)).ok();
        let mut file = File::open(path)?;
        let read_slot = |file: &mut File, offset: u64| -> Option<[u8; SLOT_LEN]> {
            let mut buf = [0u8; SLOT_LEN];
            (file.seek(SeekFrom::Start(offset)).is_ok() && file.read_exact(&mut buf).is_ok())
                .then_some(buf)
        };
        let slot0 = read_slot(&mut file, 0);
        let slot1 = read_slot(&mut file, PAGE_SIZE as u64);
        // Pick the valid slot with the highest generation. Slot 0 may
        // have been torn mid-write while slot 1 still holds a committed
        // state.
        let best = [slot0, slot1]
            .into_iter()
            .flatten()
            .filter_map(|s| parse_slot(&s))
            .max_by_key(|&(_, generation)| generation);
        let Some((meta, generation)) = best else {
            // Neither slot is valid: say why, from slot 0's own bytes.
            return Err(match slot0.filter(|s| s[0..8] == MAGIC) {
                None => StoreError::BadMagic,
                Some(s) => match le_u32(&s, 8) {
                    Some(VERSION) => StoreError::HeaderChecksum,
                    other => StoreError::BadVersion(other.unwrap_or(0)),
                },
            });
        };

        let expected = page_offset(meta.page_count);
        let actual = file.metadata()?.len();
        if actual < expected {
            return Err(StoreError::Truncated { expected, actual });
        }
        drop(file);
        let (file, writable) = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => (f, true),
            // A read-only filesystem or permissions still serve queries.
            Err(_) => (File::open(path)?, false),
        };
        if writable && actual > expected {
            // Pages grown by a crashed, never-committed mutation batch:
            // unreachable from the committed root by the shadow-paging
            // discipline, so truncating them loses nothing.
            file.set_len(expected)?;
        }
        Ok(FileStore {
            file: Mutex::new(file),
            meta: Mutex::new(meta),
            generation: AtomicU64::new(generation),
            pages_total: AtomicU32::new(meta.page_count),
            writable,
            reads: AtomicU64::new(0),
            _lock: lock,
        })
    }

    /// The store's committed commit generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    fn lock_file(&self) -> MutexGuard<'_, File> {
        // A panic while holding the file lock (it cannot happen in
        // this body, but a caller's unwind could in principle cross
        // it) leaves no broken invariant: recover, don't propagate.
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_meta(&self) -> MutexGuard<'_, StoreMeta> {
        self.meta.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rejects `page` past the file's current extent.
    fn check_in_range(&self, page: u32) -> Result<(), StoreError> {
        let total = self.pages_total.load(Ordering::Relaxed);
        if page < total {
            Ok(())
        } else {
            Err(StoreError::PageOutOfRange {
                page,
                page_count: total,
            })
        }
    }
}

impl PageStore for FileStore {
    fn meta(&self) -> StoreMeta {
        *self.lock_meta()
    }

    fn read_page(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        self.read_page_uncounted(page, buf)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read_page_uncounted(&self, page: u32, buf: &mut [u8]) -> Result<(), StoreError> {
        check_page_buf(buf.len())?;
        self.check_in_range(page)?;
        {
            let mut file = self.lock_file();
            file.seek(SeekFrom::Start(page_offset(page)))?;
            file.read_exact(buf)?;
        }
        // Verify the page's bytes against its embedded trailer.
        if le_u32(buf, PAGE_PAYLOAD) == Some(crc32(&buf[..PAGE_PAYLOAD])) {
            Ok(())
        } else {
            Err(StoreError::PageChecksum { page })
        }
    }

    fn physical_reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn reset_counters(&self) {
        self.reads.store(0, Ordering::Relaxed);
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(self.lock_file().sync_all()?)
    }

    fn is_writable(&self) -> bool {
        self.writable
    }

    fn write_page(&self, page: u32, buf: &[u8]) -> Result<(), StoreError> {
        if !self.writable {
            return Err(StoreError::ReadOnly);
        }
        let page_bytes: &[u8; PAGE_SIZE] = buf
            .try_into()
            .map_err(|_| StoreError::BadBufferSize(buf.len()))?;
        self.check_in_range(page)?;
        let stamped = stamp_page_crc(page_bytes);
        let mut file = self.lock_file();
        file.seek(SeekFrom::Start(page_offset(page)))?;
        file.write_all(&stamped)?;
        Ok(())
    }

    fn grow(&self, additional: u32) -> Result<u32, StoreError> {
        if !self.writable {
            return Err(StoreError::ReadOnly);
        }
        // Hold the file lock so concurrent grows serialize their
        // (load, set_len, store) sequences.
        let file = self.lock_file();
        let first = self.pages_total.load(Ordering::Relaxed);
        let total = first
            .checked_add(additional)
            .ok_or(StoreError::TooManyPages)?;
        file.set_len(page_offset(total))?;
        self.pages_total.store(total, Ordering::Relaxed);
        Ok(first)
    }

    fn commit(&self, root_page: u32, user: [u64; 4]) -> Result<(), StoreError> {
        if !self.writable {
            return Err(StoreError::ReadOnly);
        }
        let total = self.pages_total.load(Ordering::Relaxed);
        let meta = StoreMeta::new(total, root_page, user);
        meta.validate()?;
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let header = encode_header(&meta, generation);
        {
            let mut file = self.lock_file();
            // Ordering is the crash-consistency contract: data pages
            // durable *before* the root flip is written, the flip
            // durable before the commit reports success. A crash
            // between the syncs leaves the old slot authoritative (the
            // new slot is either absent or torn, and torn slots fail
            // their CRC at open).
            file.sync_all()?;
            file.seek(SeekFrom::Start(slot_offset(generation)))?;
            file.write_all(&header)?;
            file.sync_all()?;
        }
        *self.lock_meta() = meta;
        self.generation.store(generation, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Patterned pages with the CRC trailer left zero, as writers must.
    fn sample_pages(n: usize) -> Vec<[u8; PAGE_SIZE]> {
        (0..n)
            .map(|i| {
                let mut p = [0u8; PAGE_SIZE];
                for (j, b) in p[..PAGE_PAYLOAD].iter_mut().enumerate() {
                    *b = ((i * 131 + j * 7) % 251) as u8;
                }
                p
            })
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nwc_store_test_{}_{name}", std::process::id()))
    }

    /// Asserts every page of `store` reads back as `pages` (payload
    /// bytes; a file store fills the trailer with the page's CRC).
    fn assert_pages(store: &dyn PageStore, pages: &[[u8; PAGE_SIZE]]) {
        let mut buf = [0u8; PAGE_SIZE];
        for (i, want) in pages.iter().enumerate() {
            store.read_page(i as u32, &mut buf).unwrap();
            assert_eq!(buf[..PAGE_PAYLOAD], want[..PAGE_PAYLOAD], "page {i}");
        }
    }

    #[test]
    fn memstore_roundtrip_and_counting() {
        let store = MemStore::new(sample_pages(5), 2, [9, 8, 7, 6]).unwrap();
        assert_eq!(store.meta().page_count, 5);
        assert_eq!(store.meta().root_page, 2);
        assert_eq!(store.meta().user, [9, 8, 7, 6]);
        let mut buf = [0u8; PAGE_SIZE];
        store.read_page(4, &mut buf).unwrap();
        assert_eq!(buf[..], sample_pages(5)[4][..]);
        assert_eq!(store.physical_reads(), 1);
        store.reset_counters();
        assert_eq!(store.physical_reads(), 0);
        assert!(matches!(
            store.read_page(5, &mut buf),
            Err(StoreError::PageOutOfRange { page: 5, .. })
        ));
    }

    #[test]
    fn memstore_rejects_bad_root_and_empty() {
        assert!(matches!(
            MemStore::new(sample_pages(3), 3, [0; 4]),
            Err(StoreError::BadRoot { .. })
        ));
        assert!(matches!(
            MemStore::new(Vec::new(), 0, [0; 4]),
            Err(StoreError::Empty)
        ));
    }

    #[test]
    fn wrong_sized_buffers_are_typed_errors() {
        let mem = MemStore::new_writable(sample_pages(2), 0, [0; 4]).unwrap();
        let path = tmp("bad_buffer");
        let file = FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        for store in [&mem as &dyn PageStore, &file as &dyn PageStore] {
            let mut short = [0u8; 100];
            assert!(matches!(
                store.read_page(0, &mut short),
                Err(StoreError::BadBufferSize(100))
            ));
            assert!(matches!(
                store.write_page(0, &[0u8; PAGE_SIZE + 1]),
                Err(StoreError::BadBufferSize(len)) if len == PAGE_SIZE + 1
            ));
            let mut ragged = vec![0u8; PAGE_SIZE + 1];
            assert!(matches!(
                store.read_run_uncounted(0, &mut ragged),
                Err(StoreError::BadBufferSize(_))
            ));
            assert!(matches!(store.grow(u32::MAX), Err(StoreError::TooManyPages)));
        }
        drop(file);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filestore_create_open_read() {
        let path = tmp("roundtrip");
        let pages = sample_pages(7);
        {
            let store = FileStore::create(&path, 3, [1, 2, 3, 4], &pages).unwrap();
            assert!(store.is_writable());
            store.sync().unwrap();
        }
        let store = FileStore::open(&path).unwrap();
        assert!(store.is_writable(), "a file opened with write permission");
        assert_eq!(store.meta().page_count, 7);
        assert_eq!(store.meta().root_page, 3);
        assert_eq!(store.meta().user, [1, 2, 3, 4]);
        assert_pages(&store, &pages);
        assert_eq!(store.physical_reads(), 7);
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filestore_rejects_garbage_and_truncation() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a page file").unwrap();
        assert!(matches!(FileStore::open(&path), Err(StoreError::BadMagic)));

        let pages = sample_pages(4);
        FileStore::create(&path, 0, [0; 4], &pages).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - PAGE_SIZE]).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StoreError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filestore_detects_flipped_page_byte() {
        let path = tmp("bitrot");
        let pages = sample_pages(3);
        FileStore::create(&path, 0, [0; 4], &pages).unwrap();
        // Flip one byte in the middle of page 1's on-disk bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = DATA_OFFSET as usize + PAGE_SIZE + 100;
        bytes[victim] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let store = FileStore::open(&path).unwrap(); // header slots still fine
        let mut buf = [0u8; PAGE_SIZE];
        store.read_page(0, &mut buf).unwrap(); // untouched page still reads
        assert!(matches!(
            store.read_page(1, &mut buf),
            Err(StoreError::PageChecksum { page: 1 })
        ));
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filestore_detects_header_corruption() {
        let path = tmp("badheader");
        FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x01; // root page field of slot 0, the only valid slot
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StoreError::HeaderChecksum)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filestore_rejects_future_version() {
        let path = tmp("version");
        FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-stamp the slot checksum so only the version is "wrong".
        let crc = crc32(&bytes[0..64]);
        bytes[64..68].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StoreError::BadVersion(99))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filestore_refuses_version_1() {
        // A version-1 file: one header page (header CRC at 60..64), a
        // checksum-table page, then the data pages.
        let path = tmp("version1");
        let mut bytes = vec![0u8; 3 * PAGE_SIZE];
        bytes[0..8].copy_from_slice(&MAGIC);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        bytes[16..20].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[0..60]);
        bytes[60..64].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StoreError::BadVersion(1))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_resave_leaves_previous_file_intact() {
        let path = tmp("atomic_resave");
        let tmp_path = tmp_sibling(&path);
        std::fs::remove_dir_all(&tmp_path).ok();
        std::fs::remove_file(&tmp_path).ok();
        let good = sample_pages(3);
        FileStore::create(&path, 1, [5; 4], &good).unwrap();

        // Simulate a save that cannot complete: a directory squats on
        // the staging path, so the temp file can't even be opened.
        std::fs::create_dir(&tmp_path).unwrap();
        assert!(FileStore::create(&path, 0, [9; 4], &sample_pages(8)).is_err());
        std::fs::remove_dir_all(&tmp_path).unwrap();

        // The original save is untouched and fully readable.
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.meta().page_count, 3);
        assert_eq!(store.meta().root_page, 1);
        assert_eq!(store.meta().user, [5; 4]);
        assert_pages(&store, &good);
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_never_stages_in_the_target_path() {
        // While `create` is mid-write, the *target* must hold either
        // nothing or the complete previous file — verified here by
        // checking the staged temp name is a sibling, not the target,
        // and that no temp residue survives a successful save.
        let path = tmp("atomic_fresh");
        let staged = tmp_sibling(&path);
        assert_ne!(staged, path);
        assert_eq!(
            staged.file_name().unwrap().to_string_lossy(),
            format!("{}.tmp", path.file_name().unwrap().to_string_lossy())
        );
        FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        assert!(path.exists());
        assert!(!staged.exists(), "no temp residue after a clean save");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stray_temp_file_is_cleaned_on_open() {
        let path = tmp("stray_tmp");
        FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        // A crashed writer left a half-written staging file behind.
        let stray = tmp_sibling(&path);
        std::fs::write(&stray, b"half-written wreckage").unwrap();
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.meta().page_count, 2);
        assert!(!stray.exists(), "open cleans the stray staging file");
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rename_keeps_open_handle_valid() {
        // `create` returns a store backed by the handle it staged with;
        // after the rename (and even after unlinking the file) reads
        // must keep working through that handle.
        let path = tmp("handle_valid");
        let pages = sample_pages(4);
        let store = FileStore::create(&path, 0, [0; 4], &pages).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_pages(&store, &pages);
    }

    #[test]
    fn uncounted_reads_do_not_move_the_counter() {
        let store = MemStore::new(sample_pages(2), 0, [0; 4]).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        store.read_page_uncounted(0, &mut buf).unwrap();
        store.read_page_uncounted(1, &mut buf).unwrap();
        assert_eq!(store.physical_reads(), 0);
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(store.physical_reads(), 1);

        let path = tmp("uncounted");
        let fstore = FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        fstore.read_page_uncounted(1, &mut buf).unwrap();
        assert_eq!(fstore.physical_reads(), 0);
        fstore.read_page(1, &mut buf).unwrap();
        assert_eq!(fstore.physical_reads(), 1);
        drop(fstore);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn default_run_reads_match_single_page_reads_and_stay_uncounted() {
        let pages = sample_pages(6);
        let mem = MemStore::new(pages.clone(), 0, [0; 4]).unwrap();
        let mut buf = vec![0u8; 3 * PAGE_SIZE];
        mem.read_run_uncounted(2, &mut buf).unwrap();
        for i in 0..3 {
            assert_eq!(
                buf[i * PAGE_SIZE..(i + 1) * PAGE_SIZE],
                pages[2 + i][..],
                "run page {i}"
            );
        }
        assert_eq!(mem.physical_reads(), 0, "run reads are uncounted");
        // A run past the end is rejected, not truncated.
        assert!(matches!(
            mem.read_run_uncounted(4, &mut buf),
            Err(StoreError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn lock_blocks_writer_while_reader_is_open() {
        let path = tmp("lock_writer_out");
        FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        let reader = FileStore::open(&path).unwrap();
        // A second writer must not rewrite pages under the open reader.
        assert!(matches!(
            FileStore::create(&path, 0, [0; 4], &sample_pages(3)),
            Err(StoreError::Locked { .. })
        ));
        // The reader is fully usable throughout.
        assert_pages(&reader, &sample_pages(2));
        drop(reader);
        // Lock released with the reader: the rewrite now goes through.
        let store = FileStore::create(&path, 0, [0; 4], &sample_pages(3)).unwrap();
        assert_eq!(store.meta().page_count, 3);
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lock_blocks_reader_while_writer_holds_the_file() {
        let path = tmp("lock_reader_out");
        let writer = FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        // A reader opening mid-write (the writer's store is still live)
        // is refused rather than handed a file that may be rewritten.
        assert!(matches!(
            FileStore::open(&path),
            Err(StoreError::Locked { .. })
        ));
        drop(writer);
        let reader = FileStore::open(&path).unwrap();
        assert_eq!(reader.meta().page_count, 2);
        drop(reader);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_lock_from_dead_process_is_reclaimed() {
        let path = tmp("lock_stale");
        FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        // Forge a lock owned by an impossible pid (Linux pid_max is far
        // below u32::MAX), as a crashed holder would leave behind.
        std::fs::write(lock_sibling(&path), u32::MAX.to_string()).unwrap();
        if Path::new("/proc/self").exists() {
            let store = FileStore::open(&path).expect("stale lock reclaimed");
            assert_eq!(store.meta().page_count, 2);
            drop(store);
        } else {
            // Without /proc there is no liveness oracle: stay locked.
            assert!(matches!(
                FileStore::open(&path),
                Err(StoreError::Locked { .. })
            ));
            std::fs::remove_file(lock_sibling(&path)).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_create_releases_the_lock() {
        let path = tmp("lock_failed_create");
        let tmp_path = tmp_sibling(&path);
        std::fs::remove_dir_all(&tmp_path).ok();
        // Make the staging write fail: a directory squats on the path.
        std::fs::create_dir(&tmp_path).unwrap();
        assert!(FileStore::create(&path, 0, [0; 4], &sample_pages(2)).is_err());
        std::fs::remove_dir_all(&tmp_path).unwrap();
        assert!(
            !lock_sibling(&path).exists(),
            "a failed create must not leave the path locked"
        );
        FileStore::create(&path, 0, [0; 4], &sample_pages(2)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arc_handle_is_a_store() {
        let shared = Arc::new(MemStore::new(sample_pages(2), 0, [0; 4]).unwrap());
        let handle: Arc<MemStore> = Arc::clone(&shared);
        let mut buf = [0u8; PAGE_SIZE];
        handle.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[..], sample_pages(2)[1][..]);
        assert_eq!(shared.physical_reads(), 1, "counters shared across clones");
    }
}
