//! Deterministic fault injection and resource-budget primitives for the
//! persistence stack.
//!
//! The snapshot/WAL layer talks to the filesystem through the
//! [`StorageBackend`] trait instead of calling `std::fs` directly. Every
//! I/O call names the [`Failpoint`] it executes under, which gives tests a
//! stable vocabulary for scheduling failures: [`RealFs`] ignores the names
//! and forwards to the operating system, while [`FaultyFs`] is a pure
//! in-memory filesystem with an explicit *volatile vs. durable* split that
//! can fail the Nth operation at a failpoint, tear a write, lie about an
//! fsync, or return transient `EAGAIN`-style errors — all reproducibly from
//! a seed, with no wall-clock or OS randomness involved.
//!
//! Two more pieces live here because they sit on the same persistence path:
//!
//! * [`RetryPolicy`] — bounded retries with exponential backoff and
//!   deterministic seeded jitter, applied to WAL appends and snapshot
//!   writes. Only *transient* errors ([`RetryPolicy::is_transient`]) are
//!   retried; permanent failures surface immediately.
//! * [`MemoryBudget`] — a cap on the resident state of a whole service.
//!   The service tier evicts its coldest tenants to their snapshot files
//!   while the budget is exceeded and recovers them on next touch
//!   (graceful degradation rather than unbounded growth).
//!
//! The crash model mirrors what the durability code assumes of a real
//! filesystem: writing mutates *volatile* content only; `fsync` on a file
//! commits its bytes; `fsync` on the parent directory commits namespace
//! operations (create/rename/remove). [`FaultyFs::crash`] discards
//! everything volatile, which is exactly the state a machine reboot would
//! leave behind. A journaling filesystem may also commit namespace
//! operations *early* (a periodic journal commit, or another file's
//! directory fsync); [`CrashFlavour::EarlyNamespace`] models that worst
//! case, so a crash sweep run under both flavours sees a rename reach the
//! disk before the renamed file's bytes.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The name of an instrumented I/O boundary in the persistence path.
///
/// Failpoints are plain `&'static str` constants (see [`failpoints`]) so
/// that tests, error messages, and the chaos sweep all share one stable
/// vocabulary.
pub type Failpoint = &'static str;

/// Named failpoints registered by the persistence path.
///
/// Each constant names one I/O operation a [`StorageBackend`] performs on
/// behalf of the streaming pipeline. The chaos harness iterates
/// [`failpoints::ALL`] and schedules a crash at every entry.
pub mod failpoints {
    use super::Failpoint;

    /// Creating the tmp sibling during an atomic snapshot.
    pub const SNAPSHOT_CREATE_TMP: Failpoint = "snapshot_to.create_tmp";
    /// Writing the encoded snapshot bytes into the tmp sibling.
    pub const SNAPSHOT_WRITE: Failpoint = "snapshot_to.write";
    /// Fsyncing the tmp sibling before the rename.
    pub const SNAPSHOT_SYNC: Failpoint = "snapshot_to.sync";
    /// Renaming the tmp sibling over the target path.
    pub const SNAPSHOT_RENAME: Failpoint = "snapshot_to.rename";
    /// Fsyncing the parent directory after the rename.
    pub const SNAPSHOT_DIR_SYNC: Failpoint = "snapshot_to.dir_sync";
    /// Removing the tmp sibling on the snapshot error path.
    pub const SNAPSHOT_REMOVE_TMP: Failpoint = "snapshot_to.remove_tmp";
    /// Opening (or creating) the WAL file in `attach_wal`.
    pub const WAL_OPEN: Failpoint = "attach_wal.open";
    /// Reading existing WAL contents in `attach_wal`.
    pub const WAL_READ: Failpoint = "attach_wal.read";
    /// Writing the WAL header into a freshly created log.
    pub const WAL_WRITE_HEADER: Failpoint = "attach_wal.write_header";
    /// Fsyncing the freshly written WAL header.
    pub const WAL_HEADER_SYNC: Failpoint = "attach_wal.header_sync";
    /// Fsyncing the parent directory after creating a fresh WAL.
    pub const WAL_DIR_SYNC: Failpoint = "attach_wal.dir_sync";
    /// Truncating a torn tail off the WAL in `attach_wal`.
    pub const WAL_TRUNCATE_TAIL: Failpoint = "attach_wal.truncate_tail";
    /// Appending an encoded record to the WAL.
    pub const WAL_APPEND: Failpoint = "wal.append";
    /// Fsyncing the WAL after an append, before acknowledging the batch.
    pub const WAL_APPEND_SYNC: Failpoint = "wal.sync";
    /// Truncating the WAL back to its header after a durable snapshot.
    pub const WAL_RESET: Failpoint = "wal.reset";
    /// Reading the snapshot file at the start of `recover`.
    pub const RECOVER_READ_SNAPSHOT: Failpoint = "recover.read_snapshot";
    /// Reading the WAL file during `recover`.
    pub const RECOVER_READ_WAL: Failpoint = "recover.read_wal";

    /// Every failpoint the persistence path registers, in pipeline order.
    ///
    /// The chaos sweep iterates this list and schedules a crash at each
    /// entry; keep it in sync when instrumenting new I/O boundaries.
    pub const ALL: &[Failpoint] = &[
        SNAPSHOT_CREATE_TMP,
        SNAPSHOT_WRITE,
        SNAPSHOT_SYNC,
        SNAPSHOT_RENAME,
        SNAPSHOT_DIR_SYNC,
        SNAPSHOT_REMOVE_TMP,
        WAL_OPEN,
        WAL_READ,
        WAL_WRITE_HEADER,
        WAL_HEADER_SYNC,
        WAL_DIR_SYNC,
        WAL_TRUNCATE_TAIL,
        WAL_APPEND,
        WAL_APPEND_SYNC,
        WAL_RESET,
        RECOVER_READ_SNAPSHOT,
        RECOVER_READ_WAL,
    ];
}

/// An open file handle obtained from a [`StorageBackend`].
///
/// Handles behave like a freshly opened `std::fs::File`: reads start at the
/// beginning, writes go to the end (handles are only ever opened in create
/// or append mode by the persistence path).
pub trait StorageFile {
    /// Write all of `bytes`, failing without a partial-success report.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error; a torn write may
    /// leave a prefix of `bytes` in volatile file content.
    fn write_all(&mut self, failpoint: Failpoint, bytes: &[u8]) -> io::Result<()>;

    /// Flush file content to durable storage.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error. A lying fsync
    /// returns `Ok` without committing anything.
    fn sync_all(&mut self, failpoint: Failpoint) -> io::Result<()>;

    /// Truncate (or zero-extend) the file to `len` bytes.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error.
    fn set_len(&mut self, failpoint: Failpoint, len: u64) -> io::Result<()>;

    /// Append the entire file content to `out`, returning the byte count.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error.
    fn read_to_end(&mut self, failpoint: Failpoint, out: &mut Vec<u8>) -> io::Result<usize>;
}

/// A pluggable filesystem used by the persistence path.
///
/// [`RealFs`] forwards to `std::fs`; [`FaultyFs`] is a deterministic
/// in-memory filesystem with crash semantics and scheduled faults. All
/// methods take the [`Failpoint`] they execute under so fault plans can
/// target individual operations.
pub trait StorageBackend: fmt::Debug {
    /// Create (truncating) a file for writing.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error.
    fn create(&self, failpoint: Failpoint, path: &Path) -> io::Result<Box<dyn StorageFile + Send>>;

    /// Open a file for reading and appending, creating it if absent.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error.
    fn open_append(
        &self,
        failpoint: Failpoint,
        path: &Path,
    ) -> io::Result<Box<dyn StorageFile + Send>>;

    /// Read an entire file into memory.
    ///
    /// # Errors
    /// Returns `ErrorKind::NotFound` for missing files (callers rely on
    /// this to distinguish first boot from corruption) or the injected
    /// fault.
    fn read(&self, failpoint: Failpoint, path: &Path) -> io::Result<Vec<u8>>;

    /// Atomically rename `from` to `to`.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error.
    fn rename(&self, failpoint: Failpoint, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error.
    fn remove_file(&self, failpoint: Failpoint, path: &Path) -> io::Result<()>;

    /// Fsync a directory, committing namespace operations beneath it.
    ///
    /// # Errors
    /// Propagates the underlying (or injected) I/O error.
    fn sync_dir(&self, failpoint: Failpoint, path: &Path) -> io::Result<()>;
}

/// The production [`StorageBackend`]: forwards every call to `std::fs` and
/// ignores failpoint names.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

#[derive(Debug)]
struct RealFile(std::fs::File);

impl StorageFile for RealFile {
    fn write_all(&mut self, _failpoint: Failpoint, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, bytes)
    }

    fn sync_all(&mut self, _failpoint: Failpoint) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, _failpoint: Failpoint, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn read_to_end(&mut self, _failpoint: Failpoint, out: &mut Vec<u8>) -> io::Result<usize> {
        io::Read::read_to_end(&mut self.0, out)
    }
}

impl StorageBackend for RealFs {
    fn create(
        &self,
        _failpoint: Failpoint,
        path: &Path,
    ) -> io::Result<Box<dyn StorageFile + Send>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn open_append(
        &self,
        _failpoint: Failpoint,
        path: &Path,
    ) -> io::Result<Box<dyn StorageFile + Send>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn read(&self, _failpoint: Failpoint, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, _failpoint: Failpoint, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, _failpoint: Failpoint, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, _failpoint: Failpoint, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
}

/// Forwarding impl so one shared backend (e.g. a [`FaultyFs`] driving many
/// tenants, or any backend handed out by a service) can be cloned cheaply
/// into every consumer as `Arc<dyn StorageBackend + Send + Sync>` and still
/// be passed wherever an owned `impl StorageBackend` is expected.
impl StorageBackend for Arc<dyn StorageBackend + Send + Sync> {
    fn create(&self, failpoint: Failpoint, path: &Path) -> io::Result<Box<dyn StorageFile + Send>> {
        (**self).create(failpoint, path)
    }

    fn open_append(
        &self,
        failpoint: Failpoint,
        path: &Path,
    ) -> io::Result<Box<dyn StorageFile + Send>> {
        (**self).open_append(failpoint, path)
    }

    fn read(&self, failpoint: Failpoint, path: &Path) -> io::Result<Vec<u8>> {
        (**self).read(failpoint, path)
    }

    fn rename(&self, failpoint: Failpoint, from: &Path, to: &Path) -> io::Result<()> {
        (**self).rename(failpoint, from, to)
    }

    fn remove_file(&self, failpoint: Failpoint, path: &Path) -> io::Result<()> {
        (**self).remove_file(failpoint, path)
    }

    fn sync_dir(&self, failpoint: Failpoint, path: &Path) -> io::Result<()> {
        (**self).sync_dir(failpoint, path)
    }
}

/// What a scheduled fault does when its operation comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Fail permanently with `ErrorKind::Other`.
    Fail,
    /// Write a seed-derived prefix of the payload, then fail.
    TornWrite,
    /// Report fsync success without committing anything to durable state.
    SyncLie,
    /// Fail with `ErrorKind::Interrupted` (retryable).
    Transient,
}

#[derive(Debug, Clone)]
struct ScheduledFault {
    failpoint: Failpoint,
    /// 1-based operation index at this failpoint where the fault arms.
    at: u64,
    kind: FaultKind,
    /// How many consecutive operations (from `at`) the fault covers.
    remaining: u32,
}

#[derive(Debug, Default)]
struct Inode {
    /// Volatile content: what readers observe, lost on crash.
    content: Vec<u8>,
    /// Durable content: what survives a crash. `None` until first fsync.
    durable: Option<Vec<u8>>,
}

/// What a [`FaultyFs::crash`] keeps of the namespace. File contents revert
/// to their last fsync under either flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashFlavour {
    /// Only namespace operations a directory fsync committed survive.
    #[default]
    DirSyncedNamespace,
    /// Every namespace operation survives — creates, renames and removals
    /// alike — as if the journal had committed each one before the crash.
    EarlyNamespace,
}

#[derive(Debug, Default)]
struct FaultyState {
    seed: u64,
    flavour: CrashFlavour,
    inodes: Vec<Inode>,
    /// Volatile namespace: path → inode, lost on crash.
    live_dir: BTreeMap<PathBuf, usize>,
    /// Durable namespace: survives a crash; updated by directory fsync.
    durable_dir: BTreeMap<PathBuf, usize>,
    faults: Vec<ScheduledFault>,
    ops: BTreeMap<Failpoint, u64>,
}

impl FaultyState {
    /// Count the operation and return the armed fault kind, if any.
    fn begin_op(&mut self, failpoint: Failpoint) -> Option<FaultKind> {
        let count = self.ops.entry(failpoint).or_insert(0);
        *count += 1;
        let count = *count;
        for fault in &mut self.faults {
            if fault.failpoint == failpoint && count >= fault.at && fault.remaining > 0 {
                fault.remaining -= 1;
                return Some(fault.kind);
            }
        }
        None
    }

    fn injected(failpoint: Failpoint, kind: FaultKind) -> io::Error {
        match kind {
            FaultKind::Transient => io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient fault at {failpoint}"),
            ),
            _ => io::Error::other(format!("injected fault at {failpoint}")),
        }
    }
}

/// A deterministic in-memory filesystem with crash semantics and scheduled
/// faults.
///
/// Cloning is cheap and shares state, so a test can keep a handle while the
/// pipeline owns another. The volatile/durable split mirrors a real
/// filesystem: writes mutate volatile content, file fsync commits bytes,
/// directory fsync commits namespace entries, and [`crash`](Self::crash)
/// drops everything volatile.
///
/// All scheduling is seed-driven ([`with_seed`](Self::with_seed)); two runs
/// with the same seed and fault plan observe byte-identical behaviour.
#[derive(Debug, Clone, Default)]
pub struct FaultyFs {
    state: Arc<Mutex<FaultyState>>,
}

impl FaultyFs {
    /// An empty filesystem with seed 0 and no scheduled faults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty filesystem whose torn-write prefixes derive from `seed`.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        let fs = Self::default();
        fs.lock().seed = seed;
        fs
    }

    /// The same filesystem, crashing with `flavour` from now on.
    #[must_use]
    pub fn with_crash_flavour(self, flavour: CrashFlavour) -> Self {
        self.lock().flavour = flavour;
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultyState> {
        self.state.lock().expect("FaultyFs mutex poisoned")
    }

    /// Schedule the `nth` (1-based) operation at `failpoint` to fail
    /// permanently.
    pub fn fail_nth(&self, failpoint: Failpoint, nth: u64) {
        self.schedule(failpoint, nth, FaultKind::Fail, 1);
    }

    /// Schedule the `nth` (1-based) write at `failpoint` to tear: a
    /// seed-derived prefix of the payload lands in volatile content, then
    /// the write fails.
    pub fn torn_write_nth(&self, failpoint: Failpoint, nth: u64) {
        self.schedule(failpoint, nth, FaultKind::TornWrite, 1);
    }

    /// Schedule the `nth` (1-based) fsync at `failpoint` to lie: report
    /// success without committing anything durable.
    pub fn lie_on_sync_nth(&self, failpoint: Failpoint, nth: u64) {
        self.schedule(failpoint, nth, FaultKind::SyncLie, 1);
    }

    /// Schedule `count` consecutive operations at `failpoint`, starting at
    /// the `nth` (1-based), to fail with retryable `ErrorKind::Interrupted`.
    pub fn transient_nth(&self, failpoint: Failpoint, nth: u64, count: u32) {
        self.schedule(failpoint, nth, FaultKind::Transient, count);
    }

    fn schedule(&self, failpoint: Failpoint, at: u64, kind: FaultKind, remaining: u32) {
        self.lock().faults.push(ScheduledFault {
            failpoint,
            at,
            kind,
            remaining,
        });
    }

    /// Remove all scheduled faults (operation counters are preserved).
    pub fn clear_faults(&self) {
        self.lock().faults.clear();
    }

    /// How many operations have executed at `failpoint` so far.
    #[must_use]
    pub fn op_count(&self, failpoint: Failpoint) -> u64 {
        self.lock().ops.get(failpoint).copied().unwrap_or(0)
    }

    /// Simulate a machine crash: every volatile write is discarded, and so
    /// is every namespace change no directory fsync committed — unless the
    /// filesystem crashes with [`CrashFlavour::EarlyNamespace`], which keeps
    /// (and commits) the whole namespace as it stands.
    ///
    /// Handles held across a crash keep writing into detached inodes, as a
    /// process holding a stale descriptor would; tests drop the pipeline
    /// before crashing.
    pub fn crash(&self) {
        let mut state = self.lock();
        match state.flavour {
            CrashFlavour::DirSyncedNamespace => state.live_dir = state.durable_dir.clone(),
            CrashFlavour::EarlyNamespace => state.durable_dir = state.live_dir.clone(),
        }
        for inode in &mut state.inodes {
            inode.content = inode.durable.clone().unwrap_or_default();
        }
    }

    /// Paths currently visible in the (volatile) namespace, sorted.
    #[must_use]
    pub fn live_paths(&self) -> Vec<PathBuf> {
        self.lock().live_dir.keys().cloned().collect()
    }

    /// Read a file's volatile content without counting an operation.
    ///
    /// # Errors
    /// Returns `ErrorKind::NotFound` if the path is absent.
    pub fn peek(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.lock();
        let inode = state
            .live_dir
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        Ok(state.inodes[*inode].content.clone())
    }
}

/// A handle into a [`FaultyFs`] inode.
#[derive(Debug)]
struct FaultyFile {
    fs: FaultyFs,
    inode: usize,
}

impl StorageFile for FaultyFile {
    fn write_all(&mut self, failpoint: Failpoint, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.fs.lock();
        match state.begin_op(failpoint) {
            None | Some(FaultKind::SyncLie) => {
                state.inodes[self.inode].content.extend_from_slice(bytes);
                Ok(())
            }
            Some(FaultKind::TornWrite) => {
                let ops = state.ops.get(failpoint).copied().unwrap_or(0);
                let keep = if bytes.is_empty() {
                    0
                } else {
                    let roll = splitmix64(state.seed ^ hash_name(failpoint) ^ ops);
                    usize::try_from(roll % bytes.len() as u64).unwrap_or(0)
                };
                state.inodes[self.inode]
                    .content
                    .extend_from_slice(&bytes[..keep]);
                Err(io::Error::other(format!(
                    "injected torn write at {failpoint} (kept {keep} of {} bytes)",
                    bytes.len()
                )))
            }
            Some(kind) => Err(FaultyState::injected(failpoint, kind)),
        }
    }

    fn sync_all(&mut self, failpoint: Failpoint) -> io::Result<()> {
        let mut state = self.fs.lock();
        match state.begin_op(failpoint) {
            None => {
                let content = state.inodes[self.inode].content.clone();
                state.inodes[self.inode].durable = Some(content);
                Ok(())
            }
            // The lie: success reported, nothing committed.
            Some(FaultKind::SyncLie) => Ok(()),
            Some(kind) => Err(FaultyState::injected(failpoint, kind)),
        }
    }

    fn set_len(&mut self, failpoint: Failpoint, len: u64) -> io::Result<()> {
        let mut state = self.fs.lock();
        match state.begin_op(failpoint) {
            None | Some(FaultKind::SyncLie) => {
                let len = usize::try_from(len).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, "length exceeds address space")
                })?;
                state.inodes[self.inode].content.resize(len, 0);
                Ok(())
            }
            Some(kind) => Err(FaultyState::injected(failpoint, kind)),
        }
    }

    fn read_to_end(&mut self, failpoint: Failpoint, out: &mut Vec<u8>) -> io::Result<usize> {
        let mut state = self.fs.lock();
        match state.begin_op(failpoint) {
            None | Some(FaultKind::SyncLie) => {
                let content = &state.inodes[self.inode].content;
                out.extend_from_slice(content);
                Ok(content.len())
            }
            Some(kind) => Err(FaultyState::injected(failpoint, kind)),
        }
    }
}

impl StorageBackend for FaultyFs {
    fn create(&self, failpoint: Failpoint, path: &Path) -> io::Result<Box<dyn StorageFile + Send>> {
        let inode = {
            let mut state = self.lock();
            if let Some(kind) = state.begin_op(failpoint) {
                return Err(FaultyState::injected(failpoint, kind));
            }
            let inode = state.inodes.len();
            state.inodes.push(Inode::default());
            state.live_dir.insert(path.to_path_buf(), inode);
            inode
        };
        Ok(Box::new(FaultyFile {
            fs: self.clone(),
            inode,
        }))
    }

    fn open_append(
        &self,
        failpoint: Failpoint,
        path: &Path,
    ) -> io::Result<Box<dyn StorageFile + Send>> {
        let inode = {
            let mut state = self.lock();
            if let Some(kind) = state.begin_op(failpoint) {
                return Err(FaultyState::injected(failpoint, kind));
            }
            if let Some(existing) = state.live_dir.get(path) {
                *existing
            } else {
                let inode = state.inodes.len();
                state.inodes.push(Inode::default());
                state.live_dir.insert(path.to_path_buf(), inode);
                inode
            }
        };
        Ok(Box::new(FaultyFile {
            fs: self.clone(),
            inode,
        }))
    }

    fn read(&self, failpoint: Failpoint, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = self.lock();
        if let Some(kind) = state.begin_op(failpoint) {
            return Err(FaultyState::injected(failpoint, kind));
        }
        let inode = state
            .live_dir
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        Ok(state.inodes[*inode].content.clone())
    }

    fn rename(&self, failpoint: Failpoint, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if let Some(kind) = state.begin_op(failpoint) {
            return Err(FaultyState::injected(failpoint, kind));
        }
        let inode = state
            .live_dir
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        state.live_dir.insert(to.to_path_buf(), inode);
        Ok(())
    }

    fn remove_file(&self, failpoint: Failpoint, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        if let Some(kind) = state.begin_op(failpoint) {
            return Err(FaultyState::injected(failpoint, kind));
        }
        state
            .live_dir
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn sync_dir(&self, failpoint: Failpoint, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        match state.begin_op(failpoint) {
            None => {
                // Commit every namespace entry directly under `path`, and
                // drop durable entries that were renamed or removed away.
                let committed: Vec<(PathBuf, usize)> = state
                    .live_dir
                    .iter()
                    .filter(|(p, _)| in_dir(p, path))
                    .map(|(p, inode)| (p.clone(), *inode))
                    .collect();
                state.durable_dir.retain(|p, _| !in_dir(p, path));
                state.durable_dir.extend(committed);
                Ok(())
            }
            Some(FaultKind::SyncLie) => Ok(()),
            Some(kind) => Err(FaultyState::injected(failpoint, kind)),
        }
    }
}

/// Whether `path` is an entry directly under `dir`. A bare file name (whose
/// parent is empty) lives in `"."`, as it does on a real filesystem.
fn in_dir(path: &Path, dir: &Path) -> bool {
    match path.parent() {
        Some(parent) if parent.as_os_str().is_empty() => dir == Path::new("."),
        parent => parent == Some(dir),
    }
}

/// Bounded retry with exponential backoff and deterministic seeded jitter.
///
/// Only transient errors (`Interrupted`, `WouldBlock`, `TimedOut` — the
/// `EAGAIN`/`EINTR` family) are retried; everything else is treated as
/// permanent and surfaces immediately. Jitter derives from
/// `(jitter_seed, failpoint, attempt)` via splitmix64, so two processes
/// with the same seed back off identically — no wall clock or OS
/// randomness enters the persistence path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 1 ms base delay, 50 ms cap.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0x5354_504d,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    #[must_use]
    pub const fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// A test-friendly policy: `max_attempts` attempts with zero backoff.
    #[must_use]
    pub const fn immediate(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Whether an error is transient (worth retrying).
    #[must_use]
    pub fn is_transient(error: &io::Error) -> bool {
        matches!(
            error.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// The backoff before retry number `attempt` (1-based) at `failpoint`:
    /// exponential growth from `base_delay`, capped at `max_delay`, with
    /// the lower half jittered deterministically.
    #[must_use]
    pub fn backoff(&self, failpoint: Failpoint, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(1_u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_delay);
        let nanos = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
        if nanos == 0 {
            return Duration::ZERO;
        }
        let roll = splitmix64(self.jitter_seed ^ hash_name(failpoint) ^ u64::from(attempt));
        let jittered = nanos / 2 + roll % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }

    /// Run `op`, retrying transient failures up to `max_attempts` total
    /// attempts. Every retry increments `retries` (the counter surfaced in
    /// `checkpoint_meta` / `RecoveryReport`) and sleeps the jittered
    /// backoff for its attempt number.
    ///
    /// # Errors
    /// The last error, once attempts are exhausted or a permanent error
    /// occurs.
    pub fn run<T>(
        &self,
        failpoint: Failpoint,
        retries: &mut u64,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0_u32;
        loop {
            attempt += 1;
            match op() {
                Ok(value) => return Ok(value),
                Err(error) if Self::is_transient(&error) && attempt < attempts => {
                    *retries += 1;
                    let delay = self.backoff(failpoint, attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                Err(error) => return Err(error),
            }
        }
    }
}

/// A cap on the resident bytes of a multi-tenant service.
///
/// When the summed resident footprint of the live tenants exceeds the
/// budget after a request, the service evicts tenants coldest-first: each
/// victim takes a durable snapshot and drops its in-memory pipeline, and
/// its next request recovers it from that snapshot plus the WAL tail. The
/// budget never rejects data; it trades memory for snapshot and recovery
/// I/O, and a failed eviction leaves the tenant live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    max_live_bytes: u64,
}

impl MemoryBudget {
    /// A budget of `max_live_bytes` resident bytes.
    #[must_use]
    pub const fn bytes(max_live_bytes: u64) -> Self {
        Self { max_live_bytes }
    }

    /// The configured cap, in bytes.
    #[must_use]
    pub const fn max_live_bytes(&self) -> u64 {
        self.max_live_bytes
    }

    /// Whether a resident footprint of `live_bytes` exceeds the budget.
    #[must_use]
    pub const fn is_exceeded_by(&self, live_bytes: u64) -> bool {
        live_bytes > self.max_live_bytes
    }
}

/// `splitmix64`: the standard 64-bit finalizer-style mixer. Deterministic,
/// dependency-free, and good enough to decorrelate jitter and torn-write
/// prefixes across failpoints.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a failpoint name, used to decorrelate per-failpoint streams.
fn hash_name(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_content_survives_a_crash_and_volatile_does_not() {
        let fs = FaultyFs::new();
        let dir = Path::new("/d");
        let committed = dir.join("committed");
        let volatile = dir.join("volatile");

        let mut file = fs.create("t.create", &committed).unwrap();
        file.write_all("t.write", b"safe").unwrap();
        file.sync_all("t.sync").unwrap();
        fs.sync_dir("t.dir_sync", dir).unwrap();

        let mut file = fs.create("t.create", &volatile).unwrap();
        file.write_all("t.write", b"gone").unwrap();
        // No file or directory fsync for `volatile`.

        fs.crash();
        assert_eq!(fs.peek(&committed).unwrap(), b"safe");
        assert!(fs.peek(&volatile).is_err());
    }

    #[test]
    fn unsynced_directory_entry_is_lost_even_if_file_content_was_synced() {
        let fs = FaultyFs::new();
        let path = Path::new("/d/f");
        let mut file = fs.create("t.create", path).unwrap();
        file.write_all("t.write", b"bytes").unwrap();
        file.sync_all("t.sync").unwrap();
        // Content is durable but the namespace entry is not.
        fs.crash();
        assert!(fs.peek(path).is_err());
    }

    #[test]
    fn an_early_namespace_crash_keeps_names_but_reverts_unsynced_bytes() {
        let fs = FaultyFs::new().with_crash_flavour(CrashFlavour::EarlyNamespace);
        let dir = Path::new("/d");
        let old = dir.join("f");
        let tmp = dir.join("f.tmp");
        let mut file = fs.create("t.create", &old).unwrap();
        file.write_all("t.write", b"old").unwrap();
        file.sync_all("t.sync").unwrap();
        // Written and renamed over `old`, never synced: the rename survives
        // the crash, the bytes do not.
        let mut file = fs.create("t.create", &tmp).unwrap();
        file.write_all("t.write", b"new").unwrap();
        fs.rename("t.rename", &tmp, &old).unwrap();
        fs.crash();
        assert_eq!(fs.live_paths(), vec![old.clone()]);
        assert_eq!(fs.peek(&old).unwrap(), b"");
        // The kept namespace is durable from then on.
        fs.crash();
        assert_eq!(fs.live_paths(), vec![old]);
    }

    #[test]
    fn rename_is_volatile_until_directory_sync() {
        let fs = FaultyFs::new();
        let dir = Path::new("/d");
        let tmp = dir.join("f.tmp");
        let dst = dir.join("f");

        let mut file = fs.create("t.create", &tmp).unwrap();
        file.write_all("t.write", b"payload").unwrap();
        file.sync_all("t.sync").unwrap();
        fs.sync_dir("t.dir_sync", dir).unwrap();

        fs.rename("t.rename", &tmp, &dst).unwrap();
        fs.crash();
        // Rename was not committed: the tmp name is what survives.
        assert_eq!(fs.peek(&tmp).unwrap(), b"payload");
        assert!(fs.peek(&dst).is_err());

        fs.rename("t.rename", &tmp, &dst).unwrap();
        fs.sync_dir("t.dir_sync", dir).unwrap();
        fs.crash();
        assert_eq!(fs.peek(&dst).unwrap(), b"payload");
        assert!(fs.peek(&tmp).is_err());
    }

    #[test]
    fn fail_nth_arms_on_the_exact_operation() {
        let fs = FaultyFs::new();
        fs.fail_nth("t.write", 2);
        let mut file = fs.create("t.create", Path::new("/f")).unwrap();
        assert!(file.write_all("t.write", b"a").is_ok());
        let err = file.write_all("t.write", b"b").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(file.write_all("t.write", b"c").is_ok());
        assert_eq!(fs.op_count("t.write"), 3);
    }

    #[test]
    fn torn_write_keeps_a_proper_prefix_and_fails() {
        let fs = FaultyFs::with_seed(7);
        fs.torn_write_nth("t.write", 1);
        let path = Path::new("/f");
        let mut file = fs.create("t.create", path).unwrap();
        let payload = b"0123456789";
        assert!(file.write_all("t.write", payload).is_err());
        let kept = fs.peek(path).unwrap();
        assert!(kept.len() < payload.len());
        assert_eq!(&payload[..kept.len()], &kept[..]);
    }

    #[test]
    fn torn_write_prefix_is_deterministic_per_seed() {
        let lengths: Vec<usize> = [7, 7, 8]
            .iter()
            .map(|&seed| {
                let fs = FaultyFs::with_seed(seed);
                fs.torn_write_nth("t.write", 1);
                let mut file = fs.create("t.create", Path::new("/f")).unwrap();
                let _ = file.write_all("t.write", &[0_u8; 4096]);
                fs.peek(Path::new("/f")).unwrap().len()
            })
            .collect();
        assert_eq!(lengths[0], lengths[1]);
    }

    #[test]
    fn lying_sync_reports_success_but_commits_nothing() {
        let fs = FaultyFs::new();
        fs.lie_on_sync_nth("t.sync", 1);
        let dir = Path::new("/d");
        let path = dir.join("f");
        let mut file = fs.create("t.create", &path).unwrap();
        file.write_all("t.write", b"lost").unwrap();
        assert!(file.sync_all("t.sync").is_ok());
        fs.sync_dir("t.dir_sync", dir).unwrap();
        fs.crash();
        // The namespace entry survived (dir sync was honest) but content
        // was never committed.
        assert_eq!(fs.peek(&path).unwrap(), b"");
    }

    #[test]
    fn transient_faults_are_interrupted_and_bounded() {
        let fs = FaultyFs::new();
        fs.transient_nth("t.write", 1, 2);
        let mut file = fs.create("t.create", Path::new("/f")).unwrap();
        for _ in 0..2 {
            let err = file.write_all("t.write", b"x").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        assert!(file.write_all("t.write", b"x").is_ok());
    }

    #[test]
    fn retry_policy_retries_transient_and_counts() {
        let fs = FaultyFs::new();
        fs.transient_nth("t.write", 1, 2);
        let mut file = fs.create("t.create", Path::new("/f")).unwrap();
        let policy = RetryPolicy::immediate(3);
        let mut retries = 0;
        policy
            .run("t.write", &mut retries, || file.write_all("t.write", b"x"))
            .unwrap();
        assert_eq!(retries, 2);
        assert_eq!(fs.peek(Path::new("/f")).unwrap(), b"x");
    }

    #[test]
    fn retry_policy_gives_up_after_max_attempts() {
        let fs = FaultyFs::new();
        fs.transient_nth("t.write", 1, 10);
        let mut file = fs.create("t.create", Path::new("/f")).unwrap();
        let policy = RetryPolicy::immediate(3);
        let mut retries = 0;
        let err = policy
            .run("t.write", &mut retries, || file.write_all("t.write", b"x"))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_policy_does_not_retry_permanent_errors() {
        let fs = FaultyFs::new();
        fs.fail_nth("t.write", 1);
        let mut file = fs.create("t.create", Path::new("/f")).unwrap();
        let mut retries = 0;
        let err = RetryPolicy::default()
            .run("t.write", &mut retries, || file.write_all("t.write", b"x"))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(retries, 0);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            jitter_seed: 42,
        };
        let a1 = policy.backoff("fp", 1);
        let a1_again = policy.backoff("fp", 1);
        assert_eq!(a1, a1_again);
        // Jitter stays within [cap/2, cap].
        for attempt in 1..=8 {
            let d = policy.backoff("fp", attempt);
            assert!(d <= Duration::from_millis(4));
            assert!(d >= Duration::from_micros(500));
        }
        assert_eq!(RetryPolicy::none().backoff("fp", 3), Duration::ZERO);
    }

    #[test]
    fn memory_budget_compares_strictly() {
        let budget = MemoryBudget::bytes(100);
        assert!(!budget.is_exceeded_by(100));
        assert!(budget.is_exceeded_by(101));
        assert_eq!(budget.max_live_bytes(), 100);
    }

    #[test]
    fn failpoint_registry_is_unique_and_nonempty() {
        let mut names: Vec<&str> = failpoints::ALL.to_vec();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before >= 17);
    }

    #[test]
    fn real_fs_round_trips_through_the_trait() {
        let dir = std::env::temp_dir().join("stpm_fault_realfs_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        let fs = RealFs;
        let mut file = fs.create("t.create", &path).unwrap();
        file.write_all("t.write", b"bytes").unwrap();
        file.sync_all("t.sync").unwrap();
        drop(file);
        assert_eq!(fs.read("t.read", &path).unwrap(), b"bytes");
        let moved = dir.join("g");
        fs.rename("t.rename", &path, &moved).unwrap();
        fs.sync_dir("t.dir_sync", &dir).unwrap();
        let mut out = Vec::new();
        fs.open_append("t.open", &moved)
            .unwrap()
            .read_to_end("t.read", &mut out)
            .unwrap();
        assert_eq!(out, b"bytes");
        fs.remove_file("t.remove", &moved).unwrap();
        assert_eq!(
            fs.read("t.read", &moved).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
