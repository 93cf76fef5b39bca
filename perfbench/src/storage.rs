//! The storage backend of the durable workloads: `RealFs` with `fsync` made
//! a no-op, which is what `fsync` is on tmpfs.
//!
//! The benchmark keeps its state inside the working directory, which on a
//! shared VM usually sits on a disk-backed filesystem. There the latency of
//! one `fsync` (a journal commit, with block discards when the filesystem is
//! mounted with `discard`) moves several-fold from minute to minute with
//! other tenants' I/O, and it dominates a 2-granule service append. Every
//! other call — create, write, truncate, read, rename, remove — goes to the
//! real filesystem through `RealFs`, so the files, their sizes and the
//! recovery path are those of a real run.

use std::io;
use std::path::Path;
use stpm_core::{Failpoint, RealFs, StorageBackend, StorageFile};

#[derive(Debug, Clone, Copy, Default)]
pub struct NoSyncFs;

struct NoSyncFile(Box<dyn StorageFile + Send>);

impl StorageFile for NoSyncFile {
    fn write_all(&mut self, failpoint: Failpoint, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(failpoint, bytes)
    }

    fn sync_all(&mut self, _failpoint: Failpoint) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&mut self, failpoint: Failpoint, len: u64) -> io::Result<()> {
        self.0.set_len(failpoint, len)
    }

    fn read_to_end(&mut self, failpoint: Failpoint, out: &mut Vec<u8>) -> io::Result<usize> {
        self.0.read_to_end(failpoint, out)
    }
}

impl StorageBackend for NoSyncFs {
    fn create(&self, failpoint: Failpoint, path: &Path) -> io::Result<Box<dyn StorageFile + Send>> {
        Ok(Box::new(NoSyncFile(RealFs.create(failpoint, path)?)))
    }

    fn open_append(
        &self,
        failpoint: Failpoint,
        path: &Path,
    ) -> io::Result<Box<dyn StorageFile + Send>> {
        Ok(Box::new(NoSyncFile(RealFs.open_append(failpoint, path)?)))
    }

    fn read(&self, failpoint: Failpoint, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(failpoint, path)
    }

    fn rename(&self, failpoint: Failpoint, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(failpoint, from, to)
    }

    fn remove_file(&self, failpoint: Failpoint, path: &Path) -> io::Result<()> {
        RealFs.remove_file(failpoint, path)
    }

    fn sync_dir(&self, _failpoint: Failpoint, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}
