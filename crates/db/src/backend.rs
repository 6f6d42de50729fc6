//! Pluggable storage backends for the durability subsystem.
//!
//! The write-ahead log and snapshot machinery ([`crate::wal`]) never
//! touches the filesystem directly: every storage operation goes through
//! the [`DurableBackend`] trait, a KV-style layer of named byte objects
//! in one flat root, grown by appends and overwritten in place. Two
//! implementations ship here:
//!
//! * [`FileBackend`] — the default: one directory, one file per object,
//!   with the full fsync discipline (object data via `fdatasync`,
//!   object *names* via a directory fsync — a rename is not durable on
//!   ext4 until the parent directory is synced). It keeps the object it
//!   last overwrote open, so a WAL commit costs no open or close.
//! * [`MemBackend`] — an in-memory double that models crash semantics
//!   precisely: bytes appended or overwritten but not yet synced are
//!   undone by [`MemBackend::crash`], and object names created or
//!   renamed without a [`DurableBackend::sync_root`] revert. It also
//!   records the exact operation sequence, so tests can assert ordering
//!   contracts (e.g. "the directory is synced *after* the rename")
//!   instead of hoping.
//!
//! Fault injection composes from the outside: `tsm-signal` wraps any
//! backend in a seeded fault plan (fail / short write / reorder at
//! scheduled operation indices), mirroring the sample-stream
//! `FaultPlan` idiom.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// A flat namespace of named byte objects with explicit durability
/// points. All operations are atomic at the call level; the durability
/// *contract* is:
///
/// * bytes appended to or overwritten in an object are durable only
///   after [`DurableBackend::sync`] on that object returns, and that
///   sync persists the object's size with them;
/// * object names (creations, renames, removals) are durable only after
///   [`DurableBackend::sync_root`] returns.
///
/// Object names must be flat file names: path separators and `..` are
/// rejected with [`io::ErrorKind::InvalidInput`].
pub trait DurableBackend: Send + Sync + std::fmt::Debug {
    /// Every object name in the root, sorted ascending.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Size of `name` in bytes, or `None` when no such object exists.
    fn size(&self, name: &str) -> io::Result<Option<u64>>;

    /// The full contents of `name`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Appends `bytes` to `name`, creating the object if missing. The
    /// bytes are *not* durable until [`DurableBackend::sync`].
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Overwrites `bytes.len()` bytes of `name` starting at `offset`.
    /// The range must lie inside the existing object: this never grows
    /// it (that is what [`DurableBackend::append`] is for). Like an
    /// append, the bytes are *not* durable until
    /// [`DurableBackend::sync`]. Writing into space that was appended
    /// and synced earlier changes no metadata, which is what makes the
    /// WAL's commit cheap.
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> io::Result<()>;

    /// Makes every byte written to `name` so far durable, appended or
    /// overwritten, together with the object's size. Timestamps are not
    /// part of the contract.
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Truncates `name` to `len` bytes (torn-tail repair during
    /// recovery, trimming a sealed WAL segment). The shorter size is
    /// durable when this returns; bytes below `len` that were never
    /// synced still need a [`DurableBackend::sync`].
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Atomically renames `from` to `to`, replacing any existing `to`.
    /// The new *name* is not durable until [`DurableBackend::sync_root`].
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Removes `name`.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Makes the current set of object names durable (the directory
    /// fsync of the file backend).
    fn sync_root(&self) -> io::Result<()>;

    /// Atomically publishes a complete object: write to a sibling
    /// `.tmp`, sync the data, rename over `name`, then sync the root so
    /// the rename survives a crash. This is the snapshot write path; a
    /// crash at any point leaves either the old object or the complete
    /// new one, never a torn mix.
    fn publish(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = format!("{name}.tmp");
        if self.size(&tmp)?.is_some() {
            self.remove(&tmp)?;
        }
        self.append(&tmp, bytes)?;
        self.sync(&tmp)?;
        self.rename(&tmp, name)?;
        self.sync_root()
    }
}

fn validate_name(name: &str) -> io::Result<()> {
    let flat = !name.is_empty()
        && name != ".."
        && !name.contains('/')
        && !name.contains('\\')
        && !name.contains('\0');
    if flat {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("backend object name must be a flat file name, got {name:?}"),
        ))
    }
}

/// A positional write of all of `bytes` at `offset` (`pwrite` on Unix).
/// The file must not be in append mode: Linux appends an `O_APPEND`
/// `pwrite` whatever its offset.
#[cfg(unix)]
fn write_all_at(file: &File, bytes: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
}

#[cfg(not(unix))]
fn write_all_at(mut file: &File, bytes: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)
}

/// The object a [`FileBackend`] last overwrote, with its open file.
type OpenObject = Option<(String, Arc<File>)>;

/// The default [`DurableBackend`]: one directory, one file per object.
///
/// It keeps the object it last overwrote ([`DurableBackend::write_at`])
/// open, so the WAL's commit — an overwrite, then a sync — opens and
/// closes nothing. Appends open the file in append mode per call and
/// leave the cached handle alone. The handle's lock is a leaf: it is
/// held to look the handle up, to open and cache a new one, and across
/// a `rename` or `remove` that drops it, never across a write or a
/// sync.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    open: Mutex<OpenObject>,
}

impl FileBackend {
    /// Opens (creating if needed) `root` as a backend directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<FileBackend> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileBackend {
            root,
            open: Mutex::new(None),
        })
    }

    /// The backend's root directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> io::Result<PathBuf> {
        validate_name(name)?;
        Ok(self.root.join(name))
    }

    fn lock_open(&self) -> MutexGuard<'_, OpenObject> {
        match self.open.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The cached handle when it is `name`'s.
    fn cached(&self, name: &str) -> Option<Arc<File>> {
        match &*self.lock_open() {
            Some((open, file)) if open == name => Some(Arc::clone(file)),
            _ => None,
        }
    }

    /// Drops the cached handle when it belongs to one of `names` and
    /// returns the lock still held. A `rename` or `remove` holds it
    /// until the name has moved, so no concurrent `write_at` can cache
    /// the file the name held before.
    fn forget(&self, names: &[&str]) -> MutexGuard<'_, OpenObject> {
        let mut open = self.lock_open();
        if open
            .as_ref()
            .is_some_and(|(cached, _)| names.contains(&cached.as_str()))
        {
            *open = None;
        }
        open
    }
}

impl DurableBackend for FileBackend {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn size(&self, name: &str) -> io::Result<Option<u64>> {
        match std::fs::metadata(self.path(name)?) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name)?)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name)?)?;
        f.write_all(bytes)
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let file = {
            // Opened under the lock, so a concurrent `rename` or
            // `remove` of `name` cannot slip in between the open and
            // the caching and leave the handle on a file the name no
            // longer holds.
            let mut open = self.lock_open();
            match &*open {
                Some((cached, file)) if cached == name => Arc::clone(file),
                _ => {
                    let file = Arc::new(
                        std::fs::OpenOptions::new()
                            .write(true)
                            .open(self.path(name)?)?,
                    );
                    *open = Some((name.to_string(), Arc::clone(&file)));
                    file
                }
            }
        };
        write_all_at(&file, bytes, offset)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        match self.cached(name) {
            Some(file) => file.sync_data(),
            None => File::open(self.path(name)?)?.sync_data(),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let path = self.path(name)?;
        // Truncation keeps the file the name's, so the lock goes at once.
        drop(self.forget(&[name]));
        let f = std::fs::OpenOptions::new().write(true).open(&path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let (from_path, to_path) = (self.path(from)?, self.path(to)?);
        let _open = self.forget(&[from, to]);
        std::fs::rename(&from_path, &to_path)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let path = self.path(name)?;
        let _open = self.forget(&[name]);
        std::fs::remove_file(&path)
    }

    fn sync_root(&self) -> io::Result<()> {
        fsync_dir(&self.root)
    }
}

/// Fsyncs a directory, making renames/creations/removals inside it
/// durable. Every failure is returned, the open included: a caller
/// that went on to call a name durable after a failed directory sync
/// would break the WAL's rule that a sync error fails the writer.
/// Only platforms where a directory cannot be opened for sync (non-Unix)
/// make this a no-op — the rename is still atomic there, just not
/// guaranteed durable across power loss.
#[cfg(unix)]
pub fn fsync_dir(dir: &std::path::Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// A no-op: directories cannot be opened for sync on this platform.
#[cfg(not(unix))]
pub fn fsync_dir(_dir: &std::path::Path) -> io::Result<()> {
    Ok(())
}

/// One object in a [`MemBackend`].
#[derive(Debug, Default, Clone)]
struct MemObject {
    data: Vec<u8>,
    /// The contents as of the last `sync`: what survives a crash.
    synced: Vec<u8>,
    /// Whether this *name* survives a crash (set by `sync_root`).
    name_durable: bool,
    /// The durable name this object reverts to on crash when its
    /// current name is not yet durable (set by `rename`).
    revert_to: Option<String>,
}

#[derive(Debug, Default)]
struct MemState {
    objects: BTreeMap<String, MemObject>,
    ops: Vec<String>,
}

/// An in-memory [`DurableBackend`] with precise crash semantics and an
/// operation log, for tests. See the module docs.
#[derive(Debug, Default)]
pub struct MemBackend {
    state: Mutex<MemState>,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    fn lock_state(&self) -> MutexGuard<'_, MemState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The operations performed so far, in order, rendered as
    /// `op(args)` strings — the substrate for ordering assertions.
    /// Writes render as `append(name,len)` and
    /// `write_at(name,offset,len)`.
    pub fn ops(&self) -> Vec<String> {
        self.lock_state().ops.clone()
    }

    /// Simulates a crash: every object falls back to its last synced
    /// image (unsynced appends vanish, unsynced overwrites are undone),
    /// and objects whose current name was never made durable either
    /// revert to their pre-rename name or disappear entirely.
    pub fn crash(&self) {
        let mut state = self.lock_state();
        let names: Vec<String> = state.objects.keys().cloned().collect();
        for name in names {
            let Some(mut obj) = state.objects.remove(&name) else {
                continue;
            };
            obj.data.clone_from(&obj.synced);
            if obj.name_durable {
                obj.revert_to = None;
                state.objects.insert(name, obj);
            } else if let Some(old) = obj.revert_to.take() {
                obj.name_durable = true;
                // The pre-rename name was durable; its data was fully
                // synced under the old name before the rename.
                state.objects.entry(old).or_insert(obj);
            }
            // Neither durable nor renamed from a durable name: gone.
        }
        state.ops.push("crash".into());
    }
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, name.to_string())
}

impl DurableBackend for MemBackend {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.lock_state().objects.keys().cloned().collect())
    }

    fn size(&self, name: &str) -> io::Result<Option<u64>> {
        validate_name(name)?;
        Ok(self
            .lock_state()
            .objects
            .get(name)
            .map(|o| o.data.len() as u64))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        validate_name(name)?;
        self.lock_state()
            .objects
            .get(name)
            .map(|o| o.data.clone())
            .ok_or_else(|| not_found(name))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        validate_name(name)?;
        let mut state = self.lock_state();
        state.ops.push(format!("append({name},{})", bytes.len()));
        state
            .objects
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(bytes);
        Ok(())
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> io::Result<()> {
        validate_name(name)?;
        let mut state = self.lock_state();
        state
            .ops
            .push(format!("write_at({name},{offset},{})", bytes.len()));
        let obj = state.objects.get_mut(name).ok_or_else(|| not_found(name))?;
        let range = usize::try_from(offset)
            .ok()
            .and_then(|start| Some(start..start.checked_add(bytes.len())?))
            .filter(|r| r.end <= obj.data.len())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "write_at({name},{offset},{}) runs past the object's {} bytes",
                        bytes.len(),
                        obj.data.len()
                    ),
                )
            })?;
        obj.data[range].copy_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        validate_name(name)?;
        let mut state = self.lock_state();
        state.ops.push(format!("sync({name})"));
        let obj = state.objects.get_mut(name).ok_or_else(|| not_found(name))?;
        obj.synced.clone_from(&obj.data);
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        validate_name(name)?;
        let mut state = self.lock_state();
        state.ops.push(format!("truncate({name},{len})"));
        let obj = state.objects.get_mut(name).ok_or_else(|| not_found(name))?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        obj.data.truncate(len);
        obj.synced.truncate(len);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        validate_name(from)?;
        validate_name(to)?;
        let mut state = self.lock_state();
        state.ops.push(format!("rename({from},{to})"));
        let mut obj = state.objects.remove(from).ok_or_else(|| not_found(from))?;
        // The new name is not durable until sync_root; remember where a
        // crash rolls back to. A chain of renames before any sync_root
        // keeps the original durable name.
        if obj.name_durable {
            obj.revert_to = Some(from.to_string());
        }
        obj.name_durable = false;
        state.objects.insert(to.to_string(), obj);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        validate_name(name)?;
        let mut state = self.lock_state();
        state.ops.push(format!("remove({name})"));
        match state.objects.remove(name) {
            Some(_) => Ok(()),
            None => Err(not_found(name)),
        }
    }

    fn sync_root(&self) -> io::Result<()> {
        let mut state = self.lock_state();
        state.ops.push("sync_root".into());
        for obj in state.objects.values_mut() {
            obj.name_durable = true;
            obj.revert_to = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_append_read_roundtrip() {
        let b = MemBackend::new();
        b.append("a.log", b"hello ").unwrap();
        b.append("a.log", b"world").unwrap();
        assert_eq!(b.read("a.log").unwrap(), b"hello world");
        assert_eq!(b.size("a.log").unwrap(), Some(11));
        assert_eq!(b.size("missing").unwrap(), None);
        assert_eq!(b.list().unwrap(), vec!["a.log".to_string()]);
    }

    #[test]
    fn names_must_be_flat() {
        let b = MemBackend::new();
        for bad in ["../x", "a/b", "", "..", "a\\b"] {
            assert!(b.append(bad, b"x").is_err(), "{bad:?} accepted");
        }
        let f = FileBackend::open(std::env::temp_dir().join("tsm_backend_name_test")).unwrap();
        assert!(f.read("../etc/passwd").is_err());
    }

    #[test]
    fn crash_drops_unsynced_bytes() {
        let b = MemBackend::new();
        b.append("w.log", b"durable").unwrap();
        b.sync("w.log").unwrap();
        b.sync_root().unwrap();
        b.append("w.log", b" torn tail").unwrap();
        b.crash();
        assert_eq!(b.read("w.log").unwrap(), b"durable");
    }

    #[test]
    fn crash_undoes_an_unsynced_overwrite() {
        let b = MemBackend::new();
        b.append("w.log", b"magic\0\0\0\0\0\0").unwrap();
        b.sync("w.log").unwrap();
        b.sync_root().unwrap();
        b.write_at("w.log", 5, b"rec1").unwrap();
        b.sync("w.log").unwrap();
        // Overwritten in place, never synced: the crash restores the
        // synced bytes under it, zeros included.
        b.write_at("w.log", 9, b"r2").unwrap();
        b.write_at("w.log", 0, b"M").unwrap();
        assert_eq!(b.read("w.log").unwrap(), b"Magicrec1r2");
        b.crash();
        assert_eq!(b.read("w.log").unwrap(), b"magicrec1\0\0");
        assert!(b.ops().contains(&"write_at(w.log,9,2)".to_string()));
    }

    #[test]
    fn write_at_stays_inside_the_object() {
        let b = MemBackend::new();
        assert_eq!(
            b.write_at("none", 0, b"x").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        b.append("o", b"0123").unwrap();
        b.write_at("o", 2, b"ab").unwrap();
        assert_eq!(b.read("o").unwrap(), b"01ab");
        for (offset, bytes) in [(3, &b"ab"[..]), (5, b""), (u64::MAX, b"a")] {
            let err = b.write_at("o", offset, bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{offset}");
        }
        assert_eq!(b.read("o").unwrap(), b"01ab");
    }

    #[test]
    fn crash_reverts_unsynced_renames_and_drops_unsynced_names() {
        let b = MemBackend::new();
        b.append("old", b"v1").unwrap();
        b.sync("old").unwrap();
        b.sync_root().unwrap();
        // Rename without a root sync: the crash rolls the name back.
        b.rename("old", "new").unwrap();
        b.crash();
        assert_eq!(b.list().unwrap(), vec!["old".to_string()]);
        assert_eq!(b.read("old").unwrap(), b"v1");
        // A brand-new object without a root sync disappears wholesale,
        // even when its bytes were synced.
        b.append("ghost", b"data").unwrap();
        b.sync("ghost").unwrap();
        b.crash();
        assert_eq!(b.list().unwrap(), vec!["old".to_string()]);
        // With the root synced, both the rename and the new name stick.
        b.rename("old", "new2").unwrap();
        b.append("kept", b"data").unwrap();
        b.sync("kept").unwrap();
        b.sync_root().unwrap();
        b.crash();
        assert_eq!(
            b.list().unwrap(),
            vec!["kept".to_string(), "new2".to_string()]
        );
    }

    #[test]
    fn publish_is_crash_atomic_and_syncs_root_after_rename() {
        let b = MemBackend::new();
        b.publish("snap", b"v1").unwrap();
        // Ordering contract: data sync, then rename, then root sync.
        let ops = b.ops();
        let sync_ix = ops.iter().position(|o| o == "sync(snap.tmp)").unwrap();
        let ren_ix = ops
            .iter()
            .position(|o| o == "rename(snap.tmp,snap)")
            .unwrap();
        let root_ix = ops.iter().rposition(|o| o == "sync_root").unwrap();
        assert!(sync_ix < ren_ix && ren_ix < root_ix, "ops: {ops:?}");
        // A crash right after publish keeps the complete object.
        b.crash();
        assert_eq!(b.read("snap").unwrap(), b"v1");
        // Republishing replaces atomically; crash keeps the new version.
        b.publish("snap", b"v2-longer").unwrap();
        b.crash();
        assert_eq!(b.read("snap").unwrap(), b"v2-longer");
    }

    #[test]
    fn file_backend_roundtrip_and_truncate() {
        let dir = std::env::temp_dir().join("tsm_file_backend_test");
        std::fs::remove_dir_all(&dir).ok();
        let b = FileBackend::open(&dir).unwrap();
        b.append("seg.log", b"0123456789").unwrap();
        b.sync("seg.log").unwrap();
        b.truncate("seg.log", 4).unwrap();
        assert_eq!(b.read("seg.log").unwrap(), b"0123");
        b.publish("snap", b"image").unwrap();
        assert_eq!(b.read("snap").unwrap(), b"image");
        let names = b.list().unwrap();
        assert_eq!(names, vec!["seg.log".to_string(), "snap".to_string()]);
        b.remove("seg.log").unwrap();
        b.sync_root().unwrap();
        assert_eq!(b.size("seg.log").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The cached handle follows the name: an overwrite after the object
    /// was renamed, removed or recreated lands in the file the name
    /// holds now, never in the one the handle was opened on.
    #[test]
    fn file_backend_overwrites_follow_the_name() {
        let dir = std::env::temp_dir().join(format!("tsm_file_write_at_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(
            b.write_at("seg", 0, b"x").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        b.append("seg", &[0u8; 8]).unwrap();
        b.write_at("seg", 2, b"ab").unwrap();
        b.sync("seg").unwrap();
        b.append("seg", b"cd").unwrap();
        b.write_at("seg", 8, b"CD").unwrap();
        b.sync("seg").unwrap();
        assert_eq!(b.read("seg").unwrap(), b"\0\0ab\0\0\0\0CD");
        // Truncate drops the handle; the next overwrite reopens.
        b.truncate("seg", 4).unwrap();
        b.write_at("seg", 0, b"z").unwrap();
        assert_eq!(b.read("seg").unwrap(), b"z\0ab");
        // Removed and recreated: the old handle must not be reused.
        b.remove("seg").unwrap();
        b.append("seg", b"new!").unwrap();
        b.write_at("seg", 0, b"N").unwrap();
        assert_eq!(b.read("seg").unwrap(), b"New!");
        // Renamed away: the new name holds the overwrite, the old name
        // is gone rather than silently reopened.
        b.rename("seg", "moved").unwrap();
        b.write_at("moved", 1, b"E").unwrap();
        assert_eq!(b.read("moved").unwrap(), b"NEw!");
        assert!(b.write_at("seg", 0, b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_root_reports_a_failed_directory_sync() {
        let parent = std::env::temp_dir().join(format!("tsm_sync_root_{}", std::process::id()));
        std::fs::remove_dir_all(&parent).ok();
        let root = parent.join("wal");
        let b = FileBackend::open(&root).unwrap();
        b.sync_root().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert!(b.sync_root().is_err(), "a vanished root synced 'fine'");
        fsync_dir(&parent).unwrap();
        std::fs::remove_dir_all(&parent).ok();
    }
}
