//! Binary persistence for the stream store.
//!
//! The paper's system keeps everything in memory during a session, but a
//! production deployment must carry the patient database *between*
//! sessions. This module serializes a [`StreamStore`] to a compact,
//! versioned, checksummed binary file and back.
//!
//! Format (little-endian):
//!
//! ```text
//! magic   "TSMDB\x01\x00\x00"                      8 bytes
//! u32     format version (currently 1)
//! u32     patient count
//! per patient:
//!   u32 attribute count, then per attribute:
//!     u32 key length, key bytes, u32 value length, value bytes
//! u32     stream count
//! per stream:
//!   u32 patient id, u32 session, u64 raw_len, u8 dim, u32 vertex count,
//!   then per vertex: f64 time, u8 state, dim × f64 coordinates
//! u64     FNV-1a checksum of everything before it
//! ```
//!
//! Vertices dominate; at 17–33 bytes each a paper-scale store
//! (~40 000 vertices) is about a megabyte.

use crate::store::{PatientAttributes, StreamStore};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use tsm_model::{BreathState, PlrTrajectory, Position, Vertex};

const MAGIC: &[u8; 8] = b"TSMDB\x01\x00\x00";
const VERSION: u32 = 1;

/// Errors from saving/loading a store.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the format magic.
    BadMagic,
    /// The file's format version is not supported.
    UnsupportedVersion(u32),
    /// The checksum at the end of the file does not match its contents.
    ChecksumMismatch,
    /// Structurally invalid content (e.g. an undefined state code or an
    /// invalid vertex list).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a tsm-db store file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::ChecksumMismatch => write!(f, "checksum mismatch (file corrupted)"),
            PersistError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a, updated incrementally as bytes pass through the writer/reader.
/// Shared with the WAL record/snapshot formats ([`crate::wal`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    pub(crate) fn value(self) -> u64 {
        self.0
    }
}

struct CheckedWriter<W: Write> {
    inner: W,
    fnv: Fnv,
}

impl<W: Write> CheckedWriter<W> {
    fn new(inner: W) -> Self {
        CheckedWriter {
            inner,
            fnv: Fnv::new(),
        }
    }
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fnv.update(bytes);
        self.inner.write_all(bytes)
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.write(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.write(&v.to_le_bytes())
    }
    fn f64(&mut self, v: f64) -> io::Result<()> {
        self.write(&v.to_le_bytes())
    }
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.write(&[v])
    }
    fn str(&mut self, s: &str) -> io::Result<()> {
        self.u32(s.len() as u32)?;
        self.write(s.as_bytes())
    }
}

struct CheckedReader<R: Read> {
    inner: R,
    fnv: Fnv,
}

impl<R: Read> CheckedReader<R> {
    fn new(inner: R) -> Self {
        CheckedReader {
            inner,
            fnv: Fnv::new(),
        }
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)?;
        self.fnv.update(buf);
        Ok(())
    }
    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.read(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.read(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> io::Result<f64> {
        let mut b = [0u8; 8];
        self.read(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
    fn u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.read(&mut b)?;
        Ok(b[0])
    }
    fn str(&mut self, cap: u32) -> Result<String, PersistError> {
        let len = self.u32()?;
        if len > cap {
            return Err(PersistError::Corrupt(format!(
                "string length {len} exceeds cap {cap}"
            )));
        }
        let mut buf = vec![0u8; len as usize];
        self.read(&mut buf)?;
        String::from_utf8(buf).map_err(|_| PersistError::Corrupt("invalid utf-8".into()))
    }
}

/// Serializes the store to a writer.
///
/// ```
/// use tsm_db::{load_store, save_store, PatientAttributes, StreamStore};
/// use tsm_model::{BreathState::*, PlrTrajectory, Vertex};
///
/// let store = StreamStore::new();
/// let p = store.add_patient(PatientAttributes::new());
/// let plr = PlrTrajectory::from_vertices(vec![
///     Vertex::new_1d(0.0, 10.0, Exhale),
///     Vertex::new_1d(1.5, 0.0, EndOfExhale),
/// ]).unwrap();
/// store.add_stream(p, 0, plr, 45);
///
/// let mut bytes = Vec::new();
/// save_store(&store, &mut bytes).unwrap();
/// let reloaded = load_store(bytes.as_slice()).unwrap();
/// assert_eq!(reloaded.num_streams(), 1);
/// ```
pub fn save_store<W: Write>(store: &StreamStore, writer: W) -> Result<(), PersistError> {
    let mut w = CheckedWriter::new(BufWriter::new(writer));
    w.write(MAGIC)?;
    w.u32(VERSION)?;

    let patients = store.patients();
    w.u32(patients.len() as u32)?;
    for &p in &patients {
        let attrs = store.patient_attributes(p).unwrap_or_default();
        w.u32(attrs.len() as u32)?;
        for (k, v) in &attrs {
            w.str(k)?;
            w.str(v)?;
        }
    }

    let streams = store.streams();
    w.u32(streams.len() as u32)?;
    for s in streams.iter() {
        w.u32(s.meta.patient.0)?;
        w.u32(s.meta.session)?;
        w.u64(s.raw_len as u64)?;
        let dim = s.plr.dim() as u8;
        w.u8(dim)?;
        w.u32(s.plr.num_vertices() as u32)?;
        for v in s.plr.vertices() {
            w.f64(v.time)?;
            w.u8(v.state.index() as u8)?;
            for d in 0..dim as usize {
                w.f64(v.position[d])?;
            }
        }
    }

    let checksum = w.fnv.0;
    w.u64(checksum)?;
    w.inner.flush()?;
    Ok(())
}

/// What a salvage pass ([`salvage_store`]) managed to recover from a
/// (possibly damaged) store file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// True when the whole file parsed and the checksum verified — the
    /// salvage was a plain load.
    pub complete: bool,
    /// True when the trailing checksum was present and matched.
    pub checksum_verified: bool,
    /// Patients recovered.
    pub patients: usize,
    /// Streams the file header promised (0 when parsing died before the
    /// stream count was read).
    pub streams_expected: usize,
    /// Streams recovered intact. A stream only counts once *all* of its
    /// vertices parsed and validated.
    pub streams_recovered: usize,
    /// Rendering of the error that stopped parsing, if any.
    pub failure: Option<String>,
}

impl RecoveryReport {
    /// Streams the header promised that could not be recovered.
    pub fn streams_lost(&self) -> usize {
        self.streams_expected.saturating_sub(self.streams_recovered)
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.complete {
            write!(
                f,
                "store intact: {} patients, {} streams, checksum verified",
                self.patients, self.streams_recovered
            )
        } else {
            write!(
                f,
                "salvaged {} of {} streams ({} patients, checksum {}){}",
                self.streams_recovered,
                self.streams_expected,
                self.patients,
                if self.checksum_verified {
                    "verified"
                } else {
                    "unverified"
                },
                match &self.failure {
                    Some(e) => format!("; stopped at: {e}"),
                    None => String::new(),
                }
            )
        }
    }
}

/// The body parse shared by [`load_store`] (strict) and
/// [`salvage_store`] (best-effort): every fully-validated patient and
/// stream lands in `store` and is counted in `report` *before* the next
/// one is attempted, so when this returns an error the store already
/// holds the recoverable prefix.
fn parse_body<R: Read>(
    r: &mut CheckedReader<R>,
    store: &StreamStore,
    report: &mut RecoveryReport,
) -> Result<(), PersistError> {
    let n_patients = r.u32()?;
    if n_patients > 1_000_000 {
        return Err(PersistError::Corrupt(format!(
            "implausible patient count {n_patients}"
        )));
    }
    for _ in 0..n_patients {
        let n_attrs = r.u32()?;
        if n_attrs > 10_000 {
            return Err(PersistError::Corrupt("implausible attribute count".into()));
        }
        let mut attrs = PatientAttributes::new();
        for _ in 0..n_attrs {
            let k = r.str(1 << 20)?;
            let v = r.str(1 << 20)?;
            attrs.insert(k, v);
        }
        store.add_patient(attrs);
        report.patients += 1;
    }

    let n_streams = r.u32()?;
    if n_streams > 100_000_000 {
        return Err(PersistError::Corrupt("implausible stream count".into()));
    }
    report.streams_expected = n_streams as usize;
    for _ in 0..n_streams {
        let patient = crate::ids::PatientId(r.u32()?);
        if patient.0 as usize >= store.num_patients() {
            return Err(PersistError::Corrupt(format!(
                "stream references unknown patient {patient}"
            )));
        }
        let session = r.u32()?;
        let raw_len = r.u64()? as usize;
        let dim = r.u8()? as usize;
        if !(1..=3).contains(&dim) {
            return Err(PersistError::Corrupt(format!("invalid dim {dim}")));
        }
        let n_vertices = r.u32()? as usize;
        let mut vertices = Vec::with_capacity(n_vertices.min(1 << 20));
        for _ in 0..n_vertices {
            let time = r.f64()?;
            let state_code = r.u8()? as usize;
            let state = BreathState::from_index(state_code)
                .ok_or_else(|| PersistError::Corrupt(format!("invalid state code {state_code}")))?;
            let mut coords = [0.0f64; 3];
            for c in coords.iter_mut().take(dim) {
                *c = r.f64()?;
            }
            let position = Position::from_slice(&coords[..dim])
                .ok_or_else(|| PersistError::Corrupt("invalid position".into()))?;
            vertices.push(Vertex::new(time, position, state));
        }
        let plr = PlrTrajectory::from_vertices(vertices)
            .map_err(|e| PersistError::Corrupt(format!("invalid trajectory: {e}")))?;
        store
            .try_add_stream(patient, session, plr, raw_len)
            .map_err(|e| PersistError::Corrupt(format!("invalid stream: {e}")))?;
        report.streams_recovered += 1;
    }

    let computed = r.fnv.0;
    let stored = {
        // The checksum itself is not part of the checksum.
        let mut b = [0u8; 8];
        r.inner.read_exact(&mut b)?;
        u64::from_le_bytes(b)
    };
    if computed != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    report.checksum_verified = true;
    Ok(())
}

/// Shared loader core. An unrecognizable header (wrong magic, unknown
/// version, or an I/O error before the body starts) is a hard error —
/// there is nothing to salvage. Past the header, a parse failure stops
/// the body early and is returned alongside the valid prefix.
#[allow(clippy::type_complexity)]
fn load_inner<R: Read>(
    reader: R,
) -> Result<(StreamStore, RecoveryReport, Option<PersistError>), PersistError> {
    let mut r = CheckedReader::new(BufReader::new(reader));
    let mut magic = [0u8; 8];
    r.read(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let store = StreamStore::new();
    let mut report = RecoveryReport::default();
    let failure = parse_body(&mut r, &store, &mut report).err();
    report.complete = failure.is_none();
    report.failure = failure.as_ref().map(|e| e.to_string());
    Ok((store, report, failure))
}

/// Deserializes a store from a reader, strictly: any truncation,
/// corruption, or checksum mismatch is an error and no store is
/// returned. Use [`salvage_store`] to recover what a damaged file still
/// holds.
pub fn load_store<R: Read>(reader: R) -> Result<StreamStore, PersistError> {
    let (store, _report, failure) = load_inner(reader)?;
    match failure {
        None => Ok(store),
        Some(e) => Err(e),
    }
}

/// Best-effort load of a (possibly damaged) store file: the valid prefix
/// of patients and fully-parsed streams is recovered, and the
/// [`RecoveryReport`] says what was lost and why. Only an unrecognizable
/// header (wrong magic or unsupported version — nothing to salvage) is
/// still an error.
///
/// The save path is atomic ([`save_store_to_path`]), so a damaged file
/// normally means external interference (disk fault, partial copy,
/// manual truncation) — salvage turns "the patient database is gone"
/// into "the sessions written after the damage point are gone".
pub fn salvage_store<R: Read>(reader: R) -> Result<(StreamStore, RecoveryReport), PersistError> {
    let (store, report, _failure) = load_inner(reader)?;
    Ok((store, report))
}

/// [`salvage_store`] over a file path.
pub fn salvage_store_from_path(
    path: impl AsRef<Path>,
) -> Result<(StreamStore, RecoveryReport), PersistError> {
    let f = std::fs::File::open(path)?;
    salvage_store(f)
}

/// The sibling temporary path an atomic save writes through: the target
/// file name with `.tmp` appended, in the same directory (a rename is
/// only atomic within one filesystem).
fn sibling_tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Saves the store to a file, atomically *and durably*: bytes go to a
/// sibling `.tmp` file, which is fsynced and then renamed over the
/// target, and finally the parent directory is fsynced — on ext4 (and
/// POSIX generally) the rename itself is not durable until the
/// directory entry is, so without that last sync a crash shortly after
/// a "successful" save could resurface the old file or none at all. A
/// crash or write error mid-save can never leave a truncated/corrupt
/// store at `path` — the target either keeps its previous contents or
/// holds the complete new ones. On error the temp file is removed
/// (best effort).
pub fn save_store_to_path(store: &StreamStore, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let tmp = sibling_tmp_path(path);
    let write_and_sync = || -> Result<(), PersistError> {
        let f = std::fs::File::create(&tmp)?;
        save_store(store, &f)?;
        f.sync_all()?;
        Ok(())
    };
    let result = write_and_sync().and_then(|()| {
        std::fs::rename(&tmp, path)?;
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        Ok(crate::backend::fsync_dir(parent.unwrap_or(Path::new(".")))?)
    });
    if result.is_err() {
        // lint:allow(no-silent-result-drop): best-effort cleanup; the
        // write error already on its way out is the one that matters.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Loads a store from a file.
pub fn load_store_from_path(path: impl AsRef<Path>) -> Result<StreamStore, PersistError> {
    let f = std::fs::File::open(path)?;
    load_store(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_model::BreathState::*;

    fn sample_store() -> StreamStore {
        let store = StreamStore::new();
        let mut attrs = PatientAttributes::new();
        attrs.insert("tumor_site".into(), "Liver".into());
        attrs.insert("age".into(), "61".into());
        let p0 = store.add_patient(attrs);
        let p1 = store.add_patient(PatientAttributes::new());
        for (p, session, base) in [(p0, 0u32, 0.0f64), (p0, 1, 5.0), (p1, 0, -2.0)] {
            let mut v = Vec::new();
            let mut t = 0.0;
            for i in 0..6 {
                let amp = 10.0 + i as f64 * 0.1;
                v.push(Vertex::new(
                    t,
                    Position::new_2d(base + amp, amp * 0.3),
                    Exhale,
                ));
                v.push(Vertex::new(
                    t + 1.5,
                    Position::new_2d(base, 0.0),
                    EndOfExhale,
                ));
                v.push(Vertex::new(t + 2.5, Position::new_2d(base, 0.0), Inhale));
                t += 4.0;
            }
            v.push(Vertex::new(
                t,
                Position::new_2d(base + 10.0, 3.0),
                Irregular,
            ));
            let plr = PlrTrajectory::from_vertices(v).unwrap();
            store.add_stream(p, session, plr, 720);
        }
        store
    }

    fn roundtrip(store: &StreamStore) -> StreamStore {
        let mut buf = Vec::new();
        save_store(store, &mut buf).unwrap();
        load_store(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let loaded = roundtrip(&store);
        assert_eq!(loaded.num_patients(), store.num_patients());
        assert_eq!(loaded.num_streams(), store.num_streams());
        for p in store.patients() {
            assert_eq!(loaded.patient_attributes(p), store.patient_attributes(p));
        }
        for (a, b) in store.streams().iter().zip(loaded.streams().iter()) {
            assert_eq!(a.meta, b.meta);
            assert_eq!(a.raw_len, b.raw_len);
            assert_eq!(a.plr, b.plr);
        }
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let path = std::env::temp_dir().join("tsm_db_persist_test.tsmdb");
        save_store_to_path(&store, &path).unwrap();
        let loaded = load_store_from_path(&path).unwrap();
        assert_eq!(loaded.num_streams(), store.num_streams());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_residue() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("tsm_db_atomic_save_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.tsmdb");

        save_store_to_path(&store, &path).unwrap();
        assert!(!sibling_tmp_path(&path).exists(), "temp file left behind");
        let loaded = load_store_from_path(&path).unwrap();
        assert_eq!(loaded.num_streams(), store.num_streams());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_preserves_the_previous_store() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("tsm_db_failed_save_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.tsmdb");

        // A valid store is already on disk.
        save_store_to_path(&store, &path).unwrap();
        let original = std::fs::read(&path).unwrap();

        // Inject a write failure: a directory squats on the temp path, so
        // the save cannot even create its temp file.
        let tmp = sibling_tmp_path(&path);
        std::fs::create_dir(&tmp).unwrap();
        let bigger = {
            let s = sample_store();
            let p = s.patients()[0];
            let plr = s.streams()[0].plr.clone();
            s.add_stream(p, 7, plr, 720);
            s
        };
        assert!(save_store_to_path(&bigger, &path).is_err());

        // The previous store file is byte-for-byte intact and loadable —
        // no partial/truncated file replaced it.
        assert_eq!(std::fs::read(&path).unwrap(), original);
        assert!(load_store_from_path(&path).is_ok());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load_store(&b"NOTASTOREFILE..."[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn rejects_bit_flips() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        // Flip a byte in the middle (vertex data).
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = load_store(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch | PersistError::Corrupt(_) | PersistError::Io(_)
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn rejects_truncation() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        buf.truncate(buf.len() - 11);
        assert!(load_store(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_future_versions() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = load_store(buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            PersistError::UnsupportedVersion(99) | PersistError::ChecksumMismatch
        ));
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = StreamStore::new();
        let loaded = roundtrip(&store);
        assert_eq!(loaded.num_patients(), 0);
        assert_eq!(loaded.num_streams(), 0);
    }
}
