//! Write-ahead log + snapshot checkpoints with crash-recovery replay.
//!
//! The store itself is in-memory ([`crate::store`]); whole-file
//! [`crate::persist`] saves are atomic but lose everything ingested
//! since the last explicit save. This module adds incremental
//! durability on top of any [`DurableBackend`]:
//!
//! * **WAL segments** (`wal-{first_seq:016x}.log`): checksummed
//!   records written back to back into preallocated, zero-filled space
//!   and synced on commit (see the segment layout below). A record
//!   carries one vertex batch (or a session-end marker) for one
//!   `(patient, session)` stream.
//! * **Snapshots** (`snap-{covered_seq:016x}.tsmdb`): periodic
//!   compactions — a full store image (the [`crate::persist`] format,
//!   so the existing salvage machinery applies) plus per-stream
//!   feature-index summaries, published atomically. Segments whose
//!   every record is covered by a snapshot are deleted.
//! * **Recovery**: load the newest parseable snapshot (falling back to
//!   older ones), then replay WAL records with `seq > covered_seq` in
//!   order. Torn tails are truncated to the last valid record — never a
//!   hard error — and everything is reported in a structured
//!   [`WalRecoveryReport`]. A zero-filled tail is not torn (see the
//!   clean-end rule below).
//!
//! ## Record wire format (little-endian)
//!
//! ```text
//! u32     body_len
//! u64     seq                   1-based, strictly contiguous
//! body:
//!   u8    kind                  0 = vertex batch, 1 = session end
//!                               (stored), 2 = session end (discarded)
//!   u32   patient
//!   u32   session
//!   u32   epoch                 segmenter resync epoch at commit
//!   u64   samples_seen          raw samples consumed so far
//!   u8    dim                   vertex dimensionality
//!   u32   count                 vertices in this batch
//!   then per vertex: f64 time, u8 state, dim × f64 coordinates
//! u64     FNV-1a over everything above (len, seq, body)
//! ```
//!
//! `body_len` is at least the fixed body, so a record's length field
//! is never 0.
//!
//! ## Segment layout
//!
//! ```text
//! magic (8 B) | record seq | record seq+1 | ... | 00 00 ... 00
//!                                               ^ end of the last record;
//!                                                 the next one goes here
//! ```
//!
//! Each segment file starts with the 8-byte magic `TSMWAL\x01\x00`,
//! then holds its records back to back, then a zero-filled tail of
//! preallocated space. Creating a segment writes only its magic. When a
//! record does not fit in the tail, the writer first appends a
//! zero-filled chunk of 64 KiB, capped so the segment stays within
//! [`WalConfig::segment_max_bytes`] but never too small to hold the
//! record; then it overwrites the start of the tail with the record
//! ([`DurableBackend::write_at`]). A roll trims the sealed segment to
//! its records.
//!
//! **The clean-end rule.** Since no length field is 0, an all-zero
//! remainder after the last valid record is the clean end of a
//! segment, not damage: recovery neither reports nor truncates it, puts
//! the writer at the end of the last valid record and keeps the
//! preallocated space. A remainder that is not all zeros is a torn
//! tail and is truncated to the last valid record.
//!
//! ## The fsync/ack contract
//!
//! [`WalWriter::append_batch`] returns only after the record is written
//! into its segment *and* (with [`WalConfig::fsync_appends`], the
//! default) that segment is synced under the writer's lock. One sync
//! covers each acknowledged record: it persists the record's bytes and,
//! when the record needed a new chunk, the chunk and the segment's new
//! size with them. A record written into space an earlier sync already
//! covered changes no metadata, so its sync (`fdatasync` on
//! [`crate::FileBackend`]) writes the record's pages and nothing else.
//! An acknowledgement sent after that return therefore has RPO = 0:
//! recovery replays every acknowledged record. Any append or sync error
//! permanently fails the writer — continuing to append past a
//! possibly-torn region could strand later acknowledged records behind
//! an unreadable one.
//!
//! ## What a checkpoint may cover
//!
//! Vertices of *open* sessions exist only in the WAL until the session
//! is finished into the store, so a snapshot of the store must not
//! cover their records: `covered_seq` is capped at one below the first
//! record of the oldest still-open session. Sessions closed as
//! `stored` are in the store image; sessions closed as `discarded`
//! (e.g. a session whose stream the store refused) are safe to drop by
//! definition.

use crate::backend::DurableBackend;
use crate::persist::{salvage_store, save_store, Fnv, PersistError, RecoveryReport};
use crate::store::{PatientAttributes, StreamStore};
use crate::PatientId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use tsm_model::{BreathState, PlrTrajectory, Position, Vertex};

const SEG_MAGIC: &[u8; 8] = b"TSMWAL\x01\x00";
const SNAP_MAGIC: &[u8; 8] = b"TSMSNAP\x01";
const SNAP_VERSION: u32 = 1;
/// Fixed body bytes before the per-vertex payload.
const BODY_FIXED: usize = 1 + 4 + 4 + 4 + 8 + 1 + 4;
/// Plausibility cap on a record body (a batch this size is absurd).
const MAX_BODY: usize = 1 << 26;
/// Bytes of zeros the writer appends to the active segment when a
/// record does not fit in its preallocated tail (capped by
/// [`WalConfig::segment_max_bytes`], never too small for the record).
const PREALLOC_CHUNK: u64 = 64 << 10;

/// Name of the segment whose first record is `first_seq`.
pub fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

/// Name of the snapshot covering records up to `covered_seq`.
pub fn snapshot_name(covered_seq: u64) -> String {
    format!("snap-{covered_seq:016x}.tsmdb")
}

fn parse_object_name(name: &str) -> Option<(ObjectKind, u64)> {
    let (kind, hex) = if let Some(rest) = name.strip_prefix("wal-") {
        (ObjectKind::Segment, rest.strip_suffix(".log")?)
    } else if let Some(rest) = name.strip_prefix("snap-") {
        (ObjectKind::Snapshot, rest.strip_suffix(".tsmdb")?)
    } else {
        return None;
    };
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(|seq| (kind, seq))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObjectKind {
    Segment,
    Snapshot,
}

/// Tuning knobs for the WAL writer.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Segment roll threshold in bytes (the active segment rolls when a
    /// record would push it past this). Preallocation stays within it
    /// too, except for a lone record larger than a whole segment.
    pub segment_max_bytes: u64,
    /// Fsync every append before returning (the RPO = 0 contract).
    /// Disable only for throughput experiments where losing the OS
    /// write-back window on crash is acceptable.
    pub fsync_appends: bool,
    /// How many snapshots to keep (newest first); older ones are
    /// deleted at checkpoint. At least 1.
    pub snapshots_kept: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 1 << 20,
            fsync_appends: true,
            snapshots_kept: 2,
        }
    }
}

/// What kind of event a [`WalRecord`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordKind {
    /// A batch of vertices appended to an open session.
    VertexBatch,
    /// The session finished and its stream was added to the store
    /// (`stored: true`), or finished and dropped (`stored: false`, e.g.
    /// when its live vertices never formed a valid PLR).
    SessionEnd {
        /// Whether the finished stream entered the store.
        stored: bool,
    },
}

impl WalRecordKind {
    fn code(self) -> u8 {
        match self {
            WalRecordKind::VertexBatch => 0,
            WalRecordKind::SessionEnd { stored: true } => 1,
            WalRecordKind::SessionEnd { stored: false } => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(WalRecordKind::VertexBatch),
            1 => Some(WalRecordKind::SessionEnd { stored: true }),
            2 => Some(WalRecordKind::SessionEnd { stored: false }),
            _ => None,
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Global, contiguous, 1-based sequence number.
    pub seq: u64,
    /// Event kind.
    pub kind: WalRecordKind,
    /// Patient id the session belongs to.
    pub patient: u32,
    /// Session number within the patient.
    pub session: u32,
    /// Segmenter resync epoch at commit time (metadata).
    pub epoch: u32,
    /// Raw samples the session had consumed when this was committed.
    pub samples_seen: u64,
    /// The vertex batch (empty for session-end records).
    pub vertices: Vec<Vertex>,
}

/// Proof of a durable append: the assigned sequence number and whether
/// the record was fsynced before returning.
#[derive(Debug, Clone, Copy)]
pub struct AppendReceipt {
    /// Sequence number assigned to the record.
    pub seq: u64,
    /// True when the record was fsynced (see [`WalConfig::fsync_appends`]).
    pub fsynced: bool,
}

#[derive(Debug)]
struct WriterState {
    next_seq: u64,
    segment: String,
    /// End of the active segment's last record: where the next one goes.
    segment_bytes: u64,
    /// Size of the active segment: `segment_bytes` plus its zero-filled,
    /// preallocated tail.
    segment_len: u64,
    /// First record seq of each still-open `(patient, session)` — the
    /// records a checkpoint must not cover.
    open_sessions: BTreeMap<(u32, u32), u64>,
    last_covered: u64,
    appends_since_checkpoint: u64,
    /// Set on any append-path I/O error; the writer refuses further
    /// appends (see the module docs on the fsync/ack contract).
    failed: bool,
}

/// The append side of the WAL. Thread-safe; appends are serialized
/// internally (one record, one fsync, in order).
#[derive(Debug)]
pub struct WalWriter {
    backend: Arc<dyn DurableBackend>,
    config: WalConfig,
    state: Mutex<WriterState>,
    /// Serializes whole checkpoints without blocking appends.
    checkpoint_lock: Mutex<()>,
}

impl WalWriter {
    fn lock_state(&self) -> MutexGuard<'_, WriterState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The backend this writer appends to.
    pub fn backend(&self) -> &Arc<dyn DurableBackend> {
        &self.backend
    }

    /// The writer's configuration.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.lock_state().next_seq
    }

    /// Records appended since the last checkpoint (or recovery) — the
    /// cadence signal for `--checkpoint-every`.
    pub fn appends_since_checkpoint(&self) -> u64 {
        self.lock_state().appends_since_checkpoint
    }

    /// Highest sequence number covered by a published snapshot.
    pub fn last_covered_seq(&self) -> u64 {
        self.lock_state().last_covered
    }

    /// Appends one vertex batch for `(patient, session)` and makes it
    /// durable before returning (see the fsync/ack contract in the
    /// module docs).
    pub fn append_batch(
        &self,
        patient: u32,
        session: u32,
        epoch: u32,
        samples_seen: u64,
        vertices: &[Vertex],
    ) -> Result<AppendReceipt, PersistError> {
        self.append_record(
            WalRecordKind::VertexBatch,
            patient,
            session,
            epoch,
            samples_seen,
            vertices,
        )
    }

    /// Appends a session-end marker. `stored` records whether the
    /// finished stream entered the store (and may therefore be covered
    /// by the next snapshot) or was deliberately discarded.
    pub fn append_end(
        &self,
        patient: u32,
        session: u32,
        samples_seen: u64,
        stored: bool,
    ) -> Result<AppendReceipt, PersistError> {
        self.append_record(
            WalRecordKind::SessionEnd { stored },
            patient,
            session,
            0,
            samples_seen,
            &[],
        )
    }

    fn append_record(
        &self,
        kind: WalRecordKind,
        patient: u32,
        session: u32,
        epoch: u32,
        samples_seen: u64,
        vertices: &[Vertex],
    ) -> Result<AppendReceipt, PersistError> {
        let mut st = self.lock_state();
        if st.failed {
            return Err(PersistError::Corrupt(
                "wal writer failed on an earlier append; refusing to append past a possibly-torn \
                 region"
                    .into(),
            ));
        }
        let seq = st.next_seq;
        let bytes = encode_record(seq, kind, patient, session, epoch, samples_seen, vertices)?;
        let result = self.append_locked(&mut st, seq, &bytes);
        match result {
            Ok(fsynced) => {
                st.next_seq += 1;
                st.segment_bytes += bytes.len() as u64;
                st.appends_since_checkpoint += 1;
                match kind {
                    WalRecordKind::VertexBatch => {
                        st.open_sessions.entry((patient, session)).or_insert(seq);
                    }
                    WalRecordKind::SessionEnd { .. } => {
                        st.open_sessions.remove(&(patient, session));
                    }
                }
                Ok(AppendReceipt { seq, fsynced })
            }
            Err(e) => {
                st.failed = true;
                Err(e)
            }
        }
    }

    fn append_locked(
        &self,
        st: &mut WriterState,
        seq: u64,
        bytes: &[u8],
    ) -> Result<bool, PersistError> {
        let magic_len = SEG_MAGIC.len() as u64;
        let len = bytes.len() as u64;
        if st.segment_bytes > magic_len && st.segment_bytes + len > self.config.segment_max_bytes {
            // Roll: seal the active segment and trim it to its records,
            // then durably create the next one (data sync + root sync
            // so the new name survives).
            self.backend.sync(&st.segment)?;
            if st.segment_len > st.segment_bytes {
                self.backend.truncate(&st.segment, st.segment_bytes)?;
            }
            let name = segment_name(seq);
            self.backend.append(&name, SEG_MAGIC)?;
            self.backend.sync(&name)?;
            self.backend.sync_root()?;
            st.segment = name;
            st.segment_bytes = magic_len;
            st.segment_len = magic_len;
        }
        if st.segment_bytes + len > st.segment_len {
            // Past the roll check, `need <= room` unless the record is
            // alone in its segment, so only a lone oversized record
            // grows a segment beyond `segment_max_bytes`.
            let need = st.segment_bytes + len - st.segment_len;
            let room = self.config.segment_max_bytes.saturating_sub(st.segment_len);
            let chunk = PREALLOC_CHUNK.min(room).max(need);
            // `chunk` is at most 64 KiB or part of the record's length.
            self.backend.append(&st.segment, &vec![0; chunk as usize])?;
            st.segment_len += chunk;
        }
        self.backend
            .write_at(&st.segment, st.segment_bytes, bytes)?;
        if self.config.fsync_appends {
            self.backend.sync(&st.segment)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Publishes a snapshot of `store` and garbage-collects fully
    /// covered segments and superseded snapshots. Returns `None` when
    /// coverage has not advanced since the last snapshot (nothing to
    /// do). `store` must be the store this WAL's stored sessions were
    /// finished into.
    pub fn checkpoint(
        &self,
        store: &StreamStore,
    ) -> Result<Option<CheckpointReport>, PersistError> {
        let _ckpt = match self.checkpoint_lock.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (covered, had_snapshot) = {
            let st = self.lock_state();
            let covered = st
                .open_sessions
                .values()
                .min()
                .map(|&first| first - 1)
                .unwrap_or(st.next_seq - 1);
            (covered, st.last_covered > 0)
        };
        if covered == self.lock_state().last_covered && had_snapshot {
            return Ok(None);
        }
        let (bytes, streams) = encode_snapshot(store, covered)?;
        let size = bytes.len() as u64;
        self.backend.publish(&snapshot_name(covered), &bytes)?;

        // GC under the state lock so the active segment is stable.
        let mut segments_removed = 0usize;
        let mut snapshots_removed = 0usize;
        {
            let mut st = self.lock_state();
            let names = self.backend.list()?;
            let mut segs: Vec<u64> = Vec::new();
            let mut snaps: Vec<u64> = Vec::new();
            for name in &names {
                match parse_object_name(name) {
                    Some((ObjectKind::Segment, first)) => segs.push(first),
                    Some((ObjectKind::Snapshot, seq)) => snaps.push(seq),
                    None => {}
                }
            }
            segs.sort_unstable();
            // A segment is removable when the *next* segment starts at
            // or below covered + 1 (every record in it is ≤ covered).
            // The active segment is never removed.
            for window in segs.windows(2) {
                let (first, next_first) = (window[0], window[1]);
                let name = segment_name(first);
                if next_first <= covered + 1 && name != st.segment {
                    self.backend.remove(&name)?;
                    segments_removed += 1;
                }
            }
            snaps.sort_unstable();
            let keep = self.config.snapshots_kept.max(1);
            if snaps.len() > keep {
                for &seq in &snaps[..snaps.len() - keep] {
                    self.backend.remove(&snapshot_name(seq))?;
                    snapshots_removed += 1;
                }
            }
            if segments_removed + snapshots_removed > 0 {
                self.backend.sync_root()?;
            }
            st.last_covered = covered;
            st.appends_since_checkpoint = 0;
        }
        Ok(Some(CheckpointReport {
            covered_seq: covered,
            snapshot_streams: streams,
            snapshot_bytes: size,
            segments_removed,
            snapshots_removed,
        }))
    }
}

/// What one [`WalWriter::checkpoint`] call did.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// Highest record sequence the snapshot covers.
    pub covered_seq: u64,
    /// Streams captured in the snapshot's store image (the
    /// `snapshot.records` metric).
    pub snapshot_streams: u64,
    /// Size of the published snapshot in bytes.
    pub snapshot_bytes: u64,
    /// Fully covered WAL segments deleted.
    pub segments_removed: usize,
    /// Superseded snapshots deleted.
    pub snapshots_removed: usize,
}

fn encode_record(
    seq: u64,
    kind: WalRecordKind,
    patient: u32,
    session: u32,
    epoch: u32,
    samples_seen: u64,
    vertices: &[Vertex],
) -> Result<Vec<u8>, PersistError> {
    let dim = vertices.first().map(|v| v.position.dim()).unwrap_or(1);
    if dim == 0 || dim > u8::MAX as usize {
        return Err(PersistError::Corrupt(format!(
            "unsupported vertex dimensionality {dim}"
        )));
    }
    if vertices.iter().any(|v| v.position.dim() != dim) {
        return Err(PersistError::Corrupt(
            "mixed vertex dimensionality in one batch".into(),
        ));
    }
    let body_len = BODY_FIXED + vertices.len() * (8 + 1 + 8 * dim);
    if body_len > MAX_BODY {
        return Err(PersistError::Corrupt(format!(
            "record body of {body_len} bytes exceeds the {MAX_BODY} cap"
        )));
    }
    let mut buf = Vec::with_capacity(4 + 8 + body_len + 8);
    buf.extend_from_slice(&(body_len as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(kind.code());
    buf.extend_from_slice(&patient.to_le_bytes());
    buf.extend_from_slice(&session.to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&samples_seen.to_le_bytes());
    buf.push(dim as u8);
    buf.extend_from_slice(&(vertices.len() as u32).to_le_bytes());
    for v in vertices {
        buf.extend_from_slice(&v.time.to_le_bytes());
        buf.push(v.state.index() as u8);
        for &c in v.position.coords() {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    let mut fnv = Fnv::new();
    fnv.update(&buf);
    buf.extend_from_slice(&fnv.value().to_le_bytes());
    Ok(buf)
}

/// Outcome of scanning one segment's bytes.
struct SegmentScan {
    records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + intact records).
    valid_len: usize,
    /// Why scanning stopped before a clean end, if it did.
    torn: Option<String>,
}

fn scan_segment(data: &[u8], expected_first: u64) -> SegmentScan {
    if data.len() < SEG_MAGIC.len() || &data[..SEG_MAGIC.len()] != SEG_MAGIC {
        return SegmentScan {
            records: Vec::new(),
            valid_len: 0,
            torn: Some("missing or torn segment header".into()),
        };
    }
    let mut records = Vec::new();
    let mut offset = SEG_MAGIC.len();
    let mut expected_seq = expected_first;
    let torn = loop {
        // The clean-end rule: no record starts with a zero length, so
        // an all-zero remainder (empty included) is preallocated space.
        // A record's length field has a nonzero byte among its first
        // four, so this stops early everywhere but at the tail.
        if data[offset..].iter().all(|&b| b == 0) {
            break None;
        }
        match decode_record_at(data, offset, expected_seq) {
            Ok((record, next_offset)) => {
                records.push(record);
                expected_seq += 1;
                offset = next_offset;
            }
            Err(reason) => break Some(reason),
        }
    };
    SegmentScan {
        records,
        valid_len: offset,
        torn,
    }
}

/// Little-endian field readers. Every caller bounds-checks
/// `at + width` before reading, so the fixed-width subslice always
/// converts into its same-width array.
fn read_u32(data: &[u8], at: usize) -> u32 {
    // lint:allow(no-unwrap-in-lib): 4-byte subslice into [u8; 4] is infallible
    u32::from_le_bytes(data[at..at + 4].try_into().unwrap())
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    // lint:allow(no-unwrap-in-lib): 8-byte subslice into [u8; 8] is infallible
    u64::from_le_bytes(data[at..at + 8].try_into().unwrap())
}

fn read_f64(data: &[u8], at: usize) -> f64 {
    // lint:allow(no-unwrap-in-lib): 8-byte subslice into [u8; 8] is infallible
    f64::from_le_bytes(data[at..at + 8].try_into().unwrap())
}

fn decode_record_at(
    data: &[u8],
    offset: usize,
    expected_seq: u64,
) -> Result<(WalRecord, usize), String> {
    let remaining = data.len() - offset;
    if remaining < 4 {
        return Err(format!("torn length field ({remaining} bytes)"));
    }
    let le_u32 = |at: usize| read_u32(data, at);
    let le_u64 = |at: usize| read_u64(data, at);
    let le_f64 = |at: usize| read_f64(data, at);
    let body_len = le_u32(offset) as usize;
    if !(BODY_FIXED..=MAX_BODY).contains(&body_len) {
        return Err(format!("implausible record body length {body_len}"));
    }
    let total = 4 + 8 + body_len + 8;
    if remaining < total {
        return Err(format!(
            "torn record ({remaining} of {total} bytes present)"
        ));
    }
    let checked = &data[offset..offset + 4 + 8 + body_len];
    let mut fnv = Fnv::new();
    fnv.update(checked);
    let stored_sum = le_u64(offset + 4 + 8 + body_len);
    if fnv.value() != stored_sum {
        return Err("record checksum mismatch".into());
    }
    let seq = le_u64(offset + 4);
    if seq != expected_seq {
        return Err(format!(
            "sequence gap: expected {expected_seq}, found {seq}"
        ));
    }
    let mut at = offset + 12;
    let kind =
        WalRecordKind::from_code(data[at]).ok_or_else(|| format!("unknown kind {}", data[at]))?;
    let patient = le_u32(at + 1);
    let session = le_u32(at + 5);
    let epoch = le_u32(at + 9);
    let samples_seen = le_u64(at + 13);
    let dim = data[at + 21] as usize;
    let count = le_u32(at + 22) as usize;
    at += BODY_FIXED;
    if dim == 0 {
        return Err("zero vertex dimensionality".into());
    }
    if body_len != BODY_FIXED + count * (8 + 1 + 8 * dim) {
        return Err(format!(
            "body length {body_len} inconsistent with {count} vertices of dim {dim}"
        ));
    }
    let mut vertices = Vec::with_capacity(count);
    for _ in 0..count {
        let time = le_f64(at);
        let state = BreathState::from_index(data[at + 8] as usize)
            .ok_or_else(|| format!("undefined state code {}", data[at + 8]))?;
        let mut coords = Vec::with_capacity(dim);
        for d in 0..dim {
            coords.push(le_f64(at + 9 + 8 * d));
        }
        let position =
            Position::from_slice(&coords).ok_or_else(|| "invalid vertex position".to_string())?;
        vertices.push(Vertex::new(time, position, state));
        at += 8 + 1 + 8 * dim;
    }
    Ok((
        WalRecord {
            seq,
            kind,
            patient,
            session,
            epoch,
            samples_seen,
            vertices,
        },
        at + 8,
    ))
}

fn encode_snapshot(store: &StreamStore, covered: u64) -> Result<(Vec<u8>, u64), PersistError> {
    let mut store_bytes = Vec::new();
    save_store(store, &mut store_bytes)?;
    let features = store.segment_features(0);
    let mut buf = Vec::with_capacity(store_bytes.len() + 256);
    buf.extend_from_slice(SNAP_MAGIC);
    buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    buf.extend_from_slice(&covered.to_le_bytes());
    buf.extend_from_slice(&(store_bytes.len() as u64).to_le_bytes());
    buf.extend_from_slice(&store_bytes);
    // Feature-index summaries: one axis (the classification axis), per
    // stream the segment count, the amplitude total and the duration
    // (end time minus start time) of the whole stream. Recovery rebuilds
    // the features and verifies against these, so a restarted node knows
    // its rebuilt index matches the pre-crash one.
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    let streams = features.streams();
    buf.extend_from_slice(&(streams.len() as u32).to_le_bytes());
    for sf in streams {
        let nseg = sf.num_segments();
        buf.extend_from_slice(&(nseg as u64).to_le_bytes());
        buf.extend_from_slice(&sf.amp_sum(0, nseg).to_le_bytes());
        buf.extend_from_slice(&sf.window_duration(0, nseg).to_le_bytes());
    }
    let mut fnv = Fnv::new();
    fnv.update(&buf);
    buf.extend_from_slice(&fnv.value().to_le_bytes());
    Ok((buf, streams.len() as u64))
}

struct SnapshotImage {
    covered: u64,
    store: StreamStore,
    store_report: RecoveryReport,
    /// Per-stream (segments, amplitude total, duration total).
    summaries: Vec<(u64, f64, f64)>,
    outer_verified: bool,
}

fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotImage, PersistError> {
    if bytes.len() < 8 + 4 + 8 + 8 + 8 || &bytes[..8] != SNAP_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let le_u32 = |at: usize| read_u32(bytes, at);
    let le_u64 = |at: usize| read_u64(bytes, at);
    let version = le_u32(8);
    if version != SNAP_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let covered = le_u64(12);
    let store_len = le_u64(20) as usize;
    let store_start = 28;
    if bytes.len() < store_start + store_len + 8 {
        return Err(PersistError::Corrupt("snapshot truncated".into()));
    }
    let mut fnv = Fnv::new();
    fnv.update(&bytes[..bytes.len() - 8]);
    let outer_verified = fnv.value() == le_u64(bytes.len() - 8);
    // The store image is independently checksummed; salvage it even
    // when the outer checksum fails (the damage may be in the summary
    // section), reconciling with the existing salvage machinery.
    let (store, store_report) = salvage_store(&bytes[store_start..store_start + store_len])?;
    let mut summaries = Vec::new();
    let mut at = store_start + store_len;
    let end = bytes.len() - 8;
    let parse_summaries = |at: &mut usize| -> Option<Vec<(u64, f64, f64)>> {
        let need = |at: usize, n: usize| at + n <= end;
        if !need(*at, 12) {
            return None;
        }
        let naxes = le_u32(*at);
        let axis = le_u32(*at + 4);
        let nstreams = le_u32(*at + 8) as usize;
        *at += 12;
        if naxes != 1 || axis != 0 || !need(*at, nstreams * 24) {
            return None;
        }
        let mut out = Vec::with_capacity(nstreams);
        for _ in 0..nstreams {
            out.push((
                le_u64(*at),
                read_f64(bytes, *at + 8),
                read_f64(bytes, *at + 16),
            ));
            *at += 24;
        }
        Some(out)
    };
    if outer_verified {
        if let Some(parsed) = parse_summaries(&mut at) {
            summaries = parsed;
        }
    }
    Ok(SnapshotImage {
        covered,
        store,
        store_report,
        summaries,
        outer_verified,
    })
}

/// What a [`recover`] pass found and did — the WAL-level analogue of
/// the store-level [`RecoveryReport`], which it embeds.
#[derive(Debug, Clone, Default)]
pub struct WalRecoveryReport {
    /// `covered_seq` of the snapshot recovery started from, if any.
    pub snapshot_seq: Option<u64>,
    /// The salvage report for the snapshot's embedded store image.
    pub snapshot_store: Option<RecoveryReport>,
    /// Newer snapshots that were skipped as unparseable.
    pub snapshots_skipped: usize,
    /// True when the rebuilt feature index matched the snapshot's
    /// feature summaries (vacuously true without a snapshot).
    pub features_verified: bool,
    /// Segments whose records were scanned.
    pub segments_scanned: usize,
    /// Records with `seq > covered_seq` applied during replay.
    pub replayed_records: u64,
    /// Vertices contained in the applied records.
    pub replayed_vertices: u64,
    /// True when a torn/corrupt tail was truncated away.
    pub truncated_tail: bool,
    /// Why the first torn tail stopped the scan (decoder diagnostic).
    pub truncation_reason: Option<String>,
    /// Bytes removed by tail truncation.
    pub truncated_bytes: u64,
    /// Valid-looking records stranded beyond a sequence gap (external
    /// corruption); they cannot be trusted and are dropped.
    pub records_beyond_gap: u64,
    /// Sessions whose streams were added to the store by replay.
    pub sessions_recovered: usize,
    /// Of those, sessions with no end record (open at the crash).
    pub sessions_partial: usize,
    /// Sessions ended as discarded (dropped by design).
    pub sessions_discarded: usize,
    /// Open sessions whose replayed data could not yet form a stream
    /// (e.g. a single vertex); their records stay uncovered so a later
    /// recovery sees them again.
    pub sessions_pinned: usize,
    /// Highest valid sequence number observed (0 when none).
    pub last_seq: u64,
}

impl std::fmt::Display for WalRecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.snapshot_seq {
            Some(seq) => write!(f, "recovered from snapshot @{seq}")?,
            None => write!(f, "recovered without snapshot")?,
        }
        write!(
            f,
            ": replayed {} records ({} vertices) from {} segment(s), {} session(s) recovered \
             ({} partial, {} discarded)",
            self.replayed_records,
            self.replayed_vertices,
            self.segments_scanned,
            self.sessions_recovered,
            self.sessions_partial,
            self.sessions_discarded,
        )?;
        if self.truncated_tail {
            write!(f, "; truncated {} torn tail byte(s)", self.truncated_bytes)?;
            if let Some(reason) = &self.truncation_reason {
                write!(f, " ({reason})")?;
            }
        }
        if self.records_beyond_gap > 0 {
            write!(
                f,
                "; dropped {} record(s) beyond a gap",
                self.records_beyond_gap
            )?;
        }
        if self.snapshots_skipped > 0 {
            write!(
                f,
                "; skipped {} damaged snapshot(s)",
                self.snapshots_skipped
            )?;
        }
        if !self.features_verified {
            write!(f, "; feature summaries DID NOT verify")?;
        }
        Ok(())
    }
}

/// The result of a recovery pass: a store holding every recovered
/// stream, a [`WalWriter`] positioned to continue appending, and the
/// structured report.
#[derive(Debug)]
pub struct WalRecovery {
    /// The recovered store.
    pub store: StreamStore,
    /// A writer continuing after the last valid record.
    pub writer: WalWriter,
    /// What recovery found and did.
    pub report: WalRecoveryReport,
}

/// Recovers a store from `backend`: loads the newest parseable
/// snapshot, replays WAL records past its coverage, repairs torn
/// tails, and returns a writer positioned to continue. Damage is never
/// a hard error — only real backend I/O failures are.
pub fn recover(
    backend: Arc<dyn DurableBackend>,
    config: WalConfig,
) -> Result<WalRecovery, PersistError> {
    recover_with_base(backend, config, None)
}

/// [`recover`] with a fallback base store: when no snapshot exists,
/// replay starts over `base` (e.g. a store loaded from a whole-file
/// save) instead of an empty store. A snapshot, when present, takes
/// precedence — it is by construction a superset of any base the WAL
/// was started with.
pub fn recover_with_base(
    backend: Arc<dyn DurableBackend>,
    config: WalConfig,
    base: Option<StreamStore>,
) -> Result<WalRecovery, PersistError> {
    let mut report = WalRecoveryReport {
        features_verified: true,
        ..WalRecoveryReport::default()
    };

    let names = backend.list()?;
    let mut segments: Vec<u64> = Vec::new();
    let mut snapshots: Vec<u64> = Vec::new();
    let mut stray_tmp: Vec<String> = Vec::new();
    for name in &names {
        match parse_object_name(name) {
            Some((ObjectKind::Segment, first)) => segments.push(first),
            Some((ObjectKind::Snapshot, seq)) => snapshots.push(seq),
            None if name.ends_with(".tmp") => stray_tmp.push(name.clone()),
            None => {}
        }
    }
    segments.sort_unstable();
    snapshots.sort_unstable();
    // A stray .tmp is an interrupted snapshot publish; it was never
    // renamed into place, so it holds nothing durable.
    for name in &stray_tmp {
        backend.remove(name).ok();
    }

    // 1. Newest parseable snapshot wins; damaged ones are skipped.
    let mut snapshot: Option<SnapshotImage> = None;
    for &seq in snapshots.iter().rev() {
        match backend
            .read(&snapshot_name(seq))
            .map_err(PersistError::from)
            .and_then(|bytes| decode_snapshot(&bytes))
        {
            Ok(image) => {
                snapshot = Some(image);
                break;
            }
            Err(_) => report.snapshots_skipped += 1,
        }
    }
    let (covered, store) = match snapshot {
        Some(image) => {
            report.snapshot_seq = Some(image.covered);
            report.snapshot_store = Some(image.store_report.clone());
            report.features_verified =
                image.outer_verified && verify_summaries(&image.store, &image.summaries);
            (image.covered, image.store)
        }
        None => (0, base.unwrap_or_default()),
    };

    // 2. Scan segments and replay records with seq > covered.
    let mut existing: std::collections::BTreeSet<(u32, u32)> = store
        .streams()
        .iter()
        .map(|s| (s.meta.patient.0, s.meta.session))
        .collect();
    let mut accums: BTreeMap<(u32, u32), SessionAccum> = BTreeMap::new();
    let mut expected_next: Option<u64> = None;
    let mut last_seq = covered;
    // The last segment, with the end of its last record and its size.
    let mut active: Option<(String, u64, u64)> = None;
    let mut gap_at: Option<usize> = None;
    for (i, &first) in segments.iter().enumerate() {
        let name = segment_name(first);
        let is_last = i + 1 == segments.len();
        // Fully covered by the snapshot (the next segment starts at or
        // below covered + 1): nothing to replay, skip the scan.
        if !is_last && segments[i + 1] <= covered + 1 {
            continue;
        }
        if let Some(expected) = expected_next {
            if first != expected {
                gap_at = Some(i);
                break;
            }
        }
        let data = backend.read(&name)?;
        let scan = scan_segment(&data, first);
        report.segments_scanned += 1;
        for record in &scan.records {
            last_seq = last_seq.max(record.seq);
            if record.seq <= covered {
                continue;
            }
            report.replayed_records += 1;
            report.replayed_vertices += record.vertices.len() as u64;
            apply_record(record, &store, &mut existing, &mut accums, &mut report);
        }
        if let Some(reason) = scan.torn {
            let torn_bytes = data.len() - scan.valid_len;
            report.truncated_tail = true;
            report.truncation_reason.get_or_insert(reason);
            report.truncated_bytes += torn_bytes as u64;
            if scan.valid_len == 0 {
                // Header never made it down; the file holds nothing.
                backend.remove(&name)?;
            } else {
                let valid_len = scan.valid_len as u64;
                backend.truncate(&name, valid_len)?;
                if is_last {
                    active = Some((name.clone(), valid_len, valid_len));
                }
            }
            if !is_last {
                gap_at = Some(i + 1);
            }
            break;
        }
        expected_next = scan.records.last().map(|r| r.seq + 1).or(expected_next);
        if is_last {
            active = Some((name, scan.valid_len as u64, data.len() as u64));
        }
    }
    // 3. Records beyond a gap (or after a torn mid-sequence segment)
    // are unreachable in sequence order: count, then drop the files.
    if let Some(start) = gap_at {
        for &first in &segments[start..] {
            let name = segment_name(first);
            if let Ok(data) = backend.read(&name) {
                report.records_beyond_gap += scan_segment(&data, first).records.len() as u64;
            }
            backend.remove(&name)?;
        }
        backend.sync_root()?;
    }

    // 4. Sessions still open at the crash: materialize what they had —
    // that data was acknowledged. Too-short tails stay pinned in the
    // writer's open set so they are never covered away.
    let mut pinned: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let open: Vec<((u32, u32), SessionAccum)> = accums.into_iter().collect();
    for ((patient, session), accum) in open {
        let first_seq = accum.first_seq;
        match materialize(&store, patient, session, accum, &mut existing) {
            Ok(true) => {
                report.sessions_recovered += 1;
                report.sessions_partial += 1;
            }
            Ok(false) => {}
            Err(_) => {
                report.sessions_pinned += 1;
                pinned.insert((patient, session), first_seq);
            }
        }
    }
    report.last_seq = last_seq;

    // 5. Verify + pre-warm the feature index over the final store.
    if report.snapshot_seq.is_some() || report.replayed_records > 0 {
        store.segment_features(0);
    }

    // 6. Position the writer after the last valid record, keeping any
    // preallocated space behind it.
    let next_seq = last_seq + 1;
    let (segment, segment_bytes, segment_len) = match active {
        Some(active) => active,
        None => {
            let name = segment_name(next_seq);
            backend.append(&name, SEG_MAGIC)?;
            backend.sync(&name)?;
            backend.sync_root()?;
            let magic_len = SEG_MAGIC.len() as u64;
            (name, magic_len, magic_len)
        }
    };
    let writer = WalWriter {
        backend,
        config,
        state: Mutex::new(WriterState {
            next_seq,
            segment,
            segment_bytes,
            segment_len,
            open_sessions: pinned,
            last_covered: report.snapshot_seq.unwrap_or(0),
            appends_since_checkpoint: 0,
            failed: false,
        }),
        checkpoint_lock: Mutex::new(()),
    };
    Ok(WalRecovery {
        store,
        writer,
        report,
    })
}

#[derive(Debug, Default)]
struct SessionAccum {
    vertices: Vec<Vertex>,
    samples_seen: u64,
    first_seq: u64,
}

fn apply_record(
    record: &WalRecord,
    store: &StreamStore,
    existing: &mut std::collections::BTreeSet<(u32, u32)>,
    accums: &mut BTreeMap<(u32, u32), SessionAccum>,
    report: &mut WalRecoveryReport,
) {
    let key = (record.patient, record.session);
    match record.kind {
        WalRecordKind::VertexBatch => {
            let accum = accums.entry(key).or_default();
            if accum.vertices.is_empty() && accum.first_seq == 0 {
                accum.first_seq = record.seq;
            }
            accum.vertices.extend_from_slice(&record.vertices);
            accum.samples_seen = accum.samples_seen.max(record.samples_seen);
        }
        WalRecordKind::SessionEnd { stored: false } => {
            accums.remove(&key);
            report.sessions_discarded += 1;
        }
        WalRecordKind::SessionEnd { stored: true } => {
            let Some(mut accum) = accums.remove(&key) else {
                return;
            };
            accum.samples_seen = accum.samples_seen.max(record.samples_seen);
            if matches!(
                materialize(store, record.patient, record.session, accum, existing),
                Ok(true)
            ) {
                report.sessions_recovered += 1;
            }
        }
    }
}

fn materialize(
    store: &StreamStore,
    patient: u32,
    session: u32,
    accum: SessionAccum,
    existing: &mut std::collections::BTreeSet<(u32, u32)>,
) -> Result<bool, String> {
    if existing.contains(&(patient, session)) {
        // Already present (covered by the snapshot): the replay record
        // is a duplicate of stored data, not new information.
        return Ok(false);
    }
    let plr = PlrTrajectory::from_vertices(accum.vertices).map_err(|e| e.to_string())?;
    while store.num_patients() <= patient as usize {
        store.add_patient(PatientAttributes::new());
    }
    store
        .try_add_stream(
            PatientId(patient),
            session,
            plr,
            accum.samples_seen as usize,
        )
        .map_err(|e| e.to_string())?;
    existing.insert((patient, session));
    Ok(true)
}

fn verify_summaries(store: &StreamStore, summaries: &[(u64, f64, f64)]) -> bool {
    let features = store.segment_features(0);
    let streams = features.streams();
    if streams.len() < summaries.len() {
        return false;
    }
    summaries.iter().zip(streams.iter()).all(|(s, sf)| {
        let nseg = sf.num_segments();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        s.0 == nseg as u64
            && close(s.1, sf.amp_sum(0, nseg))
            && close(s.2, sf.window_duration(0, nseg))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use tsm_model::BreathState::*;

    fn mem() -> Arc<dyn DurableBackend> {
        Arc::new(MemBackend::new())
    }

    fn verts(base: f64, n: usize) -> Vec<Vertex> {
        (0..n)
            .map(|i| {
                let t = base + i as f64;
                let amp = if i % 2 == 0 { 10.0 } else { 0.0 };
                let state = if i % 2 == 0 { Exhale } else { Inhale };
                Vertex::new_1d(t, amp, state)
            })
            .collect()
    }

    fn fresh_writer(backend: &Arc<dyn DurableBackend>) -> WalWriter {
        recover(backend.clone(), WalConfig::default())
            .unwrap()
            .writer
    }

    #[test]
    fn record_roundtrip() {
        let vs = verts(0.0, 5);
        let bytes = encode_record(7, WalRecordKind::VertexBatch, 1, 2, 3, 99, &vs).unwrap();
        let (record, consumed) = decode_record_at(&bytes, 0, 7).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(record.seq, 7);
        assert_eq!(record.kind, WalRecordKind::VertexBatch);
        assert_eq!((record.patient, record.session, record.epoch), (1, 2, 3));
        assert_eq!(record.samples_seen, 99);
        assert_eq!(record.vertices, vs);
    }

    #[test]
    fn append_then_recover_roundtrip() {
        let backend = mem();
        let writer = fresh_writer(&backend);
        let r1 = writer.append_batch(0, 0, 0, 30, &verts(0.0, 4)).unwrap();
        let r2 = writer.append_batch(0, 0, 0, 60, &verts(4.0, 4)).unwrap();
        assert_eq!((r1.seq, r2.seq), (1, 2));
        assert!(r1.fsynced);
        writer.append_end(0, 0, 60, true).unwrap();

        let recovered = recover(backend, WalConfig::default()).unwrap();
        assert_eq!(recovered.report.replayed_records, 3);
        assert_eq!(recovered.report.replayed_vertices, 8);
        assert_eq!(recovered.report.sessions_recovered, 1);
        assert_eq!(recovered.report.sessions_partial, 0);
        assert!(!recovered.report.truncated_tail);
        assert_eq!(recovered.store.num_streams(), 1);
        assert_eq!(recovered.store.total_vertices(), 8);
        assert_eq!(recovered.writer.next_seq(), 4);
    }

    #[test]
    fn open_session_recovers_as_partial() {
        let backend = mem();
        let writer = fresh_writer(&backend);
        writer.append_batch(2, 5, 0, 30, &verts(0.0, 6)).unwrap();
        let recovered = recover(backend, WalConfig::default()).unwrap();
        assert_eq!(recovered.report.sessions_recovered, 1);
        assert_eq!(recovered.report.sessions_partial, 1);
        // Patients 0..=2 were created so the stream is not orphaned.
        assert_eq!(recovered.store.num_patients(), 3);
        let streams = recovered.store.streams();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].meta.patient.0, 2);
        assert_eq!(streams[0].meta.session, 5);
    }

    #[test]
    fn discarded_session_is_dropped() {
        let backend = mem();
        let writer = fresh_writer(&backend);
        writer.append_batch(0, 0, 0, 30, &verts(0.0, 4)).unwrap();
        writer.append_end(0, 0, 30, false).unwrap();
        let recovered = recover(backend, WalConfig::default()).unwrap();
        assert_eq!(recovered.report.sessions_discarded, 1);
        assert_eq!(recovered.store.num_streams(), 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let backend = mem();
        let writer = fresh_writer(&backend);
        writer.append_batch(0, 0, 0, 30, &verts(0.0, 4)).unwrap();
        writer.append_batch(0, 0, 0, 60, &verts(4.0, 4)).unwrap();
        // Tear the tail: drop the last 5 bytes of the last record (and
        // the preallocated space behind it).
        let seg = segment_name(1);
        let end = writer.lock_state().segment_bytes;
        backend.truncate(&seg, end - 5).unwrap();

        let recovered = recover(backend.clone(), WalConfig::default()).unwrap();
        assert!(recovered.report.truncated_tail);
        assert_eq!(recovered.report.replayed_records, 1);
        assert_eq!(recovered.store.total_vertices(), 4);
        // The writer continues where the valid prefix ended; the next
        // recovery sees a clean log.
        recovered
            .writer
            .append_batch(0, 1, 0, 30, &verts(0.0, 4))
            .unwrap();
        let again = recover(backend, WalConfig::default()).unwrap();
        assert!(!again.report.truncated_tail);
        assert_eq!(again.report.replayed_records, 2);
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let backend = mem();
        let config = WalConfig {
            segment_max_bytes: 256,
            ..WalConfig::default()
        };
        let writer = recover(backend.clone(), config.clone()).unwrap().writer;
        for i in 0..10u64 {
            writer
                .append_batch(0, 0, 0, 30 * (i + 1), &verts(i as f64 * 4.0, 4))
                .unwrap();
        }
        let segments = backend
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("wal-"))
            .count();
        assert!(segments > 1, "expected a roll, got {segments} segment(s)");
        let recovered = recover(backend, config).unwrap();
        assert_eq!(recovered.report.replayed_records, 10);
        assert_eq!(recovered.report.last_seq, 10);
        assert_eq!(recovered.store.total_vertices(), 40);
    }

    /// Parses a [`MemBackend`] op such as `write_at(wal-1.log,8,120)`
    /// into its name and numeric arguments.
    fn parse_op(op: &str) -> (&str, &str, Vec<u64>) {
        let (kind, rest) = op.split_once('(').unwrap_or((op, ")"));
        let mut args = rest.trim_end_matches(')').split(',');
        let name = args.next().unwrap_or("");
        (kind, name, args.map(|a| a.parse().unwrap()).collect())
    }

    /// No receipt precedes its covering sync. Each record's `write_at`,
    /// and every chunk `append` its bytes landed in, come before a
    /// `sync` of that segment, and that sync comes before
    /// `append_batch` returns — for records that extend the segment by
    /// a chunk, for records written into space preallocated earlier,
    /// and across a segment roll.
    #[test]
    fn no_receipt_precedes_its_covering_sync() {
        let mem = Arc::new(MemBackend::new());
        let backend: Arc<dyn DurableBackend> = mem.clone();
        let config = WalConfig {
            segment_max_bytes: PREALLOC_CHUNK + PREALLOC_CHUNK / 2,
            ..WalConfig::default()
        };
        let writer = recover(backend, config).unwrap().writer;
        let batch = verts(0.0, 20);
        // Per segment: its size, the end of its last record, and each
        // chunk append as (start, end, op index).
        let mut size: BTreeMap<String, u64> = BTreeMap::new();
        let mut record_end: BTreeMap<String, u64> = BTreeMap::new();
        let mut chunks: BTreeMap<String, Vec<(u64, u64, usize)>> = BTreeMap::new();
        let (mut extending, mut trims) = (0, 0);
        let mut logged = 0;
        // Until the roll's new segment holds a record written in place.
        let mut i = 0u64;
        loop {
            i += 1;
            assert!(i < 2000, "no roll after {i} appends");
            writer.append_batch(0, 0, 0, i, &batch).unwrap();
            let ops = mem.ops();
            // The receipt exists only now, after every op logged so far.
            let (call_start, receipt) = (logged, ops.len());
            logged = receipt;
            let mut write = None;
            for (ix, op) in ops.iter().enumerate().skip(call_start) {
                let (kind, name, args) = parse_op(op);
                let len = size.entry(name.to_string()).or_insert(0);
                match kind {
                    // The first append of a segment is its magic.
                    "append" if *len > 0 => {
                        chunks.entry(name.to_string()).or_default().push((
                            *len,
                            *len + args[0],
                            ix,
                        ));
                        *len += args[0];
                    }
                    "append" => *len += args[0],
                    "truncate" => {
                        *len = args[0];
                        trims += 1;
                    }
                    "write_at" => {
                        assert!(write.is_none(), "two writes in one append: {op}");
                        write = Some((ix, name.to_string(), args[0], args[0] + args[1]));
                    }
                    _ => {}
                }
            }
            let (write_ix, segment, start, end) = write.expect("a write_at per record");
            record_end.insert(segment.clone(), end);
            let landed_in: Vec<usize> = chunks[&segment]
                .iter()
                .filter(|&&(lo, hi, _)| lo < end && start < hi)
                .map(|&(_, _, ix)| ix)
                .collect();
            assert!(!landed_in.is_empty(), "record {i} outside every chunk");
            let in_place = landed_in.iter().all(|&ix| ix < call_start);
            if !in_place {
                extending += 1;
            }
            let covered_from = landed_in.into_iter().chain([write_ix]).max().unwrap();
            let sync = format!("sync({segment})");
            assert!(
                ops[covered_from + 1..receipt].contains(&sync),
                "record {i}: no {sync} between its writes and its receipt: {:?}",
                &ops[covered_from..receipt]
            );
            if chunks.len() == 2 && in_place {
                break;
            }
        }
        // Two chunks in the first segment, one in the second, and the
        // sealed segment trimmed to its records at the roll.
        assert_eq!(extending, 3, "chunks: {chunks:?}");
        assert_eq!(trims, 1);
        let first = segment_name(1);
        assert_eq!(mem.size(&first).unwrap(), Some(record_end[&first]));
    }

    /// Recovery keeps the preallocated tail and continues inside it: the
    /// next record is an overwrite, with no chunk appended.
    #[test]
    fn recovery_keeps_the_zero_tail_and_writes_into_it() {
        let mem = Arc::new(MemBackend::new());
        let backend: Arc<dyn DurableBackend> = mem.clone();
        let writer = fresh_writer(&backend);
        writer.append_batch(0, 0, 0, 30, &verts(0.0, 4)).unwrap();
        let (end, len) = {
            let st = writer.lock_state();
            (st.segment_bytes, st.segment_len)
        };
        assert_eq!(len, SEG_MAGIC.len() as u64 + PREALLOC_CHUNK);
        assert_eq!(mem.size(&segment_name(1)).unwrap(), Some(len));
        drop(writer);

        let rec = recover(backend.clone(), WalConfig::default()).unwrap();
        assert!(!rec.report.truncated_tail, "{}", rec.report);
        assert_eq!(rec.report.replayed_records, 1);
        {
            let st = rec.writer.lock_state();
            assert_eq!((st.segment_bytes, st.segment_len), (end, len));
        }
        let second = verts(4.0, 4);
        let record = encode_record(2, WalRecordKind::VertexBatch, 0, 0, 0, 60, &second).unwrap();
        let before = mem.ops().len();
        rec.writer.append_batch(0, 0, 0, 60, &second).unwrap();
        let seg = segment_name(1);
        assert_eq!(
            mem.ops()[before..],
            [
                format!("write_at({seg},{end},{})", record.len()),
                format!("sync({seg})")
            ]
        );
        assert_eq!(mem.size(&seg).unwrap(), Some(len));
        let again = recover(backend, WalConfig::default()).unwrap();
        assert!(!again.report.truncated_tail);
        assert_eq!(again.report.replayed_records, 2);
    }

    /// A record that straddles the end of the preallocated tail gets a
    /// chunk no larger than the room left under `segment_max_bytes`,
    /// even when that room is smaller than the record itself.
    #[test]
    fn preallocation_stays_within_the_segment_cap() {
        let mem = Arc::new(MemBackend::new());
        let backend: Arc<dyn DurableBackend> = mem.clone();
        let config = WalConfig {
            segment_max_bytes: SEG_MAGIC.len() as u64 + PREALLOC_CHUNK + 92,
            ..WalConfig::default()
        };
        let writer = recover(backend, config.clone()).unwrap().writer;
        let tail = || {
            let st = writer.lock_state();
            st.segment_len - st.segment_bytes
        };
        // 63-byte records until 34..97 zeros are left in the chunk.
        let mut seq = 0;
        while seq == 0 || tail() >= 97 {
            seq += 1;
            writer.append_batch(0, 0, 0, seq, &verts(0.0, 1)).unwrap();
        }
        assert!((34..97).contains(&tail()), "{}", tail());
        // 97 bytes: too big for the tail and for the 92 bytes of room
        // behind it, yet within the cap, so the segment does not roll.
        writer
            .append_batch(0, 0, 0, seq + 1, &verts(0.0, 3))
            .unwrap();
        let seg = segment_name(1);
        assert_eq!(writer.lock_state().segment, seg);
        assert_eq!(mem.size(&seg).unwrap(), Some(config.segment_max_bytes));
        let rec = recover(mem.clone(), config).unwrap();
        assert_eq!(rec.report.replayed_records, seq + 1);
    }

    /// A sealed segment whose trim did not survive a crash ends in
    /// zeros. That is a clean end, so the later segments still replay.
    #[test]
    fn zero_tail_in_a_sealed_segment_is_no_gap() {
        let backend = mem();
        let config = WalConfig {
            segment_max_bytes: 256,
            ..WalConfig::default()
        };
        let writer = recover(backend.clone(), config.clone()).unwrap().writer;
        for i in 0..6u64 {
            writer
                .append_batch(0, 0, 0, 30 * (i + 1), &verts(i as f64 * 4.0, 4))
                .unwrap();
        }
        let first = segment_name(1);
        let sealed = backend.size(&first).unwrap().unwrap();
        assert!(writer.lock_state().segment != first, "no roll");
        backend.append(&first, &[0; 100]).unwrap();
        backend.sync(&first).unwrap();
        let rec = recover(backend.clone(), config).unwrap();
        assert!(!rec.report.truncated_tail, "{}", rec.report);
        assert_eq!(rec.report.records_beyond_gap, 0, "{}", rec.report);
        assert_eq!(rec.report.replayed_records, 6);
        assert_eq!(backend.size(&first).unwrap(), Some(sealed + 100));
    }

    #[test]
    fn checkpoint_covers_closed_sessions_and_gcs_segments() {
        let backend = mem();
        let config = WalConfig {
            segment_max_bytes: 200,
            ..WalConfig::default()
        };
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let writer = recover(backend.clone(), config.clone()).unwrap().writer;

        // Closed, stored session.
        let vs = verts(0.0, 6);
        writer.append_batch(p.0, 0, 0, 60, &vs).unwrap();
        store.add_stream(p, 0, PlrTrajectory::from_vertices(vs).unwrap(), 60);
        writer.append_end(p.0, 0, 60, true).unwrap();
        // Open session: its records must stay uncovered.
        writer.append_batch(p.0, 1, 0, 30, &verts(10.0, 4)).unwrap();

        let report = writer.checkpoint(&store).unwrap().unwrap();
        assert_eq!(report.covered_seq, 2, "open session must cap coverage");
        assert_eq!(report.snapshot_streams, 1);

        let recovered = recover(backend.clone(), config.clone()).unwrap();
        assert_eq!(recovered.report.snapshot_seq, Some(2));
        assert!(recovered.report.features_verified);
        // Stream 0 from the snapshot, session 1's tail from replay.
        assert_eq!(recovered.store.num_streams(), 2);
        assert_eq!(recovered.report.sessions_partial, 1);

        // Close the open session; the next checkpoint covers all and
        // GCs every sealed segment.
        writer.append_end(p.0, 1, 30, false).unwrap();
        let report = writer.checkpoint(&store).unwrap().unwrap();
        assert_eq!(report.covered_seq, 4);
        let leftover_segments = backend
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("wal-"))
            .count();
        assert_eq!(leftover_segments, 1, "only the active segment remains");
        // Unchanged coverage → no new snapshot.
        assert!(writer.checkpoint(&store).unwrap().is_none());
    }

    /// Older snapshots store each stream's duration as the forward sum of
    /// its segment durations, not as its end time minus its start time.
    /// The two differ in the last bits, and such a summary still
    /// verifies within the 1e-9 relative tolerance, which a real
    /// disagreement exceeds.
    #[test]
    fn summed_duration_summaries_still_verify() {
        let vs: Vec<Vertex> = (0..400)
            .map(|i| {
                let t = 0.1 + 0.3 * i as f64 + 0.0137 * (i % 7) as f64;
                let (amp, state) = if i % 2 == 0 {
                    (10.0, Exhale)
                } else {
                    (0.0, Inhale)
                };
                Vertex::new_1d(t, amp, state)
            })
            .collect();
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        store.add_stream(p, 0, PlrTrajectory::from_vertices(vs).unwrap(), 400);
        let features = store.segment_features(0);
        let sf = &features.streams()[0];
        let nseg = sf.num_segments();
        let summed = sf.dur.iter().fold(0.0, |acc, d| acc + d);
        assert_ne!(summed.to_bits(), sf.window_duration(0, nseg).to_bits());
        let amp = sf.amp_sum(0, nseg);
        assert!(verify_summaries(&store, &[(nseg as u64, amp, summed)]));
        let off = summed * (1.0 + 1e-6);
        assert!(!verify_summaries(&store, &[(nseg as u64, amp, off)]));
    }

    #[test]
    fn recovery_falls_back_past_damaged_snapshot() {
        let backend = mem();
        let store = StreamStore::new();
        let p = store.add_patient(PatientAttributes::new());
        let writer = fresh_writer(&backend);
        let vs = verts(0.0, 4);
        writer.append_batch(p.0, 0, 0, 40, &vs).unwrap();
        store.add_stream(p, 0, PlrTrajectory::from_vertices(vs).unwrap(), 40);
        writer.append_end(p.0, 0, 40, true).unwrap();
        writer.checkpoint(&store).unwrap().unwrap();

        // A second, newer snapshot that is garbage.
        backend
            .publish(&snapshot_name(99), b"not a snapshot")
            .unwrap();
        let recovered = recover(backend, WalConfig::default()).unwrap();
        assert_eq!(recovered.report.snapshots_skipped, 1);
        assert_eq!(recovered.report.snapshot_seq, Some(2));
        assert_eq!(recovered.store.num_streams(), 1);
    }

    /// Forwards to a [`MemBackend`] but fails every `sync` once armed.
    #[derive(Debug, Default)]
    struct FailingSync {
        inner: MemBackend,
        armed: std::sync::atomic::AtomicBool,
    }

    impl DurableBackend for FailingSync {
        fn list(&self) -> std::io::Result<Vec<String>> {
            self.inner.list()
        }
        fn size(&self, name: &str) -> std::io::Result<Option<u64>> {
            self.inner.size(name)
        }
        fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
            self.inner.read(name)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.append(name, bytes)
        }
        fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.write_at(name, offset, bytes)
        }
        fn sync(&self, name: &str) -> std::io::Result<()> {
            if self.armed.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(std::io::Error::other("injected sync failure"));
            }
            self.inner.sync(name)
        }
        fn truncate(&self, name: &str, len: u64) -> std::io::Result<()> {
            self.inner.truncate(name, len)
        }
        fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, name: &str) -> std::io::Result<()> {
            self.inner.remove(name)
        }
        fn sync_root(&self) -> std::io::Result<()> {
            self.inner.sync_root()
        }
    }

    #[test]
    fn writer_fails_permanently_after_append_error() {
        let backend = Arc::new(FailingSync::default());
        let writer = recover(
            backend.clone() as Arc<dyn DurableBackend>,
            WalConfig::default(),
        )
        .unwrap()
        .writer;
        writer.append_batch(0, 0, 0, 10, &verts(0.0, 2)).unwrap();
        backend
            .armed
            .store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(writer.append_batch(0, 0, 0, 20, &verts(2.0, 2)).is_err());
        backend
            .armed
            .store(false, std::sync::atomic::Ordering::Relaxed);
        // Stays failed even though the next append would succeed:
        // appending past a possibly-torn region could strand later
        // acknowledged records behind an unreadable one.
        assert!(writer.append_batch(0, 0, 0, 30, &verts(4.0, 2)).is_err());
    }

    #[test]
    fn empty_dir_recovery_is_clean() {
        let recovered = recover(mem(), WalConfig::default()).unwrap();
        assert_eq!(recovered.report.replayed_records, 0);
        assert_eq!(recovered.report.last_seq, 0);
        assert_eq!(recovered.store.num_streams(), 0);
        assert_eq!(recovered.writer.next_seq(), 1);
    }
}
