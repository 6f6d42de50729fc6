//! Byte-level damage properties of WAL recovery: truncate the log at
//! EVERY byte offset, and flip single bits throughout it. Recovery must
//! never hard-error, must replay exactly the intact record prefix, and
//! the recovered vertices must be bit-identical to what was appended.
//! Both sweeps run over the records alone and over the records followed
//! by the zero-filled tail the writer preallocates, whose zeros are a
//! clean end and never a torn tail.

use std::sync::Arc;
use tsm_db::{recover, DurableBackend, MemBackend, WalConfig};
use tsm_model::{BreathState, PlrTrajectory, Vertex};

const SEG_MAGIC_LEN: usize = 8;
/// Zeros kept behind the records in the zero-tail variant: enough to
/// cover every length-field and partial-record shape, few enough that
/// the every-byte sweep stays fast (the writer's tail is 64 KiB).
const ZERO_TAIL: usize = 48;

fn verts(base: f64, n: usize) -> Vec<Vertex> {
    (0..n)
        .map(|i| {
            let t = base + i as f64 * 0.37;
            let amp = if i % 2 == 0 { 9.5 + base } else { 0.25 };
            let state = if i % 2 == 0 {
                BreathState::Exhale
            } else {
                BreathState::Inhale
            };
            Vertex::new_1d(t, amp, state)
        })
        .collect()
}

/// A reference log: one open session with several batches. Returns the
/// raw segment bytes up to the end of the last record, followed by
/// `tail` bytes of the zero-filled space the writer preallocated behind
/// them; the segment's object name; the byte offset at which each
/// record ends (record boundaries); and the batches.
fn reference_log(tail: usize) -> (Vec<u8>, String, Vec<usize>, Vec<Vec<Vertex>>) {
    let backend = Arc::new(MemBackend::new());
    let dyn_backend: Arc<dyn DurableBackend> = backend.clone();
    let writer = recover(dyn_backend.clone(), WalConfig::default())
        .unwrap()
        .writer;
    let batches: Vec<Vec<Vertex>> = (0..5).map(|i| verts(i as f64 * 10.0, 3 + i)).collect();
    let name_of_only_segment = |b: &Arc<dyn DurableBackend>| {
        let segs: Vec<String> = b
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("wal-"))
            .collect();
        assert_eq!(segs.len(), 1, "reference log must stay in one segment");
        segs[0].clone()
    };
    let mut samples = 0u64;
    let mut boundaries = Vec::new();
    for batch in &batches {
        samples += batch.len() as u64 * 9;
        writer.append_batch(3, 7, 0, samples, batch).unwrap();
        // The record went in as `write_at(name,offset,len)`; it ends
        // at offset + len, short of the preallocated segment's size.
        let ops = backend.ops();
        let write = ops
            .iter()
            .rev()
            .find(|op| op.starts_with("write_at("))
            .unwrap();
        let args: Vec<usize> = write
            .trim_end_matches(')')
            .split(',')
            .skip(1)
            .map(|a| a.parse().unwrap())
            .collect();
        boundaries.push(args[0] + args[1]);
    }
    let name = name_of_only_segment(&dyn_backend);
    let mut bytes = dyn_backend.read(&name).unwrap();
    let end = *boundaries.last().unwrap();
    assert!(bytes.len() >= end + tail, "no preallocated tail");
    assert!(bytes[end..].iter().all(|&b| b == 0), "tail is not zeros");
    bytes.truncate(end + tail);
    (bytes, name, boundaries, batches)
}

/// A fresh backend holding `bytes` as the single WAL segment `name`.
fn backend_with(name: &str, bytes: &[u8]) -> Arc<dyn DurableBackend> {
    let backend: Arc<dyn DurableBackend> = Arc::new(MemBackend::new());
    if !bytes.is_empty() {
        backend.append(name, bytes).unwrap();
        backend.sync(name).unwrap();
        backend.sync_root().unwrap();
    }
    backend
}

/// The trajectory an intact prefix of `k` records must recover to.
fn expected_prefix(batches: &[Vec<Vertex>], k: usize) -> Option<PlrTrajectory> {
    let all: Vec<Vertex> = batches[..k].iter().flatten().cloned().collect();
    PlrTrajectory::from_vertices(all).ok()
}

#[test]
fn truncation_at_every_byte_recovers_the_intact_prefix() {
    truncation_sweep(0);
}

#[test]
fn truncation_at_every_byte_of_a_zero_tailed_segment_recovers_the_intact_prefix() {
    truncation_sweep(ZERO_TAIL);
}

fn truncation_sweep(tail: usize) {
    let (bytes, name, boundaries, batches) = reference_log(tail);
    let records_end = *boundaries.last().unwrap();
    for cut in 1..=bytes.len() {
        let backend = backend_with(&name, &bytes[..cut]);
        // Records wholly inside the cut survive; the torn one is gone.
        // A cut inside the zero tail leaves a clean end.
        let expected = boundaries.iter().filter(|&&b| b <= cut).count();
        let at_boundary = cut == SEG_MAGIC_LEN || boundaries.contains(&cut) || cut > records_end;
        let rec = recover(backend.clone(), WalConfig::default())
            .unwrap_or_else(|e| panic!("cut={cut}: recovery hard-errored: {e}"));
        assert_eq!(
            rec.report.replayed_records, expected as u64,
            "cut={cut}: {}",
            rec.report
        );
        assert_eq!(
            rec.report.truncated_tail, !at_boundary,
            "cut={cut}: tail report wrong ({})",
            rec.report
        );
        match expected_prefix(&batches, expected) {
            Some(plr) => assert_eq!(rec.store.streams()[0].plr, plr, "cut={cut}"),
            None => assert_eq!(rec.store.num_streams(), 0, "cut={cut}"),
        }
        // The log is repaired in place: the writer continues and a
        // second recovery sees a clean, longer log.
        rec.writer
            .append_batch(3, 7, 0, 999, &verts(90.0, 3))
            .unwrap();
        let again = recover(backend, WalConfig::default()).unwrap();
        assert!(!again.report.truncated_tail, "cut={cut}: {}", again.report);
        assert_eq!(
            again.report.replayed_records,
            expected as u64 + 1,
            "cut={cut}"
        );
    }
}

#[test]
fn single_bit_flips_never_hard_error_and_keep_the_prefix_intact() {
    bit_flip_sweep(0);
}

#[test]
fn single_bit_flips_in_a_zero_tailed_segment_keep_the_prefix_intact() {
    bit_flip_sweep(ZERO_TAIL);
}

fn bit_flip_sweep(tail: usize) {
    let (bytes, name, boundaries, batches) = reference_log(tail);
    // Every bit of the header and first record, then a stride over the
    // rest (full coverage there too would just repeat the same decode
    // paths thousands of times).
    let dense_until = boundaries[0] * 8;
    let positions = (0..bytes.len() * 8).filter(|&p| p < dense_until || p % 23 == 0);
    for pos in positions {
        let (byte, bit) = (pos / 8, pos % 8);
        let mut damaged = bytes.clone();
        damaged[byte] ^= 1 << bit;
        // The flipped byte lives in the header (kills the whole
        // segment) or inside record k (kills records k.. at most —
        // a flip may only ever shorten the recovered prefix, and
        // records before the damage always survive).
        let intact_before_damage = if byte < SEG_MAGIC_LEN {
            0
        } else {
            boundaries.iter().filter(|&&b| b <= byte).count()
        };
        let backend = backend_with(&name, &damaged);
        let rec = recover(backend, WalConfig::default())
            .unwrap_or_else(|e| panic!("bit {pos}: recovery hard-errored: {e}"));
        assert!(
            rec.report.replayed_records >= intact_before_damage as u64,
            "bit {pos}: lost records before the damage ({})",
            rec.report
        );
        assert!(
            rec.report.replayed_records <= batches.len() as u64,
            "bit {pos}: invented records ({})",
            rec.report
        );
        // Whatever prefix came back must be bit-identical to what was
        // appended — a flip must corrupt loudly (drop the tail), never
        // silently alter recovered data. A checksum collision would
        // need ~2^-64 luck, so any mismatch here is a real decoder bug.
        let k = rec.report.replayed_records as usize;
        match expected_prefix(&batches, k) {
            Some(plr) => {
                assert_eq!(rec.store.num_streams(), 1, "bit {pos}");
                assert_eq!(rec.store.streams()[0].plr, plr, "bit {pos}");
            }
            None => assert_eq!(rec.store.num_streams(), 0, "bit {pos}"),
        }
    }
}

/// The preallocated tail alone is the clean end of a segment: recovery
/// replays every record, reports no torn tail, truncates nothing, and
/// the writer continues inside the tail.
#[test]
fn zero_tail_alone_is_a_clean_end() {
    let (bytes, name, _, batches) = reference_log(ZERO_TAIL);
    let magic_only = [&bytes[..SEG_MAGIC_LEN], &[0u8; ZERO_TAIL][..]].concat();
    for (log, records) in [(&bytes[..], batches.len()), (&magic_only[..], 0)] {
        let backend = backend_with(&name, log);
        let rec = recover(backend.clone(), WalConfig::default()).unwrap();
        assert!(!rec.report.truncated_tail, "{}", rec.report);
        assert_eq!(rec.report.truncated_bytes, 0);
        assert_eq!(rec.report.replayed_records, records as u64);
        assert_eq!(backend.size(&name).unwrap(), Some(log.len() as u64));
        rec.writer.append_end(3, 7, 999, true).unwrap();
        // A session-end record fits in the 48 zeros: nothing was appended.
        assert_eq!(backend.size(&name).unwrap(), Some(log.len() as u64));
        let again = recover(backend, WalConfig::default()).unwrap();
        assert!(!again.report.truncated_tail, "{}", again.report);
        assert_eq!(again.report.replayed_records, records as u64 + 1);
    }
}
