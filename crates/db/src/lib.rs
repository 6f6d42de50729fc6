//! # tsm-db
//!
//! The hierarchical stream database of the paper's data model (Section
//! 3.2): *"The database is composed of a set of patient records. Each
//! patient record has a set of data streams. Each stream has an ordered
//! list of connected line segments, which is represented by an ordered
//! list of vertices."*
//!
//! Everything lives in memory — the paper itself notes (Section 7.5) that
//! "all the data can fit in memory, no disk I/O is needed". The store is
//! shared-read / exclusive-write ([`parking_lot::RwLock`] inside) so an
//! online predictor can append to a live stream while offline analysis
//! scans the rest.
//!
//! Key concepts:
//!
//! * [`StreamStore`] — the database: patients → sessions → streams.
//! * [`SourceRelation`] — the provenance of a candidate subsequence
//!   relative to a query (same session / same patient / other patient),
//!   which drives the `ws` weight of the similarity measure.
//! * [`SubseqRef`] / [`SubseqView`] — lightweight references to `len`
//!   consecutive PLR segments of a stream, the unit of matching.
//! * [`FeatureIndex`] — an index from state-order signatures to window
//!   summaries, making the Definition-2 state-order gate a hash lookup and
//!   adding amplitude/duration lower-bound bands (the paper lists indexing
//!   as future work; see the `matching` bench for its effect).

pub mod backend;
pub mod feature_index;
pub mod features;
pub mod ids;
pub mod persist;
pub mod stats;
pub mod store;
pub mod stream;
pub mod subsequence;
pub mod wal;

pub use backend::{fsync_dir, DurableBackend, FileBackend, MemBackend};
pub use feature_index::{FeatureEntry, FeatureIndex};
pub use features::{abs_disp_sum, SegmentFeatures, StreamFeatures};
pub use ids::{PatientId, StreamId};
pub use persist::{
    load_store, load_store_from_path, salvage_store, salvage_store_from_path, save_store,
    save_store_to_path, PersistError, RecoveryReport,
};
pub use stats::{StoreStats, StreamStats};
pub use store::{PatientAttributes, SharedStore, SourceRelation, StoreError, StreamStore};
pub use stream::{MotionStream, StreamMeta};
pub use subsequence::{SubseqRef, SubseqView};
pub use wal::{
    recover, recover_with_base, AppendReceipt, CheckpointReport, WalConfig, WalRecord,
    WalRecordKind, WalRecovery, WalRecoveryReport, WalWriter,
};
