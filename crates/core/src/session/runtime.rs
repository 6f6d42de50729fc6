//! The streaming runtime for one live session: one segmenter pass, one
//! shared-store engine, one log of prediction ticks.

use super::health::{DegradationPolicy, SessionHealth};
use crate::error::TsmError;
use crate::gating::GatingWindow;
use crate::index_cache::CachedMatcher;
use crate::matcher::{Matcher, QuerySubseq, SearchOptions};
use crate::metrics::{Counter, Hist, MetricsRegistry};
use crate::params::Params;
use crate::pipeline::PredictionOutcome;
use crate::predict::{predict_position, AlignMode};
use crate::query::generate_query;
use std::cell::RefCell;
use std::sync::Arc;
use tsm_db::{PatientId, SharedStore, StreamId, StreamStore};
use tsm_model::{GuardedSegmenter, IngestFlag, PlrTrajectory, Sample, SegmenterConfig, Vertex};

/// Static configuration of one live session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The patient this session belongs to (drives source-stream weights).
    pub patient: PatientId,
    /// The session number within the patient's record.
    pub session: u32,
    /// Segmenter configuration for the live signal.
    pub segmenter: SegmenterConfig,
    /// Prediction alignment mode.
    pub align: AlignMode,
    /// Search restrictions applied to every query.
    pub options: SearchOptions,
    /// Prediction horizon `Δt` in seconds (the latency to cover).
    pub horizon: f64,
    /// Record a prediction tick every this many samples; `0` disables
    /// automatic ticks (predictions on demand via
    /// [`SessionRuntime::predict`] only).
    pub predict_every: usize,
    /// Fault-tolerance thresholds (ingest guard + health machine).
    pub policy: DegradationPolicy,
}

impl SessionConfig {
    /// A default configuration for a session of `patient`: default
    /// segmenter, 0.3 s horizon, no automatic prediction ticks.
    pub fn new(patient: PatientId, session: u32) -> Self {
        SessionConfig {
            patient,
            session,
            segmenter: SegmenterConfig::default(),
            align: AlignMode::default(),
            options: SearchOptions::default(),
            horizon: 0.3,
            predict_every: 0,
            policy: DegradationPolicy::default(),
        }
    }

    /// Overrides the segmenter configuration.
    pub fn with_segmenter(mut self, segmenter: SegmenterConfig) -> Self {
        self.segmenter = segmenter;
        self
    }

    /// Overrides the prediction horizon.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Enables automatic prediction ticks every `every` samples (`0`
    /// disables them).
    pub fn with_cadence(mut self, every: usize) -> Self {
        self.predict_every = every;
        self
    }

    /// Overrides the fault-tolerance policy.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One automatic prediction tick, as recorded in the session's tick log
/// ([`SessionRuntime::ticks`]). The outcome is computed once per tick
/// and serves prediction, gating and tracking alike; `None` means the
/// predictor abstained (warm-up, an unhealthy session, or fewer than
/// `min_matches` similar subsequences).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionTick {
    /// Zero-based index of the raw sample that triggered the tick.
    pub sample_ix: usize,
    /// Timestamp of that sample (s).
    pub time: f64,
    /// The horizon `Δt` the prediction covers (s).
    pub horizon: f64,
    /// The predicted-for instant: last closed vertex time + horizon.
    /// `None` while the live buffer holds no vertices yet.
    pub target_time: Option<f64>,
    /// The shared prediction outcome, if the predictor did not abstain.
    pub outcome: Option<PredictionOutcome>,
    /// Session health when the tick fired, before any recovery step the
    /// tick itself completes.
    pub health: SessionHealth,
}

impl PredictionTick {
    /// The gating fail-safe: the beam is on only when the session was
    /// [`SessionHealth::Healthy`] *and* the predicted position lies in
    /// `window` along `axis`. An abstention keeps the beam off, and a
    /// degraded or still-recovering session holds it, so a prediction
    /// computed across a sensor fault never turns the beam on.
    pub fn beam_on(&self, window: GatingWindow, axis: usize) -> bool {
        self.health == SessionHealth::Healthy
            && self
                .outcome
                .as_ref()
                .is_some_and(|o| window.contains(o.position[axis]))
    }
}

/// The streaming runtime for one live session: one segmenter pass, one
/// shared-store engine, one log of prediction ticks.
pub struct SessionRuntime {
    engine: Arc<CachedMatcher>,
    segmenter: GuardedSegmenter,
    live: Vec<Vertex>,
    config: SessionConfig,
    /// Every cadence tick fired so far, in order.
    ticks: Vec<PredictionTick>,
    samples_seen: usize,
    finished: bool,
    /// Smoother resets already flushed to the metrics registry.
    seg_resets_seen: u64,
    /// Guard resyncs already flushed to the metrics registry.
    seg_resyncs_seen: u64,
    /// Current health (see [`SessionHealth`]).
    health: SessionHealth,
    /// Index into `live` where the current epoch begins: queries are
    /// generated only from vertices after the last discontinuity, so a
    /// resync never leaks old-epoch (differently-clocked) vertices into
    /// a prediction. Zero on a clean stream.
    epoch_start: usize,
    /// Fresh vertices accumulated since the last fault (recovery gate).
    vertices_since_fault: usize,
    /// Predictions served while Recovering (recovery gate).
    served_in_recovery: usize,
    /// Recoverable faults [`SessionRuntime::ingest`] has absorbed.
    faults_absorbed: usize,
    /// Write-ahead log this session commits its vertices to, if any.
    wal: Option<Arc<tsm_db::WalWriter>>,
    /// Index into `live` up to which vertices are committed to the WAL.
    wal_logged: usize,
    /// The last [`SessionRuntime::predict`] answer (see [`PredictMemo`]).
    /// A `RefCell` keeps `predict` at `&self`. It makes the runtime
    /// `!Sync`, which gives up nothing: every driver holds its runtime
    /// exclusively (a serve session behind its mutex, a replayed session
    /// on one worker).
    memo: RefCell<Option<PredictMemo>>,
}

/// One memoised prediction and the inputs it was computed from. The
/// answer of [`SessionRuntime::predict`] is a function of the query, the
/// store contents, `dt`, the engine's parameters and the session config:
/// the parameters never change, [`SessionRuntime::config_mut`] clears the
/// memo, and the other three are the key.
#[derive(Debug)]
struct PredictMemo {
    /// The query's vertices, compared bit for bit.
    query: Vec<Vertex>,
    /// The store version read *before* the search: a mutation that lands
    /// during the search leaves the entry older than the store, so the
    /// next call recomputes rather than serve an answer that misses it.
    version: u64,
    /// `dt`, by bits.
    dt_bits: u64,
    outcome: Option<PredictionOutcome>,
}

impl PredictMemo {
    fn answers(&self, query: &[Vertex], version: u64, dt: f64) -> bool {
        self.version == version && self.dt_bits == dt.to_bits() && same_bits(&self.query, query)
    }
}

/// Bitwise equality of two vertex runs: `==` equates `0.0` and `-0.0`,
/// which can still lead to predictions that differ in their bits.
fn same_bits(a: &[Vertex], b: &[Vertex]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let (px, py) = (x.position.coords(), y.position.coords());
            x.state == y.state
                && x.time.to_bits() == y.time.to_bits()
                && px.len() == py.len()
                && px.iter().zip(py).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

impl std::fmt::Debug for SessionRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRuntime")
            .field("patient", &self.config.patient)
            .field("session", &self.config.session)
            .field("live_vertices", &self.live.len())
            .field("samples_seen", &self.samples_seen)
            .field("ticks", &self.ticks.len())
            .field("finished", &self.finished)
            .finish()
    }
}

impl SessionRuntime {
    /// Creates a runtime with its own engine over `store`. The parameters
    /// are validated — an invalid configuration is an error, not a panic.
    pub fn new(
        store: impl Into<SharedStore>,
        params: Params,
        config: SessionConfig,
    ) -> Result<Self, TsmError> {
        params.validate().map_err(TsmError::InvalidParams)?;
        let engine = Arc::new(CachedMatcher::new(Matcher::new(store, params)));
        Self::with_engine(engine, config)
    }

    /// Creates a runtime over an existing shared engine — the
    /// multi-session configuration: every session searching through the
    /// same [`CachedMatcher`] reuses its per-length feature indexes
    /// instead of rebuilding them per session.
    pub fn with_engine(
        engine: Arc<CachedMatcher>,
        config: SessionConfig,
    ) -> Result<Self, TsmError> {
        engine
            .matcher()
            .params()
            .validate()
            .map_err(TsmError::InvalidParams)?;
        // Every successfully started session counts, whether it is driven
        // directly, by serve or by a cohort replay — so
        // `cohort.sessions` reconciles with the sessions that actually
        // ran (the old replay-level bulk add missed every directly-driven
        // session, which is how BENCH_pipeline captures showed 4 sessions
        // of work under `cohort.sessions: 0`).
        engine.metrics().incr(Counter::CohortSessions);
        Ok(SessionRuntime {
            segmenter: GuardedSegmenter::new(
                config.segmenter.clone(),
                config.policy.ingest_guard(),
            ),
            live: Vec::new(),
            engine,
            config,
            ticks: Vec::new(),
            samples_seen: 0,
            finished: false,
            seg_resets_seen: 0,
            seg_resyncs_seen: 0,
            health: SessionHealth::Healthy,
            epoch_start: 0,
            vertices_since_fault: 0,
            served_in_recovery: 0,
            faults_absorbed: 0,
            wal: None,
            wal_logged: 0,
            memo: RefCell::new(None),
        })
    }

    /// Attaches a write-ahead log (builder form): from now on
    /// [`SessionRuntime::wal_commit`] appends the uncommitted tail of the
    /// live buffer to `wal`, and [`SessionRuntime::finish_into_store`]
    /// writes the session-end record after persisting the stream.
    ///
    /// The runtime never commits implicitly on `push` — its caller (a
    /// serve session) chooses the commit boundary so one fsync can cover
    /// a whole ingest batch.
    pub fn with_wal(mut self, wal: Arc<tsm_db::WalWriter>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<tsm_db::WalWriter>> {
        self.wal.as_ref()
    }

    /// Live vertices not yet committed to the WAL.
    pub fn wal_pending(&self) -> usize {
        self.live.len().saturating_sub(self.wal_logged)
    }

    /// Commits the uncommitted tail of the live buffer to the WAL as one
    /// record and returns its sequence number (`Ok(None)` when no WAL is
    /// attached or nothing new has closed). The append is fsynced before
    /// this returns, so an acknowledgement sent after a successful commit
    /// guarantees the data survives a crash.
    ///
    /// A failed commit poisons the underlying writer and surfaces as the
    /// non-recoverable [`TsmError::Durability`]: the session must stop
    /// acknowledging ingest, because retrying cannot restore the torn log.
    pub fn wal_commit(&mut self) -> Result<Option<u64>, TsmError> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        if self.wal_logged >= self.live.len() {
            return Ok(None);
        }
        let batch = &self.live[self.wal_logged..];
        let receipt = wal
            .append_batch(
                self.config.patient.0,
                self.config.session,
                self.seg_resyncs_seen as u32,
                self.samples_seen as u64,
                batch,
            )
            .map_err(|e| TsmError::Durability(e.to_string()))?;
        self.wal_logged = self.live.len();
        let metrics = self.engine.metrics();
        metrics.incr(Counter::WalAppends);
        if receipt.fsynced {
            metrics.incr(Counter::WalFsyncs);
        }
        Ok(Some(receipt.seq))
    }

    /// The metrics registry the session records into (the engine's —
    /// disabled unless the engine's matcher was built with one).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.engine.metrics()
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to the session configuration (alignment, options,
    /// cadence can be adjusted between samples). Clears the prediction
    /// memo, since alignment and options are inputs to every prediction.
    pub fn config_mut(&mut self) -> &mut SessionConfig {
        *self.memo.get_mut() = None;
        &mut self.config
    }

    /// The shared matching engine.
    pub fn engine(&self) -> &Arc<CachedMatcher> {
        &self.engine
    }

    /// The underlying store handle.
    pub fn store(&self) -> &StreamStore {
        self.engine.matcher().store()
    }

    /// The shared store handle (an `Arc` clone — never a data copy).
    pub fn shared_store(&self) -> SharedStore {
        self.engine.matcher().shared_store()
    }

    /// The matching parameters in use.
    pub fn params(&self) -> &Params {
        self.engine.matcher().params()
    }

    /// The live PLR buffer accumulated so far.
    pub fn live_vertices(&self) -> &[Vertex] {
        &self.live
    }

    /// Raw samples consumed.
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Every prediction tick fired so far, in order (empty at cadence
    /// `0`). Gating and tracking are folds over this log
    /// ([`crate::gating::gate_ticks`], [`crate::tracking::track_ticks`]).
    pub fn ticks(&self) -> &[PredictionTick] {
        &self.ticks
    }

    /// Current session health.
    pub fn health(&self) -> SessionHealth {
        self.health
    }

    /// Segmenter resyncs the ingest guard has triggered so far.
    pub fn resyncs(&self) -> u64 {
        // `seg_resyncs_seen` mirrors the segmenter's counter after every
        // push and — unlike the segmenter, which `finish` swaps out for
        // a fresh one — survives the end of the session.
        self.seg_resyncs_seen
    }

    /// Recoverable faults [`SessionRuntime::ingest`] has absorbed so far.
    pub fn faults_absorbed(&self) -> usize {
        self.faults_absorbed
    }

    /// The vertices of the current epoch (since the last stream
    /// discontinuity) — the only vertices queries are built from.
    pub fn epoch_vertices(&self) -> &[Vertex] {
        &self.live[self.epoch_start.min(self.live.len())..]
    }

    /// Drops the session to Degraded and restarts the recovery gates.
    fn degrade(&mut self) {
        if self.health != SessionHealth::Degraded {
            self.metrics().incr(Counter::HealthDegraded);
        }
        self.health = SessionHealth::Degraded;
        self.vertices_since_fault = 0;
        self.served_in_recovery = 0;
    }

    /// Feeds one raw sample: segments it and — when a prediction cadence
    /// is set — computes the tick's one prediction and records the tick
    /// in [`SessionRuntime::ticks`]. Returns the newly closed vertices.
    ///
    /// Non-finite samples (NaN / ±inf) are rejected *before* they can
    /// reach the segmenter, so a corrupt tick never damages the live PLR
    /// or the shared store. Stream faults the ingest guard observes
    /// (gaps, backwards time, duplicates, stuck runs) degrade the
    /// session's [`SessionHealth`] instead of erroring: ticks abstain
    /// until enough fresh data has accumulated, then predictions resume
    /// and finally gating re-arms. On a clean stream the guard and the
    /// health machine are inert and the output is bit-identical to the
    /// unguarded runtime.
    pub fn push(&mut self, s: Sample) -> Result<&[Vertex], TsmError> {
        let ix = self.samples_seen;
        self.samples_seen += 1;
        let before = self.live.len();
        let pushed = match self.segmenter.push(s) {
            Ok(p) => p,
            Err(e) => {
                self.metrics().incr(Counter::SamplesRejected);
                self.degrade();
                return Err(TsmError::InvalidInput(e.to_string()));
            }
        };
        if !pushed.flags.is_empty() {
            self.degrade();
        }
        // Borrowed, not cloned: a registry clone per sample is an atomic
        // increment and decrement on a count every session shares.
        let metrics = self.engine.metrics();
        let mut duplicate = false;
        for flag in &pushed.flags {
            match flag {
                IngestFlag::DuplicateDropped { .. } => {
                    duplicate = true;
                    metrics.incr(Counter::DuplicatesDropped);
                }
                IngestFlag::StuckRun { len } if *len == self.config.policy.stuck_limit => {
                    metrics.incr(Counter::StuckRuns);
                }
                _ => {}
            }
        }
        let resynced = pushed.resynced();
        self.live.extend(pushed.vertices);
        if !duplicate {
            metrics.incr(Counter::SegmenterSamples);
        }
        let emitted = (self.live.len() - before) as u64;
        if emitted > 0 {
            metrics.add(Counter::VerticesEmitted, emitted);
            // A state transition is a pair of consecutive vertices whose
            // states differ; count the pairs the new vertices completed.
            let start = before.saturating_sub(1);
            let transitions = self.live[start..]
                .windows(2)
                .filter(|w| w[0].state != w[1].state)
                .count() as u64;
            metrics.add(Counter::StateTransitions, transitions);
        }
        let resets = self.segmenter.smoother_resets();
        if resets > self.seg_resets_seen {
            metrics.add(Counter::SmootherResets, resets - self.seg_resets_seen);
            self.seg_resets_seen = resets;
        }
        let resyncs = self.segmenter.resyncs();
        if resyncs > self.seg_resyncs_seen {
            metrics.add(Counter::SegmenterResyncs, resyncs - self.seg_resyncs_seen);
            self.seg_resyncs_seen = resyncs;
        }
        if resynced {
            // Vertices flushed by the resync belong to the old epoch;
            // everything after this point is the new one.
            self.epoch_start = self.live.len();
        }
        if self.health == SessionHealth::Degraded {
            // Only vertices of the *new* epoch count toward recovery.
            self.vertices_since_fault += self.live.len() - self.epoch_start.max(before);
            if self.vertices_since_fault >= self.config.policy.recovery_vertices {
                self.health = SessionHealth::Recovering;
                self.served_in_recovery = 0;
                metrics.incr(Counter::HealthRecovering);
            }
        }
        let every = self.config.predict_every;
        if every > 0 && ix.is_multiple_of(every) && ix >= every {
            metrics.incr(Counter::SessionTicks);
            let outcome = if self.health == SessionHealth::Degraded {
                // The post-fault query is stale or too short to trust:
                // abstain without searching.
                metrics.incr(Counter::AbstainedUnhealthy);
                None
            } else {
                let tick_start = metrics.start();
                let outcome = self.predict(self.config.horizon);
                metrics.observe_since(Hist::TickLatency, tick_start);
                outcome
            };
            let served = outcome.is_some();
            metrics.incr(if served {
                Counter::PredictionsServed
            } else {
                Counter::PredictionsAbstained
            });
            self.ticks.push(PredictionTick {
                sample_ix: ix,
                time: s.time,
                horizon: self.config.horizon,
                target_time: self.live.last().map(|v| v.time + self.config.horizon),
                outcome,
                health: self.health,
            });
            if self.health == SessionHealth::Recovering && served {
                self.served_in_recovery += 1;
                if self.served_in_recovery >= self.config.policy.recovery_predictions {
                    // Transition *after* recording: the tick that
                    // completed recovery still holds the beam.
                    self.health = SessionHealth::Healthy;
                    metrics.incr(Counter::HealthRecovered);
                }
            }
        }
        Ok(&self.live[before..])
    }

    /// Feeds a batch of samples under the session's fault supervisor, the
    /// one every driver shares. Recoverable faults (bad samples) are
    /// absorbed up to [`DegradationPolicy::fault_budget`] and counted in
    /// `cohort.faults_absorbed`: the session degrades and keeps streaming.
    /// The first recoverable fault past the budget ends the batch with
    /// [`TsmError::FaultBudgetExhausted`]; a fatal error ends it
    /// unchanged. Samples after the failing one are not pushed. The
    /// budget spans the session, not the batch.
    pub fn ingest(&mut self, samples: &[Sample]) -> Result<(), TsmError> {
        for &s in samples {
            if let Err(e) = self.push(s) {
                self.supervise(e)?;
            }
        }
        Ok(())
    }

    /// The supervisor's verdict on one failed push: `Ok` when the fault
    /// is absorbed, otherwise the error that ends the batch.
    fn supervise(&mut self, e: TsmError) -> Result<(), TsmError> {
        if !e.is_recoverable() {
            return Err(e);
        }
        if self.faults_absorbed >= self.config.policy.fault_budget {
            return Err(TsmError::FaultBudgetExhausted {
                absorbed: self.faults_absorbed,
            });
        }
        self.faults_absorbed += 1;
        self.metrics().incr(Counter::CohortFaultsAbsorbed);
        Ok(())
    }

    /// Builds the current dynamic query, if the current epoch of the
    /// live buffer is long enough.
    pub fn current_query(&self) -> Option<QuerySubseq> {
        let epoch = self.epoch_vertices();
        let outcome = generate_query(epoch, self.params())?;
        Some(
            QuerySubseq::new(outcome.vertices(epoch).to_vec())
                .with_origin(self.config.patient, self.config.session),
        )
    }

    /// Predicts the position `dt` seconds after the last closed vertex.
    ///
    /// Returns `None` until the current epoch holds at least `L_min`
    /// segments, or when fewer than `min_matches` similar subsequences
    /// are found (the paper abstains rather than guess). Queries never
    /// span a stream discontinuity: only vertices after the last resync
    /// are considered (on a clean stream that is the whole buffer).
    ///
    /// The query only changes when a vertex closes, so most calls repeat
    /// the previous one: the runtime memoises its last answer and searches
    /// once per distinct (query, store version, `dt`). A hit returns the
    /// bit-identical outcome a search would have produced.
    pub fn predict(&self, dt: f64) -> Option<PredictionOutcome> {
        let params = self.params();
        let epoch = self.epoch_vertices();
        let generated = generate_query(epoch, params)?;
        let vertices = generated.vertices(epoch);
        let metrics = self.metrics();
        metrics.incr(Counter::PredictLookups);
        // Read before the search, as the index cache does (see PredictMemo).
        let version = self.store().version();
        if let Some(memo) = self.memo.borrow().as_ref() {
            if memo.answers(vertices, version, dt) {
                metrics.incr(Counter::PredictMemoHits);
                return memo.outcome.clone();
            }
        }
        let query = QuerySubseq::new(vertices.to_vec())
            .with_origin(self.config.patient, self.config.session);
        // The vote sums in store order, so the search skips its rank sort.
        let matches = self
            .engine
            .find_matches_in_store_order(&query, &self.config.options);
        let outcome = predict_position(
            self.store(),
            &query,
            &matches,
            dt,
            params,
            self.config.align,
        )
        .map(|position| PredictionOutcome {
            position,
            num_matches: matches.len(),
            query_len: generated.len,
            query_stable: generated.stable,
        });
        *self.memo.borrow_mut() = Some(PredictMemo {
            query: query.vertices,
            version,
            dt_bits: dt.to_bits(),
            outcome: outcome.clone(),
        });
        outcome
    }

    /// Ends the session: flushes the segmenter tail into the live buffer.
    /// Idempotent; does **not** touch the store.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let before = self.live.len();
        // The segmenter's flush consumes it; swap in an idle replacement.
        let segmenter = std::mem::replace(
            &mut self.segmenter,
            GuardedSegmenter::new(
                self.config.segmenter.clone(),
                self.config.policy.ingest_guard(),
            ),
        );
        self.live.extend(segmenter.finish());
        let emitted = (self.live.len() - before) as u64;
        if emitted > 0 {
            self.engine.metrics().add(Counter::VerticesEmitted, emitted);
        }
    }

    /// Ends the session and persists the live stream into the shared
    /// store so future sessions can match against it (this is the one
    /// store mutation a session performs; it bumps the store version seen
    /// by every other holder). Returns `None` when the live stream never
    /// produced a valid PLR.
    /// When a WAL is attached, the segmenter tail flushed by `finish` is
    /// committed first, then — after the store accepted (or rejected) the
    /// stream — a session-end record marks the session closed so future
    /// checkpoints no longer need to retain its log records. WAL failures
    /// here are swallowed: everything *acknowledged* was already committed
    /// per-batch (drivers that must observe commit errors call
    /// [`SessionRuntime::wal_commit`] before sealing), and a missing end
    /// record merely pins WAL segments until the next recovery.
    pub fn finish_into_store(mut self) -> Option<StreamId> {
        self.finish();
        // lint:allow(no-silent-result-drop): best-effort flush — every
        // acknowledged batch was already committed by the per-batch path
        let _ = self.wal_commit();
        let id = PlrTrajectory::from_vertices(std::mem::take(&mut self.live))
            .ok()
            .and_then(|plr| {
                self.store()
                    .try_add_stream(
                        self.config.patient,
                        self.config.session,
                        plr,
                        self.samples_seen,
                    )
                    .ok()
            });
        if let Some(wal) = &self.wal {
            // lint:allow(no-silent-result-drop): a lost end record only
            // pins WAL segments until the next recovery pass (doc above)
            let _ = wal.append_end(
                self.config.patient.0,
                self.config.session,
                self.samples_seen as u64,
                id.is_some(),
            );
        }
        id
    }
}

/// Builds a runtime for a session driven from outside, such as a serve
/// session: a shared-engine session with automatic ticks disabled. Ticks
/// assume a single in-band driver; an external driver predicts on demand
/// instead, which keeps `session.ticks == served + abstained` intact.
pub fn external_session(
    engine: Arc<CachedMatcher>,
    config: SessionConfig,
) -> Result<SessionRuntime, TsmError> {
    SessionRuntime::with_engine(engine, config.with_cadence(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::gate_ticks;
    use tsm_db::PatientAttributes;
    use tsm_model::segment_signal;
    use tsm_signal::{BreathingParams, SignalGenerator};

    fn seeded_store(seed: u64) -> (StreamStore, PatientId) {
        let store = StreamStore::new();
        let patient = store.add_patient(PatientAttributes::new());
        let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(120.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, 0, plr, samples.len());
        (store, patient)
    }

    fn live_samples(seed: u64, duration: f64) -> Vec<Sample> {
        SignalGenerator::new(BreathingParams::default(), seed).generate(duration)
    }

    #[test]
    fn invalid_params_are_an_error_not_a_panic() {
        let (store, patient) = seeded_store(21);
        let params = Params {
            delta: 0.0,
            ..Params::default()
        };
        let err = SessionRuntime::new(
            store.clone(),
            params.clone(),
            SessionConfig::new(patient, 1),
        );
        assert!(matches!(err, Err(TsmError::InvalidParams(_))));
        assert!(matches!(
            super::super::CohortRuntime::new(store, params),
            Err(TsmError::InvalidParams(_))
        ));
    }

    fn predictions(ticks: &[PredictionTick]) -> usize {
        ticks.iter().filter(|t| t.outcome.is_some()).count()
    }

    #[test]
    fn ticks_fire_on_cadence_into_the_log() {
        let (store, patient) = seeded_store(22);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let config = SessionConfig::new(patient, 1)
            .with_segmenter(SegmenterConfig::clean())
            .with_cadence(30);
        let mut runtime = SessionRuntime::new(store, params, config).unwrap();
        let samples = live_samples(23, 60.0);
        for &s in &samples {
            runtime.push(s).unwrap();
            // A tick fired on this sample aims one horizon past the last
            // vertex closed so far.
            if let Some(tick) = runtime.ticks().last() {
                if tick.sample_ix + 1 == runtime.samples_seen() {
                    let last = runtime.live_vertices().last().map(|v| v.time);
                    assert_eq!(tick.target_time, last.map(|t| t + tick.horizon));
                }
            }
        }
        // Cadence: one tick per 30 samples, starting at sample 30.
        let ticks = runtime.ticks();
        assert_eq!(ticks.len(), (samples.len() - 1) / 30);
        for (k, tick) in ticks.iter().enumerate() {
            assert_eq!(tick.sample_ix, 30 * (k + 1));
            assert_eq!(tick.time.to_bits(), samples[tick.sample_ix].time.to_bits());
            assert_eq!(tick.horizon, 0.3);
            assert_eq!(tick.health, SessionHealth::Healthy);
        }
        assert!(predictions(ticks) > 5);
    }

    #[test]
    fn runtime_predictions_match_manual_predict_calls() {
        let (store, patient) = seeded_store(24);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let shared = store.into_shared();
        let config = SessionConfig::new(patient, 1)
            .with_segmenter(SegmenterConfig::clean())
            .with_cadence(30);
        let mut auto = SessionRuntime::new(shared.clone(), params.clone(), config.clone()).unwrap();
        let mut manual =
            SessionRuntime::new(shared, params, config.clone().with_cadence(0)).unwrap();
        let mut manual_outcomes = Vec::new();
        for (i, &s) in live_samples(25, 60.0).iter().enumerate() {
            auto.push(s).unwrap();
            manual.push(s).unwrap();
            if i % 30 == 0 && i >= 30 {
                if let Some(o) = manual.predict(config.horizon) {
                    manual_outcomes.push(o);
                }
            }
        }
        let outcomes: Vec<PredictionOutcome> = auto
            .ticks()
            .iter()
            .filter_map(|t| t.outcome.clone())
            .collect();
        assert_eq!(outcomes, manual_outcomes);
        assert!(manual.ticks().is_empty(), "cadence 0 records no ticks");
    }

    #[test]
    fn finish_into_store_bumps_version_for_all_handles() {
        let (store, patient) = seeded_store(26);
        let shared = store.into_shared();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let a = SessionRuntime::new(
            shared.clone(),
            params.clone(),
            SessionConfig::new(patient, 1).with_segmenter(SegmenterConfig::clean()),
        )
        .unwrap();
        let mut b = SessionRuntime::new(
            shared.clone(),
            params,
            SessionConfig::new(patient, 2).with_segmenter(SegmenterConfig::clean()),
        )
        .unwrap();
        // Both runtimes observe the same version counter...
        let v0 = a.store().version();
        assert_eq!(b.store().version(), v0);
        // ...and one runtime persisting is visible to the other.
        for &s in &live_samples(27, 60.0) {
            b.push(s).unwrap();
        }
        let streams_before = a.store().num_streams();
        b.finish_into_store().expect("stream persisted");
        assert_eq!(a.store().num_streams(), streams_before + 1);
        assert!(a.store().version() > v0);
        assert_eq!(a.store().version(), shared.version());
    }

    #[test]
    fn durable_session_recovers_bit_identically_from_the_wal() {
        let (store, patient) = seeded_store(90);
        let backend: Arc<dyn tsm_db::DurableBackend> = Arc::new(tsm_db::MemBackend::new());
        let wal = Arc::new(
            tsm_db::recover(Arc::clone(&backend), tsm_db::WalConfig::default())
                .unwrap()
                .writer,
        );
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let config = SessionConfig::new(patient, 7).with_segmenter(SegmenterConfig::clean());
        let mut runtime = SessionRuntime::new(store.clone(), params, config)
            .unwrap()
            .with_wal(Arc::clone(&wal));
        for s in live_samples(91, 60.0) {
            runtime.push(s).unwrap();
        }
        assert!(runtime.wal_pending() > 0, "no vertices closed");
        let seq = runtime.wal_commit().unwrap();
        assert!(seq.is_some(), "commit with pending vertices must append");
        assert_eq!(runtime.wal_pending(), 0);
        // Committing again with nothing new appends no empty record.
        assert_eq!(runtime.wal_commit().unwrap(), None);
        let id = runtime.finish_into_store().expect("stream persisted");
        let live = store.stream(id).unwrap();
        drop(wal);
        // Recover from the log alone: the acknowledged session comes back
        // bit-identical to what the live store accepted.
        let rec = tsm_db::recover(backend, tsm_db::WalConfig::default()).unwrap();
        assert_eq!(rec.report.sessions_recovered, 1, "{}", rec.report);
        assert!(!rec.report.truncated_tail);
        assert_eq!(rec.store.num_streams(), 1);
        let recovered = &rec.store.streams()[0];
        assert_eq!(recovered.meta.session, 7);
        assert_eq!(recovered.plr, live.plr);
        assert_eq!(recovered.raw_len, live.raw_len);
    }

    /// A session over a metered engine whose supervisor absorbs at most
    /// `budget` faults, plus `n` good samples to feed it.
    fn supervised(budget: usize, n: usize) -> (SessionRuntime, Vec<Sample>) {
        let (store, patient) = seeded_store(42);
        let engine = Arc::new(CachedMatcher::new(
            Matcher::new(store, Params::default()).with_metrics(MetricsRegistry::enabled()),
        ));
        let mut config = SessionConfig::new(patient, 1).with_segmenter(SegmenterConfig::clean());
        config.policy.fault_budget = budget;
        let runtime = external_session(engine, config).unwrap();
        let mut samples = live_samples(43, 20.0);
        samples.truncate(n);
        (runtime, samples)
    }

    fn nan_at(time: f64) -> Sample {
        Sample::new_1d(time, f64::NAN)
    }

    #[test]
    fn ingest_absorbs_faults_up_to_the_budget() {
        let (mut runtime, mut samples) = supervised(3, 300);
        // Three bad samples spread over two batches: the budget spans
        // the session, and every good sample around them is pushed.
        for ix in [10, 150, 290] {
            samples[ix] = nan_at(samples[ix].time);
        }
        runtime.ingest(&samples[..200]).unwrap();
        assert_eq!(runtime.faults_absorbed(), 2);
        runtime.ingest(&samples[200..]).unwrap();
        assert_eq!(runtime.faults_absorbed(), 3);
        assert_eq!(runtime.samples_seen(), samples.len());
        assert!(!runtime.live_vertices().is_empty());
    }

    #[test]
    fn ingest_past_the_budget_reports_exhaustion_and_stops_the_batch() {
        let (mut runtime, mut samples) = supervised(2, 100);
        for ix in [5, 6, 7] {
            samples[ix] = nan_at(samples[ix].time);
        }
        let err = runtime.ingest(&samples).unwrap_err();
        assert_eq!(err, TsmError::FaultBudgetExhausted { absorbed: 2 });
        assert_eq!(runtime.faults_absorbed(), 2);
        // The third fault ended the batch: nothing after it was pushed.
        assert_eq!(runtime.samples_seen(), 8);
        // A budget of zero fails on the first fault.
        let (mut strict, _) = supervised(0, 0);
        let err = strict.ingest(&[nan_at(0.0)]).unwrap_err();
        assert_eq!(err, TsmError::FaultBudgetExhausted { absorbed: 0 });
    }

    #[test]
    fn fatal_errors_pass_the_supervisor_unchanged() {
        let (mut runtime, _) = supervised(5, 0);
        let fatal = TsmError::Durability("torn log".into());
        assert!(!fatal.is_recoverable());
        assert_eq!(runtime.supervise(fatal.clone()), Err(fatal));
        assert_eq!(
            runtime.faults_absorbed(),
            0,
            "a fatal error is never absorbed"
        );
        let recoverable = TsmError::InvalidInput("bad sample".into());
        assert_eq!(runtime.supervise(recoverable), Ok(()));
        assert_eq!(runtime.faults_absorbed(), 1);
    }

    #[test]
    fn absorbed_faults_reconcile_with_the_metrics() {
        let (mut runtime, mut samples) = supervised(4, 120);
        for ix in (0..120).step_by(20) {
            samples[ix] = nan_at(samples[ix].time);
        }
        // Six faults against a budget of four: four absorbed, then failure.
        assert!(runtime.ingest(&samples).is_err());
        let snap = runtime.metrics().snapshot();
        assert_eq!(runtime.faults_absorbed(), 4);
        assert_eq!(snap.counter("cohort.faults_absorbed"), 4);
        assert_eq!(snap.counter("segment.samples_rejected"), 5);
        snap.check_invariants().unwrap();
    }

    #[test]
    fn non_finite_tick_is_rejected_without_damaging_the_session() {
        let (store, patient) = seeded_store(32);
        let config = SessionConfig::new(patient, 1).with_segmenter(SegmenterConfig::clean());
        let mut runtime = SessionRuntime::new(store, Params::default(), config).unwrap();
        let samples = live_samples(33, 30.0);
        for &s in &samples[..samples.len() / 2] {
            runtime.push(s).unwrap();
        }
        let vertices_before = runtime.live_vertices().len();
        let seen_before = runtime.samples_seen();
        let err = runtime
            .push(Sample::new_1d(1e9, f64::NAN))
            .expect_err("NaN tick must be rejected");
        assert!(matches!(err, TsmError::InvalidInput(_)), "{err:?}");
        let err = runtime
            .push(Sample::new_1d(f64::INFINITY, 1.0))
            .expect_err("non-finite timestamp must be rejected");
        assert!(matches!(err, TsmError::InvalidInput(_)), "{err:?}");
        // The poisoned ticks left no trace in the live buffer and the
        // session keeps accepting good samples afterwards.
        assert_eq!(runtime.live_vertices().len(), vertices_before);
        assert_eq!(runtime.samples_seen(), seen_before + 2);
        for &s in &samples[samples.len() / 2..] {
            runtime.push(s).unwrap();
        }
        runtime.finish();
        assert!(runtime.live_vertices().len() >= vertices_before);
    }

    #[test]
    fn health_machine_degrades_abstains_and_recovers() {
        let (store, patient) = seeded_store(38);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let config = SessionConfig::new(patient, 1)
            .with_segmenter(SegmenterConfig::clean())
            .with_cadence(30);
        let mut runtime = SessionRuntime::new(store, params, config).unwrap();
        let samples = live_samples(39, 120.0);
        let mid = samples.len() / 2;
        for &s in &samples[..mid] {
            runtime.push(s).unwrap();
        }
        assert_eq!(runtime.health(), SessionHealth::Healthy);
        let healthy_predictions = predictions(runtime.ticks());
        assert!(healthy_predictions > 0, "warm-up produced no predictions");
        // A 5 s acquisition dropout: the guard resyncs the segmenter and
        // the session degrades.
        let gap = 5.0;
        let t_resume = samples[mid].time + gap;
        let mut ticks_while_degraded = 0usize;
        let mut saw_recovering = false;
        for (i, &s) in samples[mid..].iter().enumerate() {
            let shifted = Sample::new_1d(s.time + gap, s.position[0]);
            runtime.push(shifted).unwrap();
            match runtime.health() {
                SessionHealth::Degraded => {
                    if (mid + i).is_multiple_of(30) {
                        ticks_while_degraded += 1;
                    }
                }
                SessionHealth::Recovering => saw_recovering = true,
                SessionHealth::Healthy => {}
            }
        }
        assert_eq!(runtime.resyncs(), 1, "gap must resync exactly once");
        assert!(saw_recovering, "session never entered Recovering");
        assert_eq!(
            runtime.health(),
            SessionHealth::Healthy,
            "session did not recover from a transient gap"
        );
        assert!(ticks_while_degraded > 0, "gap produced no degraded ticks");
        // Degraded ticks abstained: outcome is None on each of them, and
        // the log records the health each tick fired under.
        let ticks = runtime.ticks();
        let degraded_ticks: Vec<_> = ticks
            .iter()
            .filter(|t| t.time >= t_resume && t.outcome.is_none())
            .collect();
        assert!(
            degraded_ticks.len() >= ticks_while_degraded,
            "expected >= {ticks_while_degraded} abstaining ticks, got {}",
            degraded_ticks.len()
        );
        let logged_degraded: Vec<_> = ticks
            .iter()
            .filter(|t| t.health == SessionHealth::Degraded)
            .collect();
        assert_eq!(logged_degraded.len(), ticks_while_degraded);
        assert!(logged_degraded.iter().all(|t| t.outcome.is_none()));
        // And predictions resumed after recovery.
        assert!(predictions(ticks) > healthy_predictions);
    }

    #[test]
    fn gating_fails_safe_while_unhealthy() {
        let (store, patient) = seeded_store(40);
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let config = SessionConfig::new(patient, 1)
            .with_segmenter(SegmenterConfig::clean())
            .with_cadence(30);
        let samples = live_samples(41, 120.0);
        let truth =
            PlrTrajectory::from_vertices(segment_signal(&samples, SegmenterConfig::clean()))
                .unwrap();
        // A window so wide every prediction falls inside it: any beam-off
        // tick below is the health gate, not the window.
        let window = GatingWindow {
            center: 0.0,
            width: 1e9,
        };
        let mut runtime = SessionRuntime::new(store, params, config).unwrap();
        let mid = samples.len() / 2;
        for &s in &samples[..mid] {
            runtime.push(s).unwrap();
        }
        let ticks_mid = runtime.ticks().len();
        let gap = 5.0;
        for &s in &samples[mid..] {
            runtime
                .push(Sample::new_1d(s.time + gap, s.position[0]))
                .unwrap();
        }
        let ticks = runtime.ticks();
        let (before, after) = ticks.split_at(ticks_mid);
        assert!(
            before.iter().any(|t| t.beam_on(window, 0)),
            "no beam-on during warm-up"
        );
        // Every tick since the fault that fired while the session was not
        // Healthy held the beam — including the Recovering ticks whose
        // prediction lies in the window.
        let unhealthy: Vec<_> = after
            .iter()
            .filter(|t| t.health != SessionHealth::Healthy)
            .collect();
        assert!(!unhealthy.is_empty(), "fault window produced no ticks");
        assert!(unhealthy.iter().all(|t| !t.beam_on(window, 0)));
        // Recovering ticks serve predictions the beam must hold — all of
        // them, including the one that completed recovery.
        let held = unhealthy
            .iter()
            .filter(|t| t.outcome.is_some() && t.health == SessionHealth::Recovering)
            .count();
        assert_eq!(held, DegradationPolicy::default().recovery_predictions);
        // After recovery the beam re-arms, and the fold agrees tick by tick.
        assert!(after.iter().any(|t| t.beam_on(window, 0)));
        let (decisions, stats) = gate_ticks(ticks, &truth, 0, window);
        let expected: Vec<bool> = ticks
            .iter()
            .filter(|t| t.target_time.is_some())
            .map(|t| t.beam_on(window, 0))
            .collect();
        assert_eq!(decisions, expected);
        assert_eq!(stats.ticks, decisions.len());
    }
}
