//! The server-side session table: named, externally-driven sessions over
//! one shared engine.
//!
//! A session is data, not a thread. Each name maps to a [`Session`]: a
//! [`SessionRuntime`] behind its own lock, an admission counter, and the
//! status its last ingest published. The HTTP worker that owns a request
//! runs the request's session work inline under that lock. Admission
//! control is layered: the table caps the number of live sessions
//! (`sessions_max` → HTTP `503` when full), and each session admits at
//! most `ingest_queue` requests waiting behind the one it is running
//! ([`SessionError::Busy`] → `429`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tsm_core::index_cache::CachedMatcher;
use tsm_core::matcher::MatchResult;
use tsm_core::metrics::Counter;
use tsm_core::pipeline::PredictionOutcome;
use tsm_core::session::{external_session, SessionConfig, SessionRuntime};
use tsm_core::{SessionHealth, TsmError};
use tsm_db::{PatientAttributes, PatientId, WalWriter};
use tsm_model::Sample;

/// Why the manager or a session refused to act.
#[derive(Debug)]
pub enum SessionError {
    /// The session table is at `sessions_max` (HTTP 503).
    TableFull {
        /// The configured cap that was hit.
        max: usize,
    },
    /// No session with that name exists (HTTP 404).
    Unknown(String),
    /// The session name is not `[A-Za-z0-9._-]{1,64}` (HTTP 400).
    BadName(String),
    /// Creating the runtime failed (HTTP 500).
    Runtime(TsmError),
    /// `ingest_queue` requests already wait for the session (HTTP 429).
    Busy,
    /// The session exhausted its fault budget, or its WAL failed, and no
    /// longer accepts ingest (HTTP 503). Queries and predictions still run.
    Failed,
    /// A request panicked while it held the session's lock (HTTP 503).
    Poisoned,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::TableFull { max } => {
                write!(f, "session table full ({max} live sessions)")
            }
            SessionError::Unknown(name) => write!(f, "unknown session '{name}'"),
            SessionError::BadName(name) => write!(
                f,
                "bad session name '{name}' (want 1-64 chars of [A-Za-z0-9._-])"
            ),
            SessionError::Runtime(e) => write!(f, "session runtime: {e}"),
            SessionError::Busy => write!(f, "session queue full"),
            SessionError::Failed => write!(f, "session fault budget exhausted"),
            SessionError::Poisoned => write!(f, "session finished by a panicked request"),
        }
    }
}

/// A point-in-time view of one session, for `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Current health of the session's ingest/prediction machinery.
    pub health: SessionHealth,
    /// Whether the session no longer accepts ingest
    /// ([`SessionError::Failed`]).
    pub failed: bool,
    /// Raw samples the runtime has consumed.
    pub samples: u64,
    /// PLR vertices in the live buffer.
    pub vertices: u64,
    /// Segmenter resyncs (stream discontinuities) observed.
    pub resyncs: u64,
    /// Recoverable faults absorbed by the supervisor so far.
    pub faults_absorbed: u64,
    /// Requests admitted to the session and not yet answered.
    pub pending: u64,
}

impl SessionStatus {
    fn of(runtime: &SessionRuntime, failed: bool) -> SessionStatus {
        SessionStatus {
            health: runtime.health(),
            failed,
            samples: runtime.samples_seen() as u64,
            vertices: runtime.live_vertices().len() as u64,
            resyncs: runtime.resyncs(),
            faults_absorbed: runtime.faults_absorbed() as u64,
            pending: 0,
        }
    }
}

/// The answer to [`Session::query`].
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Segments in the dynamic query the matches were retrieved for.
    pub query_len: usize,
    /// The retrieved matches, best first.
    pub matches: Vec<MatchResult>,
}

/// One live serving session.
pub struct Session {
    runtime: Mutex<SessionRuntime>,
    /// Requests admitted and not yet answered: the one running plus the
    /// ones waiting for `runtime`.
    admitted: AtomicUsize,
    /// How many admitted requests may wait behind the running one.
    queue: usize,
    /// What the last ingest left. Only a holder of `runtime`'s lock
    /// writes it, so such a holder reads it exactly; `/healthz` reads it
    /// without waiting on `runtime`.
    status: Mutex<SessionStatus>,
}

/// Undoes one admission when its request is answered or refused.
struct Admission<'a>(&'a AtomicUsize);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        // Relaxed: the counter only bounds admission; the runtime lock
        // orders the session's work.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Session {
    fn new(runtime: SessionRuntime, queue: usize) -> Session {
        let status = SessionStatus::of(&runtime, false);
        Session {
            runtime: Mutex::new(runtime),
            admitted: AtomicUsize::new(0),
            queue,
            status: Mutex::new(status),
        }
    }

    fn lock_status(&self) -> MutexGuard<'_, SessionStatus> {
        // Held only to copy the status in or out, so a panic elsewhere
        // cannot leave it half-written.
        match self.status.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The status the last ingest published, with the live admission
    /// count. Never waits on the session's work.
    pub fn status(&self) -> SessionStatus {
        let mut status = *self.lock_status();
        // Relaxed: an advisory gauge.
        status.pending = self.admitted.load(Ordering::Relaxed) as u64;
        status
    }

    /// Admits the calling request, then runs `work` on the runtime under
    /// the session's lock. A request that would wait behind `queue`
    /// others is refused with [`SessionError::Busy`].
    fn run<T>(
        &self,
        work: impl FnOnce(&mut SessionRuntime) -> Result<T, SessionError>,
    ) -> Result<T, SessionError> {
        // Bump, then check: with check-then-bump, two requests racing for
        // the last slot could both see room. Relaxed: see `Admission`.
        let depth = self.admitted.fetch_add(1, Ordering::Relaxed) + 1;
        let _admission = Admission(&self.admitted);
        if depth > self.queue + 1 {
            return Err(SessionError::Busy);
        }
        let mut runtime = match self.runtime.lock() {
            Ok(g) => g,
            Err(_) => return Err(SessionError::Poisoned),
        };
        runtime
            .metrics()
            .record_max(Counter::CohortBacklogHwm, depth as u64);
        work(&mut runtime)
    }

    /// Pushes `samples` through the runtime's fault supervisor, then
    /// commits them to the WAL (when one is attached) before returning:
    /// an `Ok(Ok(..))` here survives a crash. The inner result is the
    /// commit outcome — `Ok(Some(seq))` with the WAL sequence number,
    /// `Ok(None)` when the batch closed no new vertices or no WAL is
    /// attached, `Err` when the log could not be written.
    ///
    /// A batch that exhausts the fault budget, or whose commit fails,
    /// still gets its commit outcome; the session is marked failed and
    /// every later ingest is refused with [`SessionError::Failed`].
    pub fn ingest(
        &self,
        samples: &[Sample],
    ) -> Result<Result<Option<u64>, TsmError>, SessionError> {
        self.run(|runtime| {
            if self.status().failed {
                return Err(SessionError::Failed);
            }
            let pushed = runtime.ingest(samples);
            // Group commit: one WAL append and one fsync cover what the
            // batch pushed, and only then may a durable caller acknowledge.
            let committed = runtime.wal_commit();
            let failed = pushed.is_err() || committed.is_err();
            if failed {
                runtime.metrics().incr(Counter::CohortSessionsFailed);
            }
            *self.lock_status() = SessionStatus::of(runtime, failed);
            Ok(committed)
        })
    }

    /// The current top-k matches for the session's dynamic query
    /// (`top_k` overrides the session's own limit). `Ok(None)` means no
    /// query can be generated yet (live buffer too short).
    pub fn query(&self, top_k: Option<usize>) -> Result<Option<QueryReply>, SessionError> {
        self.run(|runtime| {
            Ok(runtime.current_query().map(|q| {
                let mut options = runtime.config().options.clone();
                if top_k.is_some() {
                    options.top_k = top_k;
                }
                QueryReply {
                    query_len: q.len(),
                    matches: runtime.engine().find_matches(&q, &options),
                }
            }))
        })
    }

    /// Predicts the position `dt` seconds past the last closed vertex.
    /// `Ok(None)` means the predictor abstained (warm-up, too few
    /// matches, degraded health).
    pub fn predict(&self, dt: f64) -> Result<Option<PredictionOutcome>, SessionError> {
        self.run(|runtime| Ok(runtime.predict(dt)))
    }

    /// Ends the session and persists its live stream into the shared
    /// store, with the WAL tail commit and session-end record when a WAL
    /// is attached. A session a panicked request left poisoned is dropped
    /// unsealed, since its runtime may be half-updated.
    fn seal(self) {
        if let Ok(runtime) = self.runtime.into_inner() {
            runtime.finish_into_store();
        }
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// One table slot: the session plus the idle-eviction clock.
struct SessionEntry {
    session: Arc<Session>,
    /// Refreshed on every lookup; [`SessionManager::evict_idle`] seals
    /// sessions whose clock has gone stale.
    last_used: Instant,
}

/// What the table lock guards.
#[derive(Default)]
struct Table {
    sessions: BTreeMap<String, SessionEntry>,
    /// All serve-created sessions belong to one store patient, created
    /// on first use.
    patient: Option<PatientId>,
    /// Sessions created so far; the next one gets this number plus one.
    created: u32,
}

/// The table of live serving sessions.
pub struct SessionManager {
    engine: Arc<CachedMatcher>,
    table: Mutex<Table>,
    sessions_max: usize,
    ingest_queue: usize,
    horizon: f64,
    /// When present every created session commits to this log and
    /// `/ingest` acknowledges only after the fsync (the durable path).
    wal: Option<Arc<WalWriter>>,
}

impl SessionManager {
    /// A manager over `engine`, admitting at most `sessions_max` live
    /// sessions, each with at most `ingest_queue` requests waiting behind
    /// the one it runs, and a default prediction horizon of `horizon`
    /// seconds.
    pub fn new(
        engine: Arc<CachedMatcher>,
        sessions_max: usize,
        ingest_queue: usize,
        horizon: f64,
    ) -> SessionManager {
        SessionManager {
            engine,
            table: Mutex::new(Table::default()),
            sessions_max: sessions_max.max(1),
            ingest_queue: ingest_queue.max(1),
            horizon,
            wal: None,
        }
    }

    /// Attaches a write-ahead log (builder form): every session created
    /// from now on commits its ingest to `wal` before acknowledging.
    pub fn with_wal(mut self, wal: Arc<WalWriter>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<WalWriter>> {
        self.wal.as_ref()
    }

    /// Whether ingest runs on the durable (WAL-acknowledged) path.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The shared engine (for `/metrics` and `/query` without a session).
    pub fn engine(&self) -> &Arc<CachedMatcher> {
        &self.engine
    }

    /// The default prediction horizon (s).
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    fn lock_table(&self) -> MutexGuard<'_, Table> {
        // A worker that panicked while holding the table lock has already
        // failed its request; the table itself (insert/lookup/remove of
        // `Arc` sessions) cannot be left half-written.
        match self.table.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The session named `name`, creating (and admitting) it on first
    /// use. Sessions are numbered in creation order, from 1.
    pub fn get_or_create(&self, name: &str) -> Result<Arc<Session>, SessionError> {
        if !valid_name(name) {
            return Err(SessionError::BadName(name.to_string()));
        }
        let mut table = self.lock_table();
        let Table {
            sessions,
            patient,
            created,
        } = &mut *table;
        if let Some(e) = sessions.get_mut(name) {
            // lint:allow(no-instant-now-in-hot-path): one clock read per
            // session lookup, for idle eviction — not a per-window loop.
            e.last_used = Instant::now();
            return Ok(Arc::clone(&e.session));
        }
        if sessions.len() >= self.sessions_max {
            return Err(SessionError::TableFull {
                max: self.sessions_max,
            });
        }
        // Created under the table lock, which is cheap with no thread to
        // start: a lost creation race can neither skip a session number
        // nor count a second `cohort.sessions`.
        let patient = *patient.get_or_insert_with(|| {
            self.engine
                .matcher()
                .store()
                .add_patient(PatientAttributes::new())
        });
        let config = SessionConfig::new(patient, *created + 1).with_horizon(self.horizon);
        let mut runtime =
            external_session(Arc::clone(&self.engine), config).map_err(SessionError::Runtime)?;
        *created += 1;
        if let Some(wal) = &self.wal {
            runtime = runtime.with_wal(Arc::clone(wal));
        }
        let session = Arc::new(Session::new(runtime, self.ingest_queue));
        sessions.insert(
            name.to_string(),
            SessionEntry {
                session: Arc::clone(&session),
                // lint:allow(no-instant-now-in-hot-path): idle clock (see
                // the lookup above).
                last_used: Instant::now(),
            },
        );
        Ok(session)
    }

    /// The existing session named `name`.
    pub fn get(&self, name: &str) -> Result<Arc<Session>, SessionError> {
        if !valid_name(name) {
            return Err(SessionError::BadName(name.to_string()));
        }
        let mut table = self.lock_table();
        let Some(e) = table.sessions.get_mut(name) else {
            return Err(SessionError::Unknown(name.to_string()));
        };
        // lint:allow(no-instant-now-in-hot-path): idle clock (see
        // get_or_create).
        e.last_used = Instant::now();
        Ok(Arc::clone(&e.session))
    }

    /// Seals every session that has been idle (no lookup) for at least
    /// `idle` and that no request holds, removes it from the table, and
    /// returns how many were evicted. Sealing is the durable teardown:
    /// the session's live stream is persisted into the shared store (and
    /// its WAL tail committed), so a re-created session of the same name
    /// can match against the evicted history.
    pub fn evict_idle(&self, idle: Duration) -> usize {
        let mut ripe = Vec::new();
        // A request holds its session's `Arc` from the lookup, taken under
        // this lock, until it has answered. So a count of one, read under
        // the lock, means no request holds the session and none can reach
        // it before it is gone from the table.
        self.lock_table().sessions.retain(|_, e| {
            let evict = e.last_used.elapsed() >= idle && Arc::strong_count(&e.session) == 1;
            if evict {
                ripe.push(Arc::clone(&e.session));
            }
            !evict
        });
        // Sealed outside the table lock: a seal writes the store and the
        // WAL, and lookups of other sessions must not wait on it.
        let evicted = ripe.len();
        for session in ripe {
            if let Ok(session) = Arc::try_unwrap(session) {
                session.seal();
            }
        }
        evicted
    }

    /// Name → status snapshot for every live session (for `/healthz`).
    pub fn statuses(&self) -> Vec<(String, SessionStatus)> {
        self.lock_table()
            .sessions
            .iter()
            .map(|(name, e)| (name.clone(), e.session.status()))
            .collect()
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.lock_table().sessions.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_core::matcher::Matcher;
    use tsm_core::{MetricsRegistry, Params};
    use tsm_db::StreamStore;
    use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
    use tsm_signal::{BreathingParams, SignalGenerator};

    /// A metered engine over one two-minute reference stream, with the
    /// parameters `tsm serve` uses.
    fn seeded_engine(seed: u64) -> Arc<CachedMatcher> {
        let store = StreamStore::new();
        let patient = store.add_patient(PatientAttributes::new());
        let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(120.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, 0, plr, samples.len());
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        Arc::new(CachedMatcher::new(
            Matcher::new(store, params).with_metrics(MetricsRegistry::enabled()),
        ))
    }

    fn live_samples(seed: u64, duration: f64) -> Vec<Sample> {
        SignalGenerator::new(BreathingParams::default(), seed).generate(duration)
    }

    fn manager(max: usize) -> SessionManager {
        let engine = Arc::new(CachedMatcher::new(
            Matcher::new(StreamStore::new(), Params::default())
                .with_metrics(MetricsRegistry::enabled()),
        ));
        SessionManager::new(engine, max, 4, 0.3)
    }

    #[test]
    fn names_are_validated() {
        let m = manager(4);
        assert!(matches!(
            m.get_or_create("../etc/passwd"),
            Err(SessionError::BadName(_))
        ));
        assert!(matches!(m.get_or_create(""), Err(SessionError::BadName(_))));
        let long = "x".repeat(65);
        assert!(matches!(
            m.get_or_create(&long),
            Err(SessionError::BadName(_))
        ));
        assert!(m.get_or_create("ok-name_1.2").is_ok());
    }

    #[test]
    fn table_cap_rejects_new_sessions_but_keeps_existing() {
        let m = manager(2);
        m.get_or_create("a").unwrap();
        m.get_or_create("b").unwrap();
        assert!(matches!(
            m.get_or_create("c"),
            Err(SessionError::TableFull { max: 2 })
        ));
        // Existing names still resolve (idempotent create).
        m.get_or_create("a").unwrap();
        m.get("b").unwrap();
        assert!(matches!(m.get("c"), Err(SessionError::Unknown(_))));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn statuses_cover_every_live_session() {
        let m = manager(4);
        m.get_or_create("a").unwrap();
        m.get_or_create("b").unwrap();
        let statuses = m.statuses();
        assert_eq!(statuses.len(), 2);
        assert!(statuses.iter().all(|(_, s)| !s.failed));
    }

    #[test]
    fn eviction_never_hides_a_session_a_request_holds() {
        let m = manager(4);
        let held = m.get_or_create("held").unwrap();
        drop(m.get_or_create("idle").unwrap());
        assert_eq!(m.evict_idle(Duration::ZERO), 1, "the idle session goes");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..2_000 {
                    m.evict_idle(Duration::ZERO);
                }
            });
            for _ in 0..2_000 {
                let again = m.get("held").expect("a held session stays in the table");
                assert!(Arc::ptr_eq(&again, &held));
            }
        });
        drop(held);
        assert_eq!(m.evict_idle(Duration::ZERO), 1, "released, it can go");
        assert!(m.is_empty());
    }

    #[test]
    fn racing_creators_make_one_session() {
        let m = manager(4);
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let made: Vec<Arc<Session>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        m.get_or_create("contested").unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(made.iter().all(|s| Arc::ptr_eq(s, &made[0])));
        let snap = m.engine().metrics().snapshot();
        assert_eq!(snap.counter("cohort.sessions"), 1);
        // The next session gets the next number: none was skipped.
        drop(made);
        let next = m.get_or_create("next").unwrap();
        let number = next.run(|rt| Ok(rt.config().session)).unwrap();
        assert_eq!(number, 2);
    }

    #[test]
    fn ingest_then_query_and_predict_round_trip() {
        let m = SessionManager::new(seeded_engine(50), 4, 4, 0.3);
        let session = m.get_or_create("a").unwrap();
        let samples = live_samples(51, 60.0);
        assert_eq!(session.ingest(&samples).unwrap().unwrap(), None, "no WAL");
        let reply = session
            .query(Some(5))
            .unwrap()
            .expect("warm session must produce a query");
        assert!(reply.query_len > 0);
        assert!(!reply.matches.is_empty() && reply.matches.len() <= 5);
        assert!(
            session.predict(0.3).unwrap().is_some(),
            "warm session must predict"
        );
        // Ingest returned only after the push: the status already has it.
        let status = session.status();
        assert_eq!(status.samples, samples.len() as u64);
        assert!(status.vertices > 0);
        assert_eq!(status.health, SessionHealth::Healthy);
        assert!(!status.failed);
        assert_eq!(status.pending, 0);
        // On-demand predict/query never touch the tick counters, so the
        // registry still reconciles.
        m.engine().metrics().snapshot().check_invariants().unwrap();
    }

    #[test]
    fn full_queue_rejects_busy_instead_of_blocking() {
        let m = SessionManager::new(seeded_engine(52), 4, 1, 0.3);
        let session = m.get_or_create("hot").unwrap();
        // Capacity 1: the one answer the third request sends.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        std::thread::scope(|scope| {
            // Hold the session's lock, as a long request would. With
            // `ingest_queue` 1 two requests get in and wait for it...
            let held = session.runtime.lock().unwrap();
            let waiters: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| session.predict(0.3)))
                .collect();
            while session.status().pending < 2 {
                std::thread::yield_now();
            }
            // ...and the next ones are refused at once instead of waiting.
            scope.spawn(|| {
                let predict = session.predict(0.3).map(drop);
                let ingest = session.ingest(&[]).map(drop);
                tx.send((predict, ingest)).unwrap();
            });
            let third = rx.recv_timeout(Duration::from_secs(10));
            drop(held);
            assert!(
                matches!(
                    third,
                    Ok((Err(SessionError::Busy), Err(SessionError::Busy)))
                ),
                "{third:?}"
            );
            for waiter in waiters {
                assert!(waiter.join().unwrap().is_ok());
            }
        });
        assert_eq!(session.status().pending, 0, "every admission was undone");
        assert!(session.predict(0.3).is_ok());
    }

    #[test]
    fn fault_budget_exhaustion_marks_failed_and_rejects_ingest() {
        let m = SessionManager::new(seeded_engine(54), 4, 4, 0.3);
        let session = m.get_or_create("sick").unwrap();
        // NaN positions are recoverable faults; one more than the default
        // budget of 64 fails the session. That batch still gets its
        // commit outcome; the next one is refused.
        let poison: Vec<Sample> = (0..65)
            .map(|i| Sample::new_1d(i as f64, f64::NAN))
            .collect();
        assert!(matches!(session.ingest(&poison), Ok(Ok(None))));
        assert!(session.status().failed);
        assert!(matches!(
            session.ingest(&[Sample::new_1d(99.0, 1.0)]),
            Err(SessionError::Failed)
        ));
        // Reads keep working on what the session holds.
        assert!(session.query(None).is_ok());
        assert!(session.predict(0.3).is_ok());
        assert_eq!(session.status().faults_absorbed, 64);
        let snap = m.engine().metrics().snapshot();
        assert_eq!(snap.counter("cohort.faults_absorbed"), 64);
        assert_eq!(snap.counter("cohort.sessions_failed"), 1);
        snap.check_invariants().unwrap();
    }

    #[test]
    fn durable_ingest_acks_only_after_the_wal_commit() {
        let engine = seeded_engine(58);
        let store = engine.matcher().shared_store();
        let backend = Arc::new(tsm_db::MemBackend::new());
        let dyn_backend: Arc<dyn tsm_db::DurableBackend> = backend.clone();
        let wal = Arc::new(
            tsm_db::recover(Arc::clone(&dyn_backend), tsm_db::WalConfig::default())
                .unwrap()
                .writer,
        );
        let m = SessionManager::new(Arc::clone(&engine), 4, 4, 0.3).with_wal(Arc::clone(&wal));
        let seq = m
            .get_or_create("room")
            .unwrap()
            .ingest(&live_samples(59, 60.0))
            .expect("admitted")
            .expect("committed");
        assert!(seq.is_some(), "a minute of signal must close vertices");
        // The acknowledged batch is already fsynced in the backend.
        let ops = backend.ops();
        assert!(
            ops.iter().any(|op| op.starts_with("sync(wal-")),
            "no segment fsync before the ack: {ops:?}"
        );
        // Eviction seals the stream into the shared store...
        let streams = store.num_streams();
        assert_eq!(m.evict_idle(Duration::ZERO), 1);
        assert_eq!(store.num_streams(), streams + 1);
        assert_eq!(store.streams().last().unwrap().meta.session, 1);
        drop((m, wal));
        // ...and recovery sees the whole acknowledged session as stored.
        let rec = tsm_db::recover(dyn_backend, tsm_db::WalConfig::default()).unwrap();
        assert_eq!(rec.report.sessions_recovered, 1, "{}", rec.report);
        assert_eq!(rec.store.num_streams(), 1);
        let snap = engine.metrics().snapshot();
        snap.check_invariants().unwrap();
        assert!(snap.counter("wal.appends") >= 1);
        assert_eq!(snap.counter("wal.appends"), snap.counter("wal.fsyncs"));
    }
}
