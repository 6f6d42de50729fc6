//! In-process replay over the stack `tsm serve` builds — the same
//! `Params` (`min_matches: 1`), one shared `CachedMatcher`, an
//! `external_session` per live session, and a file-backed WAL for the
//! durable workloads. It serves two purposes:
//!
//! * the output checks: every `/predict` answer must equal
//!   `SessionRuntime::predict` at the same point of the same session, and
//!   every final `/query` must equal `Matcher::find_matches_naive`;
//! * the traced pass: a fixed prefix of the workload's script, run
//!   sequentially with a span around each call into a layer, once with
//!   spans and once without to price the tracing itself.

use crate::json::{self, Value};
use crate::load::Answer;
use crate::trace::{Span, Tracer};
use crate::workload::{Inputs, Req, Workload, CHECKPOINT_EVERY, QUERY_K};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tsm_core::index_cache::CachedMatcher;
use tsm_core::matcher::{MatchResult, Matcher, QuerySubseq, SearchOptions};
use tsm_core::pipeline::PredictionOutcome;
use tsm_core::predict::predict_position;
use tsm_core::query::generate_query;
use tsm_core::session::{external_session, SessionConfig, SessionRuntime};
use tsm_core::{MetricsRegistry, Params};
use tsm_db::{DurableBackend, FileBackend, PatientAttributes, PatientId, WalConfig, WalWriter};

/// `tsm serve`'s default prediction horizon (`--dt`), seconds.
const HORIZON: f64 = 0.3;
/// `CachedMatcher` answers queries of 1..=60 segments through its index
/// cache and scans anything longer.
const MAX_INDEXED_LEN: usize = 60;

/// The serving stack of `tsm serve`, built in this process.
pub struct Stack {
    engine: Arc<CachedMatcher>,
    patient: PatientId,
    wal: Option<Arc<WalWriter>>,
}

impl Stack {
    /// Loads `store` (recovering `wal` over it, as the server does) and
    /// adds the one patient the server files all its sessions under.
    pub fn open(store: &Path, wal: Option<&Path>) -> Result<Stack, String> {
        let base =
            tsm_db::load_store_from_path(store).map_err(|e| format!("{}: {e}", store.display()))?;
        let (store, wal) = match wal {
            Some(dir) => {
                let backend: Arc<dyn DurableBackend> = Arc::new(
                    FileBackend::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?,
                );
                let rec = tsm_db::recover_with_base(backend, WalConfig::default(), Some(base))
                    .map_err(|e| format!("{}: {e}", dir.display()))?;
                (rec.store, Some(Arc::new(rec.writer)))
            }
            None => (base, None),
        };
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let engine = Arc::new(CachedMatcher::new(
            Matcher::new(store, params).with_metrics(MetricsRegistry::enabled()),
        ));
        let patient = engine
            .matcher()
            .store()
            .add_patient(PatientAttributes::new());
        Ok(Stack {
            engine,
            patient,
            wal,
        })
    }

    /// The runtime the server creates for the `number`-th session it
    /// sees (numbering starts at 1).
    fn session(&self, number: usize) -> Result<SessionRuntime, String> {
        let config = SessionConfig::new(self.patient, number as u32).with_horizon(HORIZON);
        let runtime =
            external_session(Arc::clone(&self.engine), config).map_err(|e| e.to_string())?;
        Ok(match &self.wal {
            Some(wal) => runtime.with_wal(Arc::clone(wal)),
            None => runtime,
        })
    }
}

fn push_all(rt: &mut SessionRuntime, samples: &[tsm_model::Sample]) -> Result<(), String> {
    for &s in samples {
        rt.push(s).map_err(|e| format!("push: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Checks every `/predict` answer and every final `/query` of a static
/// predicting workload against the in-process stack. Sessions are
/// independent, so two threads split them. Returns the failures.
pub fn verify(
    stack: &Stack,
    w: &Workload,
    inputs: &Inputs,
    predicts: &[Answer],
    queries: &[Answer],
) -> Vec<String> {
    let mut by_session: Vec<Vec<&Answer>> = vec![Vec::new(); w.sessions];
    for a in predicts {
        by_session[a.session].push(a);
    }
    let mut finals: Vec<Option<&Answer>> = vec![None; w.sessions];
    for q in queries {
        finals[q.session] = Some(q);
    }
    let threads = 2;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (by_session, finals) = (&by_session, &finals);
                scope.spawn(move || {
                    (t..w.sessions)
                        .step_by(threads)
                        .filter_map(|s| {
                            verify_session(stack, w, inputs, s, &by_session[s], finals[s]).err()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["a verification thread panicked".into()])
            })
            .collect()
    })
}

fn verify_session(
    stack: &Stack,
    w: &Workload,
    inputs: &Inputs,
    session: usize,
    predicts: &[&Answer],
    last_query: Option<&Answer>,
) -> Result<(), String> {
    let mut rt = stack.session(session + 1)?;
    let source = &inputs.sources[w.source_of(session, inputs.sources.len())];
    let mut pushed = 0;
    let mut advance = |rt: &mut SessionRuntime, upto: usize| -> Result<(), String> {
        if upto < pushed {
            return Err(format!("session {session}: answers out of order"));
        }
        push_all(rt, &source.samples(pushed, upto - pushed))?;
        pushed = upto;
        Ok(())
    };
    // On a static store a prediction depends only on the closed vertices,
    // and a 3-sample step closes one about every tenth step: recompute
    // only when the live buffer grew.
    let mut latest: Option<(usize, Option<PredictionOutcome>)> = None;
    for a in predicts {
        advance(&mut rt, a.samples)?;
        let vertices = rt.live_vertices().len();
        if latest.as_ref().is_none_or(|(n, _)| *n != vertices) {
            latest = Some((vertices, rt.predict(HORIZON)));
        }
        let want = latest.as_ref().and_then(|(_, p)| p.as_ref());
        check_predict(&a.body, want).map_err(|e| {
            format!(
                "/predict of session {session} after {} samples: {e}",
                a.samples
            )
        })?;
    }
    if let Some(q) = last_query {
        advance(&mut rt, q.samples)?;
        check_query(stack, &rt, &q.body)
            .map_err(|e| format!("final /query of session {session}: {e}"))?;
    }
    Ok(())
}

/// Whether a JSON number (or the `null` the server writes for a
/// non-finite value) carries exactly `want`.
fn same_f64(got: &Value, want: f64) -> bool {
    match got {
        Value::Num(x) => x.to_bits() == want.to_bits(),
        Value::Null => !want.is_finite(),
        _ => false,
    }
}

fn same_outcome(a: &PredictionOutcome, b: &PredictionOutcome) -> bool {
    let (pa, pb) = (a.position.coords(), b.position.coords());
    pa.len() == pb.len()
        && pa.iter().zip(pb).all(|(x, y)| x.to_bits() == y.to_bits())
        && (a.num_matches, a.query_len, a.query_stable)
            == (b.num_matches, b.query_len, b.query_stable)
}

fn check_predict(body: &str, want: Option<&PredictionOutcome>) -> Result<(), String> {
    let doc = json::parse(body)?;
    let got = doc.get("prediction").ok_or("no `prediction` member")?;
    let Some(want) = want else {
        return if got.is_null() {
            Ok(())
        } else {
            Err(format!("server predicted {body:?}, the replay abstained"))
        };
    };
    let position = got
        .get("position")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("server abstained ({body:?}), the replay predicted {want:?}"))?;
    let coords = want.position.coords();
    let matches = position.len() == coords.len()
        && position.iter().zip(coords).all(|(g, &c)| same_f64(g, c))
        && got.get("num_matches").and_then(Value::as_u64) == Some(want.num_matches as u64)
        && got.get("query_len").and_then(Value::as_u64) == Some(want.query_len as u64)
        && got.get("query_stable").and_then(Value::as_bool) == Some(want.query_stable);
    if matches {
        Ok(())
    } else {
        Err(format!("server said {body:?}, the replay {want:?}"))
    }
}

fn check_query(stack: &Stack, rt: &SessionRuntime, body: &str) -> Result<(), String> {
    let doc = json::parse(body)?;
    let query = rt.current_query();
    let want: Vec<MatchResult> = match &query {
        Some(q) => stack.engine.matcher().find_matches_naive(
            q,
            &SearchOptions {
                top_k: Some(QUERY_K),
                ..SearchOptions::default()
            },
        ),
        None => Vec::new(),
    };
    let want_len = query.as_ref().map_or(0, QuerySubseq::len);
    if doc.get("query_len").and_then(Value::as_u64) != Some(want_len as u64) {
        return Err(format!(
            "query_len differs: server {body:?}, naive {want_len}"
        ));
    }
    let got = doc
        .get("matches")
        .and_then(Value::as_array)
        .ok_or("no `matches` array")?;
    if got.len() != want.len() {
        return Err(format!(
            "{} matches from the server, {} from find_matches_naive",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, m)) in got.iter().zip(&want).enumerate() {
        let field = |k: &str| g.get(k).and_then(Value::as_u64);
        let same = field("stream") == Some(u64::from(m.subseq.stream.0))
            && field("start") == Some(u64::from(m.subseq.start))
            && field("len") == Some(u64::from(m.subseq.len))
            && g.get("distance").is_some_and(|d| same_f64(d, m.distance))
            && g.get("ws").is_some_and(|d| same_f64(d, m.ws))
            && g.get("relation").and_then(Value::as_str) == Some(&format!("{:?}", m.relation));
        if !same {
            return Err(format!("match {i}: server {g:?}, naive {m:?}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

/// What one sequential replay of a script prefix recorded.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Every span (empty with spans off).
    pub spans: Vec<Span>,
    /// Time spent executing requests, ns: the region a root span covers,
    /// measured the same way with spans on or off.
    pub busy_ns: u64,
    /// Durations of the `IndexCache::index_for` calls that built an
    /// index, ns.
    pub index_builds_ns: Vec<f64>,
    /// Dynamic query lengths of the predictions, segments.
    pub query_lens: Vec<f64>,
    pub pushed_samples: u64,
    /// Predictions whose traced decomposition differed from
    /// `SessionRuntime::predict`.
    pub mismatches: Vec<String>,
}

/// Replays `script` sequentially over a fresh stack. `wal` must be a
/// fresh directory for the durable workloads.
pub fn replay(
    store: &Path,
    wal: Option<&Path>,
    w: &Workload,
    inputs: &Inputs,
    script: &[Req],
    spans_on: bool,
) -> Result<Replayed, String> {
    let stack = Stack::open(store, wal)?;
    let mut tracer = Tracer::new(spans_on);
    let mut out = Replayed::default();
    let mut sessions: BTreeMap<usize, SessionRuntime> = BTreeMap::new();
    let mut created = 0;
    let sources = &inputs.sources;
    for (i, &req) in script.iter().enumerate() {
        let id = i as u32;
        match req {
            Req::Ingest { session, from, n } => {
                let rt = match sessions.entry(session) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        created += 1;
                        e.insert(stack.session(created)?)
                    }
                };
                let body = sources[w.source_of(session, sources.len())].csv(from, n);
                let wal = stack.wal.as_deref();
                let started = Instant::now();
                tracer.span("serve.ingest", id, |tr| -> Result<(), String> {
                    let samples = tr
                        .span("model.csv_parse", id, |_| {
                            tsm_model::csv::read_samples_csv(body.as_bytes())
                        })
                        .map_err(|e| e.to_string())?;
                    tr.span("model.push", id, |_| push_all(rt, &samples))?;
                    if wal.is_some() {
                        tr.span("db.wal.commit", id, |_| rt.wal_commit())
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })?;
                // The server's maintenance worker checkpoints off the
                // request path once enough appends have accumulated.
                if let Some(wal) = wal.filter(|w| w.appends_since_checkpoint() >= CHECKPOINT_EVERY)
                {
                    let store = stack.engine.matcher().store();
                    tracer
                        .span("db.wal.checkpoint", id, |_| wal.checkpoint(store))
                        .map_err(|e| e.to_string())?;
                }
                out.busy_ns += started.elapsed().as_nanos() as u64;
                out.pushed_samples += n as u64;
            }
            Req::Predict { session } => {
                let rt = sessions.get(&session).ok_or("predict before ingest")?;
                let started = Instant::now();
                let got = tracer.span("serve.predict", id, |tr| {
                    predict_traced(tr, id, rt, &mut out.query_lens, &mut out.index_builds_ns)
                });
                out.busy_ns += started.elapsed().as_nanos() as u64;
                // The decomposition must reproduce the real thing; checked
                // once, in the traced run, outside the timed region.
                if spans_on {
                    let want = rt.predict(HORIZON);
                    let same = match (&got, &want) {
                        (Some(a), Some(b)) => same_outcome(a, b),
                        (None, None) => true,
                        _ => false,
                    };
                    if !same {
                        out.mismatches.push(format!(
                            "request {id}: traced {got:?}, SessionRuntime::predict {want:?}"
                        ));
                    }
                }
            }
            Req::Query { session } => {
                let rt = sessions.get(&session).ok_or("query before ingest")?;
                let started = Instant::now();
                tracer.span("serve.query", id, |tr| {
                    let query = tr.span("core.query.generate", id, |_| rt.current_query());
                    if let Some(q) = query {
                        let options = SearchOptions {
                            top_k: Some(QUERY_K),
                            ..rt.config().options.clone()
                        };
                        search_traced(tr, id, rt.engine(), &q, &options, &mut out.index_builds_ns);
                    }
                });
                out.busy_ns += started.elapsed().as_nanos() as u64;
            }
            Req::Seal { session } => {
                let rt = sessions
                    .remove(&session)
                    .ok_or("seal of an unknown session")?;
                let started = Instant::now();
                tracer.span("db.store.seal", id, |_| rt.finish_into_store());
                out.busy_ns += started.elapsed().as_nanos() as u64;
            }
        }
    }
    out.spans = tracer.into_spans();
    Ok(out)
}

/// `SessionRuntime::predict`, one layer call at a time.
fn predict_traced(
    tr: &mut Tracer,
    id: u32,
    rt: &SessionRuntime,
    query_lens: &mut Vec<f64>,
    builds: &mut Vec<f64>,
) -> Option<PredictionOutcome> {
    let params = rt.params();
    let config = rt.config();
    let (outcome, query) = tr.span("core.query.generate", id, |_| {
        let epoch = rt.epoch_vertices();
        let outcome = generate_query(epoch, params)?;
        let query = QuerySubseq::new(outcome.vertices(epoch).to_vec())
            .with_origin(config.patient, config.session);
        Some((outcome, query))
    })?;
    query_lens.push(outcome.len as f64);
    let matches = search_traced(tr, id, rt.engine(), &query, &config.options, builds);
    let position = tr.span("core.predict.position", id, |_| {
        predict_position(rt.store(), &query, &matches, HORIZON, params, config.align)
    })?;
    Some(PredictionOutcome {
        position,
        num_matches: matches.len(),
        query_len: outcome.len,
        query_stable: outcome.stable,
    })
}

/// `CachedMatcher::find_matches` with its index lookup timed on its own:
/// the lookup builds the index on a miss, and the search that follows
/// finds it cached.
fn search_traced(
    tr: &mut Tracer,
    id: u32,
    engine: &CachedMatcher,
    query: &QuerySubseq,
    options: &SearchOptions,
    builds: &mut Vec<f64>,
) -> Vec<MatchResult> {
    let len = query.len();
    if (1..=MAX_INDEXED_LEN).contains(&len) {
        tr.span("core.index_cache", id, |_| {
            let cache = engine.cache();
            let before = cache.rebuild_count();
            let started = Instant::now();
            cache.index_for(len);
            if cache.rebuild_count() > before {
                builds.push(started.elapsed().as_nanos() as f64);
            }
        });
    }
    tr.span("core.matcher.search", id, |_| {
        engine.find_matches(query, options)
    })
}

// ---------------------------------------------------------------------------
// Host calibration
// ---------------------------------------------------------------------------

/// A fixed in-process naive search over a fixed cohort, independent of
/// the run's seed: timing it before and after a workload shows whether
/// the host itself drifted during the run.
pub struct Calibration {
    matcher: Matcher,
    query: QuerySubseq,
}

impl Calibration {
    const REPS: usize = 51;

    pub fn new() -> Result<Calibration, String> {
        let bundle = tsm_bench::build_bundle(&tsm_bench::BundleConfig {
            cohort: tsm_signal::CohortConfig {
                n_patients: 60,
                sessions_per_patient: 5,
                streams_per_session: 2,
                stream_duration_s: 120.0,
                dim: 1,
                seed: 0xCA11B,
            },
            segmenter: tsm_model::SegmenterConfig::default(),
        });
        let view = bundle
            .store
            .resolve(tsm_db::SubseqRef::new(tsm_db::StreamId(0), 4, 9))
            .ok_or("calibration stream too short")?;
        Ok(Calibration {
            query: QuerySubseq::from_view(&view),
            matcher: Matcher::new(bundle.store, Params::default()),
        })
    }

    /// Median wall time of the naive search, ms.
    pub fn measure(&self) -> f64 {
        let laps: Vec<f64> = (0..Self::REPS)
            .map(|_| {
                let started = Instant::now();
                let found = self
                    .matcher
                    .find_matches_naive(&self.query, &SearchOptions::default());
                std::hint::black_box(found);
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        crate::stats::median(&laps).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_check_is_bitwise_and_covers_abstention() {
        let want = PredictionOutcome {
            position: tsm_model::Position::new_1d(0.1 + 0.2),
            num_matches: 3,
            query_len: 9,
            query_stable: true,
        };
        let body = |x: f64| {
            format!(
                "{{\"session\": \"s0\", \"dt\": 0.3, \"prediction\": {{\"position\": [{x}], \
                 \"num_matches\": 3, \"query_len\": 9, \"query_stable\": true}}}}"
            )
        };
        check_predict(&body(0.1 + 0.2), Some(&want)).unwrap();
        assert!(
            check_predict(&body(0.3), Some(&want)).is_err(),
            "one ulp off"
        );
        let null = "{\"session\": \"s0\", \"dt\": 0.3, \"prediction\": null}";
        check_predict(null, None).unwrap();
        assert!(check_predict(null, Some(&want)).is_err());
        assert!(check_predict(&body(0.3), None).is_err());
    }
}
