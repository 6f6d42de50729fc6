//! The `tsm` subcommands.

use crate::args::Args;
use std::sync::Arc;
use tsm_core::cluster::{k_medoids, silhouette};
use tsm_core::correlate::discover_correlations;
use tsm_core::index_cache::CachedMatcher;
use tsm_core::matcher::{Matcher, QuerySubseq, SearchOptions};
use tsm_core::metrics::{Counter, MetricsRegistry};
use tsm_core::patient_distance::patient_distance_matrix;
use tsm_core::session::{CohortRuntime, SessionConfig, SessionHealth, SessionRuntime, SessionSpec};
use tsm_core::stream_distance::StreamDistanceConfig;
use tsm_core::Params;
use tsm_db::{
    load_store_from_path, salvage_store_from_path, save_store_to_path, PatientAttributes,
    PatientId, StreamId, StreamStore, SubseqRef,
};
use tsm_model::{segment_signal, PlrTrajectory, SegmenterConfig};
use tsm_signal::{CohortConfig, FaultInjector, FaultPlan, SyntheticCohort};

/// Prints usage.
pub fn help() {
    println!(
        "tsm — subsequence matching on structured time series

USAGE:
  tsm simulate --patients N --sessions S --streams K --duration SECS \\
               --seed X --out FILE     build a synthetic cohort store
  tsm info     --store FILE            store statistics
  tsm segment  --csv FILE [--axis N]   segment a time,value CSV signal
  tsm match    --store FILE --stream ID --start I --len L [--delta D]
               [--k K] [--top N] [--metrics [FILE]]
                                       match one stored window against the
                                       store; --k keeps only the K best
                                       matches, --top prints the first N
                                       (default 20)
  tsm predict  --store FILE --patient ID [--duration SECS] [--dt SECS]
               [--seed X] [--delta D]  replay a fresh session, report error
  tsm replay   --store FILE --sessions N [--threads T]
               [--duration SECS] [--dt SECS] [--every K] [--seed X]
               [--metrics [FILE]] [--faults SEED|PLANFILE]
                                       replay N concurrent sessions on T
                                       worker threads against one shared
                                       store, report throughput (--metrics
                                       dumps an instrumentation snapshot to
                                       FILE, or stdout; --faults runs each
                                       session through the deterministic
                                       fault injector)
  tsm chaos    [--plans N] [--seed X] [--duration SECS] [--threads T]
                                       robustness soak: N fault-injected
                                       sessions must degrade gracefully,
                                       recover, and reconcile metrics
  tsm cluster  --store FILE [--k K]    cluster patients, find correlations
  tsm serve    [--store FILE] [--addr HOST:PORT] [--sessions-max N]
               [--workers W] [--ingest-queue Q] [--dt SECS]
               [--wal DIR] [--checkpoint-every N] [--idle-timeout SECS]
                                       HTTP front-end: POST /ingest/{{name}},
                                       GET /query, /predict, /metrics,
                                       /healthz; sheds load with 429/503 +
                                       Retry-After when saturated; --wal
                                       makes ingest durable (fsync before
                                       ack, recovery on restart),
                                       --checkpoint-every compacts the log
                                       into snapshots every N appends, and
                                       --idle-timeout seals sessions idle
                                       that long into the store
  tsm recover  --wal DIR [--store FILE] [--out FILE] [--metrics [FILE]]
                                       replay a write-ahead log over its
                                       latest snapshot (torn tails are
                                       truncated, never fatal) and report
                                       what came back; --out saves the
                                       recovered store
  tsm help                             this message

Store-reading commands accept --salvage to recover the valid prefix of a
truncated or corrupted store file instead of refusing to load it. A flag
the command does not read is an error."
    );
}

fn load(args: &Args) -> Result<StreamStore, String> {
    load_with_metrics(args, &MetricsRegistry::disabled())
}

/// Loads `--store`, strictly by default. With `--salvage`, a damaged
/// file yields its valid prefix instead of an error, the recovery report
/// goes to stderr, and the salvage counters are recorded.
fn load_with_metrics(args: &Args, metrics: &MetricsRegistry) -> Result<StreamStore, String> {
    let path = args.require("store")?;
    if args.bool_flag("salvage") {
        let (store, report) = salvage_store_from_path(&path).map_err(|e| format!("{path}: {e}"))?;
        metrics.incr(Counter::SalvageLoads);
        metrics.add(
            Counter::SalvageStreamsRecovered,
            report.streams_recovered as u64,
        );
        metrics.add(Counter::SalvageStreamsLost, report.streams_lost() as u64);
        eprintln!("{path}: {report}");
        Ok(store)
    } else {
        load_store_from_path(&path)
            .map_err(|e| format!("{path}: {e} (--salvage recovers the valid prefix)"))
    }
}

/// The metrics registry a command should record into: enabled iff
/// `--metrics` was passed (with or without a destination file).
fn metrics_registry(args: &Args) -> MetricsRegistry {
    if args.bool_flag("metrics") {
        MetricsRegistry::enabled()
    } else {
        MetricsRegistry::disabled()
    }
}

/// Emits the collected metrics to the `--metrics` destination: a file
/// when one was given, stdout otherwise. Refuses to emit a snapshot whose
/// counters do not reconcile — that would mean the instrumentation
/// itself is broken.
fn emit_metrics(args: &Args, metrics: &MetricsRegistry) -> Result<(), String> {
    let Some(dest) = args.flags.get("metrics") else {
        return Ok(());
    };
    let snapshot = metrics.snapshot();
    snapshot
        .check_invariants()
        .map_err(|msg| format!("metrics counters do not reconcile: {msg}"))?;
    let json = snapshot.to_json();
    if dest.is_empty() {
        println!("{json}");
    } else {
        std::fs::write(dest, json).map_err(|e| format!("{dest}: {e}"))?;
        eprintln!("metrics written to {dest}");
    }
    Ok(())
}

/// `tsm simulate`.
pub fn simulate(args: &Args) -> Result<(), String> {
    let config = CohortConfig {
        n_patients: args.num_flag("patients", 12usize)?,
        sessions_per_patient: args.num_flag("sessions", 2usize)?,
        streams_per_session: args.num_flag("streams", 2usize)?,
        stream_duration_s: args.secs_flag("duration", 120.0, false)?,
        dim: args.num_flag("dim", 1usize)?,
        seed: args.num_flag("seed", 0xC0FFEEu64)?,
    };
    let out = args.require("out")?;
    eprintln!(
        "simulating {} patients x {} sessions x {} streams x {:.0}s ...",
        config.n_patients,
        config.sessions_per_patient,
        config.streams_per_session,
        config.stream_duration_s
    );
    let cohort = SyntheticCohort::generate(config);
    let store = StreamStore::new();
    let seg = SegmenterConfig::default();
    for p in &cohort.patients {
        let mut attrs = PatientAttributes::new();
        attrs.insert("age".into(), p.profile.age.to_string());
        attrs.insert("sex".into(), format!("{:?}", p.profile.sex));
        attrs.insert("tumor_site".into(), format!("{:?}", p.profile.tumor_site));
        attrs.insert(
            "tumor_size_mm".into(),
            format!("{:.1}", p.profile.tumor_size_mm),
        );
        let pid = store.add_patient(attrs);
        for (six, session) in p.sessions.iter().enumerate() {
            for raw in &session.streams {
                let vertices = segment_signal(raw, seg.clone());
                if let Ok(plr) = PlrTrajectory::from_vertices(vertices) {
                    store.add_stream(pid, six as u32, plr, raw.len());
                }
            }
        }
    }
    save_store_to_path(&store, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} patients, {} streams, {} vertices",
        store.num_patients(),
        store.num_streams(),
        store.total_vertices()
    );
    Ok(())
}

/// `tsm info`.
pub fn info(args: &Args) -> Result<(), String> {
    let store = load(args)?;
    let stats = tsm_db::StoreStats::of(&store, 0);
    println!(
        "patients: {}\nstreams:  {}\nvertices: {}",
        stats.patients, stats.streams, stats.vertices
    );
    println!(
        "signal:   {:.0} s total, {} raw samples ({:.1}x compression)",
        stats.total_duration_s, stats.raw_samples, stats.compression
    );
    println!(
        "segments: EX={} EOE={} IN={} IRR={}",
        stats.state_counts[0], stats.state_counts[1], stats.state_counts[2], stats.state_counts[3]
    );
    if let (Some(p), Some(a)) = (stats.mean_period_s, stats.mean_amplitude_mm) {
        println!("breathing: mean period {p:.2} s, mean amplitude {a:.1} mm");
    }
    if args.bool_flag("verbose") {
        println!("\nper-stream statistics:");
        for s in store.streams().iter() {
            let st = tsm_db::StreamStats::of(s, 0);
            println!(
                "  {} ({}  session {}): {:.0}s, {} cycles, period {}, amplitude {}, IRR {:.0}%",
                s.meta.id,
                s.meta.patient,
                s.meta.session,
                st.duration_s,
                st.cycles,
                st.mean_period_s
                    .map(|p| format!("{p:.2}s"))
                    .unwrap_or_else(|| "-".into()),
                st.mean_amplitude_mm
                    .map(|a| format!("{a:.1}mm"))
                    .unwrap_or_else(|| "-".into()),
                st.irregular_fraction * 100.0
            );
        }
    }
    for p in store.patients() {
        let streams = store.streams_of(p);
        let attrs = store.patient_attributes(p).unwrap_or_default();
        let site = attrs.get("tumor_site").cloned().unwrap_or_default();
        let mut sessions: Vec<u32> = streams
            .iter()
            .filter_map(|&s| store.stream(s).map(|m| m.meta.session))
            .collect();
        sessions.dedup();
        println!(
            "  {p}: {} streams in {} sessions {}",
            streams.len(),
            sessions.len(),
            if site.is_empty() {
                String::new()
            } else {
                format!("({site})")
            }
        );
    }
    Ok(())
}

/// `tsm segment` — segments a `time,value[,value2[,value3]]` CSV and
/// prints `time,state,coordinates...` vertex rows.
pub fn segment(args: &Args) -> Result<(), String> {
    let path = args.require("csv")?;
    let axis = args.num_flag("axis", 0usize)?;
    let file = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let samples = tsm_model::csv::read_samples_csv(file).map_err(|e| format!("{path}: {e}"))?;
    if samples.is_empty() {
        return Err(format!("{path}: no samples"));
    }
    let config = SegmenterConfig {
        axis,
        cardiac_cancel: args.bool_flag("cardiac-cancel"),
        ..SegmenterConfig::default()
    };
    let vertices = segment_signal(&samples, config);
    tsm_model::csv::write_vertices_csv(&vertices, std::io::stdout()).map_err(|e| e.to_string())?;
    eprintln!(
        "{} samples -> {} vertices ({:.1}x compression)",
        samples.len(),
        vertices.len(),
        samples.len() as f64 / vertices.len().max(1) as f64
    );
    Ok(())
}

/// Table 1's parameters with `--delta` applied, validated, so a NaN,
/// zero or negative threshold is an error naming the flag.
fn params_with_delta(args: &Args) -> Result<Params, String> {
    let mut params = Params::default();
    params.delta = args.num_flag("delta", params.delta)?;
    params.validate().map_err(|e| format!("--delta: {e}"))?;
    Ok(params)
}

/// `tsm match`.
pub fn match_cmd(args: &Args) -> Result<(), String> {
    let store = load(args)?;
    let stream = StreamId(args.num_flag("stream", 0u32)?);
    let start = args.num_flag("start", 0usize)?;
    let len = args.num_flag("len", 9usize)?;
    let params = params_with_delta(args)?;
    let view = store
        .resolve(SubseqRef::new(stream, start, len))
        .ok_or_else(|| format!("stream {stream} has no window [{start}, {start}+{len}]"))?;
    let top_k = if args.flags.contains_key("k") {
        let k = args.num_flag("k", 0usize)?;
        if k == 0 {
            return Err("--k must be at least 1".into());
        }
        Some(k)
    } else {
        None
    };
    let options = SearchOptions {
        top_k,
        ..Default::default()
    };
    let metrics = metrics_registry(args);
    let query = QuerySubseq::from_view(&view);
    let matcher = Matcher::new(store.clone(), params).with_metrics(metrics.clone());
    let matches = matcher.find_matches_with(&query, &options);
    println!("query: {stream} start {start} len {len}");
    println!("{} matches within delta:", matches.len());
    for m in matches.iter().take(args.num_flag("top", 20usize)?) {
        println!(
            "  {} start {:>4}  distance {:>8.4}  ws {:.1}  ({:?})",
            m.subseq.stream, m.subseq.start, m.distance, m.ws, m.relation
        );
    }
    emit_metrics(args, &metrics)?;
    Ok(())
}

/// `tsm predict` — replays a fresh simulated session for a stored
/// patient and reports prediction error.
pub fn predict(args: &Args) -> Result<(), String> {
    let store = load(args)?;
    let patient = PatientId(args.num_flag("patient", 0u32)?);
    if store.streams_of(patient).is_empty() {
        return Err(format!(
            "patient {patient} not in store (or has no streams)"
        ));
    }
    let duration = args.secs_flag("duration", 60.0, false)?;
    let dt = args.secs_flag("dt", 0.3, false)?;
    let seed = args.num_flag("seed", 12345u64)?;
    let params = params_with_delta(args)?;

    // A fresh session resembling the stored streams: reuse the
    // default simulator with a new seed (a real deployment would stream
    // from the tracking system instead).
    let mut generator =
        tsm_signal::SignalGenerator::new(tsm_signal::BreathingParams::default(), seed)
            .with_noise(tsm_signal::NoiseParams::typical());
    let samples = generator.generate(duration);
    let seg = SegmenterConfig::default();
    let truth = PlrTrajectory::from_vertices(segment_signal(&samples, seg.clone()))
        .map_err(|e| e.to_string())?;

    let session = store
        .streams_of(patient)
        .iter()
        .filter_map(|&s| store.stream(s))
        .map(|s| s.meta.session)
        .max()
        .unwrap_or(0)
        + 1;
    // One prediction `dt` ahead every 30 samples (once a second at 30 Hz).
    let config = SessionConfig::new(patient, session)
        .with_segmenter(seg)
        .with_horizon(dt)
        .with_cadence(30);
    let mut runtime = SessionRuntime::new(store, params, config).map_err(|e| e.to_string())?;
    for &s in &samples {
        runtime.push(s).map_err(|e| e.to_string())?;
    }
    let mut errors: Vec<f64> = runtime
        .ticks()
        .iter()
        .filter_map(|tick| {
            let outcome = tick.outcome.as_ref()?;
            Some((outcome.position[0] - truth.position_at(tick.target_time?)[0]).abs())
        })
        .collect();
    if errors.is_empty() {
        return Err("no predictions produced (stream too short?)".into());
    }
    errors.sort_by(f64::total_cmp);
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    println!(
        "patient {patient}, horizon {:.0} ms, {} predictions",
        dt * 1000.0,
        errors.len()
    );
    println!(
        "error: mean {:.3} mm, median {:.3} mm, p95 {:.3} mm",
        mean,
        errors[errors.len() / 2],
        errors[errors.len() * 95 / 100]
    );
    Ok(())
}

/// `tsm replay` — drives N concurrent simulated sessions against one
/// shared store through the cohort runtime and reports per-session and
/// aggregate prediction throughput.
/// The fault schedule `--faults` asked for, for session slot `i`:
/// a number seeds a fresh random plan per session (`seed + i`), anything
/// else is a plan file applied identically to every session.
fn fault_plan(spec: &str, i: usize) -> Result<FaultPlan, String> {
    if let Ok(seed) = spec.parse::<u64>() {
        return Ok(FaultPlan::random(seed + i as u64));
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("--faults {spec}: {e}"))?;
    FaultPlan::parse(&text).map_err(|e| format!("--faults {spec}: {e}"))
}

/// `tsm replay` — drives N concurrent simulated sessions against one
/// shared store through the cohort runtime and reports per-session and
/// aggregate prediction throughput. With `--faults SEED|PLANFILE` each
/// session's sample stream runs through the deterministic fault injector
/// first, exercising the degradation path end to end.
pub fn replay(args: &Args) -> Result<(), String> {
    let metrics = metrics_registry(args);
    let store = load_with_metrics(args, &metrics)?;
    let sessions = args.num_flag("sessions", 4usize)?;
    if sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    let threads = args.num_flag("threads", sessions.min(8))?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let duration = args.secs_flag("duration", 60.0, false)?;
    let dt = args.secs_flag("dt", 0.3, false)?;
    let every = args.num_flag("every", 30usize)?;
    let seed = args.num_flag("seed", 12345u64)?;
    let faults = args.flags.get("faults").filter(|v| !v.is_empty());
    let patients = store.patients();
    if patients.is_empty() {
        return Err("store has no patients".into());
    }

    // One fresh simulated session per slot, round-robin over the stored
    // patients (a real deployment would stream from N treatment rooms).
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|i| {
            let patient = patients[i % patients.len()];
            let next_session = store
                .streams_of(patient)
                .iter()
                .filter_map(|&s| store.stream(s))
                .map(|s| s.meta.session)
                .max()
                .unwrap_or(0)
                + 1;
            let mut generator = tsm_signal::SignalGenerator::new(
                tsm_signal::BreathingParams::default(),
                seed + i as u64,
            )
            .with_noise(tsm_signal::NoiseParams::typical());
            let mut samples = generator.generate(duration);
            if let Some(spec) = faults {
                samples = match fault_plan(spec, i) {
                    Ok(plan) => FaultInjector::new(&plan).apply(&samples),
                    Err(e) => return Err(e),
                };
            }
            Ok(SessionSpec {
                patient,
                session: next_session,
                samples,
            })
        })
        .collect::<Result<_, String>>()?;

    let shared = store.into_shared();
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(shared, Params::default()).with_metrics(metrics.clone()),
    ));
    let runtime = CohortRuntime::with_engine(engine)
        .map_err(|e| e.to_string())?
        .with_horizon(dt)
        .with_cadence(every)
        .with_threads(threads);
    eprintln!(
        "replaying {sessions} sessions x {duration:.0}s on {threads} threads (one shared store){} ...",
        if faults.is_some() { " with fault injection" } else { "" }
    );
    let report = runtime.replay(&specs);

    println!(
        "session   patient   predictions   ticks   vertices   health       resyncs   absorbed"
    );
    for r in &report.sessions {
        println!(
            "{:>7}   {:>7}   {:>11}   {:>5}   {:>8}   {:<10}   {:>7}   {:>8}",
            r.session,
            r.patient.to_string(),
            r.predictions(),
            r.ticks.len(),
            r.vertices,
            format!("{:?}", r.health),
            r.resyncs,
            r.recovered_faults
        );
    }
    for r in &report.sessions {
        if let Some(err) = &r.error {
            eprintln!("warning: session {} failed: {err}", r.session);
        }
    }
    println!(
        "\n{} predictions in {:.2} s wall — {:.1} predictions/sec aggregate",
        report.total_predictions(),
        report.wall.as_secs_f64(),
        report.predictions_per_sec()
    );
    if report.total_recovered_faults() > 0 || report.fatal_sessions() > 0 {
        println!(
            "faults: {} absorbed, {} degraded-but-complete sessions, {} fatal",
            report.total_recovered_faults(),
            report.degraded_sessions(),
            report.fatal_sessions()
        );
    }
    emit_metrics(args, &metrics)?;
    Ok(())
}

/// `tsm chaos` — a self-contained robustness soak: builds a synthetic
/// store, replays N sessions each corrupted by a distinct seeded
/// [`FaultPlan`], and verifies end-to-end graceful degradation — no
/// panic, no fatal error from a recoverable fault, every faulted session
/// back to Healthy, and the metrics ledger reconciling.
pub fn chaos(args: &Args) -> Result<(), String> {
    let plans = args.num_flag("plans", 8usize)?;
    if plans == 0 {
        return Err("--plans must be at least 1".into());
    }
    let seed = args.num_flag("seed", 0xC4A05u64)?;
    let duration = args.secs_flag("duration", 60.0, false)?;
    let threads = args.num_flag("threads", plans.min(8))?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    // A small in-memory reference store for the sessions to match
    // against (the soak needs no file on disk).
    let store = StreamStore::new();
    let seg = SegmenterConfig::default();
    for p in 0..4u64 {
        let pid = store.add_patient(PatientAttributes::new());
        let mut generator =
            tsm_signal::SignalGenerator::new(tsm_signal::BreathingParams::default(), seed ^ p)
                .with_noise(tsm_signal::NoiseParams::typical());
        let raw = generator.generate(120.0);
        let vertices = segment_signal(&raw, seg.clone());
        if let Ok(plr) = PlrTrajectory::from_vertices(vertices) {
            store.add_stream(pid, 0, plr, raw.len());
        }
    }
    let patients = store.patients();

    let specs: Vec<SessionSpec> = (0..plans)
        .map(|i| {
            let plan = FaultPlan::random(seed + i as u64);
            eprintln!("plan {i}: {} events", plan.events.len());
            let mut generator = tsm_signal::SignalGenerator::new(
                tsm_signal::BreathingParams::default(),
                seed + 1000 + i as u64,
            )
            .with_noise(tsm_signal::NoiseParams::typical());
            let clean = generator.generate(duration);
            SessionSpec {
                patient: patients[i % patients.len()],
                session: 1,
                samples: FaultInjector::new(&plan).apply(&clean),
            }
        })
        .collect();

    let metrics = MetricsRegistry::enabled();
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store, params).with_metrics(metrics.clone()),
    ));
    let runtime = CohortRuntime::with_engine(engine)
        .map_err(|e| e.to_string())?
        .with_threads(threads);
    eprintln!("soaking {plans} faulted sessions x {duration:.0}s on {threads} threads ...");
    let report = runtime.replay(&specs);

    let mut failures = Vec::new();
    for (i, r) in report.sessions.iter().enumerate() {
        let faulted = r.recovered_faults > 0 || r.resyncs > 0;
        println!(
            "plan {i}: {:?}, {} resyncs, {} absorbed, {} predictions{}",
            r.health,
            r.resyncs,
            r.recovered_faults,
            r.predictions(),
            match &r.error {
                Some(e) => format!(", error: {e}"),
                None => String::new(),
            }
        );
        if let Some(e) = &r.error {
            failures.push(format!("plan {i}: fatal error from injected faults: {e}"));
        } else if !r.complete {
            failures.push(format!("plan {i}: session did not complete"));
        } else if faulted && r.health != SessionHealth::Healthy {
            failures.push(format!(
                "plan {i}: session ended {:?} without recovering",
                r.health
            ));
        }
    }
    let snapshot = metrics.snapshot();
    if let Err(msg) = snapshot.check_invariants() {
        failures.push(format!("metrics do not reconcile: {msg}"));
    }
    println!(
        "\n{} sessions, {} degraded-but-complete, {} faults absorbed, {} predictions",
        report.sessions.len(),
        report.degraded_sessions(),
        report.total_recovered_faults(),
        report.total_predictions()
    );
    if failures.is_empty() {
        println!("chaos soak passed");
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Opens `--wal DIR` as a file backend and recovers from it, replaying
/// the log over the latest snapshot (and over `base`, for anything the
/// snapshot does not cover). Records the recovery counters.
fn recover_wal(
    dir: &str,
    base: Option<StreamStore>,
    metrics: &MetricsRegistry,
) -> Result<tsm_db::WalRecovery, String> {
    let backend: Arc<dyn tsm_db::DurableBackend> =
        Arc::new(tsm_db::FileBackend::open(dir).map_err(|e| format!("{dir}: {e}"))?);
    let rec = tsm_db::recover_with_base(backend, tsm_db::WalConfig::default(), base)
        .map_err(|e| format!("{dir}: {e}"))?;
    metrics.incr(Counter::WalRecoveries);
    metrics.add(Counter::WalReplayedRecords, rec.report.replayed_records);
    if rec.report.truncated_tail {
        metrics.incr(Counter::RecoveryTruncatedTail);
    }
    Ok(rec)
}

/// `tsm recover` — replays a write-ahead log directory over its latest
/// snapshot (and an optional `--store` base image) and reports what came
/// back. `--out` saves the recovered store as a plain store file.
pub fn recover(args: &Args) -> Result<(), String> {
    let dir = args.require("wal")?;
    let metrics = metrics_registry(args);
    let base = if args.flags.contains_key("store") {
        Some(load_with_metrics(args, &metrics)?)
    } else {
        None
    };
    let rec = recover_wal(&dir, base, &metrics)?;
    println!("{dir}: {}", rec.report);
    if let Some(snap) = &rec.report.snapshot_store {
        eprintln!("snapshot image: {snap}");
    }
    // Machine-readable tail for harnesses (the crash soak greps these to
    // check every acknowledged sequence number survived).
    println!(
        "last_seq={} records={} vertices={} truncated_tail={} streams={}",
        rec.report.last_seq,
        rec.report.replayed_records,
        rec.report.replayed_vertices,
        rec.report.truncated_tail,
        rec.store.num_streams(),
    );
    if let Some(out) = args.flags.get("out").filter(|v| !v.is_empty()) {
        save_store_to_path(&rec.store, out).map_err(|e| format!("{out}: {e}"))?;
        eprintln!(
            "wrote {out}: {} patients, {} streams",
            rec.store.num_patients(),
            rec.store.num_streams()
        );
    }
    emit_metrics(args, &metrics)?;
    Ok(())
}

/// `tsm wal-soak` — a crash-soak ingest worker (intentionally absent
/// from `tsm help`): appends segmented synthetic vertices to a WAL in
/// small fsynced batches and prints one flushed `ACK seq=N` line per
/// committed batch. A harness SIGKILLs it mid-run, then runs
/// `tsm recover` and checks that every printed seq survived (RPO = 0).
pub fn wal_soak(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let dir = args.require("wal")?;
    let seed = args.num_flag("seed", 7u64)?;
    let duration = args.secs_flag("duration", 600.0, false)?;
    let batch = args.num_flag("batch", 4usize)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let rec = recover_wal(&dir, None, &MetricsRegistry::disabled())?;
    let writer = rec.writer;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let emit = |out: &mut std::io::StdoutLock<'_>, line: String| -> Result<(), String> {
        // Flush per line: an ACK the harness read must already be
        // durable, so buffering here would fake a lost write.
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    emit(
        &mut out,
        format!(
            "RECOVERED last_seq={} records={} truncated_tail={}",
            rec.report.last_seq, rec.report.replayed_records, rec.report.truncated_tail
        ),
    )?;
    let mut generator =
        tsm_signal::SignalGenerator::new(tsm_signal::BreathingParams::default(), seed)
            .with_noise(tsm_signal::NoiseParams::typical());
    let samples = generator.generate(duration);
    let vertices = segment_signal(&samples, SegmenterConfig::clean());
    let mut seen = 0u64;
    for chunk in vertices.chunks(batch) {
        seen += chunk.len() as u64;
        let receipt = writer
            .append_batch(0, 1, 0, seen, chunk)
            .map_err(|e| e.to_string())?;
        emit(
            &mut out,
            format!("ACK seq={} vertices={}", receipt.seq, chunk.len()),
        )?;
    }
    writer
        .append_end(0, 1, seen, true)
        .map_err(|e| e.to_string())?;
    emit(&mut out, format!("DONE vertices={seen}"))?;
    Ok(())
}

/// `tsm serve` — the HTTP front-end. Serves matching, prediction and
/// live ingest over a real socket until interrupted. `--store` preloads
/// a reference store for sessions to match against; without it the
/// server starts on an empty in-memory store and learns only from what
/// is ingested. `--wal DIR` makes ingest durable: the server recovers
/// the directory on startup (so a restart resumes where the last run
/// crashed), every acknowledged `/ingest` batch is fsynced to the log
/// first, and `--checkpoint-every N` compacts the log into snapshots on
/// the maintenance worker. `--idle-timeout SECS` seals sessions idle
/// that long into the store and drops them from the table.
pub fn serve(args: &Args) -> Result<(), String> {
    let defaults = tsm_serve::ServeConfig::default();
    let config = tsm_serve::ServeConfig {
        addr: args.str_flag("addr", &defaults.addr),
        sessions_max: args.num_flag("sessions-max", defaults.sessions_max)?,
        workers: args.num_flag("workers", defaults.workers)?,
        ingest_queue: args.num_flag("ingest-queue", defaults.ingest_queue)?,
        horizon: args.secs_flag("dt", defaults.horizon, false)?,
        // Rounded up, so a positive timeout never becomes 0 ms (off).
        idle_timeout_ms: (args.secs_flag("idle-timeout", 0.0, true)? * 1000.0).ceil() as u64,
        checkpoint_every: args.num_flag("checkpoint-every", 0u64)?,
        ..defaults
    };
    if config.sessions_max == 0 {
        return Err("--sessions-max must be at least 1".into());
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if config.ingest_queue == 0 {
        return Err("--ingest-queue must be at least 1".into());
    }
    if config.checkpoint_every > 0 && !args.flags.contains_key("wal") {
        return Err("--checkpoint-every needs --wal DIR".into());
    }

    // The serve metrics funnel is always on: /metrics is an endpoint.
    let metrics = MetricsRegistry::enabled();
    let base = if args.flags.contains_key("store") {
        load_with_metrics(args, &metrics)?
    } else {
        StreamStore::new()
    };
    // With a WAL, the serving store is the recovered one: the base image
    // plus everything a previous run acknowledged but never sealed.
    let (store, wal) = if let Some(dir) = args.flags.get("wal").filter(|v| !v.is_empty()) {
        let rec = recover_wal(dir, Some(base), &metrics)?;
        eprintln!("{dir}: {}", rec.report);
        (rec.store, Some(Arc::new(rec.writer)))
    } else {
        (base, None)
    };
    let params = Params {
        min_matches: 1,
        ..Params::default()
    };
    let engine = Arc::new(CachedMatcher::new(
        Matcher::new(store, params).with_metrics(metrics),
    ));
    let mut manager = tsm_serve::SessionManager::new(
        engine,
        config.sessions_max,
        config.ingest_queue,
        config.horizon,
    );
    if let Some(wal) = wal {
        manager = manager.with_wal(wal);
    }
    let server =
        tsm_serve::Server::start(Arc::new(manager), config).map_err(|e| format!("bind: {e}"))?;
    eprintln!("tsm serve listening on {}", server.local_addr());
    server.wait();
    Ok(())
}

/// `tsm cluster`.
pub fn cluster(args: &Args) -> Result<(), String> {
    let store = load(args)?;
    let k = args.num_flag("k", 4usize)?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let len_segments = args.num_flag("len", 9usize)?;
    if len_segments == 0 {
        return Err("--len must be at least 1".into());
    }
    let params = Params::default();
    let cfg = StreamDistanceConfig {
        len_segments,
        stride: args.num_flag("stride", 3usize)?,
    };
    eprintln!("computing patient distances ...");
    let dm = patient_distance_matrix(&store, &params, &cfg);
    let labels = k_medoids(&dm, k, 100);
    println!("k = {k}, silhouette = {:.3}", silhouette(&dm, &labels));
    for (i, p) in store.patients().iter().enumerate() {
        let site = store
            .patient_attributes(*p)
            .and_then(|a| a.get("tumor_site").cloned())
            .unwrap_or_default();
        println!("  {p}: cluster {} {site}", labels[i]);
    }
    let attrs: Vec<_> = store
        .patients()
        .iter()
        .map(|&p| store.patient_attributes(p).unwrap_or_default())
        .collect();
    println!("\nattribute associations (Cramer's V):");
    for a in discover_correlations(&attrs, &labels) {
        println!("  {:<16} {:.3}", a.attribute, a.cramers_v);
    }
    Ok(())
}
