//! The four workloads, the inputs generated for them from the seed, and
//! the per-session request scripts both the load generator and the
//! in-process replay follow.

use std::ffi::OsString;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tsm_bench::{build_bundle, BundleConfig};
use tsm_db::save_store_to_path;
use tsm_model::{Sample, SegmenterConfig};
use tsm_signal::CohortConfig;

/// Client threads, each with at most one open connection.
pub const CLIENTS: usize = 2;
/// Signal a static session receives before any load: 60 s at 30 Hz.
pub const PRIME_SAMPLES: usize = 1800;
/// Untimed closed-loop load after priming, so caches are warm.
pub const WARMUP_S: f64 = 2.0;
/// `--checkpoint-every` for the durable workloads.
pub const CHECKPOINT_EVERY: u64 = 1000;
/// `k` of every `/query`.
pub const QUERY_K: usize = 10;

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Patients in the generated cohort store (9 stored streams each).
    pub patients: usize,
    /// Live sessions (static workloads) or fresh sessions per epoch (churn).
    pub sessions: usize,
    pub samples_per_ingest: usize,
    /// Whether every step ends with `GET /predict`.
    pub predict: bool,
    /// `GET /query` on every this-many-th step; 0 for never.
    pub query_every: usize,
    /// `--wal DIR --checkpoint-every 1000`.
    pub durable: bool,
    /// `--idle-timeout`, seconds; 0 for none.
    pub idle_timeout_s: f64,
    /// Steps of each fresh churn session; 0 for static sessions.
    pub churn_steps: usize,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "predict_hot",
        why: "the paper's online loop: 8 sessions each ingest 3 samples then ask /predict; search \
              dominates and the WAL is off, so matcher and index changes show and durability \
              changes must not",
        patients: 60,
        sessions: 8,
        samples_per_ingest: 3,
        predict: true,
        query_every: 0,
        durable: false,
        idle_timeout_s: 0.0,
        churn_steps: 0,
    },
    Workload {
        name: "fanout",
        why: "predict_hot's step spread over 48 live sessions: same work per request, six times \
              the session threads and live buffers, so session hosting and memory show",
        patients: 60,
        sessions: 48,
        samples_per_ingest: 3,
        predict: true,
        query_every: 0,
        durable: false,
        idle_timeout_s: 0.0,
        churn_steps: 0,
    },
    Workload {
        name: "ingest_durable",
        why: "8 sessions each POST 30 samples with no reads: every ack waits for a WAL fsync, \
              parsing, segmentation and checkpoints dominate and the matcher does nothing",
        patients: 60,
        sessions: 8,
        samples_per_ingest: 30,
        predict: false,
        query_every: 0,
        durable: true,
        idle_timeout_s: 0.0,
        churn_steps: 0,
    },
    Workload {
        name: "churn",
        why: "a fixed script of short fresh sessions (60 steps of 30 samples + /predict, /query \
              every 5th) sealed into the store once idle: writes beside reads, index rebuilds",
        patients: 20,
        sessions: 48,
        samples_per_ingest: 30,
        predict: true,
        query_every: 5,
        durable: true,
        idle_timeout_s: 0.25,
        churn_steps: 60,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One request of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `POST /ingest/{session}` with samples `from..from + n` of its source.
    Ingest {
        session: usize,
        from: usize,
        n: usize,
    },
    Predict {
        session: usize,
    },
    Query {
        session: usize,
    },
    /// The server seals an idle churn session on its own; the in-process
    /// replay does it where the session's script ends.
    Seal {
        session: usize,
    },
}

impl Workload {
    pub fn is_churn(&self) -> bool {
        self.churn_steps > 0
    }

    /// The `tsm serve` arguments (default workers and queues).
    pub fn serve_args(&self, store: &Path, wal: Option<&Path>) -> Vec<OsString> {
        let mut args: Vec<OsString> = vec![
            "serve".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--store".into(),
            store.into(),
        ];
        if let Some(wal) = wal {
            args.extend([
                "--wal".into(),
                wal.into(),
                "--checkpoint-every".into(),
                CHECKPOINT_EVERY.to_string().into(),
            ]);
        }
        if self.idle_timeout_s > 0.0 {
            args.extend([
                "--idle-timeout".into(),
                self.idle_timeout_s.to_string().into(),
            ]);
        }
        args
    }

    pub fn session_name(&self, session: usize) -> String {
        format!("s{session}")
    }

    /// Which held-out stream feeds `session`.
    pub fn source_of(&self, session: usize, sources: usize) -> usize {
        session % sources
    }

    /// Where `session`'s `k`-th step starts in its (looped) source. Static
    /// sessions were primed with the first [`PRIME_SAMPLES`]; churn
    /// sessions that share a source continue where the previous one
    /// stopped, so no two sessions of a script see the same signal.
    fn step_from(&self, session: usize, k: usize, sources: usize) -> usize {
        let n = self.samples_per_ingest;
        if self.is_churn() {
            (session / sources) * self.churn_steps * n + k * n
        } else {
            PRIME_SAMPLES + k * n
        }
    }

    /// The requests of `session`'s `k`-th closed-loop step.
    pub fn step(&self, session: usize, k: usize, sources: usize) -> Vec<Req> {
        let mut reqs = vec![Req::Ingest {
            session,
            from: self.step_from(session, k, sources),
            n: self.samples_per_ingest,
        }];
        if self.predict {
            reqs.push(Req::Predict { session });
        }
        if self.query_every > 0 && (k + 1).is_multiple_of(self.query_every) {
            reqs.push(Req::Query { session });
        }
        reqs
    }

    /// Samples a static session has had acknowledged after `steps` steps.
    pub fn samples_after(&self, steps: usize) -> usize {
        PRIME_SAMPLES + steps * self.samples_per_ingest
    }

    /// The first `limit` requests in one fixed order: static sessions are
    /// primed, then step round-robin; churn sessions run their scripts one
    /// after another, each sealed at its end.
    pub fn script(&self, limit: usize, sources: usize) -> Vec<Req> {
        let mut reqs = Vec::new();
        if self.is_churn() {
            let mut session = 0;
            while reqs.len() < limit {
                for k in 0..self.churn_steps {
                    reqs.extend(self.step(session, k, sources));
                }
                reqs.push(Req::Seal { session });
                session += 1;
            }
        } else {
            reqs.extend((0..self.sessions).map(|session| Req::Ingest {
                session,
                from: 0,
                n: PRIME_SAMPLES,
            }));
            let mut k = 0;
            while reqs.len() < limit {
                for session in 0..self.sessions {
                    reqs.extend(self.step(session, k, sources));
                }
                k += 1;
            }
        }
        reqs.truncate(limit);
        reqs
    }
}

/// A held-out stream played in a loop: lap `l` shifts every timestamp by
/// `l` periods, so time keeps increasing at the 30 Hz cadence.
#[derive(Debug)]
pub struct Source {
    base: Vec<Sample>,
    period: f64,
}

impl Source {
    fn new(base: Vec<Sample>) -> Result<Source, String> {
        let (Some(first), Some(second), Some(last)) = (base.first(), base.get(1), base.last())
        else {
            return Err("held-out stream has fewer than two samples".into());
        };
        let period = last.time - first.time + (second.time - first.time);
        Ok(Source { base, period })
    }

    pub fn sample(&self, k: usize) -> Sample {
        let s = self.base[k % self.base.len()];
        Sample {
            time: s.time + (k / self.base.len()) as f64 * self.period,
            ..s
        }
    }

    pub fn samples(&self, from: usize, n: usize) -> Vec<Sample> {
        (from..from + n).map(|k| self.sample(k)).collect()
    }

    /// Samples `from..from + n` as `time,x[,y[,z]]` lines. Rust prints
    /// the shortest text that parses back to the same `f64`, so the
    /// server ingests exactly [`Source::samples`].
    pub fn csv(&self, from: usize, n: usize) -> String {
        let mut out = String::with_capacity(n * 40);
        for s in self.samples(from, n) {
            // Writing into a String cannot fail.
            let _ = write!(out, "{}", s.time);
            for c in s.position.coords() {
                let _ = write!(out, ",{c}");
            }
            out.push('\n');
        }
        out
    }
}

/// Everything a run generates from its seed.
#[derive(Debug)]
pub struct Inputs {
    /// The cohort store file `tsm serve --store` loads.
    pub store: PathBuf,
    /// One looped held-out stream per patient.
    pub sources: Vec<Source>,
}

/// Generates the cohort (5 sessions x 2 streams of 120 s per patient),
/// saves every stream except each patient's held-out one, and keeps the
/// held-out streams as session sources.
pub fn build_inputs(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let bundle = build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: w.patients,
            sessions_per_patient: 5,
            streams_per_session: 2,
            stream_duration_s: 120.0,
            dim: 1,
            seed,
        },
        segmenter: SegmenterConfig::default(),
    });
    let store = dir.join("cohort.tsmdb");
    save_store_to_path(&bundle.store, &store).map_err(|e| format!("{}: {e}", store.display()))?;
    let sources = bundle
        .eval
        .into_iter()
        .map(|e| Source::new(e.samples))
        .collect::<Result<Vec<_>, _>>()?;
    if sources.is_empty() {
        return Err("the cohort has no held-out streams".into());
    }
    Ok(Inputs { store, sources })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(by_name(w.name).unwrap(), w));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn looped_source_keeps_time_increasing_and_round_trips_csv() {
        let base: Vec<Sample> = (0..4)
            .map(|i| Sample::new_1d(f64::from(i) / 30.0, f64::from(i).sin()))
            .collect();
        let src = Source::new(base).unwrap();
        let samples = src.samples(0, 11);
        assert!(samples.windows(2).all(|p| p[1].time > p[0].time));
        let text = src.csv(0, 11);
        let parsed = tsm_model::csv::read_samples_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed, samples, "CSV must carry the exact f64s");
    }

    #[test]
    fn scripts_are_deterministic_and_cover_each_session_in_order() {
        let hot = by_name("predict_hot").unwrap();
        let script = hot.script(40, 5);
        assert_eq!(script.len(), 40);
        assert_eq!(
            script[0],
            Req::Ingest {
                session: 0,
                from: 0,
                n: PRIME_SAMPLES
            }
        );
        assert_eq!(
            script[8],
            Req::Ingest {
                session: 0,
                from: PRIME_SAMPLES,
                n: 3
            }
        );
        assert_eq!(script[9], Req::Predict { session: 0 });
        let churn = by_name("churn").unwrap();
        let script = churn.script(200, 20);
        let seals = script
            .iter()
            .filter(|r| matches!(r, Req::Seal { .. }))
            .count();
        assert_eq!(seals, 1, "one 60-step session is 133 requests");
        let queries = script[..133]
            .iter()
            .filter(|r| matches!(r, Req::Query { .. }))
            .count();
        assert_eq!(queries, 12);
        // The 21st session reuses source 0 past the first session's signal.
        assert_eq!(
            churn.step(20, 0, 20)[0],
            Req::Ingest {
                session: 20,
                from: 1800,
                n: 30
            }
        );
    }
}
