//! `exp_serve` — the repository benchmark. It drives a real `tsm serve`
//! process over loopback HTTP with two closed-loop treatment-room
//! clients, replays the same requests in-process with a span around each
//! layer, checks every answer, and prints one JSON result line last.
//!
//! ```text
//! exp_serve --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--spans FILE]
//! exp_serve compare A.json... -- B.json...
//! exp_serve baseline RUN.json...
//! ```
//!
//! Run it from the repository root: it builds `tsm` there with cargo
//! and keeps its scratch files under `.exp_serve_work/`. With `--trace 0`
//! the result line carries the end-to-end metrics, with `--trace 1` the
//! per-layer ones. README.md describes the workloads and metrics.

mod compare;
mod http;
mod json;
mod load;
mod replay;
mod report;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use workload::Workload;

const USAGE: &str = "usage: exp_serve --workload NAME --seed N --seconds S --trace 0|1 \
                     [--out DIR] [--spans FILE]
       exp_serve compare A.json... -- B.json...
       exp_serve baseline RUN.json...
workloads: predict_hot, fanout, ingest_durable, churn";

/// Requests the traced pass replays from the start of the script.
const TRACE_REQUESTS: usize = 3000;
/// Cold starts behind `setup_s` (their median), taken in three batches
/// of this many spread over the run, so a passing slow spell of the host
/// does not decide the run's value.
const COLD_STARTS: usize = 7;
/// Relative move of the host calibration that flags a run.
const CALIB_DRIFT_LIMIT: f64 = 0.10;
/// Scratch and result files, relative to the repository root.
const WORK_ROOT: &str = ".exp_serve_work";

struct Opts {
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(key, value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let take = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let number = |k: &str| -> Result<u64, String> {
        take(k)?
            .parse()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    let name = take("workload")?;
    let opts = Opts {
        w: workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match take("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
        },
        out: flags
            .get("out")
            .map_or_else(|| Path::new(WORK_ROOT).join("results"), PathBuf::from),
        spans: flags.get("spans").map(PathBuf::from),
    };
    if let Some(k) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "out", "spans"].contains(k))
    {
        return Err(format!("unknown flag --{k}"));
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]).map(|()| true),
        Some("baseline") => compare::baseline(&args[1..]).map(|()| true),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_opts(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|opts| run(&opts)),
    };
    std::process::exit(match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("exp_serve: {e}");
            2
        }
    });
}

/// A scratch directory removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is only disk space.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The commit the working tree is at, `-dirty` when it has changes, or
/// `unknown` outside a git checkout. Only a `.git` in the working
/// directory counts, so git never searches the directories above it.
fn commit_stamp() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "--short=12", "HEAD"]),
        git(&["status", "--porcelain"]),
    ) {
        (Some(head), Some(status)) if status.is_empty() => head,
        (Some(head), Some(_)) => format!("{head}-dirty"),
        _ => "unknown".into(),
    }
}

/// `setup_s` samples: spawn to first `/healthz` 200 (store load plus WAL
/// recovery), each a cold start on the workload's flags and a fresh WAL.
fn cold_starts(w: &Workload, tsm: &Path, store: &Path, work: &Path) -> Result<Vec<f64>, String> {
    let wal = w.durable.then(|| work.join("cold-wal"));
    let args = w.serve_args(store, wal.as_deref());
    (0..COLD_STARTS)
        .map(|_| {
            let server = server::Server::start(tsm, &args, &work.join("cold.log"))?;
            let ready = server.ready.as_secs_f64();
            server.kill();
            if let Some(dir) = &wal {
                std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            Ok(ready)
        })
        .collect()
}

/// Checks on the server's own counters at quiescence.
fn counter_checks(w: &Workload, counters: &std::collections::BTreeMap<String, u64>) -> Vec<String> {
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    let mut failures = Vec::new();
    for k in ["segment.resyncs", "session.health_degraded"] {
        if get(k) != 0 {
            failures.push(format!("{k} = {} on clean input", get(k)));
        }
    }
    if !w.durable && get("wal.appends") != 0 {
        failures.push(format!("wal.appends = {} with no WAL", get("wal.appends")));
    }
    if !w.predict && w.query_every == 0 && get("match.searches") != 0 {
        failures.push(format!(
            "match.searches = {} on a workload with no reads",
            get("match.searches")
        ));
    }
    failures
}

fn run(opts: &Opts) -> Result<bool, String> {
    let w = opts.w;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clock = Instant::now();
    let progress =
        |what: &str| eprintln!("exp_serve: {what} ({:.1} s)", clock.elapsed().as_secs_f64());
    let tsm = server::build_tsm()?;
    progress("built tsm");
    let work = WorkDir::create()?;
    let calib = replay::Calibration::new()?;
    let calib_before = calib.measure();
    let inputs = workload::build_inputs(w, opts.seed, &work.0)?;
    progress("generated inputs");
    let mut setup = cold_starts(w, &tsm, &inputs.store, &work.0)?;
    let ctx = load::Ctx {
        w,
        tsm: &tsm,
        inputs: &inputs,
        work: &work.0,
        seconds: opts.seconds as f64,
    };
    let mut e2e = load::run(&ctx)?;
    progress("end-to-end phase");
    setup.extend(cold_starts(w, &tsm, &inputs.store, &work.0)?);
    let mut failures = std::mem::take(&mut e2e.failures);
    failures.extend(counter_checks(w, &e2e.counters));
    if !e2e.predicts.is_empty() {
        let stack = replay::Stack::open(&inputs.store, None)?;
        failures.extend(replay::verify(
            &stack,
            w,
            &inputs,
            &e2e.predicts,
            &e2e.queries,
        ));
        progress("verified every answer");
    }
    setup.extend(cold_starts(w, &tsm, &inputs.store, &work.0)?);

    let mut metrics = report::end_to_end(&e2e, &setup)?;
    let e2e_count = metrics.len();
    let mut spans_file = None;
    if opts.trace {
        let script = w.script(TRACE_REQUESTS, inputs.sources.len());
        let wal = |name: &str| w.durable.then(|| work.0.join(name));
        let off = replay::replay(
            &inputs.store,
            wal("trace-wal-off").as_deref(),
            w,
            &inputs,
            &script,
            false,
        )?;
        let on = replay::replay(
            &inputs.store,
            wal("trace-wal-on").as_deref(),
            w,
            &inputs,
            &script,
            true,
        )?;
        failures.extend(report::trace_integrity(&on, &off));
        progress("traced pass");
        metrics.extend(report::per_layer(&e2e, &on, &off, host_cpus, calib_before)?);
        let path = opts.spans.clone().unwrap_or_else(|| {
            opts.out
                .join(format!("spans-{}-seed{}.jsonl", w.name, opts.seed))
        });
        trace::write_jsonl(&on.spans, &path)?;
        spans_file = Some(path);
    }
    let calib_after = calib.measure();
    progress("calibrated");
    let drift = (calib_after - calib_before) / calib_before.max(f64::MIN_POSITIVE);
    let flagged = drift.abs() > CALIB_DRIFT_LIMIT;

    let attempted = e2e.obs.len();
    let failed = e2e.obs.iter().filter(|o| !o.ok()).count();
    let correct = failures.is_empty();
    let commit = commit_stamp();
    progress("stamped");

    println!(
        "exp_serve {} seed {}: {:.2} s timed, {attempted} requests ({failed} failed), \
         commit {commit}, {host_cpus} host cpus\n  ({})",
        w.name, opts.seed, e2e.timed_s, w.why
    );
    report::print_table(&metrics);
    println!(
        "host.calib_ms {calib_before:.3} before, {calib_after:.3} after ({:+.1}%){}",
        drift * 100.0,
        if flagged {
            " — FLAGGED: the host drifted during this run"
        } else {
            ""
        }
    );
    if let Some(path) = &spans_file {
        println!("spans: {}", path.display());
    }
    if correct {
        println!("checks: all passed");
    } else {
        for f in &failures {
            println!("check FAILED: {f}");
        }
    }

    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let result_path = opts.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    let failure_list: Vec<String> = failures.iter().map(|f| tsm_core::json::string(f)).collect();
    let doc = format!(
        "{{\"benchmark\": \"exp_serve\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"commit\": {}, \"host_cpus\": {host_cpus}, \"timed_s\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"failures\": [{}], \"calib_ms_before\": {}, \"calib_ms_after\": {}, \
         \"calib_flagged\": {flagged}, \"metrics\": {}}}\n",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        tsm_core::json::string(&commit),
        json::number(e2e.timed_s)?,
        failure_list.join(", "),
        json::number(calib_before)?,
        json::number(calib_after)?,
        report::metrics_json(&metrics, true)?,
    );
    std::fs::write(&result_path, doc).map_err(|e| format!("{}: {e}", result_path.display()))?;
    println!("result: {}", result_path.display());

    let reported = if opts.trace {
        &metrics[e2e_count..]
    } else {
        &metrics[..e2e_count]
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        report::metrics_json(reported, false)?
    );
    Ok(correct)
}
