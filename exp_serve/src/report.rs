//! Turning what a run measured into named metrics, printing them, and
//! writing the result document.

use crate::json;
use crate::load::{E2e, Kind};
use crate::replay::Replayed;
use crate::stats;
use crate::trace::{self, Span};
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0: the layer did no work here).
    pub n: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        n,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `values` scaled by `scale`, at percentile `pct`, reported as 0 with
/// `n = 0` when the layer did no work. A tail percentile that some
/// samples exist for but too few to support is an error: the workloads
/// are sized so it never happens.
fn pct_metric(
    name: &'static str,
    unit: &'static str,
    values: &[f64],
    pct: u32,
    scale: f64,
) -> Result<Metric, String> {
    if values.is_empty() {
        return Ok(metric(name, unit, 0.0, 0));
    }
    let v = stats::percentile(values, pct).ok_or_else(|| {
        format!(
            "{name}: {} samples cannot carry a p{pct} (needs {})",
            values.len(),
            stats::min_samples(pct)
        )
    })?;
    Ok(metric(name, unit, v * scale, values.len()))
}

fn latencies(e: &E2e, kind: Kind) -> Vec<f64> {
    e.obs
        .iter()
        .filter(|o| o.kind == kind && o.ok())
        .map(|o| o.total_ns as f64)
        .collect()
}

/// The end-to-end metrics: what a client of `tsm serve` sees, with
/// tracing off, over the timed phase. The p99s are per-layer metrics: a
/// slow spell of the shared host multiplies them, so they did not repeat
/// across runs within any bound the benchmark can set.
pub fn end_to_end(e: &E2e, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let ok = e.obs.iter().filter(|o| o.ok()).count();
    let ingest = latencies(e, Kind::Ingest);
    let ms = 1e-6;
    let mut out = vec![
        metric("throughput_rps", "req/s", ratio(ok as f64, e.timed_s), ok),
        metric(
            "ingest_samples_per_s",
            "samples/s",
            ratio(e.acked_samples as f64, e.timed_s),
            ingest.len(),
        ),
        pct_metric("ingest_p50_ms", "ms", &ingest, 50, ms)?,
        pct_metric("step_p50_ms", "ms", &e.steps_ns, 50, ms)?,
    ];
    if out.iter().any(|m| m.n == 0) {
        return Err("the timed phase completed no ingest or no step".into());
    }
    out.extend([
        metric(
            "success_frac",
            "fraction",
            ratio(ok as f64, e.obs.len() as f64),
            e.obs.len(),
        ),
        metric(
            "setup_s",
            "s",
            stats::median(setup_s).ok_or("no cold start measured")?,
            setup_s.len(),
        ),
    ]);
    Ok(out)
}

/// The per-layer metrics: counters and `/proc` from the untraced run, and
/// span statistics from the traced replay (`on`; `off` is the same replay
/// without spans).
pub fn per_layer(
    e: &E2e,
    on: &Replayed,
    off: &Replayed,
    host_cpus: usize,
    calib_ms: f64,
) -> Result<Vec<Metric>, String> {
    let c = |k: &str| e.counters.get(k).copied().unwrap_or(0) as f64;
    let spans = &on.spans;
    let d = |name: &str| trace::durations(spans, name);
    let (us, ms) = (1e-3, 1e-6);
    let ok: Vec<_> = e.obs.iter().filter(|o| o.ok()).collect();
    let connect: Vec<f64> = ok.iter().map(|o| o.connect_ns as f64).collect();
    let shed = e
        .obs
        .iter()
        .filter(|o| matches!(o.status, 429 | 503))
        .count();
    let predict = latencies(e, Kind::Predict);
    let residual = |kind: Kind, root: &str| -> f64 {
        match (
            stats::percentile(&latencies(e, kind), 50),
            stats::percentile(&d(root), 50),
        ) {
            (Some(client), Some(traced)) => (client - traced) * ms,
            _ => 0.0,
        }
    };
    let pushes = d("model.push");
    let mut out = vec![
        pct_metric("serve.connect_us_p50", "us", &connect, 50, us)?,
        metric(
            "serve.shed_frac",
            "fraction",
            ratio(shed as f64, e.obs.len() as f64),
            e.obs.len(),
        ),
        metric(
            "serve.residual_ms_p50.ingest",
            "ms",
            residual(Kind::Ingest, "serve.ingest"),
            d("serve.ingest").len(),
        ),
        metric(
            "serve.residual_ms_p50.predict",
            "ms",
            residual(Kind::Predict, "serve.predict"),
            d("serve.predict").len(),
        ),
        pct_metric(
            "serve.ingest_ms_p99",
            "ms",
            &latencies(e, Kind::Ingest),
            99,
            ms,
        )?,
        pct_metric("serve.step_ms_p99", "ms", &e.steps_ns, 99, ms)?,
        pct_metric("serve.predict_ms_p50", "ms", &predict, 50, ms)?,
        pct_metric("serve.predict_ms_p99", "ms", &predict, 99, ms)?,
        pct_metric(
            "serve.query_ms_p50",
            "ms",
            &latencies(e, Kind::Query),
            50,
            ms,
        )?,
        // Per-layer, not end-to-end: the closed loop keeps the server
        // equally busy, so this is ~1/throughput plus the host's noise.
        metric(
            "serve.cpu_ms_per_req",
            "ms",
            ratio(e.server_cpu_s * 1e3, ok.len() as f64),
            ok.len(),
        ),
        // Peak memory is per-layer, not end-to-end: on the predicting
        // workloads it steps by one index per distinct query length the
        // seed's signals produce, so it does not repeat across seeds.
        metric("serve.peak_rss_mb", "MiB", e.peak_rss_kb as f64 / 1024.0, 1),
        metric("core.session.threads", "count", e.threads as f64, 1),
        metric(
            "core.session.rss_kb_per_session",
            "KiB",
            e.rss_kb_per_session,
            1,
        ),
        metric(
            "core.session.backlog_hwm",
            "count",
            c("cohort.backlog_hwm"),
            1,
        ),
        pct_metric(
            "model.csv_parse_us_p50",
            "us",
            &d("model.csv_parse"),
            50,
            us,
        )?,
        metric(
            "model.push_ns_per_sample",
            "ns",
            ratio(pushes.iter().sum(), on.pushed_samples as f64),
            pushes.len(),
        ),
        metric(
            "model.vertices_per_ksample",
            "count",
            ratio(c("segment.vertices_emitted") * 1e3, c("segment.samples")),
            c("segment.samples") as usize,
        ),
        pct_metric(
            "core.query.generate_us_p50",
            "us",
            &d("core.query.generate"),
            50,
            us,
        )?,
        metric(
            "core.query.len_mean",
            "segments",
            stats::mean(&on.query_lens).unwrap_or(0.0),
            on.query_lens.len(),
        ),
        pct_metric(
            "core.matcher.search_us_p50",
            "us",
            &d("core.matcher.search"),
            50,
            us,
        )?,
        pct_metric(
            "core.matcher.search_us_p99",
            "us",
            &d("core.matcher.search"),
            99,
            us,
        )?,
        metric(
            "match.windows_scored_per_search",
            "count",
            ratio(c("match.windows_scored"), c("match.searches")),
            c("match.searches") as usize,
        ),
        metric(
            "match.completed_frac",
            "fraction",
            ratio(c("match.windows_completed"), c("match.windows_scored")),
            c("match.windows_scored") as usize,
        ),
        metric(
            "index.dur_band_frac",
            "fraction",
            ratio(c("index.dur_band_candidates"), c("index.bucket_candidates")),
            c("index.bucket_candidates") as usize,
        ),
        pct_metric(
            "core.index_cache.build_ms_p50",
            "ms",
            &on.index_builds_ns,
            50,
            ms,
        )?,
        metric(
            "core.index_cache.builds",
            "count",
            on.index_builds_ns.len() as f64,
            1,
        ),
        metric(
            "cache.hit_frac",
            "fraction",
            ratio(c("cache.hits"), c("cache.lookups")),
            c("cache.lookups") as usize,
        ),
        pct_metric(
            "core.predict.position_us_p50",
            "us",
            &d("core.predict.position"),
            50,
            us,
        )?,
        pct_metric("db.wal.commit_us_p50", "us", &d("db.wal.commit"), 50, us)?,
        pct_metric("db.wal.commit_us_p99", "us", &d("db.wal.commit"), 99, us)?,
        metric(
            "wal.fsyncs_per_append",
            "count",
            ratio(c("wal.fsyncs"), c("wal.appends")),
            c("wal.appends") as usize,
        ),
        metric(
            "db.wal.bytes_per_user_byte",
            "ratio",
            ratio(e.wal_bytes as f64, e.acked_csv_bytes as f64),
            1,
        ),
        metric(
            "snapshot.checkpoints",
            "count",
            c("snapshot.checkpoints"),
            1,
        ),
        pct_metric(
            "db.wal.checkpoint_ms_p50",
            "ms",
            &d("db.wal.checkpoint"),
            50,
            ms,
        )?,
        pct_metric("db.store.seal_ms_p50", "ms", &d("db.store.seal"), 50, ms)?,
    ];
    for (root, layers) in SHARES {
        for (&(name, _), share) in layers.iter().zip(shares_of(spans, root, layers)) {
            out.push(metric(name, "fraction", share, d(root).len()));
        }
    }
    out.extend([
        metric("host.calib_ms", "ms", calib_ms, 1),
        metric(
            "loadgen.cpu_frac",
            "fraction",
            ratio(e.loadgen_cpu_s, e.timed_s * host_cpus as f64),
            1,
        ),
        metric(
            "trace.overhead_frac",
            "fraction",
            ratio(on.busy_ns as f64 - off.busy_ns as f64, off.busy_ns as f64),
            1,
        ),
    ]);
    Ok(out)
}

/// Per request kind: its root span, and for each layer that splits it
/// the share metric and the layer's span.
type Layers = &'static [(&'static str, &'static str)];

const SHARES: [(&str, Layers); 2] = [
    (
        "serve.ingest",
        &[
            ("ingest.self_share.csv_parse", "model.csv_parse"),
            ("ingest.self_share.push", "model.push"),
            ("ingest.self_share.wal_commit", "db.wal.commit"),
        ],
    ),
    (
        "serve.predict",
        &[
            ("predict.self_share.generate", "core.query.generate"),
            ("predict.self_share.index_cache", "core.index_cache"),
            ("predict.self_share.search", "core.matcher.search"),
            ("predict.self_share.position", "core.predict.position"),
        ],
    ),
];

fn shares_of(spans: &[Span], root: &str, layers: Layers) -> Vec<f64> {
    let names: Vec<&str> = layers.iter().map(|&(_, span)| span).collect();
    trace::self_shares(spans, root, &names)
}

/// The checks on the traced pass itself: the decomposition reproduced
/// `SessionRuntime::predict`, and each request kind's layer self times
/// cover at least 90% of its root spans.
pub fn trace_integrity(on: &Replayed, off: &Replayed) -> Vec<String> {
    let mut failures: Vec<String> = on
        .mismatches
        .iter()
        .chain(&off.mismatches)
        .take(5)
        .cloned()
        .collect();
    for (root, layers) in SHARES {
        if trace::durations(&on.spans, root).is_empty() {
            continue;
        }
        let covered: f64 = shares_of(&on.spans, root, layers).iter().sum();
        if covered < 0.9 {
            failures.push(format!(
                "layer self times cover only {:.1}% of `{root}` spans",
                covered * 100.0
            ));
        }
    }
    failures
}

/// Prints the metrics as a table.
pub fn print_table(metrics: &[Metric]) {
    println!(
        "{:<36} {:>16}  {:<10} {:>8}",
        "metric", "value", "unit", "n"
    );
    for m in metrics {
        let note = if m.n == 0 {
            "  (no work on this workload)"
        } else {
            ""
        };
        println!(
            "{:<36} {:>16.6}  {:<10} {:>8}{note}",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// The `"metrics"` object, optionally with each value's sample count.
pub fn metrics_json(metrics: &[Metric], with_n: bool) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let n = if with_n {
            format!(", \"n\": {}", m.n)
        } else {
            String::new()
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"{n}}}",
            if i > 0 { ", " } else { "" },
            m.name,
            json::number(m.value).map_err(|e| format!("{}: {e}", m.name))?,
            m.unit
        );
    }
    out.push('}');
    Ok(out)
}
