//! `exp_serve compare A.json... -- B.json...`: per workload and metric,
//! each side's median and quartiles and a verdict against the bounds in
//! `BENCHMARK.json`; and `exp_serve baseline RUN.json...`: the medians of
//! a set of runs as one stamped JSON document.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How side B compares with side A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// Compares B's runs with A's. `bound` is the share of A's median by
/// which the metric may move before it counts. Where either side's
/// spread (quartile distance over median) exceeds the bound the result
/// is unresolved, unless every run of one side beats every run of the
/// other.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (stats::quartiles(a), stats::quartiles(b))
    else {
        return Verdict::Unresolved;
    };
    let rel = |x: f64, med: f64| x / med.abs().max(f64::MIN_POSITIVE);
    let spread = rel(a3 - a1, am).max(rel(b3 - b1, bm));
    let worse_by = rel(if lower_is_better { bm - am } else { am - bm }, am);
    let (a_lo, a_hi) = extremes(a);
    let (b_lo, b_hi) = extremes(b);
    let (b_all_better, b_all_worse) = if lower_is_better {
        (b_hi < a_lo, b_lo > a_hi)
    } else {
        (b_lo > a_hi, b_hi < a_lo)
    };
    if spread > bound {
        if b_all_better {
            Verdict::Better
        } else if b_all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn extremes(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// One metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn declared_metrics() -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("BENCHMARK.json: metric without a name")?;
            out.push(Declared {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(out)
}

/// One result file written by a run.
struct Run {
    workload: String,
    commit: String,
    host_cpus: u64,
    seed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn load_run(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("{path}: no `{k}`"));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?.as_object().unwrap_or(&[]) {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: metric {name} has no value"))?;
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    Ok(Run {
        workload: field("workload")?.as_str().unwrap_or("").to_string(),
        commit: field("commit")?.as_str().unwrap_or("").to_string(),
        host_cpus: field("host_cpus")?.as_u64().unwrap_or(0),
        seed: field("seed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// Values of `metric` on `workload` across `runs`.
fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).map(|(v, _)| *v))
        .collect()
}

fn describe(v: &[f64]) -> String {
    match stats::quartiles(v) {
        Some((q1, m, q3)) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        None => "-".into(),
    }
}

/// `exp_serve compare A.json... -- B.json...`
pub fn compare(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: exp_serve compare A.json... -- B.json...")?;
    let a: Vec<Run> = args[..split]
        .iter()
        .map(|p| load_run(p))
        .collect::<Result<_, _>>()?;
    let b: Vec<Run> = args[split + 1..]
        .iter()
        .map(|p| load_run(p))
        .collect::<Result<_, _>>()?;
    if a.is_empty() || b.is_empty() {
        return Err("both sides need at least one run".into());
    }
    let declared = declared_metrics()?;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    println!(
        "{:<15} {:<36} {:<10} {:<40} {:<40} {:>8}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for w in workloads {
        for d in &declared {
            let (va, vb) = (values(&a, w, &d.name), values(&b, w, &d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let unit = a
                .iter()
                .find_map(|r| r.metrics.get(&d.name).map(|(_, u)| u.clone()))
                .unwrap_or_default();
            let (ma, mb) = (
                stats::median(&va).unwrap_or(0.0),
                stats::median(&vb).unwrap_or(0.0),
            );
            let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0;
            let verdict = match d.bound {
                Some(bound) => {
                    let label =
                        format!("{:?}", verdict(&va, &vb, d.lower_is_better, bound)).to_lowercase();
                    let line = format!("{label} (bound {:.1}%)", bound * 100.0);
                    *tally.entry(label).or_default() += 1;
                    line
                }
                None => "- (per-layer)".into(),
            };
            println!(
                "{w:<15} {:<36} {unit:<10} {:<40} {:<40} {change:>+7.2}%  {verdict}",
                d.name,
                describe(&va),
                describe(&vb),
            );
        }
    }
    let mut summary = String::new();
    for (k, n) in &tally {
        let _ = write!(summary, " {k}={n}");
    }
    println!(
        "\n{} A runs, {} B runs; end-to-end verdicts:{summary}",
        a.len(),
        b.len()
    );
    Ok(())
}

/// `exp_serve baseline RUN.json...`: median of every metric per workload,
/// stamped with the runs' commit and host core count.
pub fn baseline(args: &[String]) -> Result<(), String> {
    let runs: Vec<Run> = args.iter().map(|p| load_run(p)).collect::<Result<_, _>>()?;
    let Some(first) = runs.first() else {
        return Err("usage: exp_serve baseline RUN.json...".into());
    };
    let same = |f: &dyn Fn(&Run) -> String| {
        let v = f(first);
        if runs.iter().all(|r| f(r) == v) {
            Ok(v)
        } else {
            Err("the runs disagree on commit or host_cpus".to_string())
        }
    };
    let commit = same(&|r| r.commit.clone())?;
    let host_cpus = same(&|r| r.host_cpus.to_string())?;
    let mut workloads: BTreeMap<&str, BTreeMap<&str, (Vec<f64>, &str)>> = BTreeMap::new();
    for r in &runs {
        for (name, (v, unit)) in &r.metrics {
            workloads
                .entry(&r.workload)
                .or_default()
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(*v);
        }
    }
    let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let mut out = format!(
        "{{\n  \"commit\": {},\n  \"host_cpus\": {host_cpus},\n  \"runs_per_workload\": {},\n  \
         \"seeds\": {seeds:?},\n  \"medians\": {{",
        tsm_core::json::string(&commit),
        runs.len() / workloads.len().max(1),
    );
    for (wi, (w, metrics)) in workloads.iter().enumerate() {
        let _ = write!(out, "{}\n    \"{w}\": {{", if wi > 0 { "," } else { "" });
        for (mi, (name, (v, unit))) in metrics.iter().enumerate() {
            let median = json::number(stats::median(v).unwrap_or(0.0))?;
            let _ = write!(
                out,
                "{}\n      \"{name}\": {{\"value\": {median}, \"unit\": \"{unit}\"}}",
                if mi > 0 { "," } else { "" }
            );
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}");
    println!("{out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [100.0, 101.0, 99.0];
        // 20% higher latency against a 10% bound: worse.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], true, 0.10),
            Verdict::Worse
        );
        // The same move of a higher-is-better metric: better.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], false, 0.10),
            Verdict::Better
        );
        // Within the bound: unchanged.
        assert_eq!(
            verdict(&a, &[105.0, 104.0, 106.0], true, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &[95.0, 94.0, 96.0], true, 0.10),
            Verdict::Unchanged
        );
        // 20% lower latency: better.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], true, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let noisy = [70.0, 100.0, 130.0];
        assert_eq!(
            verdict(&noisy, &[71.0, 99.0, 128.0], true, 0.10),
            Verdict::Unresolved
        );
        // Every B run beats every A run: better despite the spread.
        assert_eq!(
            verdict(&noisy, &[40.0, 50.0, 69.0], true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &[131.0, 170.0, 200.0], true, 0.10),
            Verdict::Worse
        );
        assert_eq!(verdict(&[], &[1.0], true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn zero_medians_do_not_divide_by_zero() {
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.0, 0.0], true, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.5, 0.5], true, 0.10),
            Verdict::Worse
        );
    }
}
