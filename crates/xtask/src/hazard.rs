//! The concurrency-hazard analyses over the extracted model.
//!
//! `cargo xtask hazard` runs three passes over the
//! [`crate::model::WorkspaceModel`]:
//!
//! 1. **Lock-ordering graph with cycle detection** — every pair of
//!    lock classes acquired nested (B taken while A's guard is live)
//!    contributes a directed edge A→B; any edge that participates in
//!    a cycle is a potential deadlock and is reported at the inner
//!    acquisition site. Re-acquiring the *same* class while it is held
//!    is reported directly as a self-deadlock.
//! 2. **Blocking-call-under-lock detection** — `send` / `recv` /
//!    `recv_timeout` / `join` / `thread::park` / `thread::sleep` while
//!    any guard is live. This is the bug class that wedges a worker
//!    pool: one stuck thread holds the lock every other thread needs.
//! 3. **Channel-topology audit** — every channel constructor must be
//!    bounded; a bare literal capacity needs a provenance comment on
//!    or above the line; and a `send` under a lock that some receiver
//!    also takes to drain is escalated to
//!    `channel-send-blocks-receiver` (sender blocks on a full channel
//!    holding the lock the receiver needs — a two-thread deadlock even
//!    though no lock order is inverted).
//!
//! Findings reuse the lint's suppression machinery: a
//! `// lint:allow(rule): reason` comment on the line or the contiguous
//! comment block above it. Suppressing `lock-order-cycle` at an inner
//! acquisition removes that edge from the graph (the justification
//! asserts the order inversion cannot deadlock, so the reverse order
//! must not be charged for it either). `--strict` reports allows that
//! name a hazard rule but suppress nothing.

use crate::model::{build_model, Acquisition, BlockingKind, Capacity};
use crate::rules::{suppression_line, unused_suppressions, FileClass, Finding};
use crate::scanner::{scan, ScannedFile};
use crate::FileFinding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// The hazard rule registry: (name, description), in reporting order.
pub const HAZARD_RULES: &[(&str, &str)] = &[
    (
        "lock-order-cycle",
        "two lock classes acquired in inconsistent nesting order (potential deadlock)",
    ),
    (
        "blocking-under-lock",
        "send/recv/recv_timeout/join/park/sleep while a Mutex/RwLock guard is live",
    ),
    (
        "channel-send-blocks-receiver",
        "send while holding a lock the channel's receiver side takes to drain",
    ),
    (
        "channel-unbounded",
        "unbounded channel constructor in library code",
    ),
    (
        "channel-capacity-provenance",
        "bare-literal channel capacity without a justifying comment",
    ),
    (
        "unused-suppression",
        "lint:allow naming a hazard rule that suppresses nothing (--strict)",
    ),
];

/// The names of the hazard rules (for `lint:allow` strict accounting).
pub fn hazard_rule_names() -> Vec<&'static str> {
    HAZARD_RULES.iter().map(|(n, _)| *n).collect()
}

/// One analysis input file.
pub struct SourceFile {
    /// Path as reported in findings.
    pub path: PathBuf,
    /// Workspace classification (decides channel-rule applicability).
    pub class: FileClass,
    /// File contents.
    pub source: String,
}

/// Coverage counters printed as the `hazard.summary:` line so CI logs
/// make analyzer regressions visible (a refactor that silently stops
/// modeling half the locks would show up here).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HazardSummary {
    /// Files analyzed.
    pub files: usize,
    /// Lock classes declared.
    pub locks: usize,
    /// Guard acquisition sites modeled.
    pub guards: usize,
    /// Channel creation sites modeled.
    pub channels: usize,
    /// `send` sites modeled.
    pub sends: usize,
    /// `recv`/`recv_timeout`/`try_recv` sites modeled.
    pub recvs: usize,
    /// Thread spawn sites counted.
    pub spawns: usize,
    /// Distinct nesting edges in the lock-ordering graph.
    pub lock_edges: usize,
    /// Findings that survived suppression.
    pub findings: usize,
}

impl std::fmt::Display for HazardSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hazard.summary: files={} locks={} guards={} channels={} sends={} recvs={} \
             spawns={} lock_edges={} findings={}",
            self.files,
            self.locks,
            self.guards,
            self.channels,
            self.sends,
            self.recvs,
            self.spawns,
            self.lock_edges,
            self.findings
        )
    }
}

/// One nesting-edge instance: lock `to` acquired while `from` is held.
struct EdgeSite {
    from: usize,
    to: usize,
    file: usize,
    /// Inner acquisition site (where the finding is reported).
    line: usize,
    col: usize,
    /// Line of the outer acquisition (for the message).
    outer_line: usize,
}

/// Runs the full hazard analysis over `files`.
///
/// Returns the surviving findings (sorted by path/line/col) and the
/// coverage summary. `strict` additionally reports unused hazard-rule
/// suppressions.
pub fn analyze(files: &[SourceFile], strict: bool) -> (Vec<FileFinding>, HazardSummary) {
    let scans: Vec<ScannedFile> = files.iter().map(|f| scan(&f.source)).collect();
    let model = build_model(&scans);
    let mut summary = HazardSummary {
        files: files.len(),
        locks: model.locks.len(),
        ..HazardSummary::default()
    };

    let mut used_allows: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut raw: Vec<(usize, Finding)> = Vec::new();
    let mut edges: Vec<EdgeSite> = Vec::new();
    // Lock classes some receiver drains under (recv of any flavour
    // while the guard is live).
    let mut recv_side: BTreeSet<usize> = BTreeSet::new();
    // Deferred send-under-lock candidates: (file, finding line/col,
    // held class, acquisition line) — escalated or downgraded once the
    // receiver-side set is complete.
    let mut sends_under_lock: Vec<(usize, usize, usize, usize, usize)> = Vec::new();

    for (fi, fm) in model.files.iter().enumerate() {
        summary.channels += fm.channels.len();
        summary.spawns += fm.spawns;
        for f in &fm.functions {
            summary.guards += f.acquisitions.len();
            for b in &f.blocking {
                match b.kind {
                    BlockingKind::Send => summary.sends += 1,
                    BlockingKind::Recv | BlockingKind::RecvTimeout | BlockingKind::TryRecv => {
                        summary.recvs += 1
                    }
                    _ => {}
                }
            }

            // Nesting edges + self-deadlocks.
            for (i, outer) in f.acquisitions.iter().enumerate() {
                for inner in f.acquisitions.iter().skip(i + 1) {
                    if inner.offset <= outer.offset || inner.offset >= outer.hold_end {
                        continue;
                    }
                    if inner.class == outer.class {
                        raw.push((
                            fi,
                            Finding {
                                rule: "lock-order-cycle",
                                line: inner.line,
                                col: inner.col,
                                message: format!(
                                    "lock '{}' re-acquired while already held (guard taken at \
                                     line {}); self-deadlock",
                                    model.locks[inner.class].name, outer.line
                                ),
                            },
                        ));
                    } else {
                        edges.push(EdgeSite {
                            from: outer.class,
                            to: inner.class,
                            file: fi,
                            line: inner.line,
                            col: inner.col,
                            outer_line: outer.line,
                        });
                    }
                }
            }

            // Blocking calls under a live guard.
            for b in &f.blocking {
                let held = covering(&f.acquisitions, b.offset);
                let Some(outer) = held else { continue };
                if !b.kind.is_blocking() {
                    // try_recv never blocks, but a drain under the
                    // lock makes it receiver-side for the audit.
                    recv_side.insert(outer.class);
                    continue;
                }
                match b.kind {
                    BlockingKind::Send => {
                        sends_under_lock.push((fi, b.line, b.col, outer.class, outer.line));
                    }
                    kind => {
                        if matches!(kind, BlockingKind::Recv | BlockingKind::RecvTimeout) {
                            recv_side.insert(outer.class);
                        }
                        raw.push((
                            fi,
                            Finding {
                                rule: "blocking-under-lock",
                                line: b.line,
                                col: b.col,
                                message: format!(
                                    "{} while holding lock '{}' (guard taken at line {}); a \
                                     blocked thread wedges every thread that needs the lock",
                                    kind.describe(),
                                    model.locks[outer.class].name,
                                    outer.line
                                ),
                            },
                        ));
                    }
                }
            }
        }

        // Channel-topology audit (library code only; tooling and the
        // bench harness may use ad-hoc channels).
        if files[fi].class.is_lib() {
            for c in &fm.channels {
                match &c.capacity {
                    Capacity::Unbounded => raw.push((
                        fi,
                        Finding {
                            rule: "channel-unbounded",
                            line: c.line,
                            col: c.col,
                            message: "unbounded channel constructor; use sync_channel with a \
                                      provenanced capacity so backpressure is explicit"
                                .to_string(),
                        },
                    )),
                    Capacity::Literal(n) if !c.commented => raw.push((
                        fi,
                        Finding {
                            rule: "channel-capacity-provenance",
                            line: c.line,
                            col: c.col,
                            message: format!(
                                "channel capacity {n} is a bare literal; justify the bound in a \
                                 comment on or above this line"
                            ),
                        },
                    )),
                    _ => {}
                }
            }
        }
    }

    // Resolve deferred sends: escalate when the held lock is one some
    // receiver drains under.
    for (fi, line, col, class, outer_line) in sends_under_lock {
        let name = &model.locks[class].name;
        if recv_side.contains(&class) {
            raw.push((
                fi,
                Finding {
                    rule: "channel-send-blocks-receiver",
                    line,
                    col,
                    message: format!(
                        "send() while holding lock '{name}' (guard taken at line {outer_line}), \
                         and a receiver drains under the same lock; a full channel deadlocks \
                         sender against receiver"
                    ),
                },
            ));
        } else {
            raw.push((
                fi,
                Finding {
                    rule: "blocking-under-lock",
                    line,
                    col,
                    message: format!(
                        "send() on a bounded channel while holding lock '{name}' (guard taken \
                         at line {outer_line}); a full channel blocks the sender under the lock"
                    ),
                },
            ));
        }
    }

    // Drop edges on test lines or suppressed at the inner site, then
    // build the ordering graph and flag every edge on a cycle.
    edges.retain(|e| {
        if scans[e.file].is_test_line(e.line) {
            return false;
        }
        if let Some(allow) = suppression_line(&scans[e.file], "lock-order-cycle", e.line) {
            used_allows.insert((e.file, allow));
            return false;
        }
        true
    });
    let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in &edges {
        adj.entry(e.from).or_default().insert(e.to);
        pairs.insert((e.from, e.to));
    }
    summary.lock_edges = pairs.len();
    for e in &edges {
        if !reaches(&adj, e.to, e.from) {
            continue;
        }
        let reverse = edges.iter().find(|r| r.from == e.to && r.to == e.from);
        let inner = &model.locks[e.to];
        let outer = &model.locks[e.from];
        let message = match reverse {
            Some(r) => format!(
                "lock '{}' acquired while holding '{}' (guard taken at line {}), but {}:{} \
                 nests them in the opposite order; potential deadlock",
                inner.name,
                outer.name,
                e.outer_line,
                files[r.file].path.display(),
                r.line
            ),
            None => format!(
                "lock '{}' acquired while holding '{}' (guard taken at line {}) participates \
                 in a lock-ordering cycle; potential deadlock",
                inner.name, outer.name, e.outer_line
            ),
        };
        raw.push((
            e.file,
            Finding {
                rule: "lock-order-cycle",
                line: e.line,
                col: e.col,
                message,
            },
        ));
    }

    // Suppression + test-line filtering for the non-edge findings.
    let mut findings: Vec<FileFinding> = Vec::new();
    for (fi, f) in raw {
        if scans[fi].is_test_line(f.line) {
            continue;
        }
        if let Some(allow) = suppression_line(&scans[fi], f.rule, f.line) {
            used_allows.insert((fi, allow));
            continue;
        }
        findings.push(FileFinding {
            file: files[fi].path.clone(),
            finding: f,
        });
    }

    if strict {
        let rules = hazard_rule_names();
        for (fi, scanned) in scans.iter().enumerate() {
            let used: BTreeSet<usize> = used_allows
                .iter()
                .filter(|(f, _)| *f == fi)
                .map(|(_, l)| *l)
                .collect();
            for f in unused_suppressions(scanned, &used, &rules) {
                findings.push(FileFinding {
                    file: files[fi].path.clone(),
                    finding: f,
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.col).cmp(&(&b.file, b.finding.line, b.finding.col))
    });
    summary.findings = findings.len();
    (findings, summary)
}

/// The innermost acquisition whose hold span covers `offset`.
fn covering(acquisitions: &[Acquisition], offset: usize) -> Option<&Acquisition> {
    acquisitions
        .iter()
        .filter(|a| a.offset < offset && offset < a.hold_end)
        .max_by_key(|a| a.offset)
}

/// Whether `to` is reachable from `from` in the edge set.
fn reaches(adj: &BTreeMap<usize, BTreeSet<usize>>, from: usize, to: usize) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(&n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(source: &str) -> SourceFile {
        SourceFile {
            path: PathBuf::from("mem.rs"),
            class: FileClass::CoreLib,
            source: source.to_string(),
        }
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct S { a: Mutex<u64>, b: Mutex<u64> }\n\
                   impl S {\n\
                   fn f(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); let _ = (ga, gb); }\n\
                   fn g(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); let _ = (ga, gb); }\n\
                   }\n";
        let (findings, summary) = analyze(&[lib_file(src)], false);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(summary.lock_edges, 1);
    }

    #[test]
    fn inverted_order_is_a_cycle() {
        let src = "struct S { a: Mutex<u64>, b: Mutex<u64> }\n\
                   impl S {\n\
                   fn f(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); let _ = (ga, gb); }\n\
                   fn g(&self) { let gb = self.b.lock().unwrap(); let ga = self.a.lock().unwrap(); let _ = (ga, gb); }\n\
                   }\n";
        let (findings, summary) = analyze(&[lib_file(src)], false);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.finding.rule == "lock-order-cycle"));
        assert_eq!(summary.lock_edges, 2);
    }

    #[test]
    fn cross_file_inversion_is_detected() {
        let f1 = "struct S { a: Mutex<u64>, b: Mutex<u64> }\n\
                  impl S { fn f(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); let _ = (ga, gb); } }\n";
        let f2 = "fn g(s: &S) { let gb = s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); let _ = (ga, gb); }\n";
        let (findings, _) = analyze(&[lib_file(f1), lib_file(f2)], false);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn suppressing_one_edge_clears_the_cycle() {
        let src = "struct S { a: Mutex<u64>, b: Mutex<u64> }\n\
                   impl S {\n\
                   fn f(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); let _ = (ga, gb); }\n\
                   fn g(&self) {\n\
                       let gb = self.b.lock().unwrap();\n\
                       // lint:allow(lock-order-cycle): f never runs concurrently with g\n\
                       let ga = self.a.lock().unwrap();\n\
                       let _ = (ga, gb);\n\
                   }\n\
                   }\n";
        let (findings, summary) = analyze(&[lib_file(src)], false);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(summary.lock_edges, 1, "suppressed edge leaves the graph");
    }

    #[test]
    fn strict_flags_unused_hazard_allow() {
        let src = "// lint:allow(blocking-under-lock): stale justification\n\
                   pub fn f() {}\n";
        let (findings, _) = analyze(&[lib_file(src)], true);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].finding.rule, "unused-suppression");
        let (quiet, _) = analyze(&[lib_file(src)], false);
        assert!(quiet.is_empty());
    }

    #[test]
    fn send_under_receiver_lock_escalates() {
        let src = "struct S { state: Mutex<u64>, feed: SyncSender<u64> }\n\
                   impl S {\n\
                   fn produce(&self) { let g = self.state.lock().unwrap(); self.feed.send(1).ok(); let _ = g; }\n\
                   fn drain(&self, rx: &Receiver<u64>) { let g = self.state.lock().unwrap(); let _ = rx.try_recv(); let _ = g; }\n\
                   }\n";
        let (findings, _) = analyze(&[lib_file(src)], false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].finding.rule, "channel-send-blocks-receiver");
    }

    #[test]
    fn send_under_unrelated_lock_is_blocking_under_lock() {
        let src = "struct S { state: Mutex<u64>, feed: SyncSender<u64> }\n\
                   impl S {\n\
                   fn produce(&self) { let g = self.state.lock().unwrap(); self.feed.send(1).ok(); let _ = g; }\n\
                   }\n";
        let (findings, _) = analyze(&[lib_file(src)], false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].finding.rule, "blocking-under-lock");
    }
}
