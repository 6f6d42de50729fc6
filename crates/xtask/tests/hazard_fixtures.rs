//! Integration tests of the concurrency-hazard analyzer over the
//! fixture corpus in `tests/fixtures/hazard/`, plus the workspace
//! self-analysis gate (the same gate CI enforces via
//! `cargo xtask hazard`).
//!
//! Like the lint fixtures, these files are plain text to the engine —
//! never compiled, and excluded from workspace walks by
//! [`xtask::classify`] — so each one can freely contain the exact
//! hazards the analyses reject.

use std::path::{Path, PathBuf};
use xtask::hazard::{analyze, HazardSummary, SourceFile};
use xtask::rules::FileClass;

fn fixture(name: &str, class: FileClass) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/hazard")
        .join(name);
    SourceFile {
        path: PathBuf::from(name),
        class,
        source: std::fs::read_to_string(&path).unwrap(),
    }
}

/// Analyzes one fixture under `class`, returning `(line, rule)` pairs.
fn hazards_of(name: &str, class: FileClass) -> Vec<(usize, String)> {
    let (findings, _) = analyze(&[fixture(name, class)], false);
    findings
        .into_iter()
        .map(|f| (f.finding.line, f.finding.rule.to_string()))
        .collect()
}

fn all(rule: &str, lines: &[usize]) -> Vec<(usize, String)> {
    lines.iter().map(|&l| (l, rule.to_string())).collect()
}

#[test]
fn lock_order_cycle_fixture() {
    // Lines 12 and 18: the a→b / b→a inversion, reported at each inner
    // acquisition. Line 35: re-acquiring `a` while it is already held.
    // The scoped release in `scoped` contributes no edge.
    assert_eq!(
        hazards_of("lock_order_cycle.rs", FileClass::CoreLib),
        all("lock-order-cycle", &[12, 18, 35])
    );
}

#[test]
fn send_under_lock_fixture() {
    // Line 17: send under `state`, escalated because the drain loop
    // try_recvs under the same lock. Lines 32/33: recv_timeout and
    // join under a live guard. The sleep after `drop(g)` and the
    // suppressed send stay silent; try_recv itself is never flagged.
    assert_eq!(
        hazards_of("send_under_lock.rs", FileClass::CoreLib),
        vec![
            (17, "channel-send-blocks-receiver".to_string()),
            (32, "blocking-under-lock".to_string()),
            (33, "blocking-under-lock".to_string()),
        ]
    );
}

#[test]
fn channel_topology_fixture() {
    // Line 5: unbounded constructor. Line 9: bare literal capacity
    // with no justifying comment. The provenanced literal and the
    // derived capacity stay silent.
    assert_eq!(
        hazards_of("channel_topology.rs", FileClass::CoreLib),
        vec![
            (5, "channel-unbounded".to_string()),
            (9, "channel-capacity-provenance".to_string()),
        ]
    );
    // The channel-topology audit binds library code only.
    assert!(hazards_of("channel_topology.rs", FileClass::Tooling).is_empty());
}

#[test]
fn clean_fixture_is_clean_and_fully_modeled() {
    let (findings, summary) = analyze(&[fixture("clean.rs", FileClass::CoreLib)], false);
    assert!(findings.is_empty(), "{findings:?}");
    // Pin the coverage counters: a model-extraction regression that
    // silently stops seeing locks or channels must fail here, not
    // just produce fewer findings elsewhere.
    assert_eq!(
        summary,
        HazardSummary {
            files: 1,
            locks: 2,
            guards: 4,
            channels: 1,
            sends: 1,
            recvs: 0,
            spawns: 0,
            lock_edges: 1,
            findings: 0,
        }
    );
}

#[test]
fn strict_mode_flags_stale_hazard_allow() {
    let stale = SourceFile {
        path: PathBuf::from("stale.rs"),
        class: FileClass::CoreLib,
        source: "// lint:allow(blocking-under-lock): stale justification\npub fn f() {}\n"
            .to_string(),
    };
    let (findings, _) = analyze(std::slice::from_ref(&stale), true);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].finding.rule, "unused-suppression");
    // Non-strict stays quiet about it.
    let (quiet, _) = analyze(&[stale], false);
    assert!(quiet.is_empty());
}

#[test]
fn hazard_fixtures_are_excluded_from_workspace_walks() {
    assert_eq!(
        xtask::classify(Path::new(
            "crates/xtask/tests/fixtures/hazard/lock_order_cycle.rs"
        )),
        None
    );
}

/// The workspace itself must analyze clean — the same gate CI enforces
/// via `cargo xtask hazard --strict` — and the coverage summary must
/// show the analyzer actually modeling the serving stack's locks and
/// channels, so a classification or extraction regression is loud.
#[test]
fn workspace_hazard_is_clean_with_real_coverage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file(), "bad root {root:?}");
    let (findings, summary) = xtask::hazard_workspace(&root, true).unwrap();
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has concurrency hazards:\n{}",
        rendered.join("\n")
    );
    assert!(summary.locks >= 4, "lock coverage collapsed: {summary}");
    assert!(summary.guards >= 15, "guard coverage collapsed: {summary}");
    assert!(
        summary.channels >= 2,
        "channel coverage collapsed: {summary}"
    );
    assert!(summary.sends >= 2, "send coverage collapsed: {summary}");
    assert!(summary.recvs >= 1, "recv coverage collapsed: {summary}");
    assert!(summary.spawns >= 2, "spawn coverage collapsed: {summary}");
}
