//! Integration tests of the lint engine over the fixture corpus in
//! `tests/fixtures/`, plus the workspace self-lint gate.
//!
//! The fixtures are plain text to the engine — they are never compiled
//! (files in a `tests/` subdirectory are not test targets) and
//! [`xtask::classify`] excludes them from workspace walks, so each one
//! can freely contain the exact constructs the rules reject.

use std::path::{Path, PathBuf};
use xtask::rules::FileClass;
use xtask::{classify, lint_source_at, lint_source_with, lint_workspace_with};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints one fixture under `class`, returning `(line, rule)` pairs.
fn lint_fixture(name: &str, class: FileClass) -> Vec<(usize, String)> {
    let path = fixture_dir().join(name);
    let source = std::fs::read_to_string(&path).unwrap();
    lint_source_at(Path::new(name), &source, class)
        .unwrap()
        .into_iter()
        .map(|f| (f.finding.line, f.finding.rule.to_string()))
        .collect()
}

fn all(rule: &str, lines: &[usize]) -> Vec<(usize, String)> {
    lines.iter().map(|&l| (l, rule.to_string())).collect()
}

#[test]
fn unwrap_fixture() {
    // Three firing sites; the suppressed call, both traps (string and
    // comment), and the `#[cfg(test)]` module stay silent.
    assert_eq!(
        lint_fixture("unwrap_in_lib.rs", FileClass::CoreLib),
        all("no-unwrap-in-lib", &[5, 6, 7])
    );
    // The rule only applies to library code.
    assert!(lint_fixture("unwrap_in_lib.rs", FileClass::Tooling).is_empty());
    assert!(lint_fixture("unwrap_in_lib.rs", FileClass::TestCode).is_empty());
}

#[test]
fn atomic_ordering_fixture() {
    // Line 6: atomic op whose arguments never name an Ordering.
    // Line 10: bare `Ordering::Relaxed` with no justification comment.
    // The justified Relaxed, the explicit Release/Acquire pair, and the
    // argument-less `.store()` accessor stay silent.
    assert_eq!(
        lint_fixture("atomic_ordering.rs", FileClass::CoreLib),
        all("explicit-atomic-ordering", &[6, 10])
    );
    // Tooling code is held to the same standard (only tests are exempt).
    assert_eq!(
        lint_fixture("atomic_ordering.rs", FileClass::Tooling),
        all("explicit-atomic-ordering", &[6, 10])
    );
    assert!(lint_fixture("atomic_ordering.rs", FileClass::TestCode).is_empty());
}

#[test]
fn float_eq_fixture() {
    // Line 4: `== 0.5` literal. Line 8: `!= f64::NAN` constant path.
    // The suppressed comparison, integer comparisons, and `..=` ranges
    // stay silent.
    assert_eq!(
        lint_fixture("float_eq.rs", FileClass::CoreLib),
        all("no-float-eq", &[4, 8])
    );
    assert!(lint_fixture("float_eq.rs", FileClass::TestCode).is_empty());
}

#[test]
fn instant_now_fixture() {
    assert_eq!(
        lint_fixture("instant_now.rs", FileClass::CoreLib),
        all("no-instant-now-in-hot-path", &[6])
    );
    // Timing restrictions only bind the library crates.
    assert!(lint_fixture("instant_now.rs", FileClass::Tooling).is_empty());
}

#[test]
fn channels_fixture() {
    // Turbofish and plain unbounded constructors fire; `sync_channel`
    // and the suppressed call stay silent.
    assert_eq!(
        lint_fixture("channels.rs", FileClass::CoreLib),
        all("bounded-channel-only", &[6, 10])
    );
    assert!(lint_fixture("channels.rs", FileClass::Tooling).is_empty());
}

#[test]
fn silent_result_drop_fixture() {
    // Both placeholder forms fire; the named placeholder, the suppressed
    // drop, the string trap, and the `#[cfg(test)]` module stay silent.
    assert_eq!(
        lint_fixture("silent_result_drop.rs", FileClass::CoreLib),
        all("no-silent-result-drop", &[4, 8])
    );
    assert!(lint_fixture("silent_result_drop.rs", FileClass::Tooling).is_empty());
    assert!(lint_fixture("silent_result_drop.rs", FileClass::TestCode).is_empty());
}

#[test]
fn unsafe_in_kernel_fixture() {
    // Line 4: unsafe block. Line 7: unsafe fn item. The justified
    // block, the string trap, the comment trap, and the identifier
    // containing `unsafe` stay silent.
    assert_eq!(
        lint_fixture("unsafe_in_kernel.rs", FileClass::Kernel),
        all("no-unsafe-in-kernel", &[4, 7])
    );
    // Only the kernel crates (tsm-core / tsm-db) are barred from unsafe.
    assert!(lint_fixture("unsafe_in_kernel.rs", FileClass::CoreLib).is_empty());
    assert!(lint_fixture("unsafe_in_kernel.rs", FileClass::Tooling).is_empty());
    assert!(lint_fixture("unsafe_in_kernel.rs", FileClass::TestCode).is_empty());
}

#[test]
fn unsynced_persist_fixture() {
    // Line 19: File::create whose data is renamed (line 21) before the
    // sync (line 22). Line 27: opened and never synced. Line 28: the
    // matching unsynced write_all. Lines 33 and 34: a positional file
    // write and a backend overwrite that reach no sync. The clean
    // publish sequence, the clean positional commit (lines 12 and 14,
    // each followed by its sync), the `write_at` definition (line 38),
    // the suppressed scratch file, the string trap, and the
    // `#[cfg(test)]` module stay silent.
    assert_eq!(
        lint_fixture("unsynced_persist.rs", FileClass::CoreLib),
        all("no-unsynced-persist", &[19, 27, 28, 33, 34])
    );
    assert_eq!(
        lint_fixture("unsynced_persist.rs", FileClass::Kernel),
        all("no-unsynced-persist", &[19, 27, 28, 33, 34])
    );
    // Only library code is bound; tooling and tests are exempt.
    assert!(lint_fixture("unsynced_persist.rs", FileClass::Tooling).is_empty());
    assert!(lint_fixture("unsynced_persist.rs", FileClass::TestCode).is_empty());
}

#[test]
fn unused_allow_fixture_fires_only_in_strict_mode() {
    let path = fixture_dir().join("unused_allow.rs");
    let source = std::fs::read_to_string(&path).unwrap();
    // Line 4: allow naming a real rule that fires nowhere in scope.
    // The used allow (line 9) and the unknown-rule mention (line 14)
    // stay silent.
    let strict: Vec<(usize, String)> = lint_source_with(
        Path::new("unused_allow.rs"),
        &source,
        FileClass::CoreLib,
        true,
    )
    .unwrap()
    .into_iter()
    .map(|f| (f.finding.line, f.finding.rule.to_string()))
    .collect();
    assert_eq!(strict, all("unused-suppression", &[4]));
    assert!(
        lint_source_at(Path::new("unused_allow.rs"), &source, FileClass::CoreLib)
            .unwrap()
            .is_empty(),
        "non-strict mode must not flag unused allows"
    );
}

#[test]
fn fixtures_are_excluded_from_workspace_walks() {
    assert_eq!(
        classify(Path::new("crates/xtask/tests/fixtures/unwrap_in_lib.rs")),
        None
    );
}

/// Every first-party `.rs` file must map to a class: classification by
/// path prefix has already mis-filed `crates/serve/src/main.rs` once,
/// and an unclassified file silently escapes every rule.
#[test]
fn every_workspace_rs_file_is_classified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let mut stack = vec![root.clone()];
    let mut seen = 0usize;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            if entry.file_type().unwrap().is_dir() {
                if name == "target" || name == ".git" || name == "vendor" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                seen += 1;
                let rel = path.strip_prefix(&root).unwrap();
                let class = classify(rel);
                if rel.starts_with("crates/xtask/tests/fixtures") {
                    assert_eq!(class, None, "fixtures must stay out of walks: {rel:?}");
                } else {
                    assert!(class.is_some(), "unclassified workspace file: {rel:?}");
                }
            }
        }
    }
    assert!(seen > 50, "walk looks broken: only {seen} .rs files found");
    // The two classifications the prefix rules used to get wrong.
    assert_eq!(
        classify(Path::new("crates/serve/src/main.rs")),
        Some(FileClass::Tooling)
    );
    assert_eq!(
        classify(Path::new("crates/serve/tests/serve_e2e.rs")),
        Some(FileClass::TestCode)
    );
}

/// The workspace itself must lint clean — including strict-mode
/// unused-suppression accounting — the same gate CI enforces via
/// `cargo xtask lint --strict`.
#[test]
fn workspace_self_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file(), "bad root {root:?}");
    let findings = lint_workspace_with(&root, true).unwrap();
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace is not lint-clean:\n{}",
        rendered.join("\n")
    );
}
