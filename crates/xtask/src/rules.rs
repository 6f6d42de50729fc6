//! The lint rule registry.
//!
//! Every rule is a pure function from a [`ScannedFile`] plus a
//! [`FileClass`] to a list of findings. Rules search the *code mask*
//! only, so comments and string literals can never produce false
//! positives; suppression comments are read from the *comment mask*,
//! so a `lint:allow` inside a string literal suppresses nothing.
//!
//! # Suppression policy
//!
//! A finding on line `L` is suppressed when a comment of the form
//! `// lint:allow(rule-name): justification` appears on line `L`
//! itself, on line `L - 1`, or anywhere in the contiguous block of
//! comment-only lines ending at `L - 1` (multi-line justifications are
//! encouraged). The justification text is mandatory by convention
//! (reviewers enforce it); the scanner only requires the rule name to
//! match.

use crate::scanner::ScannedFile;
use std::collections::BTreeSet;

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library source of `tsm-core` / `tsm-db` — the crates holding the
    /// vectorized scoring kernel and the columnar mirrors it reads.
    /// Everything [`FileClass::CoreLib`] demands, plus a ban on
    /// `unsafe`: the batch kernel's whole safety story is that it is
    /// plain safe Rust, so an `unsafe` block here needs a written
    /// justification.
    Kernel,
    /// Library source of `tsm-model` / `tsm-signal` — the remaining
    /// crates whose hot paths must never panic.
    CoreLib,
    /// Other first-party non-test code: CLI, baselines, bench harness,
    /// xtask itself.
    Tooling,
    /// Tests, benches, examples, and lint fixtures: exempt from the
    /// panic and timing rules.
    TestCode,
}

impl FileClass {
    /// True for the library classes ([`FileClass::Kernel`] and
    /// [`FileClass::CoreLib`]) that the panic/timing/channel rules bind.
    pub(crate) fn is_lib(self) -> bool {
        matches!(self, FileClass::Kernel | FileClass::CoreLib)
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier, e.g. `no-unwrap-in-lib`.
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A rule: identifier, one-line description, and checker.
pub struct Rule {
    /// Stable identifier used in output and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line description for `cargo xtask lint --rules`.
    pub description: &'static str,
    check: fn(&ScannedFile, FileClass, &mut Vec<Finding>),
}

/// The registry of all rules, in reporting order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            name: "no-unwrap-in-lib",
            description: "no unwrap()/expect()/panic!/todo! in tsm-* library code",
            check: no_unwrap_in_lib,
        },
        Rule {
            name: "explicit-atomic-ordering",
            description: "atomic ops name an Ordering; Relaxed needs a justification comment",
            check: explicit_atomic_ordering,
        },
        Rule {
            name: "no-float-eq",
            description: "no ==/!= against float literals or float constants",
            check: no_float_eq,
        },
        Rule {
            name: "no-instant-now-in-hot-path",
            description: "wall-clock reads only via the metrics layer",
            check: no_instant_now,
        },
        Rule {
            name: "bounded-channel-only",
            description: "no unbounded channel constructors in library code",
            check: bounded_channel_only,
        },
        Rule {
            name: "no-silent-result-drop",
            description: "no `let _ = ...` in library code; handle the value or justify",
            check: no_silent_result_drop,
        },
        Rule {
            name: "no-unsafe-in-kernel",
            description: "no `unsafe` in tsm-core/tsm-db; the scoring kernel is safe Rust",
            check: no_unsafe_in_kernel,
        },
        Rule {
            name: "no-unsynced-persist",
            description: "persistence writes must reach sync_all/sync_data before any rename",
            check: no_unsynced_persist,
        },
    ]
}

/// Runs every applicable rule over one scanned file, honouring
/// suppressions, and returns the surviving findings.
pub fn check_file(scanned: &ScannedFile, class: FileClass) -> Vec<Finding> {
    check_file_with(scanned, class, false)
}

/// Like [`check_file`], but in `strict` mode additionally reports
/// `lint:allow` comments that name a lint rule yet suppress nothing
/// (rule `unused-suppression`), so stale justifications cannot
/// accumulate.
pub fn check_file_with(scanned: &ScannedFile, class: FileClass, strict: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut used_allows: BTreeSet<usize> = BTreeSet::new();
    for rule in all_rules() {
        let mut raw = Vec::new();
        (rule.check)(scanned, class, &mut raw);
        for f in raw {
            if scanned.is_test_line(f.line) {
                continue;
            }
            if let Some(allow) = suppression_line(scanned, rule.name, f.line) {
                used_allows.insert(allow);
                continue;
            }
            findings.push(f);
        }
    }
    if strict {
        let names: Vec<&str> = all_rules().iter().map(|r| r.name).collect();
        findings.extend(unused_suppressions(scanned, &used_allows, &names));
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// Lines whose comments may justify or suppress a finding on `line`:
/// the line itself, the line above, and the contiguous run of
/// comment-only lines ending at `line - 1`.
fn comment_scope(scanned: &ScannedFile, line: usize) -> Vec<usize> {
    let mut scope = vec![line];
    if line > 1 {
        scope.push(line - 1);
        // Walk up through pure-comment lines (no code on them).
        let mut l = line - 1;
        while l > 1
            && scanned.code_line(l).trim().is_empty()
            && !scanned.comment_line(l).trim().is_empty()
        {
            scope.push(l - 1);
            l -= 1;
        }
    }
    scope
}

/// The line carrying a `lint:allow(rule)` in the comment scope of
/// `line`, if any — used both to suppress the finding and to mark the
/// annotation as *used* for `--strict` accounting.
pub(crate) fn suppression_line(scanned: &ScannedFile, rule: &str, line: usize) -> Option<usize> {
    comment_scope(scanned, line).into_iter().find(|&l| {
        if l == 0 || l > scanned.line_count() {
            return false;
        }
        match allow_rules(scanned.comment_line(l)) {
            Some(named) => named.split(',').any(|r| r.trim() == rule),
            None => false,
        }
    })
}

/// The rule list inside a `lint:allow(...)` on a comment line, if any.
fn allow_rules(comment: &str) -> Option<&str> {
    let pos = comment.find("lint:allow(")?;
    let rest = &comment[pos + "lint:allow(".len()..];
    let end = rest.find(')')?;
    Some(&rest[..end])
}

/// Findings for `lint:allow` annotations that name a rule in `rules`
/// but did not suppress anything (`used` holds the annotation lines
/// that did). Annotations naming only unknown rules are ignored: the
/// lint and hazard passes account for their own rule sets separately,
/// and doc-comment *mentions* of the syntax never name a real rule.
pub(crate) fn unused_suppressions(
    scanned: &ScannedFile,
    used: &BTreeSet<usize>,
    rules: &[&str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for line in 1..=scanned.line_count() {
        if scanned.is_test_line(line) || used.contains(&line) {
            continue;
        }
        let comment = scanned.comment_line(line);
        let Some(named) = allow_rules(comment) else {
            continue;
        };
        if !named.split(',').any(|n| rules.contains(&n.trim())) {
            continue;
        }
        let col = comment.find("lint:allow(").map(|p| p + 1).unwrap_or(1);
        out.push(Finding {
            rule: "unused-suppression",
            line,
            col,
            message: format!(
                "lint:allow({}) suppresses nothing in its scope; remove the stale annotation",
                named.trim()
            ),
        });
    }
    out
}

/// Emits a finding at a byte offset of the code mask.
fn emit(
    scanned: &ScannedFile,
    out: &mut Vec<Finding>,
    rule: &'static str,
    offset: usize,
    message: String,
) {
    out.push(Finding {
        rule,
        line: scanned.line_of(offset),
        col: scanned.col_of(offset),
        message,
    });
}

// ---------------------------------------------------------------------------
// no-unwrap-in-lib
// ---------------------------------------------------------------------------

fn no_unwrap_in_lib(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if !class.is_lib() {
        return;
    }
    for (needle, what) in [
        (".unwrap()", "unwrap() can panic"),
        (".expect(", "expect() can panic"),
        ("panic!(", "explicit panic! in library code"),
        ("todo!(", "todo! in library code"),
        ("unimplemented!(", "unimplemented! in library code"),
    ] {
        for (off, _) in scanned.code.match_indices(needle) {
            // `.expect(` must not match `.expect_err(`-style names —
            // match_indices already guarantees the exact needle, and
            // `panic!(`/`todo!(` cannot be identifier suffixes because
            // `!` breaks the identifier; only guard word boundaries on
            // the left for the macro needles.
            if (needle == "panic!(" || needle == "todo!(") && off > 0 {
                let prev = scanned.code.as_bytes()[off - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue; // e.g. `debug_assert_panic!` or `catch_todo!`
                }
            }
            emit(
                scanned,
                out,
                "no-unwrap-in-lib",
                off,
                format!("{what}; propagate a TsmError or justify with lint:allow"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// explicit-atomic-ordering
// ---------------------------------------------------------------------------

const ATOMIC_METHODS: &[&str] = &[
    ".load(",
    ".store(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_or(",
    ".fetch_and(",
    ".swap(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
];

fn uses_atomics(scanned: &ScannedFile) -> bool {
    scanned.code.contains("std::sync::atomic") || scanned.code.contains("Atomic")
}

fn explicit_atomic_ordering(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if class == FileClass::TestCode || !uses_atomics(scanned) {
        return;
    }
    // Every atomic method call must spell its Ordering in the argument
    // list. The argument span runs to the matching close paren, so
    // multi-line calls are handled.
    for needle in ATOMIC_METHODS {
        for (off, _) in scanned.code.match_indices(needle) {
            let open = off + needle.len() - 1;
            let Some(close) = matching_paren(&scanned.code, open) else {
                continue;
            };
            let args = &scanned.code[open + 1..close];
            if args.trim().is_empty() {
                // Not an atomic op: e.g. `runtime.store()` accessors.
                continue;
            }
            if !args.contains("Ordering::")
                && !args.contains("Relaxed")
                && !args.contains("Acquire")
                && !args.contains("Release")
                && !args.contains("SeqCst")
            {
                emit(
                    scanned,
                    out,
                    "explicit-atomic-ordering",
                    off + 1,
                    format!(
                        "atomic {} without an explicit memory Ordering",
                        &needle[1..needle.len() - 1]
                    ),
                );
            }
        }
    }
    // Relaxed is permitted, but only alongside a justification comment
    // on the same line or in the comment block directly above.
    for (off, _) in scanned.code.match_indices("Ordering::Relaxed") {
        let line = scanned.line_of(off);
        let justified = comment_scope(scanned, line)
            .into_iter()
            .any(|l| l >= 1 && !scanned.comment_line(l).trim().is_empty());
        if !justified {
            emit(
                scanned,
                out,
                "explicit-atomic-ordering",
                off,
                "Ordering::Relaxed without a justification comment on this or the \
                 preceding line"
                    .to_string(),
            );
        }
    }
}

/// Byte offset of the `)` matching the `(` at `open`, if any.
fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    debug_assert_eq!(bytes[open], b'(');
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// no-float-eq
// ---------------------------------------------------------------------------

fn no_float_eq(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if class == FileClass::TestCode {
        return;
    }
    let bytes = scanned.code.as_bytes();
    for (off, pat) in scanned
        .code
        .match_indices("==")
        .chain(scanned.code.match_indices("!="))
    {
        // Skip `===`/`<=`/`>=`/`..=`-adjacent matches: the operator
        // must stand alone.
        let before = off.checked_sub(1).map(|i| bytes[i]);
        let after = bytes.get(off + pat.len()).copied();
        if matches!(before, Some(b'=') | Some(b'<') | Some(b'>') | Some(b'!'))
            || after == Some(b'=')
        {
            continue;
        }
        let line = scanned.line_of(off);
        let line_str = scanned.code_line(line);
        let col = scanned.col_of(off) - 1; // 0-based within line_str
        let lhs = line_str[..col].trim_end();
        let rhs = line_str[col + pat.len()..].trim_start();
        if is_floaty(last_token(lhs)) || is_floaty(first_token(rhs)) {
            emit(
                scanned,
                out,
                "no-float-eq",
                off,
                format!(
                    "`{pat}` on a float expression; compare with a tolerance or justify \
                     with lint:allow"
                ),
            );
        }
    }
}

fn last_token(s: &str) -> &str {
    let end = s.len();
    let start = s
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':'))
        .map(|i| i + 1)
        .unwrap_or(0);
    &s[start..end]
}

fn first_token(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Does a token syntactically look like a float expression?
fn is_floaty(token: &str) -> bool {
    if token.is_empty() {
        return false;
    }
    // Float literal: digits on both sides of a dot (`1.0`, `0.5`), or a
    // typed literal / constant path (`1f64`, `f64::NAN`, `x.0` is a
    // tuple index and digits-dot-digits is required).
    let lit = token.find('.').is_some_and(|dot| {
        token[..dot].chars().all(|c| c.is_ascii_digit())
            && !token[..dot].is_empty()
            && token[dot + 1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
    });
    lit || token.contains("f64::")
        || token.contains("f32::")
        || token.ends_with("f64")
        || token.ends_with("f32")
}

// ---------------------------------------------------------------------------
// no-instant-now-in-hot-path
// ---------------------------------------------------------------------------

fn no_instant_now(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if !class.is_lib() {
        return;
    }
    for needle in ["Instant::now()", "SystemTime::now()"] {
        for (off, _) in scanned.code.match_indices(needle) {
            emit(
                scanned,
                out,
                "no-instant-now-in-hot-path",
                off,
                format!("{needle} in library code; route timing through tsm_core::metrics"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// bounded-channel-only
// ---------------------------------------------------------------------------

fn bounded_channel_only(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if !class.is_lib() {
        return;
    }
    for needle in ["mpsc::channel()", "mpsc::channel::<", "channel::unbounded("] {
        for (off, _) in scanned.code.match_indices(needle) {
            emit(
                scanned,
                out,
                "bounded-channel-only",
                off,
                "unbounded channel constructor; use a sync_channel with a derived \
                 capacity bound"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// no-silent-result-drop
// ---------------------------------------------------------------------------

/// `let _ = expr` compiles away a `#[must_use]` warning without a trace
/// — which is exactly why it must carry a written reason in library
/// code. An error silently dropped on a fault path is how degradation
/// stops being graceful.
fn no_silent_result_drop(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if !class.is_lib() {
        return;
    }
    for needle in ["let _ =", "let _="] {
        for (off, _) in scanned.code.match_indices(needle) {
            // `let` must start a token: don't fire inside identifiers
            // like `outlet _ =` (contrived, but cheap to rule out).
            if off > 0 {
                let prev = scanned.code.as_bytes()[off - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            emit(
                scanned,
                out,
                "no-silent-result-drop",
                off,
                "`let _ = ...` silently discards a value in library code; handle it or \
                 justify with lint:allow"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// no-unsafe-in-kernel
// ---------------------------------------------------------------------------

/// The batch scoring kernel's portability and audit story rests on it
/// being plain safe Rust — lane structs and iterator loops the compiler
/// autovectorizes, never intrinsics or raw pointers. Any `unsafe` in the
/// kernel crates therefore needs a written justification.
fn no_unsafe_in_kernel(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if class != FileClass::Kernel {
        return;
    }
    let bytes = scanned.code.as_bytes();
    for (off, pat) in scanned.code.match_indices("unsafe") {
        // `unsafe` must stand alone as a keyword: identifiers merely
        // containing it (`unsafe_cell`, `is_unsafe`) don't fire.
        if off > 0 {
            let prev = bytes[off - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        if let Some(&next) = bytes.get(off + pat.len()) {
            if next.is_ascii_alphanumeric() || next == b'_' {
                continue;
            }
        }
        emit(
            scanned,
            out,
            "no-unsafe-in-kernel",
            off,
            "`unsafe` in a kernel crate; the scoring kernel is guaranteed safe Rust — \
             restructure, or justify with lint:allow"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// no-unsynced-persist
// ---------------------------------------------------------------------------

/// Markers that make a library file "persistence-classified": it opens
/// real files for writing, syncs them, or implements the durable
/// backend surface. A socket-only module (`write_all` on a TcpStream)
/// carries none of these and stays exempt.
fn is_persistence_module(scanned: &ScannedFile) -> bool {
    [
        "File::create(",
        "OpenOptions::new(",
        "sync_all(",
        "sync_data(",
        "DurableBackend",
    ]
    .iter()
    .any(|marker| scanned.code.contains(marker))
}

/// A rename is only durable once the written data is synced: `create
/// tmp → write → rename` without an fsync can surface as an empty or
/// torn file after power loss even though the rename "succeeded" (this
/// exact bug shipped in `save_store_to_path`). The check is lexical
/// like every rule here: each file-open site must be followed, in code
/// order, by a `sync_all`/`sync_data` that comes before the next
/// `rename(`; a file opened for writing and never synced at all is
/// flagged too, as is a write with no reachable sync after it. The
/// writes are `write_all(` and the positional `write_all_at(` and
/// `write_at(`. `write_at(` is also the `DurableBackend` overwrite, so
/// for it the backend's own durability point, a `.sync(` call, counts
/// as a sync too. A `fn` definition of a write method is not a write.
fn no_unsynced_persist(scanned: &ScannedFile, class: FileClass, out: &mut Vec<Finding>) {
    if !class.is_lib() || !is_persistence_module(scanned) {
        return;
    }
    let next_of = |needles: &[&str], from: usize| -> Option<usize> {
        needles
            .iter()
            .filter_map(|n| scanned.code[from..].find(n).map(|i| from + i))
            .min()
    };
    const SYNCS: &[&str] = &["sync_all(", "sync_data("];
    for needle in ["File::create(", "OpenOptions::new("] {
        for (off, _) in scanned.code.match_indices(needle) {
            let from = off + needle.len();
            let sync = next_of(SYNCS, from);
            let rename = next_of(&["rename("], from);
            match (sync, rename) {
                (None, _) => emit(
                    scanned,
                    out,
                    "no-unsynced-persist",
                    off,
                    "file opened for writing with no reachable sync_all/sync_data; \
                     unsynced data can vanish at power loss"
                        .to_string(),
                ),
                (Some(s), Some(r)) if r < s => emit(
                    scanned,
                    out,
                    "no-unsynced-persist",
                    off,
                    "file renamed before its data is synced; the rename can survive a \
                     crash the data does not — sync_all/sync_data first"
                        .to_string(),
                ),
                _ => {}
            }
        }
    }
    const WRITES: &[(&str, &[&str])] = &[
        ("write_all(", SYNCS),
        ("write_all_at(", SYNCS),
        ("write_at(", &["sync_all(", "sync_data(", ".sync("]),
    ];
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    for &(needle, syncs) in WRITES {
        for (off, _) in scanned.code.match_indices(needle) {
            let before = &scanned.code[..off];
            let whole_word = !before.ends_with(is_ident);
            let definition = before
                .trim_end()
                .strip_suffix("fn")
                .is_some_and(|rest| !rest.ends_with(is_ident));
            if whole_word && !definition && next_of(syncs, off + needle.len()).is_none() {
                let write = needle.trim_end_matches('(');
                emit(
                    scanned,
                    out,
                    "no-unsynced-persist",
                    off,
                    format!(
                        "{write} with no reachable sync after it; an acknowledgement \
                         here would have RPO > 0"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn findings(src: &str, class: FileClass) -> Vec<Finding> {
        check_file(&scan(src), class)
    }

    #[test]
    fn unwrap_fires_only_in_core_lib() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(findings(src, FileClass::CoreLib).len(), 1);
        assert!(findings(src, FileClass::Tooling).is_empty());
        assert!(findings(src, FileClass::TestCode).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 0); z.unwrap_or_default(); }\n";
        assert!(findings(src, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn suppression_on_same_and_preceding_line() {
        let same = "fn f() { x.unwrap(); } // lint:allow(no-unwrap-in-lib): invariant\n";
        assert!(findings(same, FileClass::CoreLib).is_empty());
        let above = "// lint:allow(no-unwrap-in-lib): invariant\nfn f() { x.unwrap(); }\n";
        assert!(findings(above, FileClass::CoreLib).is_empty());
        let wrong_rule = "// lint:allow(no-float-eq): nope\nfn f() { x.unwrap(); }\n";
        assert_eq!(findings(wrong_rule, FileClass::CoreLib).len(), 1);
    }

    #[test]
    fn relaxed_requires_comment() {
        let bare =
            "use std::sync::atomic::*;\nfn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        let hits = findings(bare, FileClass::CoreLib);
        assert_eq!(hits.len(), 1, "{hits:?}");
        let justified = "use std::sync::atomic::*;\n// monotone counter, no ordering needed\nfn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        assert!(findings(justified, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn atomic_op_must_name_ordering() {
        let src = "use std::sync::atomic::*;\nfn f(c: &AtomicU64) { c.store(7); }\n";
        let hits = findings(src, FileClass::CoreLib);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "explicit-atomic-ordering");
        // Accessors with no arguments are not atomic ops.
        let accessor = "use std::sync::atomic::*;\nfn g(r: &Runtime) { r.store(); }\n";
        assert!(findings(accessor, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn float_eq_detected_and_cmp_ordering_ignored() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(findings(src, FileClass::CoreLib).len(), 1);
        let ord = "fn g(o: std::cmp::Ordering) -> bool { o == std::cmp::Ordering::Less }\n";
        assert!(findings(ord, FileClass::CoreLib).is_empty());
        let ints = "fn h(n: usize) -> bool { n == 0 }\n";
        assert!(findings(ints, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn instant_now_and_unbounded_channel() {
        let src = "fn f() { let t = Instant::now(); let (tx, rx) = mpsc::channel(); }\n";
        let hits = findings(src, FileClass::CoreLib);
        let rules: Vec<_> = hits.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"no-instant-now-in-hot-path"), "{hits:?}");
        assert!(rules.contains(&"bounded-channel-only"), "{hits:?}");
        assert!(findings(src, FileClass::Tooling).is_empty());
    }

    #[test]
    fn string_and_comment_traps() {
        let src = "fn f() { let s = \"x.unwrap()\"; } // x.unwrap() would panic!\n";
        assert!(findings(src, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn silent_result_drop_fires_in_core_lib_only() {
        let src = "fn f() { let _ = send(); }\n";
        let hits = findings(src, FileClass::CoreLib);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "no-silent-result-drop");
        assert!(findings(src, FileClass::Tooling).is_empty());
        assert!(findings(src, FileClass::TestCode).is_empty());
    }

    #[test]
    fn unsafe_fires_only_in_kernel_crates() {
        let src = "fn f(p: *const f32) -> f32 { unsafe { *p } }\n";
        let hits = findings(src, FileClass::Kernel);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "no-unsafe-in-kernel");
        assert!(findings(src, FileClass::CoreLib).is_empty());
        assert!(findings(src, FileClass::Tooling).is_empty());
        assert!(findings(src, FileClass::TestCode).is_empty());
    }

    #[test]
    fn unsafe_keyword_boundaries_and_suppression() {
        // Identifiers containing `unsafe` don't fire; neither do string
        // literals or comments (masked by the scanner).
        let ident = "fn f() { let unsafe_looking = 1; let is_unsafe = 2; }\n";
        assert!(findings(ident, FileClass::Kernel).is_empty());
        let masked = "fn f() { let s = \"unsafe\"; } // unsafe would be bad\n";
        assert!(findings(masked, FileClass::Kernel).is_empty());
        let suppressed = "fn f(p: *const f32) -> f32 {\n    \
             // lint:allow(no-unsafe-in-kernel): pointer from a valid slice\n    \
             unsafe { *p }\n}\n";
        assert!(findings(suppressed, FileClass::Kernel).is_empty());
        // `unsafe fn` and `unsafe impl` items fire like blocks do.
        let item = "pub unsafe fn g() {}\n";
        assert_eq!(findings(item, FileClass::Kernel).len(), 1);
    }

    #[test]
    fn kernel_class_inherits_the_lib_rules() {
        let src = "fn f() { x.unwrap(); let _ = send(); }\n";
        let rules: Vec<_> = findings(src, FileClass::Kernel)
            .iter()
            .map(|f| f.rule)
            .collect();
        assert!(rules.contains(&"no-unwrap-in-lib"), "{rules:?}");
        assert!(rules.contains(&"no-silent-result-drop"), "{rules:?}");
    }

    #[test]
    fn unsynced_persist_fires_on_rename_before_sync() {
        let bad = "fn f() -> std::io::Result<()> {\n    let f = std::fs::File::create(\"t.tmp\")?;\n    f.write_all(b\"x\")?;\n    std::fs::rename(\"t.tmp\", \"t\")?;\n    f.sync_all()?;\n    Ok(())\n}\n";
        let hits = findings(bad, FileClass::CoreLib);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "no-unsynced-persist");
        assert_eq!(hits[0].line, 2, "anchored at the open site");
        let good = "fn f() -> std::io::Result<()> {\n    let f = std::fs::File::create(\"t.tmp\")?;\n    f.write_all(b\"x\")?;\n    f.sync_all()?;\n    std::fs::rename(\"t.tmp\", \"t\")?;\n    Ok(())\n}\n";
        assert!(findings(good, FileClass::CoreLib).is_empty());
        assert!(findings(bad, FileClass::Tooling).is_empty());
        assert!(findings(bad, FileClass::TestCode).is_empty());
    }

    #[test]
    fn unsynced_persist_fires_when_never_synced() {
        let src = "fn f() -> std::io::Result<()> {\n    let f = std::fs::File::create(\"out\")?;\n    f.write_all(b\"x\")?;\n    Ok(())\n}\n";
        let rules: Vec<_> = findings(src, FileClass::CoreLib)
            .iter()
            .map(|f| (f.line, f.rule))
            .collect();
        // Both the open (line 2) and the unsynced write (line 3) fire.
        assert_eq!(
            rules,
            vec![(2, "no-unsynced-persist"), (3, "no-unsynced-persist")]
        );
    }

    #[test]
    fn unsynced_persist_covers_positional_writes() {
        let src = "fn f(f: &std::fs::File) -> std::io::Result<()> {\n    f.write_all_at(b\"x\", 8)?;\n    f.sync_data()\n}\n\
                   fn g(b: &dyn DurableBackend) -> std::io::Result<()> {\n    b.write_at(\"seg\", 8, b\"x\")?;\n    b.sync(\"seg\")\n}\n\
                   fn h(b: &dyn DurableBackend) -> std::io::Result<()> {\n    b.write_at(\"seg\", 8, b\"x\")\n}\n\
                   fn write_at(&self) {}\nfn overwrite_at(x: u8) {}\nfn k() { overwrite_at(1); }\n";
        let lines: Vec<_> = findings(src, FileClass::CoreLib)
            .iter()
            .map(|f| (f.line, f.rule))
            .collect();
        // Only h's overwrite, which reaches no sync, fires.
        assert_eq!(lines, vec![(10, "no-unsynced-persist")]);
        // A positional file write is not satisfied by a backend sync.
        let src = "fn f(f: &std::fs::File, b: &dyn DurableBackend) -> std::io::Result<()> {\n    f.write_all_at(b\"x\", 8)?;\n    b.sync(\"seg\")\n}\n";
        assert_eq!(findings(src, FileClass::CoreLib).len(), 1);
    }

    #[test]
    fn unsynced_persist_exempts_non_persistence_modules() {
        // A socket write: write_all with no file markers anywhere in
        // the module stays silent — this is not persistence code.
        let src = "fn f(s: &mut std::net::TcpStream, out: &[u8]) -> std::io::Result<()> {\n    use std::io::Write;\n    s.write_all(out)\n}\n";
        assert!(findings(src, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn silent_result_drop_variants() {
        // No-space form fires too; named and typed placeholders do not.
        assert_eq!(
            findings("fn f() { let _= g(); }\n", FileClass::CoreLib).len(),
            1
        );
        assert!(findings("fn f() { let _unused = g(); }\n", FileClass::CoreLib).is_empty());
        assert!(findings("fn f() { let x = g(); }\n", FileClass::CoreLib).is_empty());
        let suppressed =
            "fn f() {\n    // lint:allow(no-silent-result-drop): fire-and-forget\n    let _ = send();\n}\n";
        assert!(findings(suppressed, FileClass::CoreLib).is_empty());
        let in_string = "fn f() { let s = \"let _ = x\"; }\n";
        assert!(findings(in_string, FileClass::CoreLib).is_empty());
    }
}
