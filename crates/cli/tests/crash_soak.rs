//! The crash soak: spawn the real `tsm wal-soak` ingest process, SIGKILL
//! it at seeded points mid-ingest, restart with recovery, and assert
//! zero acknowledged-but-lost records — the RPO = 0 contract, enforced
//! against a real binary, a real filesystem, and a real `kill -9`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsm_crash_soak_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_soak(wal: &Path, seed: u64, duration: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_tsm"))
        .args([
            "wal-soak",
            "--wal",
            wal.to_str().unwrap(),
            "--seed",
            &seed.to_string(),
            "--duration",
            duration,
            "--batch",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("soak worker spawns")
}

/// The value of `key=value` in a soak/recover output line.
fn value<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
}

/// Parses a numeric `key=value` out of a soak/recover output line.
fn field(line: &str, key: &str) -> u64 {
    value(line, key)
        .parse()
        .unwrap_or_else(|_| panic!("unparseable {key}= in {line:?}"))
}

/// Runs `tsm recover` over the WAL directory and returns its summary
/// line (`last_seq=… records=… truncated_tail=… streams=…`).
fn recover_summary(wal: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tsm"))
        .args(["recover", "--wal", wal.to_str().unwrap()])
        .output()
        .expect("recover runs");
    assert!(
        out.status.success(),
        "recovery must never hard-error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    text.lines()
        .find(|l| l.starts_with("last_seq="))
        .unwrap_or_else(|| panic!("no last_seq line in {text:?}"))
        .to_string()
}

/// Runs `tsm recover` over the WAL directory and returns the reported
/// `last_seq`.
fn recovered_last_seq(wal: &Path) -> u64 {
    field(&recover_summary(wal), "last_seq")
}

/// Reads `n` ACK lines from a worker and returns their seqs, checking
/// that they run on without a gap from `first`.
fn read_acks(lines: &mut impl Iterator<Item = std::io::Result<String>>, n: u64, first: u64) -> u64 {
    let mut last = first - 1;
    for _ in 0..n {
        let line = lines.next().expect("worker still alive").unwrap();
        assert!(line.starts_with("ACK seq="), "{line:?}");
        let seq = field(&line, "seq");
        assert_eq!(seq, last + 1, "acked seqs are not contiguous: {line:?}");
        last = seq;
    }
    last
}

#[test]
fn sigkill_mid_ingest_loses_no_acknowledged_record() {
    for round in 0..4u64 {
        let wal = tmpdir(&format!("kill{round}"));
        let mut child = spawn_soak(&wal, 100 + round, "600");
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();

        let first = lines.next().expect("worker prints").unwrap();
        assert!(first.starts_with("RECOVERED"), "{first:?}");
        assert_eq!(field(&first, "last_seq"), 0, "fresh directory");

        // Read ACKs until the seeded kill point, then SIGKILL mid-run.
        // Every ACK we READ was fsynced before the worker printed it.
        let max_acked = read_acks(&mut lines, 3 + (100 + round) % 17, 1);
        child.kill().expect("SIGKILL");
        let _ = child.wait();

        // Restart + recover: RPO = 0 for everything acknowledged. (The
        // worker may have appended past the last ACK we read before the
        // kill landed; recovery keeping MORE than we saw is fine, less
        // is data loss.)
        let last_seq = recovered_last_seq(&wal);
        assert!(
            last_seq >= max_acked,
            "round {round}: acked seq {max_acked} but recovered only to {last_seq}"
        );

        // A restarted worker resumes exactly where recovery left off:
        // same directory, next seq contiguous with the repaired log,
        // appending into the space the first worker preallocated. Kill
        // it mid-run too.
        let mut resumed = spawn_soak(&wal, 200 + round, "600");
        let mut lines = BufReader::new(resumed.stdout.take().unwrap()).lines();
        let first = lines.next().expect("resumed worker prints").unwrap();
        assert!(first.starts_with("RECOVERED"), "{first:?}");
        assert_eq!(field(&first, "last_seq"), last_seq, "{first:?}");
        let max_resumed = read_acks(&mut lines, 2 + (200 + round) % 13, last_seq + 1);
        resumed.kill().expect("SIGKILL");
        let _ = resumed.wait();

        // Every ack of both runs survives the second crash: the seqs
        // run on from 1 without a gap, and recovery reaches the last.
        let last_seq = recovered_last_seq(&wal);
        assert!(
            last_seq >= max_resumed,
            "round {round}: resumed worker acked seq {max_resumed} but recovery ends at {last_seq}"
        );

        let _ = std::fs::remove_dir_all(&wal);
    }
}

#[test]
fn uninterrupted_soak_recovers_cleanly() {
    let wal = tmpdir("clean");
    let mut child = spawn_soak(&wal, 7, "60");
    let mut max_acked = 0;
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.unwrap();
        if line.starts_with("ACK seq=") {
            max_acked = field(&line, "seq");
        }
    }
    assert!(child.wait().unwrap().success());
    assert!(max_acked > 0);
    // DONE appended a session-end record after the last ACK, and the
    // preallocated space behind it is a clean end, not a torn tail.
    let summary = recover_summary(&wal);
    assert_eq!(field(&summary, "last_seq"), max_acked + 1, "{summary}");
    assert_eq!(value(&summary, "truncated_tail"), "false", "{summary}");
    let _ = std::fs::remove_dir_all(&wal);
}
