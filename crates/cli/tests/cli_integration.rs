//! End-to-end tests of the `tsm` binary: every subcommand, driven through
//! a real process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;
use tsm_signal::{BreathingParams, SignalGenerator};

fn tsm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsm"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpfile(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tsm_cli_test_{}_{name}", std::process::id()))
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).to_string()
}

#[test]
fn help_lists_every_subcommand() {
    let o = tsm(&["help"]);
    assert!(o.status.success());
    let text = stdout(&o);
    for cmd in [
        "simulate", "info", "segment", "match", "predict", "replay", "cluster", "serve",
    ] {
        assert!(text.contains(cmd), "help missing '{cmd}'");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let o = tsm(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));
}

#[test]
fn missing_required_flag_fails() {
    let o = tsm(&["info"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--store"));
}

#[test]
fn simulate_info_match_predict_cluster_roundtrip() {
    let store_path = tmpfile("roundtrip.tsmdb");
    let o = tsm(&[
        "simulate",
        "--patients",
        "4",
        "--sessions",
        "2",
        "--streams",
        "1",
        "--duration",
        "60",
        "--seed",
        "11",
        "--out",
        store_path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "simulate failed: {}", stderr(&o));
    assert!(stdout(&o).contains("4 patients"));

    let o = tsm(&["info", "--store", store_path.to_str().unwrap()]);
    assert!(o.status.success(), "info failed: {}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("patients: 4"));
    assert!(text.contains("compression"));

    let o = tsm(&[
        "match",
        "--store",
        store_path.to_str().unwrap(),
        "--stream",
        "0",
        "--start",
        "2",
        "--len",
        "9",
    ]);
    assert!(o.status.success(), "match failed: {}", stderr(&o));
    assert!(stdout(&o).contains("matches within delta"));

    let o = tsm(&[
        "predict",
        "--store",
        store_path.to_str().unwrap(),
        "--patient",
        "0",
        "--duration",
        "40",
        "--dt",
        "0.2",
    ]);
    assert!(o.status.success(), "predict failed: {}", stderr(&o));
    assert!(stdout(&o).contains("error: mean"));

    let o = tsm(&[
        "replay",
        "--store",
        store_path.to_str().unwrap(),
        "--sessions",
        "3",
        "--threads",
        "2",
        "--duration",
        "30",
    ]);
    assert!(o.status.success(), "replay failed: {}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("session   patient"), "no replay table");
    assert!(text.contains("predictions/sec aggregate"));

    // Invalid parameters must surface as a clean CLI error, not a panic.
    let o = tsm(&[
        "predict",
        "--store",
        store_path.to_str().unwrap(),
        "--patient",
        "0",
        "--delta",
        "0",
    ]);
    assert!(!o.status.success(), "delta=0 must be rejected");
    assert!(stderr(&o).contains("error:"), "no error message");
    assert!(stderr(&o).contains("--delta"), "{}", stderr(&o));
    // A NaN threshold fails every comparison; it must not pass for valid.
    let o = tsm(&[
        "predict",
        "--store",
        store_path.to_str().unwrap(),
        "--patient",
        "0",
        "--delta",
        "nan",
    ]);
    assert!(!o.status.success(), "predict --delta nan must be rejected");
    assert!(stderr(&o).contains("--delta"), "{}", stderr(&o));
    for delta in ["nan", "-1", "0"] {
        let o = tsm(&[
            "match",
            "--store",
            store_path.to_str().unwrap(),
            "--stream",
            "0",
            "--delta",
            delta,
        ]);
        assert!(
            !o.status.success(),
            "match --delta {delta} must be rejected"
        );
        assert!(stderr(&o).contains("error:"), "no error message");
        assert!(stderr(&o).contains("--delta"), "{}", stderr(&o));
        assert!(
            stdout(&o).is_empty(),
            "match --delta {delta} printed results"
        );
    }

    let o = tsm(&[
        "cluster",
        "--store",
        store_path.to_str().unwrap(),
        "--k",
        "2",
        "--stride",
        "4",
    ]);
    assert!(o.status.success(), "cluster failed: {}", stderr(&o));
    assert!(stdout(&o).contains("silhouette"));

    std::fs::remove_file(&store_path).ok();
}

/// Definition 3 has no length limit: at 61 segments, one past the
/// longest state signature, `tsm cluster` still finds stream distances
/// and so separates the patients (a matrix with no distance reads
/// silhouette 0.000).
#[test]
fn cluster_finds_distances_past_the_longest_state_signature() {
    let store_path = tmpfile("cluster61.tsmdb");
    let o = tsm(&[
        "simulate",
        "--patients",
        "4",
        "--sessions",
        "2",
        "--streams",
        "1",
        "--duration",
        "300",
        "--seed",
        "11",
        "--out",
        store_path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "simulate failed: {}", stderr(&o));
    let o = tsm(&[
        "cluster",
        "--store",
        store_path.to_str().unwrap(),
        "--k",
        "2",
        "--len",
        "61",
    ]);
    std::fs::remove_file(&store_path).ok();
    assert!(o.status.success(), "cluster failed: {}", stderr(&o));
    let text = stdout(&o);
    let silhouette: f64 = text
        .lines()
        .find_map(|l| l.split("silhouette = ").nth(1))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no silhouette in {text}"));
    assert!(silhouette > 0.0, "no stream distance at --len 61:\n{text}");
}

/// Builds a small store once for the validation/metrics tests below.
fn small_store(name: &str) -> PathBuf {
    let store_path = tmpfile(name);
    let o = tsm(&[
        "simulate",
        "--patients",
        "2",
        "--sessions",
        "1",
        "--streams",
        "1",
        "--duration",
        "60",
        "--seed",
        "23",
        "--out",
        store_path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "simulate failed: {}", stderr(&o));
    store_path
}

/// `tsm cluster FLAG 0` exits 1 with an error naming the flag and
/// prints no clustering.
fn assert_cluster_rejects_zero(flag: &str) {
    let store_path = small_store(&format!("cluster_zero{flag}.tsmdb"));
    let o = tsm(&[
        "cluster",
        "--store",
        store_path.to_str().unwrap(),
        flag,
        "0",
    ]);
    std::fs::remove_file(&store_path).ok();
    assert_eq!(o.status.code(), Some(1), "cluster {flag} 0: {}", stderr(&o));
    assert!(
        stderr(&o).contains(&format!("error: {flag} must be at least 1")),
        "{}",
        stderr(&o)
    );
    assert!(
        stdout(&o).is_empty(),
        "cluster {flag} 0 printed a clustering"
    );
}

/// `--k 0` must stop before the silhouette, which panics on a
/// clustering with no labels.
#[test]
fn cluster_rejects_zero_k() {
    assert_cluster_rejects_zero("--k");
}

/// `--len 0` has no stream distance, so every pair would sit at the
/// fallback distance and the clustering would mean nothing.
#[test]
fn cluster_rejects_zero_len() {
    assert_cluster_rejects_zero("--len");
}

#[test]
fn zero_valued_flags_are_rejected_cleanly() {
    let store_path = small_store("zeroflags.tsmdb");
    let store = store_path.to_str().unwrap();

    let o = tsm(&["replay", "--store", store, "--sessions", "0"]);
    assert!(!o.status.success(), "--sessions 0 must be rejected");
    assert!(stderr(&o).contains("--sessions"), "{}", stderr(&o));

    let o = tsm(&[
        "replay",
        "--store",
        store,
        "--sessions",
        "2",
        "--threads",
        "0",
    ]);
    assert!(!o.status.success(), "--threads 0 must be rejected");
    assert!(stderr(&o).contains("--threads"), "{}", stderr(&o));

    let o = tsm(&[
        "chaos",
        "--threads",
        "0",
        "--plans",
        "1",
        "--duration",
        "30",
    ]);
    assert!(!o.status.success(), "chaos --threads 0 must be rejected");
    assert!(
        stderr(&o).contains("--threads must be at least 1"),
        "{}",
        stderr(&o)
    );

    let o = tsm(&[
        "match", "--store", store, "--stream", "0", "--start", "2", "--len", "9", "--k", "0",
    ]);
    assert!(!o.status.success(), "--k 0 must be rejected");
    assert!(stderr(&o).contains("--k"), "{}", stderr(&o));

    let o = tsm(&[
        "match",
        "--store",
        store,
        "--stream",
        "0",
        "--start",
        "2",
        "--len",
        "9",
        "--threads",
        "0",
    ]);
    assert!(!o.status.success(), "match --threads 0 must be rejected");
    assert!(stderr(&o).contains("--threads"), "{}", stderr(&o));

    // And a positive --k works, capping the result list.
    let o = tsm(&[
        "match", "--store", store, "--stream", "0", "--start", "2", "--len", "9", "--k", "2",
    ]);
    assert!(o.status.success(), "match --k 2 failed: {}", stderr(&o));
    assert!(stdout(&o).contains("matches within delta"));

    std::fs::remove_file(&store_path).ok();
}

#[test]
fn unknown_flags_are_rejected_with_the_flag_named() {
    let store_path = small_store("unknownflags.tsmdb");
    let store = store_path.to_str().unwrap();

    // A flag `match` no longer reads is an error, not silently ignored.
    let o = tsm(&[
        "match",
        "--store",
        store,
        "--stream",
        "0",
        "--start",
        "2",
        "--len",
        "9",
        "--scoring",
        "scalar",
    ]);
    assert!(!o.status.success(), "match --scoring must be rejected");
    assert!(stderr(&o).contains("--scoring"), "{}", stderr(&o));

    // Misspelled serve flags fail before the server binds or touches the
    // WAL directory: neither runs without checkpoints or without a WAL.
    let wal = tmpfile("unknownflags.wal");
    let wal_arg = wal.to_str().unwrap();
    for (bad, args) in [
        (
            "--checkpoint-evry",
            [
                "--wal",
                wal_arg,
                "--checkpoint-evry",
                "8",
                "--addr",
                "127.0.0.1:0",
            ]
            .as_slice(),
        ),
        (
            "--wall",
            ["--wall", wal_arg, "--addr", "127.0.0.1:0"].as_slice(),
        ),
    ] {
        let mut argv = vec!["serve"];
        argv.extend_from_slice(args);
        let o = tsm(&argv);
        assert!(!o.status.success(), "serve {bad} must be rejected");
        let err = stderr(&o);
        assert!(err.contains(bad), "{err}");
        assert!(err.contains("unknown flag"), "{err}");
    }
    assert!(!wal.exists(), "a rejected serve created its WAL directory");

    // `--shards` is not a replay flag: replay has one session host.
    let o = tsm(&["replay", "--store", store, "--shards", "2"]);
    assert!(!o.status.success(), "replay --shards must be rejected");
    let err = stderr(&o);
    assert!(
        err.contains("unknown flag --shards for `tsm replay`"),
        "{err}"
    );

    std::fs::remove_file(&store_path).ok();
}

#[test]
fn malformed_numeric_flags_are_rejected_with_the_flag_named() {
    let store_path = small_store("badnum.tsmdb");
    let store = store_path.to_str().unwrap();

    // Negative into an unsigned flag: a structured error, not a panic or
    // a silent fall-back to the default thread count.
    let o = tsm(&["replay", "--store", store, "--threads", "-1"]);
    assert!(!o.status.success(), "--threads -1 must be rejected");
    let err = stderr(&o);
    assert!(err.contains("--threads"), "{err}");
    assert!(err.contains("must not be negative"), "{err}");

    // Overflowing: a value no usize can hold.
    let o = tsm(&[
        "replay",
        "--store",
        store,
        "--sessions",
        "99999999999999999999999999",
    ]);
    assert!(
        !o.status.success(),
        "overflowing --sessions must be rejected"
    );
    let err = stderr(&o);
    assert!(err.contains("--sessions"), "{err}");
    assert!(err.contains("out of range"), "{err}");

    // Non-numeric.
    let o = tsm(&["replay", "--store", store, "--threads", "abc"]);
    assert!(!o.status.success(), "--threads abc must be rejected");
    let err = stderr(&o);
    assert!(err.contains("--threads"), "{err}");
    assert!(err.contains("is not a number"), "{err}");

    // Fractional into an integer flag.
    let o = tsm(&[
        "match", "--store", store, "--stream", "0", "--start", "2", "--len", "9", "--k", "2.5",
    ]);
    assert!(!o.status.success(), "--k 2.5 must be rejected");
    let err = stderr(&o);
    assert!(err.contains("--k"), "{err}");
    assert!(err.contains("is not an integer"), "{err}");

    // Present-but-empty: `--k` swallowed no value because another flag
    // follows; that used to silently fall back to the default.
    let o = tsm(&[
        "match",
        "--store",
        store,
        "--stream",
        "0",
        "--start",
        "2",
        "--len",
        "9",
        "--k",
        "--metrics",
    ]);
    assert!(!o.status.success(), "valueless --k must be rejected");
    let err = stderr(&o);
    assert!(err.contains("--k requires a numeric value"), "{err}");

    // Durations in seconds: NaN, negatives and infinities are errors, so
    // none can reach a loop bound or a timer. `--idle-timeout` alone may
    // be 0 (eviction off). The serve cases carry an address no socket can
    // bind, so a missed check fails at once instead of serving forever.
    let out_path = tmpfile("badsecs.tsmdb");
    let out = out_path.to_str().unwrap();
    let wal_path = tmpfile("badsecs-wal");
    let wal = wal_path.to_str().unwrap();
    let cases: [&[&str]; 12] = [
        &["predict", "--store", store, "--dt", "nan"],
        &["predict", "--store", store, "--duration", "-5"],
        &["replay", "--store", store, "--dt", "nan"],
        &["replay", "--store", store, "--dt", "-1"],
        &["replay", "--store", store, "--duration", "inf"],
        &["simulate", "--out", out, "--duration", "-5"],
        &["chaos", "--duration", "-5"],
        &["wal-soak", "--wal", wal, "--duration", "0"],
        &["serve", "--addr", "256.0.0.1:0", "--dt", "nan"],
        &["serve", "--addr", "256.0.0.1:0", "--idle-timeout", "-1"],
        &["serve", "--addr", "256.0.0.1:0", "--idle-timeout", "nan"],
        &["serve", "--addr", "256.0.0.1:0", "--idle-timeout", "inf"],
    ];
    for args in cases {
        let o = tsm(args);
        assert!(!o.status.success(), "{args:?} must be rejected");
        let flag = args[args.len() - 2];
        let err = stderr(&o);
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(
            err.contains("is not a finite number of seconds"),
            "{args:?}: {err}"
        );
    }
    assert!(!out_path.exists(), "a rejected simulate wrote a store");
    assert!(!wal_path.exists(), "a rejected wal-soak opened its log");

    std::fs::remove_file(&store_path).ok();
}

#[test]
fn replay_with_metrics_writes_a_reconciling_snapshot() {
    let store_path = small_store("metrics.tsmdb");
    let metrics_path = tmpfile("metrics.json");

    let o = tsm(&[
        "replay",
        "--store",
        store_path.to_str().unwrap(),
        "--sessions",
        "2",
        "--duration",
        "30",
        "--metrics",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(
        o.status.success(),
        "replay --metrics failed: {}",
        stderr(&o)
    );
    let json = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    // The command itself refuses to emit a non-reconciling snapshot, so
    // the file existing already proves the invariants; spot-check the
    // shape and a couple of counters that must be live after a replay.
    assert!(json.trim_start().starts_with('{'), "not JSON: {json}");
    for key in [
        "match.windows_scored",
        "cache.lookups",
        "session.ticks",
        "predict.lookups",
        "predict.memo_hits",
        "cohort.sessions",
        "session.tick_latency_ns",
    ] {
        assert!(json.contains(key), "snapshot missing {key}: {json}");
    }
    assert!(
        !json.contains("\"cohort.sessions\": 0"),
        "cohort.sessions must be non-zero"
    );

    // `tsm match --metrics` (no path) prints the snapshot to stdout.
    let o = tsm(&[
        "match",
        "--store",
        store_path.to_str().unwrap(),
        "--stream",
        "0",
        "--start",
        "2",
        "--len",
        "9",
        "--metrics",
    ]);
    assert!(o.status.success(), "match --metrics failed: {}", stderr(&o));
    assert!(stdout(&o).contains("match.windows_scored"));

    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&metrics_path).ok();
}

#[test]
fn replay_output_is_independent_of_pool_size() {
    let store_path = small_store("poolsize.tsmdb");
    let store = store_path.to_str().unwrap();
    let common = [
        "replay",
        "--store",
        store,
        "--sessions",
        "4",
        "--duration",
        "20",
        "--seed",
        "7",
    ];
    let run = |threads: &'static str| {
        let mut args: Vec<&str> = common.to_vec();
        args.extend_from_slice(&["--threads", threads]);
        tsm(&args)
    };

    let serial = run("1");
    assert!(serial.status.success(), "{}", stderr(&serial));
    let pooled = run("3");
    assert!(pooled.status.success(), "{}", stderr(&pooled));
    assert!(
        stderr(&pooled).contains("on 3 threads"),
        "pool banner missing: {}",
        stderr(&pooled)
    );

    // Same seeds, same store: the per-session table (every prediction,
    // tick, vertex and health column) must match line for line. Only the
    // wall-clock summary may differ.
    let table = |out: &std::process::Output| -> Vec<String> {
        stdout(out)
            .lines()
            .skip_while(|l| !l.starts_with("session"))
            .take_while(|l| !l.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let base_table = table(&serial);
    assert!(
        base_table.len() > 4,
        "no session table: {}",
        stdout(&serial)
    );
    assert_eq!(base_table, table(&pooled), "pooled replay diverged");

    let bad = run("0");
    assert!(!bad.status.success(), "--threads 0 must be rejected");
    assert!(stderr(&bad).contains("--threads"), "{}", stderr(&bad));

    std::fs::remove_file(&store_path).ok();
}

#[test]
fn segment_reads_and_writes_csv() {
    let csv_path = tmpfile("signal.csv");
    let mut content = String::from("time,value\n");
    for i in 0..1200 {
        let t = i as f64 / 30.0;
        let phase = (t / 4.0).fract();
        let y = if phase < 0.4 {
            6.0 * (1.0 + (std::f64::consts::PI * phase / 0.4).cos())
        } else if phase < 0.65 {
            0.0
        } else {
            6.0 * (1.0 - (std::f64::consts::PI * (phase - 0.65) / 0.35).cos())
        };
        content.push_str(&format!("{t},{y}\n"));
    }
    std::fs::write(&csv_path, content).unwrap();

    let o = tsm(&["segment", "--csv", csv_path.to_str().unwrap()]);
    assert!(o.status.success(), "segment failed: {}", stderr(&o));
    let out = stdout(&o);
    assert!(
        out.contains(",EX,") || out.contains(",IN,"),
        "no states in output"
    );
    assert!(stderr(&o).contains("compression"));

    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn loading_garbage_store_fails_cleanly() {
    let path = tmpfile("garbage.tsmdb");
    std::fs::write(&path, b"definitely not a store").unwrap();
    let o = tsm(&["info", "--store", path.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("not a tsm-db store"));
    std::fs::remove_file(&path).ok();
}

/// Kills the child process when dropped, so a failed assertion does not
/// leave a server running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Sends one HTTP/1.1 request and returns its status and full response.
fn http(addr: &str, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("server accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("server answers");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    (status, text)
}

#[test]
fn serve_keeps_serving_as_a_live_process() {
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_tsm"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs"),
    );
    // Hold the read end until the server is killed, so a late log line
    // cannot hit a closed pipe.
    let mut stderr_lines = BufReader::new(server.0.stderr.take().unwrap()).lines();
    let line = stderr_lines
        .next()
        .expect("serve logs its address")
        .unwrap();
    let addr = line
        .strip_prefix("tsm serve listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    let body: String = SignalGenerator::new(BreathingParams::default(), 31)
        .generate(60.0)
        .iter()
        .map(|s| format!("{},{}\n", s.time, s.position[0]))
        .collect();
    let (status, text) = http(
        &addr,
        &format!(
            "POST /ingest/a HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 202, "{text}");
    for target in ["/predict?session=a", "/healthz"] {
        let (status, text) = http(&addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert_eq!(status, 200, "{target}: {text}");
    }
    assert!(
        server.0.try_wait().unwrap().is_none(),
        "tsm serve exited while it should be serving"
    );
    drop(server);
}
