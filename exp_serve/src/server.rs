//! The `tsm` binary under test: building it, running `tsm serve` as a
//! separate process, and reading what `/proc` says about that process.

use crate::http;
use std::ffi::OsString;
use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to come up before the run gives up.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Start-up poll interval: small against `setup_s` (a few ms).
const POLL: Duration = Duration::from_micros(50);
/// `/proc/<pid>/stat` reports CPU time in units of `USER_HZ`, which is
/// 100 on Linux for x86 and ARM.
const TICKS_PER_S: f64 = 100.0;

/// Builds `tsm` from the repository at the working directory with the
/// same cargo that runs this benchmark, and returns its path.
pub fn build_tsm() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tsm-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release -p tsm-cli` failed ({status}); run from the repository root"
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let tsm = target.join("release").join("tsm");
    if tsm.is_file() {
        Ok(tsm)
    } else {
        Err(format!("{} was not built", tsm.display()))
    }
}

/// A running `tsm serve`. Dropping it kills the process (SIGKILL) and
/// waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    pub pid: u32,
    /// Spawn until the first `/healthz` answered 200.
    pub ready: Duration,
    /// Requests the start-up probe sent (the server counts them too).
    pub probes: u64,
}

impl Server {
    /// Spawns `tsm <args>` with stderr to `log`, learns the bound address
    /// from the "listening on" line, and polls `/healthz` until it is 200.
    pub fn start(tsm: &Path, args: &[OsString], log: &Path) -> Result<Server, String> {
        let started = Instant::now();
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(tsm)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", tsm.display()))?;
        let pid = child.id();
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
            ready: Duration::ZERO,
            probes: 0,
        };
        server.addr = loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.split("listening on ").nth(1))
                .and_then(|a| a.trim().parse().ok())
            {
                break addr;
            }
            server.check_alive(log, started)?;
            std::thread::sleep(POLL);
        };
        loop {
            if let Ok(reply) = http::get(server.addr, "/healthz") {
                server.probes += 1;
                if reply.status == 200 {
                    break;
                }
            }
            server.check_alive(log, started)?;
            std::thread::sleep(POLL);
        }
        server.ready = started.elapsed();
        Ok(server)
    }

    fn check_alive(&mut self, log: &Path, started: Instant) -> Result<(), String> {
        let log_text = || std::fs::read_to_string(log).unwrap_or_default();
        if let Ok(Some(status)) = self.child.try_wait() {
            return Err(format!("tsm serve exited ({status}): {}", log_text()));
        }
        if started.elapsed() > START_TIMEOUT {
            return Err(format!("tsm serve did not come up: {}", log_text()));
        }
        Ok(())
    }

    /// SIGKILLs the server and reaps it: the crash the durable workloads'
    /// recovery check starts from.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        // An already-exited child is fine: either way it is gone after wait.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Memory and thread figures of a process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStatus {
    /// Peak resident set (`VmHWM`), KiB.
    pub hwm_kb: u64,
    /// Current resident set (`VmRSS`), KiB.
    pub rss_kb: u64,
    pub threads: u64,
}

pub fn proc_status(pid: u32) -> Result<ProcStatus, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| -> Result<u64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{path}: no {key}"))
    };
    Ok(ProcStatus {
        hwm_kb: field("VmHWM:")?,
        rss_kb: field("VmRSS:")?,
        threads: field("Threads:")?,
    })
}

/// User plus system CPU seconds of a process (`None`: this process),
/// including its threads that already exited.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(
        || "/proc/self/stat".to_string(),
        |p| format!("/proc/{p}/stat"),
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: unparsable"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{path}: no field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / TICKS_PER_S)
}

/// Total size of the files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Runs `tsm recover` over a crashed server's WAL (on top of the same base
/// store) and returns the last sequence number it recovered.
pub fn recovered_last_seq(tsm: &Path, wal: &Path, store: &Path) -> Result<u64, String> {
    let out = Command::new(tsm)
        .arg("recover")
        .arg("--wal")
        .arg(wal)
        .arg("--store")
        .arg(store)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running tsm recover: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "tsm recover failed ({}): {stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .split_whitespace()
        .find_map(|w| w.strip_prefix("last_seq="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no last_seq in tsm recover output: {stdout}"))
}
