//! Deterministic fault injection for storage backends.
//!
//! The sample-stream counterpart lives in [`crate::faults`]; this
//! module applies the same seeded-plan idiom to the durability layer:
//! a [`StorageFaultPlan`] schedules faults at *operation indices* (the
//! n-th backend call), and a [`FaultedBackend`] wraps any
//! [`DurableBackend`] and replays the plan over it. Combined with
//! [`tsm_db::MemBackend`]'s precise crash semantics, this turns "what
//! if the disk fails exactly here?" into an enumerable matrix: every
//! operation index of a WAL workload is a potential injection point.
//!
//! The same two properties as the sample-stream injector are
//! load-bearing:
//!
//! * **Determinism** — a plan is plain data and
//!   [`StorageFaultPlan::random`] is a pure function of its seed.
//! * **Empty-plan transparency** — a [`FaultedBackend`] with an empty
//!   plan forwards every call untouched, so a faulted run can be
//!   compared bit-for-bit against a clean one.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsm_db::DurableBackend;

/// One scheduled storage fault, applied when the wrapped backend
/// reaches a given operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// The operation fails with an injected I/O error before touching
    /// the inner backend (a transient device error).
    FailOp,
    /// An `append` or `write_at` writes only the first half of its
    /// bytes, then errors (a short write / partial sector). Other
    /// operations degrade to [`StorageFaultKind::FailOp`].
    ShortWrite,
    /// A `sync`/`sync_root` reports success without making anything
    /// durable — the write-reordering model: the process believes the
    /// data is down, a crash proves otherwise.
    SilentSync,
    /// Power loss at this operation: the inner backend's crash
    /// semantics are applied (unsynced bytes and names vanish) and the
    /// operation fails. Requires a crash hook
    /// ([`FaultedBackend::with_mem`] installs one); without it this
    /// degrades to [`StorageFaultKind::FailOp`].
    Crash,
}

impl StorageFaultKind {
    fn name(self) -> &'static str {
        match self {
            StorageFaultKind::FailOp => "fail",
            StorageFaultKind::ShortWrite => "short-write",
            StorageFaultKind::SilentSync => "silent-sync",
            StorageFaultKind::Crash => "crash",
        }
    }
}

/// A [`StorageFaultKind`] bound to the operation index that triggers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultEvent {
    /// 0-based index into the backend's operation sequence.
    pub at: u64,
    /// What happens.
    pub kind: StorageFaultKind,
}

/// A reproducible schedule of storage faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFaultPlan {
    /// Scheduled events; the injector sorts them by index.
    pub events: Vec<StorageFaultEvent>,
}

impl StorageFaultPlan {
    /// A plan with no faults — the wrapper becomes an exact passthrough.
    pub fn empty() -> Self {
        StorageFaultPlan { events: Vec::new() }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event (builder style).
    pub fn with(mut self, at: u64, kind: StorageFaultKind) -> Self {
        self.events.push(StorageFaultEvent { at, kind });
        self
    }

    /// A randomized but fully seed-determined plan of 1–3 faults with
    /// operation indices below `horizon` (pick the operation count of
    /// the workload under test).
    pub fn random(seed: u64, horizon: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0570_FA17_0000_0000);
        let n = rng.random_range(1..=3usize);
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let at = rng.random_range(0..horizon.max(1));
            let kind = match rng.random_range(0..4u32) {
                0 => StorageFaultKind::FailOp,
                1 => StorageFaultKind::ShortWrite,
                2 => StorageFaultKind::SilentSync,
                _ => StorageFaultKind::Crash,
            };
            events.push(StorageFaultEvent { at, kind });
        }
        events.sort_by_key(|e| e.at);
        StorageFaultPlan { events }
    }

    /// Renders the plan in the line format [`StorageFaultPlan::parse`]
    /// reads: one `<op-index> <kind>` per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{} {}\n", e.at, e.kind.name()));
        }
        out
    }

    /// Parses the [`StorageFaultPlan::render`] format (`#` comments and
    /// blank lines ignored).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (ln, raw_line) in text.lines().enumerate() {
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("storage fault plan line {}: {what}: {line:?}", ln + 1);
            let mut tok = line.split_whitespace();
            let at: u64 = tok
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("expected an operation index"))?;
            let kind = match tok.next().ok_or_else(|| err("expected a fault kind"))? {
                "fail" => StorageFaultKind::FailOp,
                "short-write" => StorageFaultKind::ShortWrite,
                "silent-sync" => StorageFaultKind::SilentSync,
                "crash" => StorageFaultKind::Crash,
                other => return Err(err(&format!("unknown fault kind {other:?}"))),
            };
            if tok.next().is_some() {
                return Err(err("trailing tokens"));
            }
            events.push(StorageFaultEvent { at, kind });
        }
        events.sort_by_key(|e| e.at);
        Ok(StorageFaultPlan { events })
    }
}

/// Wraps a [`DurableBackend`], replaying a [`StorageFaultPlan`] over
/// its operation sequence. Operations are counted in call order across
/// all threads (an atomic counter), so a plan names injection points
/// the way the sample injector names sample indices.
#[derive(Debug)]
pub struct FaultedBackend {
    inner: Arc<dyn DurableBackend>,
    events: Vec<StorageFaultEvent>,
    op: AtomicU64,
    /// Applies power-loss semantics for [`StorageFaultKind::Crash`].
    mem: Option<Arc<tsm_db::MemBackend>>,
}

impl FaultedBackend {
    /// Wraps `inner` with `plan`. [`StorageFaultKind::Crash`] events
    /// degrade to [`StorageFaultKind::FailOp`] — use
    /// [`FaultedBackend::with_mem`] for true power-loss simulation.
    pub fn new(inner: Arc<dyn DurableBackend>, plan: &StorageFaultPlan) -> Self {
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.at);
        FaultedBackend {
            inner,
            events,
            op: AtomicU64::new(0),
            mem: None,
        }
    }

    /// Wraps a [`tsm_db::MemBackend`] with full crash semantics:
    /// [`StorageFaultKind::Crash`] truncates to the synced state
    /// exactly as power loss would.
    pub fn with_mem(mem: Arc<tsm_db::MemBackend>, plan: &StorageFaultPlan) -> Self {
        let mut this = FaultedBackend::new(mem.clone(), plan);
        this.mem = Some(mem);
        this
    }

    /// Operations observed so far.
    pub fn ops_seen(&self) -> u64 {
        // monotone op counter; readers only need an eventual count
        self.op.load(Ordering::Relaxed)
    }

    /// Claims the next operation index and returns the fault scheduled
    /// there, if any.
    fn fault_at_next_op(&self) -> Option<StorageFaultKind> {
        // fetch_add's own atomicity makes claims unique; no payload
        // is published under this counter, so Relaxed suffices
        let ix = self.op.fetch_add(1, Ordering::Relaxed);
        self.events.iter().find(|e| e.at == ix).map(|e| e.kind)
    }

    fn injected(&self, kind: StorageFaultKind, op: &str) -> io::Error {
        if kind == StorageFaultKind::Crash {
            if let Some(mem) = &self.mem {
                mem.crash();
            }
        }
        io::Error::other(format!("injected {} at {op}", kind.name()))
    }
}

impl DurableBackend for FaultedBackend {
    fn list(&self) -> io::Result<Vec<String>> {
        match self.fault_at_next_op() {
            Some(StorageFaultKind::SilentSync) | None => self.inner.list(),
            Some(kind) => Err(self.injected(kind, "list")),
        }
    }

    fn size(&self, name: &str) -> io::Result<Option<u64>> {
        match self.fault_at_next_op() {
            Some(StorageFaultKind::SilentSync) | None => self.inner.size(name),
            Some(kind) => Err(self.injected(kind, "size")),
        }
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        match self.fault_at_next_op() {
            Some(StorageFaultKind::SilentSync) | None => self.inner.read(name),
            Some(kind) => Err(self.injected(kind, "read")),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        match self.fault_at_next_op() {
            None | Some(StorageFaultKind::SilentSync) => self.inner.append(name, bytes),
            Some(StorageFaultKind::ShortWrite) => {
                self.inner.append(name, &bytes[..bytes.len() / 2])?;
                Err(self.injected(StorageFaultKind::ShortWrite, "append"))
            }
            Some(kind) => Err(self.injected(kind, "append")),
        }
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> io::Result<()> {
        match self.fault_at_next_op() {
            None | Some(StorageFaultKind::SilentSync) => self.inner.write_at(name, offset, bytes),
            Some(StorageFaultKind::ShortWrite) => {
                self.inner
                    .write_at(name, offset, &bytes[..bytes.len() / 2])?;
                Err(self.injected(StorageFaultKind::ShortWrite, "write_at"))
            }
            Some(kind) => Err(self.injected(kind, "write_at")),
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        match self.fault_at_next_op() {
            None => self.inner.sync(name),
            Some(StorageFaultKind::SilentSync) => Ok(()),
            Some(kind) => Err(self.injected(kind, "sync")),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        match self.fault_at_next_op() {
            Some(StorageFaultKind::SilentSync) | None => self.inner.truncate(name, len),
            Some(kind) => Err(self.injected(kind, "truncate")),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        match self.fault_at_next_op() {
            Some(StorageFaultKind::SilentSync) | None => self.inner.rename(from, to),
            Some(kind) => Err(self.injected(kind, "rename")),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match self.fault_at_next_op() {
            Some(StorageFaultKind::SilentSync) | None => self.inner.remove(name),
            Some(kind) => Err(self.injected(kind, "remove")),
        }
    }

    fn sync_root(&self) -> io::Result<()> {
        match self.fault_at_next_op() {
            None => self.inner.sync_root(),
            Some(StorageFaultKind::SilentSync) => Ok(()),
            Some(kind) => Err(self.injected(kind, "sync_root")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_db::MemBackend;

    #[test]
    fn empty_plan_is_exact_passthrough() {
        let mem = Arc::new(MemBackend::new());
        let faulted = FaultedBackend::with_mem(mem.clone(), &StorageFaultPlan::empty());
        faulted.append("a", b"hello").unwrap();
        faulted.sync("a").unwrap();
        faulted.sync_root().unwrap();
        assert_eq!(faulted.read("a").unwrap(), b"hello");
        assert_eq!(faulted.ops_seen(), 4);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = StorageFaultPlan::random(42, 100);
        let b = StorageFaultPlan::random(42, 100);
        let c = StorageFaultPlan::random(43, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((1..=3).contains(&a.events.len()));
        assert!(a.events.iter().all(|e| e.at < 100));
    }

    #[test]
    fn render_parse_roundtrip() {
        let plan = StorageFaultPlan::random(7, 50);
        assert_eq!(StorageFaultPlan::parse(&plan.render()).unwrap(), plan);
        assert!(StorageFaultPlan::parse("3 wobble").is_err());
        assert!(StorageFaultPlan::parse("# c\n\n3 crash\n").is_ok());
    }

    #[test]
    fn fail_op_fires_at_exact_index() {
        let mem = Arc::new(MemBackend::new());
        let plan = StorageFaultPlan::empty().with(1, StorageFaultKind::FailOp);
        let faulted = FaultedBackend::with_mem(mem, &plan);
        faulted.append("a", b"x").unwrap(); // op 0
        assert!(faulted.sync("a").is_err()); // op 1: injected
        faulted.sync("a").unwrap(); // op 2: clean again
    }

    #[test]
    fn short_write_leaves_half_the_bytes() {
        let mem = Arc::new(MemBackend::new());
        let plan = StorageFaultPlan::empty().with(0, StorageFaultKind::ShortWrite);
        let faulted = FaultedBackend::with_mem(mem.clone(), &plan);
        assert!(faulted.append("a", b"0123456789").is_err());
        assert_eq!(mem.read("a").unwrap(), b"01234");
    }

    #[test]
    fn short_write_at_overwrites_half_the_bytes() {
        let mem = Arc::new(MemBackend::new());
        mem.append("a", &[0u8; 12]).unwrap();
        let plan = StorageFaultPlan::empty()
            .with(0, StorageFaultKind::ShortWrite)
            .with(1, StorageFaultKind::FailOp);
        let faulted = FaultedBackend::with_mem(mem.clone(), &plan);
        assert!(faulted.write_at("a", 2, b"abcdef").is_err());
        assert_eq!(mem.read("a").unwrap(), b"\0\0abc\0\0\0\0\0\0\0");
        assert!(faulted.write_at("a", 2, b"abcdef").is_err());
        assert_eq!(mem.read("a").unwrap(), b"\0\0abc\0\0\0\0\0\0\0");
        faulted.write_at("a", 2, b"abcdef").unwrap();
        assert_eq!(mem.read("a").unwrap(), b"\0\0abcdef\0\0\0\0");
    }

    #[test]
    fn silent_sync_loses_data_at_crash() {
        let mem = Arc::new(MemBackend::new());
        let plan = StorageFaultPlan::empty().with(1, StorageFaultKind::SilentSync);
        let faulted = FaultedBackend::with_mem(mem.clone(), &plan);
        faulted.append("a", b"doomed").unwrap(); // op 0
        faulted.sync("a").unwrap(); // op 1: reports Ok, persists nothing
        mem.crash();
        assert_eq!(mem.size("a").unwrap(), None);
    }

    #[test]
    fn crash_kind_applies_power_loss() {
        let mem = Arc::new(MemBackend::new());
        let plan = StorageFaultPlan::empty().with(3, StorageFaultKind::Crash);
        let faulted = FaultedBackend::with_mem(mem.clone(), &plan);
        faulted.append("a", b"kept").unwrap(); // op 0
        faulted.sync("a").unwrap(); // op 1
        faulted.sync_root().unwrap(); // op 2
                                      // Op 3: power loss before the append lands — the synced prefix
                                      // survives, the new bytes never existed.
        assert!(faulted.append("a", b" lost").is_err());
        assert_eq!(mem.read("a").unwrap(), b"kept");
        // Power loss during an overwrite undoes the unsynced one before
        // it too.
        let plan = StorageFaultPlan::empty().with(1, StorageFaultKind::Crash);
        let faulted = FaultedBackend::with_mem(mem.clone(), &plan);
        faulted.write_at("a", 0, b"K").unwrap(); // op 0
        assert!(faulted.write_at("a", 1, b"E").is_err()); // op 1: crash
        assert_eq!(mem.read("a").unwrap(), b"kept");
    }
}
