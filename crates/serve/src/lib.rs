//! # tsm-serve
//!
//! A std-only HTTP/1.1 front-end over the subsequence-matching engine:
//! the network boundary for the paper's online loop. No async runtime,
//! no HTTP crate — a hand-rolled listener ([`server`]) whose small
//! worker pool accepts on one `TcpListener`, a minimal protocol reader
//! ([`http`]) with hard head/body caps and socket read timeouts, and a
//! session table ([`sessions`]) of externally-driven
//! [`tsm_core::SessionRuntime`]s, each behind its own lock. The worker
//! that accepts a connection reads its request and runs the session work
//! inline; no session has a thread of its own.
//!
//! ## Endpoints
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /ingest/{session}` | Stream `time,x[,y[,z]]` sample lines into a session (creates it on first use). Body may be `Content-Length` or chunked. Returns `202` once the batch is pushed, or `200` with its `wal_seq` once it is fsynced when the server has a WAL. |
//! | `GET /query?session=S[&k=K]` | Top-k matches for the session's current dynamic query. |
//! | `GET /predict?session=S[&dt=T]` | Predicted position `dt` seconds ahead (abstains with `"prediction": null`). |
//! | `GET /metrics[?check=1]` | The engine's [`tsm_core::MetricsSnapshot`] as JSON; `check=1` runs `check_invariants` first (500 on violation). |
//! | `GET /healthz` | Per-session [`tsm_core::SessionHealth`] and fault tallies. |
//!
//! ## Backpressure
//!
//! With every worker busy, a new connection waits in the kernel's
//! accept queue (the listen backlog) until a worker takes it; the server
//! itself holds no connection it is not serving. Once a worker has read
//! a request, every queue the request can join is bounded, and a full
//! one sheds instead of blocking:
//!
//! * `--ingest-queue` requests already waiting for a busy session →
//!   `429` + `Retry-After`;
//! * session fault budget exhausted → `503` + `Retry-After` (the session
//!   stops ingesting; queries still work);
//! * a session whose lock a panicked request poisoned → `503` +
//!   `Retry-After`;
//! * session table at `--sessions-max` → `503` + `Retry-After`;
//! * request head/body over the caps → `413`; idle mid-request past the
//!   read timeout → `408`; malformed requests → `400`.

pub mod http;
pub mod server;
pub mod sessions;

pub use server::{ServeConfig, Server};
pub use sessions::{SessionError, SessionManager};
