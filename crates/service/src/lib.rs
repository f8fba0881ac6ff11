//! `faded` — a multi-tenant monitoring service over streamed `.fadet`
//! sessions.
//!
//! The FADE pipeline so far runs monitoring sessions *in process*:
//! build a [`fade_system::Session`], feed it a trace, read the report.
//! This crate turns that into a *service*: a daemon ([`Faded`]) that
//! accepts framed session requests over a unix-domain socket, runs
//! each tenant's session on a shared work-stealing worker pool, and
//! streams back violation reports and a timing summary as JSON lines.
//!
//! The pieces:
//!
//! * [`protocol`] — the wire format: length-prefixed frames, the HELLO
//!   handshake (tenant id, monitor, engine, `SystemConfig` knobs), the
//!   END counters. Specified in `docs/PROTOCOL.md`.
//! * `server` — the daemon. One framing thread per connection, one
//!   [`fade_system::WorkerPool`] job per session;
//!   [`serve_session`] is the (public, testable) serving procedure.
//! * [`report`] — the JSON report lines, built on the shared
//!   [`fade_report`] writer.
//! * `client` — [`stream_session`], the client-side conversation.
//! * [`harness`] — [`measure_service_throughput`]: N concurrent
//!   tenants, aggregate Mev/s and p50/p99 report latency.
//!
//! Per-tenant isolation is the design invariant: a corrupt stream, an
//! over-budget shadow map, or a panicking monitor degrades *that
//! tenant's connection* to a typed error reply — the daemon and every
//! other tenant keep serving.
//!
//! ```no_run
//! use fade_service::{Faded, Hello, ServerConfig, stream_session};
//!
//! let daemon = Faded::spawn(ServerConfig::new("/tmp/faded.sock"))?;
//! let trace: Vec<u8> = std::fs::read("gcc.fadet")?;
//! let end = stream_session(
//!     daemon.socket(),
//!     &Hello::new("tenant-0", "MemLeak"),
//!     &trace,
//!     |line| println!("{line}"),
//! ).unwrap();
//! println!("monitored {} events", end.events);
//! daemon.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

mod client;
pub mod harness;
pub mod protocol;
pub mod report;
mod server;

pub use client::{stream_session, ClientError, TRACE_CHUNK};
pub use harness::{
    measure_service_throughput, measure_service_throughput_at, temp_socket_path, LoadOptions,
    LOAD_POINTS,
};
pub use protocol::{EndSummary, EngineSel, Hello};
pub use server::{
    engine_name, send_shutdown, serve_session, Faded, ServerConfig, TenantError, SERVE_SLICE,
};
