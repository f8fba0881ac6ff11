//! The `faded` daemon: a unix-domain-socket server multiplexing many
//! concurrent tenant monitoring sessions over a fixed worker pool.
//!
//! # Architecture
//!
//! One *accept* thread owns the listener. Each accepted connection
//! gets a lightweight *framing* thread that speaks the protocol
//! (HELLO, then streamed TRACE bytes, then FINISH) and buffers the
//! tenant's `.fadet` bytes — bounded by
//! [`ServerConfig::max_trace_bytes`], the backpressure rule of
//! `docs/PROTOCOL.md`. At FINISH the buffered trace becomes one job on
//! the shared [`WorkerPool`] (the work-stealing core extracted from
//! `fade_bench::ExperimentMatrix`): the job builds a completely
//! ordinary [`Session`] over the bytes, runs it to exhaustion, and
//! streams violation lines, a summary line, and an END frame back.
//!
//! Store-and-forward (rather than decoding mid-stream) is a deliberate
//! choice: the bytes become a [`SourceSpec::TraceBytes`] source, which
//! the session builder opens with the *same* routine it opens a
//! `.fadet` file with — header, benchmark lookup and recovery
//! accounting included — so per-tenant results are bit-exact with a
//! local [`Session`] by construction, and a slow client can never pin
//! one of the pool's workers.
//!
//! Session work runs on at most [`ServerConfig::workers`] pool threads
//! plus `available_parallelism() − 1` read-ahead helpers: a session
//! that finds a process-wide read-ahead lease free decodes its trace on
//! a helper while its worker runs the engine (see
//! [`fade_system::SessionBuilder::build`]).
//!
//! # Isolation
//!
//! Every per-tenant failure — corrupt header, unknown monitor or
//! benchmark, shadow-budget overrun, a *panicking monitor* — converts
//! to one typed [`FRAME_ERROR`] reply on that tenant's connection and
//! nothing else: the session catches monitor panics
//! ([`fade_system::SessionRunError::MonitorPanicked`]), the pool's
//! job guard catches everything the session does not, and the daemon,
//! its workers, and every other tenant keep serving.

use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fade_system::{
    baseline_cycles, MonitorRegistry, Session, SessionError, SessionRunError, SourceSpec,
    SystemConfig, WorkerPool,
};

use crate::protocol::{
    read_frame, write_frame, EndSummary, EngineSel, Hello, ProtocolError,
    DEFAULT_MAX_TRACE_BYTES, FRAME_END, FRAME_ERROR, FRAME_FINISH, FRAME_HELLO, FRAME_REPORT,
    FRAME_SHUTDOWN, FRAME_TRACE,
};
use crate::report;

/// Application-instruction granularity the serving loop steps a
/// session at. Part of the serving contract: an in-process session
/// stepped at the same granularity (then drained and finished) is
/// bit-exact with the daemon — the integration suite drives exactly
/// this loop.
pub const SERVE_SLICE: u64 = 65_536;

/// Everything a [`Faded`] daemon is configured with.
pub struct ServerConfig {
    /// Path the unix-domain socket binds at (replaced if present,
    /// removed again on clean shutdown).
    pub(crate) socket: PathBuf,
    /// Worker threads in the session pool.
    pub workers: usize,
    /// Per-tenant cap on buffered `.fadet` bytes; a stream exceeding
    /// it gets a `trace_too_large` error reply.
    pub(crate) max_trace_bytes: usize,
    /// Monitor registry sessions resolve names in (the builtin five
    /// by default; hosts may register out-of-tree monitors).
    pub(crate) registry: Arc<MonitorRegistry>,
    /// Base system configuration tenants' HELLO knobs overlay.
    pub(crate) base_config: SystemConfig,
}

impl ServerConfig {
    /// A config with the given socket path and defaults everywhere
    /// else: one worker per available core, the builtin registry,
    /// [`SystemConfig::fade_single_core`].
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            max_trace_bytes: DEFAULT_MAX_TRACE_BYTES,
            registry: Arc::new(MonitorRegistry::builtin()),
            base_config: SystemConfig::fade_single_core(),
        }
    }

    /// Replaces the worker count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the monitor registry.
    pub fn registry(mut self, registry: Arc<MonitorRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Replaces the per-tenant trace byte cap.
    pub fn max_trace_bytes(mut self, bytes: usize) -> Self {
        self.max_trace_bytes = bytes;
        self
    }
}

/// A running `faded` daemon. Dropping the handle (or calling
/// [`Faded::shutdown`]) stops intake, drains every in-flight session,
/// joins the workers, and removes the socket file.
pub struct Faded {
    socket: PathBuf,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Faded {
    /// Binds the socket and starts serving on background threads.
    /// A stale socket file at the path is replaced.
    pub fn spawn(cfg: ServerConfig) -> io::Result<Faded> {
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let socket = cfg.socket.clone();
        let flag = Arc::clone(&shutdown);
        let accept = std::thread::spawn(move || accept_loop(listener, cfg, flag));
        Ok(Faded {
            socket,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Blocks until the daemon shuts down (a client sent
    /// `FRAME_SHUTDOWN`, or another thread dropped the handle's
    /// clone of the shutdown flag — in practice: the `faded` binary
    /// parks here).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Requests shutdown and blocks until every accepted connection
    /// and queued session has drained and the socket file is removed.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = UnixStream::connect(&self.socket);
    }
}

impl Drop for Faded {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.request_shutdown();
            let _ = h.join();
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    pool: WorkerPool,
    registry: Arc<MonitorRegistry>,
    base_config: SystemConfig,
    max_trace_bytes: usize,
    shutdown: Arc<AtomicBool>,
    socket: PathBuf,
}

impl Shared {
    /// Flags shutdown and wakes the accept loop.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.socket);
    }
}

fn accept_loop(listener: UnixListener, cfg: ServerConfig, shutdown: Arc<AtomicBool>) {
    let shared = Arc::new(Shared {
        pool: WorkerPool::new(cfg.workers),
        registry: cfg.registry,
        base_config: cfg.base_config,
        max_trace_bytes: cfg.max_trace_bytes,
        shutdown,
        socket: cfg.socket.clone(),
    });
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        conns.retain(|h| !h.is_finished());
        conns.push(std::thread::spawn(move || handle_connection(stream, &shared)));
    }
    // Graceful drain: no new connections; every accepted conversation
    // finishes framing, every queued session runs to its END frame.
    for h in conns {
        let _ = h.join();
    }
    shared.pool.wait_idle();
    let _ = std::fs::remove_file(&cfg.socket);
}

/// Sends a typed error reply, ignoring transport failures (the client
/// may already be gone; the error is for *it*, not for us).
fn send_error(stream: &UnixStream, kind: &str, detail: &str) {
    let line = report::error_line(kind, detail);
    let mut w = stream;
    let _ = write_frame(&mut w, FRAME_ERROR, line.as_bytes());
    let _ = w.flush();
}

/// The framing half of one connection: speak
/// `HELLO (TRACE)* FINISH`, then hand the buffered bytes to the pool.
fn handle_connection(stream: UnixStream, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);

    // First frame: HELLO (or an admin SHUTDOWN).
    let hello = match read_frame(&mut reader) {
        Ok(Some((FRAME_HELLO, payload))) => match Hello::decode(&payload) {
            Ok(h) => h,
            Err(e) => return send_error(&stream, "protocol", &e.to_string()),
        },
        Ok(Some((FRAME_SHUTDOWN, _))) => return shared.request_shutdown(),
        Ok(Some((kind, _))) => {
            let e = ProtocolError::UnexpectedFrame {
                got: kind,
                expected: "HELLO",
            };
            return send_error(&stream, "protocol", &e.to_string());
        }
        Ok(None) => return,
        Err(e) => return send_error(&stream, "protocol", &e.to_string()),
    };

    // Trace intake, bounded by the backpressure cap.
    let mut trace: Vec<u8> = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some((FRAME_TRACE, payload))) => {
                if trace.len() + payload.len() > shared.max_trace_bytes {
                    return send_error(
                        &stream,
                        "trace_too_large",
                        &format!(
                            "buffered trace exceeds the per-tenant cap of {} bytes",
                            shared.max_trace_bytes
                        ),
                    );
                }
                trace.extend_from_slice(&payload);
            }
            Ok(Some((FRAME_FINISH, _))) => break,
            Ok(Some((FRAME_SHUTDOWN, _))) => return shared.request_shutdown(),
            Ok(Some((kind, _))) => {
                let e = ProtocolError::UnexpectedFrame {
                    got: kind,
                    expected: "TRACE or FINISH",
                };
                return send_error(&stream, "protocol", &e.to_string());
            }
            // Client vanished before FINISH: nothing to run.
            Ok(None) => return,
            Err(e) => return send_error(&stream, "protocol", &e.to_string()),
        }
    }

    // The session is pool work from here; this framing thread is done.
    // (The pool's job guard is the backstop — `serve_session` already
    // returns every expected failure as a typed error.)
    let job_shared = Arc::clone(shared);
    shared
        .pool
        .submit(move || run_tenant(&hello, trace, stream, &job_shared));
}

/// Pool job: run one tenant's session and stream its replies.
fn run_tenant(hello: &Hello, trace: Vec<u8>, stream: UnixStream, shared: &Shared) {
    let mut out = BufWriter::new(stream);
    // A dead client must not abort the session (its fate is its own);
    // once a write fails we stop writing but keep the session's
    // accounting intact.
    let mut broken = false;
    let mut reports = 0u32;
    let outcome = serve_session(
        hello,
        trace,
        &shared.registry,
        shared.base_config,
        &mut |line| {
            if !broken {
                broken = write_frame(&mut out, FRAME_REPORT, line.as_bytes()).is_err();
                reports += 1;
            }
        },
    );
    match outcome {
        Ok(mut end) => {
            end.reports = reports;
            let _ = write_frame(&mut out, FRAME_END, &end.encode());
        }
        Err(e) => {
            let _ = write_frame(&mut out, FRAME_ERROR, report::error_line(e.kind(), &e.to_string()).as_bytes());
        }
    }
    let _ = out.flush();
}

/// Why one tenant's session failed. Maps to the `error` field of the
/// ERROR reply (see `TenantError::kind`).
#[derive(Debug)]
pub enum TenantError {
    /// The session failed to build: unreadable `.fadet` bytes (a corrupt
    /// header is unrecoverable even in recovery mode), an unknown
    /// benchmark in its header, an unknown monitor, an invalid program.
    Build(SessionError),
    /// The session failed mid-run: monitor panic, source failure, or
    /// shadow-budget overrun.
    Run(SessionRunError),
}

impl TenantError {
    /// The stable machine-matchable error tag of the ERROR reply.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TenantError::Build(SessionError::Trace(_)) => "trace",
            TenantError::Build(SessionError::UnknownBench(_)) => "unknown_benchmark",
            TenantError::Build(_) => "build",
            TenantError::Run(SessionRunError::MonitorPanicked { .. }) => "monitor_panicked",
            TenantError::Run(SessionRunError::Source(_)) => "source",
            TenantError::Run(SessionRunError::ShadowBudget(_)) => "shadow_budget",
        }
    }
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::Build(e) => write!(f, "session build failed: {e}"),
            TenantError::Run(e) => write!(f, "session run failed: {e}"),
        }
    }
}

impl std::error::Error for TenantError {}

/// Runs one tenant session over buffered `.fadet` bytes, emitting the
/// JSON-lines report stream through `emit` — violation lines as the
/// session produces them, one summary line last.
///
/// This is *the* serving procedure (the daemon calls exactly this),
/// written against the public [`Session`] API so its equivalence with
/// an in-process session is structural: build over the bytes as a
/// [`SourceSpec::TraceBytes`] source (recovering when the HELLO asked —
/// the builder opens it exactly as it opens a `.fadet` file), step
/// [`SERVE_SLICE`] instructions at a time, drain, and finish against
/// [`baseline_cycles`].
pub fn serve_session(
    hello: &Hello,
    trace: Vec<u8>,
    registry: &Arc<MonitorRegistry>,
    base_config: SystemConfig,
    emit: &mut dyn FnMut(&str),
) -> Result<EndSummary, TenantError> {
    let cfg = hello.config(base_config);
    let mut builder = Session::builder()
        .registry(Arc::clone(registry))
        .monitor(hello.monitor.as_str())
        .source(SourceSpec::TraceBytes(trace))
        .engine(hello.engine.engine())
        .config(cfg);
    if hello.recover {
        builder = builder.recover_faults();
    }
    let mut session = builder.build().map_err(TenantError::Build)?;
    session.start_measure();

    let mut streamed = 0usize;
    let mut seq = 0u32;
    loop {
        session.run(SERVE_SLICE).map_err(TenantError::Run)?;
        for text in session.monitor().reports().iter().skip(streamed) {
            emit(&report::violation_line(&hello.tenant, seq, text));
            seq += 1;
            streamed += 1;
        }
        if session.source_exhausted() {
            break;
        }
    }
    // Everything still in flight gets handled, whatever the engine —
    // a served trace is monitored to its last event.
    session.drain().map_err(TenantError::Run)?;

    let instrs = session.instrs();
    let events = session.events_seen();
    let usage = session.shadow_bytes_in_use();
    let baseline = baseline_cycles(session.bench(), cfg.core, cfg.seed, 0, instrs);
    let run_report = session.finish(baseline).map_err(TenantError::Run)?;
    for text in run_report.violations.iter().skip(streamed) {
        emit(&report::violation_line(&hello.tenant, seq, text));
        seq += 1;
    }
    emit(&report::summary_line(
        &hello.tenant,
        engine_name(hello.engine),
        &run_report,
        usage,
    ));
    seq += 1;
    Ok(EndSummary {
        events,
        instrs,
        reports: seq,
    })
}

/// The engine's wire name in summary lines.
pub fn engine_name(engine: EngineSel) -> &'static str {
    match engine {
        EngineSel::Cycle => "cycle",
        EngineSel::Batched => "batched",
        EngineSel::Unaccelerated => "unaccelerated",
    }
}

/// Connects to a `faded` socket and requests shutdown.
pub fn send_shutdown(socket: &Path) -> io::Result<()> {
    let mut stream = UnixStream::connect(socket)?;
    write_frame(&mut stream, FRAME_SHUTDOWN, &[])
}
