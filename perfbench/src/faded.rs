//! The `faded-mixed` workload: an in-process [`Faded`] daemon on a unix
//! socket inside the working directory, two worker threads, and two
//! client connections that each send back-to-back sessions cycling
//! [`fade_service::LOAD_POINTS`] (a closed loop: a client sends its next
//! trace once the previous verdict is in). Every reply stream must be
//! byte-identical to an in-process [`serve_session`] of the same HELLO
//! and bytes.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fade_service::protocol::{
    read_frame, write_frame, EndSummary, FRAME_END, FRAME_FINISH, FRAME_HELLO, FRAME_REPORT,
    FRAME_TRACE,
};
use fade_service::{
    serve_session, EngineSel, Faded, Hello, ServerConfig, LOAD_POINTS, TRACE_CHUNK,
};
use fade_system::MonitorRegistry;
use fade_trace::bench;

use crate::layers::{timed_registry, Clock, Span, StartLog};
use crate::probe::probe;
use crate::trace::{mix_seed, record, RecordTimes, Trace};
use crate::{end_to_end, median, quantile, ratio, timed_setups, Layers, Outcome};

/// Tenant traces in the pool (three per load point).
pub const POOL: usize = 12;
/// Monitored events per tenant trace (the service load harness's size).
pub const EVENTS: u64 = 50_000;
/// Client connections, and daemon workers.
pub const CLIENTS: usize = 2;
/// Untimed serving before the timed region.
const WARMUP: Duration = Duration::from_millis(500);
/// Daemon phases of a traced run, traced or not, in an ABBA order so
/// slow drift over the run weighs on both kinds alike.
const PHASES: [bool; 8] = [false, true, true, false, false, true, true, false];

/// One tenant: its HELLO, its trace, and the reply lines an in-process
/// serving of it produces.
pub struct Tenant {
    /// The handshake.
    pub hello: Hello,
    /// The trace.
    pub trace: Trace,
    /// Expected REPORT lines, summary last.
    pub lines: Vec<String>,
}

/// The workload's tenants plus its running daemon.
pub struct Setup {
    /// Tenants, cycled by the clients.
    pub tenants: Vec<Tenant>,
    /// Host time recording took.
    pub times: RecordTimes,
    /// The daemon serving the untraced timed region.
    pub daemon: Option<Faded>,
    /// Its socket path.
    pub socket: PathBuf,
}

static SOCKETS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A fresh socket path under `dir` (relative, so it stays short and
/// inside the working directory).
fn socket_path(dir: &Path) -> PathBuf {
    let n = SOCKETS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("faded-{}-{n}.sock", std::process::id()))
}

/// The reply lines an in-process serving of `hello` over `bytes`
/// produces.
pub fn served_lines(hello: &Hello, bytes: &[u8], registry: &Arc<MonitorRegistry>) -> Vec<String> {
    let mut lines = Vec::new();
    serve_session(
        hello,
        bytes.to_vec(),
        registry,
        fade_system::SystemConfig::fade_single_core(),
        &mut |l| lines.push(l.to_string()),
    )
    .expect("reference serving runs clean");
    lines
}

/// Records the tenants, computes their reference replies and spawns
/// the daemon.
pub fn setup(seed: u64, dir: &Path) -> Setup {
    let mut times = RecordTimes::default();
    let builtin = Arc::new(MonitorRegistry::builtin());
    let tenants = (0..POOL)
        .map(|i| {
            let (bench_name, monitor) = LOAD_POINTS[i % LOAD_POINTS.len()];
            let b = bench::by_name(bench_name).expect("load points name real benchmarks");
            let monitor: &'static str = fade_monitors::monitor_by_name(monitor)
                .expect("load points name builtin monitors")
                .name();
            let trace = record(
                &b,
                monitor,
                mix_seed(seed, 1000 + i as u64),
                EVENTS,
                &mut times,
            );
            let hello = Hello {
                engine: EngineSel::Batched,
                seed: Some(trace.seed),
                ..Hello::new(format!("tenant-{i}"), monitor)
            };
            let lines = served_lines(&hello, &trace.bytes, &builtin);
            Tenant {
                hello,
                trace,
                lines,
            }
        })
        .collect();
    let socket = socket_path(dir);
    let daemon = Faded::spawn(ServerConfig::new(&socket).workers(CLIENTS))
        .expect("the daemon binds its socket");
    Setup {
        tenants,
        times,
        daemon: Some(daemon),
        socket,
    }
}

/// One served session as the client saw it.
#[derive(Clone, Copy, Debug)]
struct Conversation {
    tenant: usize,
    hello_at: Instant,
    finish_at: Instant,
    end_at: Instant,
    events: u64,
    ok: bool,
}

/// Connect, HELLO, TRACE frames, FINISH; then read REPORT lines until
/// END. Returns the lines, the END counters and when FINISH went out.
fn converse(socket: &Path, t: &Tenant) -> std::io::Result<(Vec<String>, EndSummary, Instant)> {
    let mut stream = UnixStream::connect(socket)?;
    write_frame(&mut stream, FRAME_HELLO, &t.hello.encode())?;
    for chunk in t.trace.bytes.chunks(TRACE_CHUNK) {
        write_frame(&mut stream, FRAME_TRACE, chunk)?;
    }
    write_frame(&mut stream, FRAME_FINISH, &[])?;
    stream.flush()?;
    let finish_at = Instant::now();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some((FRAME_REPORT, payload))) => {
                lines.push(String::from_utf8_lossy(&payload).into_owned())
            }
            Ok(Some((FRAME_END, payload))) => {
                let end = EndSummary::decode(&payload)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                return Ok((lines, end, finish_at));
            }
            Ok(Some((kind, payload))) => {
                return Err(std::io::Error::other(format!(
                    "unexpected frame {kind:#04x}: {}",
                    String::from_utf8_lossy(&payload)
                )))
            }
            Ok(None) => return Err(std::io::Error::other("daemon closed before END")),
            Err(e) => return Err(std::io::Error::other(e.to_string())),
        }
    }
}

/// Drives `CLIENTS` closed-loop connections against `socket`, starting
/// new sessions for `run_for`; client `c` starts half the pool ahead of
/// client `c - 1` so concurrent sessions differ in load point.
fn drive(socket: &Path, tenants: &[Tenant], run_for: Duration) -> Vec<Conversation> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = Vec::new();
                    let mut k = c * tenants.len() / CLIENTS;
                    while start.elapsed() < run_for {
                        let j = k % tenants.len();
                        let t = &tenants[j];
                        let hello_at = Instant::now();
                        let reply = converse(socket, t);
                        let end_at = Instant::now();
                        let (ok, events, finish_at) = match reply {
                            Ok((lines, end, finish_at)) => {
                                (lines == t.lines, end.events, finish_at)
                            }
                            Err(_) => (false, 0, end_at),
                        };
                        log.push(Conversation {
                            tenant: j,
                            hello_at,
                            finish_at,
                            end_at,
                            events,
                            ok,
                        });
                        k += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Matches each session start the timed registry stamped to the
/// conversation it belongs to: the one in flight at that instant for
/// the same monitor (earliest FINISH first when two qualify). Returns
/// `(queue wait, run)` in ms per matched conversation.
fn match_starts(convs: &[Conversation], tenants: &[Tenant], starts: &StartLog) -> Vec<(f64, f64)> {
    let mut starts = starts.lock().expect("start log is never poisoned").clone();
    starts.sort_by_key(|(t, _)| *t);
    let mut taken = vec![false; convs.len()];
    let mut out = Vec::new();
    for (at, monitor) in starts {
        let pick = convs
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                !taken[*i]
                    && tenants[c.tenant].trace.monitor == monitor
                    && c.hello_at <= at
                    && at <= c.end_at
            })
            .min_by_key(|(_, c)| c.finish_at)
            .map(|(i, _)| i);
        if let Some(i) = pick {
            taken[i] = true;
            let c = &convs[i];
            let wait = at.saturating_duration_since(c.finish_at).as_secs_f64() * 1e3;
            let run = c.end_at.saturating_duration_since(at).as_secs_f64() * 1e3;
            out.push((wait, run));
        }
    }
    out
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Runs the workload: set-up timed `setups` times, then the closed loop
/// for `seconds`. A traced run alternates daemons with a timed and a
/// builtin registry and reports per-layer metrics.
pub fn workload(seed: u64, seconds: f64, trace_mode: bool, setups: usize, dir: &Path) -> Outcome {
    let (mut s, setup_s) = timed_setups(setups, || setup(seed, dir));
    let mut out = Outcome::default();
    let count = |out: &mut Outcome, convs: &[Conversation]| {
        out.attempted += convs.len() as u64;
        out.failed += convs.iter().filter(|c| !c.ok).count() as u64;
    };
    if !trace_mode {
        // Untimed warm-up on the same daemon: host allocations settle.
        let warm = drive(&s.socket, &s.tenants, WARMUP);
        count(&mut out, &warm);
        let start = Instant::now();
        let convs = drive(&s.socket, &s.tenants, Duration::from_secs_f64(seconds));
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(d) = s.daemon.take() {
            d.shutdown();
        }
        count(&mut out, &convs);
        let events = convs.iter().map(|c| c.events).sum();
        let lat: Vec<f64> = convs.iter().map(|c| ms(c.hello_at, c.end_at)).collect();
        end_to_end(&mut out, setup_s, events, wall_s, &lat);
        return out;
    }

    if let Some(d) = s.daemon.take() {
        d.shutdown();
    }
    let phase = Duration::from_secs_f64(seconds / PHASES.len() as f64);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut waits = Vec::new();
    let mut handlers = Span::default();
    for is_traced in PHASES {
        let socket = socket_path(dir);
        let mut cfg = ServerConfig::new(&socket).workers(CLIENTS);
        let clock = Clock::shared();
        let mut starts = None;
        if is_traced {
            let (registry, log) = timed_registry(&clock);
            cfg = cfg.registry(Arc::new(registry));
            starts = Some(log);
        }
        let daemon = Faded::spawn(cfg).expect("the daemon binds its socket");
        let convs = drive(&socket, &s.tenants, phase);
        daemon.shutdown();
        count(&mut out, &convs);
        match starts {
            Some(log) => {
                handlers += clock.take();
                waits.extend(match_starts(&convs, &s.tenants, &log));
                traced.extend(convs);
            }
            None => untraced.extend(convs),
        }
    }

    let traces: Vec<Trace> = s.tenants.iter().map(|t| t.trace.clone()).collect();
    let mut l = Layers::default();
    let pr = probe(&traces, None);
    pr.fill(&mut l);
    let wall = |c: &Conversation| ms(c.hello_at, c.end_at);
    let traced_ms: Vec<f64> = traced.iter().map(wall).collect();
    let untraced_ms: Vec<f64> = untraced.iter().map(wall).collect();
    let traced_total_ms: f64 = traced_ms.iter().sum();
    let intake: Vec<f64> = traced.iter().map(|c| ms(c.hello_at, c.finish_at)).collect();
    let wait_ms: Vec<f64> = waits.iter().map(|w| w.0).collect();
    let run_ms: Vec<f64> = waits.iter().map(|w| w.1).collect();
    // Decode runs inside the daemon, out of reach of a wrapper: charge
    // each traced session its records at the standalone decode rate.
    let traced_records: f64 = traced
        .iter()
        .map(|c| s.tenants[c.tenant].trace.records as f64)
        .sum();
    let decode_ms = traced_records * l.decode_ns_per_record * 1e-6;
    // Window time likewise: the standalone with/without-window delta,
    // as a share of the sessions' run time.
    let window_ms = l.window_share * run_ms.iter().sum::<f64>();
    l.decode_share = ratio(decode_ms, traced_total_ms);
    l.window_share = ratio(window_ms, traced_total_ms);
    l.generate_ns_per_record = ratio(s.times.generate.ns as f64, s.times.generate.units as f64);
    l.record_s = s.times.encode_s;
    l.handler_calls = ratio(handlers.calls as f64, traced.len() as f64);
    l.handler_ns_per_call = ratio(handlers.ns as f64, handlers.calls as f64);
    l.handler_share = ratio(handlers.ns as f64 * 1e-6, traced_total_ms);
    l.intake_ms_p50 = median(&intake);
    l.queue_wait_ms_p50 = median(&wait_ms);
    l.queue_wait_ms_p90 = quantile(&wait_ms, 0.9);
    l.run_ms_p50 = median(&run_ms);
    l.intake_share = ratio(intake.iter().sum(), traced_total_ms);
    l.queue_wait_share = ratio(wait_ms.iter().sum(), traced_total_ms);
    l.unattributed_share = 1.0
        - l.intake_share
        - l.queue_wait_share
        - l.decode_share
        - l.handler_share
        - l.window_share;
    l.trace_overhead = ratio(median(&traced_ms), median(&untraced_ms)) - 1.0;
    l.render(&mut out);
    out
}
