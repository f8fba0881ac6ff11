//! End-to-end acceptance suite for the `faded` daemon.
//!
//! The contract under test: a tenant streaming a `.fadet` buffer to
//! the daemon receives *byte-for-byte* the report lines an in-process
//! [`Session`] produces for the same bytes — with the in-process side
//! driven here through the public `fade_system` API only (the same
//! `SERVE_SLICE` step / drain / `baseline_cycles` / finish procedure
//! `docs/PROTOCOL.md` documents), so the equality is a real check of
//! the daemon, not a tautology. On top of that: per-connection fault
//! isolation (corrupt streams, shadow-budget overruns, panicking
//! monitors), protocol-error replies, and clean shutdown.

use std::io::Cursor;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use fade::FadeProgram;
use fade_service::protocol::{
    read_frame, write_frame, Hello, FRAME_ERROR, FRAME_FINISH, FRAME_HELLO, FRAME_TRACE,
};
use fade_service::{
    engine_name, measure_service_throughput_at, report, send_shutdown, stream_session,
    temp_socket_path, ClientError, EndSummary, EngineSel, Faded, LoadOptions, ServerConfig,
    SERVE_SLICE,
};
use fade_system::{
    baseline_cycles, record_trace_prefix, MonitorRegistry, Session, SystemConfig,
};
use fade_trace::faultinject::{FaultKind, FaultPlan};
use fade_trace::{bench, encode_trace, TraceMeta, TraceReader};

/// Records a synthetic trace and freezes it to `.fadet` bytes.
fn make_trace(bench_name: &str, monitor: &str, seed: u64, events: u64) -> Vec<u8> {
    let b = bench::by_name(bench_name).expect("benchmark exists");
    let (records, _instrs) = record_trace_prefix(&b, monitor, seed, events);
    encode_trace(&TraceMeta::new(bench_name, seed), &records)
}

/// What one tenant's session is expected to produce.
struct Expected {
    lines: Vec<String>,
    events: u64,
    instrs: u64,
    degraded: bool,
}

/// The reference serving procedure, written against the public
/// `fade_system` API only: exactly the loop `docs/PROTOCOL.md`
/// documents (step `SERVE_SLICE`, stream new reports, drain, finish
/// against `baseline_cycles`), rendered through the pure
/// `fade_service::report` line builders.
fn expected_serve(hello: &Hello, trace: Vec<u8>, registry: &Arc<MonitorRegistry>) -> Expected {
    let mut reader = TraceReader::new(Cursor::new(trace)).expect("readable trace");
    if hello.recover {
        reader = reader.with_recovery();
    }
    let bench_name = reader.meta().bench.clone();
    let b = bench::by_name(&bench_name).expect("benchmark exists");
    let cfg = hello.config(SystemConfig::fade_single_core());
    let mut session = Session::builder()
        .registry(Arc::clone(registry))
        .monitor(hello.monitor.as_str())
        .trace_source(b.clone(), Box::new(reader))
        .engine(hello.engine.engine())
        .config(cfg)
        .build()
        .expect("session builds");
    session.start_measure();

    let mut lines = Vec::new();
    let mut streamed = 0usize;
    let mut seq = 0u32;
    loop {
        session.run(SERVE_SLICE).expect("slice runs");
        for text in session.monitor().reports().iter().skip(streamed) {
            lines.push(report::violation_line(&hello.tenant, seq, text));
            seq += 1;
            streamed += 1;
        }
        if session.source_exhausted() {
            break;
        }
    }
    session.drain().expect("drain succeeds");

    let instrs = session.instrs();
    let events = session.events_seen();
    let usage = session.shadow_bytes_in_use();
    let baseline = baseline_cycles(&b, cfg.core, cfg.seed, 0, instrs);
    let run_report = session.finish(baseline).expect("finish succeeds");
    for text in run_report.violations.iter().skip(streamed) {
        lines.push(report::violation_line(&hello.tenant, seq, text));
        seq += 1;
    }
    lines.push(report::summary_line(
        &hello.tenant,
        engine_name(hello.engine),
        &run_report,
        usage,
    ));
    Expected {
        lines,
        events,
        instrs,
        degraded: run_report
            .degradation
            .as_ref()
            .is_some_and(|d| d.chunks_skipped > 0),
    }
}

/// Flips one bit in the record payload region (past the header, before
/// the trailer) so recovery has a mid-stream corrupt chunk to skip.
fn corrupt(mut bytes: Vec<u8>) -> Vec<u8> {
    let offset = bytes.len() / 2;
    let plan = FaultPlan {
        kind: FaultKind::BitFlip,
        offset: offset as u64,
        bit: 3,
        max_read: 0,
    };
    bytes = plan.apply(&bytes);
    bytes
}

/// The tentpole acceptance test: eight concurrent tenants with mixed
/// benchmarks, monitors, and engines — two of them streaming
/// fault-injected traces in recovery mode — each receiving the exact
/// line stream and END counters of its in-process reference session.
#[test]
fn eight_concurrent_tenants_are_bit_exact_with_in_process_sessions() {
    // (bench, monitor, engine, seed, events, corrupt?)
    let plan: Vec<(&str, &str, EngineSel, u64, u64, bool)> = vec![
        ("hmmer", "AddrCheck", EngineSel::Batched, 11, 40_000, false),
        ("gcc", "MemLeak", EngineSel::Batched, 12, 40_000, true),
        ("mcf", "MemCheck", EngineSel::Cycle, 13, 15_000, false),
        ("hmmer", "AtomCheck", EngineSel::Unaccelerated, 14, 20_000, false),
        ("gcc", "MemCheck", EngineSel::Batched, 15, 40_000, false),
        ("mcf", "AddrCheck", EngineSel::Batched, 16, 40_000, true),
        ("hmmer", "MemLeak", EngineSel::Batched, 17, 40_000, false),
        ("gcc", "AddrCheck", EngineSel::Cycle, 18, 15_000, false),
    ];
    let registry = Arc::new(MonitorRegistry::builtin());

    let tenants: Vec<(Hello, Vec<u8>)> = plan
        .iter()
        .enumerate()
        .map(|(i, &(bench_name, monitor, engine, seed, events, corrupt_it))| {
            let mut bytes = make_trace(bench_name, monitor, seed, events);
            if corrupt_it {
                bytes = corrupt(bytes);
            }
            let hello = Hello {
                engine,
                recover: corrupt_it,
                seed: Some(seed),
                ..Hello::new(format!("tenant-{i}"), monitor)
            };
            (hello, bytes)
        })
        .collect();

    let expected: Vec<Expected> = tenants
        .iter()
        .map(|(hello, bytes)| expected_serve(hello, bytes.clone(), &registry))
        .collect();
    // The corrupted streams must actually exercise recovery, or the
    // "fault-injected tenants degrade bit-exactly" claim is vacuous.
    for (i, (_, _, _, _, _, corrupt_it)) in plan.iter().enumerate() {
        assert_eq!(
            expected[i].degraded, *corrupt_it,
            "tenant {i}: degradation iff fault-injected"
        );
    }

    let socket = temp_socket_path("bitexact");
    let daemon = Faded::spawn(ServerConfig::new(&socket).workers(4)).expect("daemon spawns");

    let served: Vec<(Vec<String>, EndSummary)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|(hello, bytes)| {
                let socket = &socket;
                scope.spawn(move || {
                    let mut lines = Vec::new();
                    let end = stream_session(socket, hello, bytes, |line| {
                        lines.push(line.to_string())
                    })
                    .expect("served session succeeds");
                    (lines, end)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    daemon.shutdown();

    for (i, ((lines, end), exp)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(
            lines, &exp.lines,
            "tenant {i}: served line stream must be bit-exact with the in-process session"
        );
        assert_eq!(end.events, exp.events, "tenant {i}: END event count");
        assert_eq!(end.instrs, exp.instrs, "tenant {i}: END instr count");
        assert_eq!(
            end.reports as usize,
            exp.lines.len(),
            "tenant {i}: END report count"
        );
    }
}

/// An AddrCheck that panics on its first selection decision — the
/// fixture for monitor-panic isolation (mirrors the `ExperimentMatrix`
/// regression fixture, here behind a served connection).
struct PanicMonitor(fade_monitors::AddrCheck);

impl fade_monitors::Monitor for PanicMonitor {
    fn name(&self) -> &'static str {
        "PanicMonitor"
    }
    fn kind(&self) -> fade_monitors::MonitorKind {
        self.0.kind()
    }
    fn selects(&self, _instr: &fade_isa::AppInstr) -> bool {
        panic!("deliberate monitor panic (service isolation test)")
    }
    fn monitors_stack(&self) -> bool {
        self.0.monitors_stack()
    }
    fn program(&self) -> FadeProgram {
        self.0.program()
    }
    fn init_state(&self, state: &mut fade_shadow::MetadataState) {
        self.0.init_state(state)
    }
    fn classify(
        &self,
        ev: &fade_isa::InstrEvent,
        state: &fade_shadow::MetadataState,
    ) -> fade_monitors::EventClass {
        self.0.classify(ev, state)
    }
    fn apply_instr(&mut self, ev: &fade_isa::InstrEvent, state: &mut fade_shadow::MetadataState) {
        self.0.apply_instr(ev, state)
    }
    fn apply_high_level(
        &mut self,
        ev: &fade_isa::HighLevelEvent,
        state: &mut fade_shadow::MetadataState,
    ) {
        self.0.apply_high_level(ev, state)
    }
    fn apply_stack_update(
        &self,
        ev: &fade_isa::StackUpdateEvent,
        state: &mut fade_shadow::MetadataState,
    ) {
        self.0.apply_stack_update(ev, state)
    }
    fn costs(&self) -> fade_monitors::CostModel {
        self.0.costs()
    }
}

/// A panicking monitor produces one `monitor_panicked` ERROR on its
/// own connection; concurrent clean tenants — and tenants connecting
/// *afterwards* — are untouched.
#[test]
fn panicking_monitor_poisons_only_its_own_connection() {
    let mut registry = MonitorRegistry::builtin();
    registry.register(|| Box::new(PanicMonitor(fade_monitors::AddrCheck::new())));
    let socket = temp_socket_path("panic");
    let daemon = Faded::spawn(
        ServerConfig::new(&socket)
            .workers(2)
            .registry(Arc::new(registry)),
    )
    .expect("daemon spawns");

    let clean_a = make_trace("mcf", "AddrCheck", 21, 20_000);
    let poison = make_trace("gcc", "AddrCheck", 22, 20_000);
    let clean_b = make_trace("hmmer", "MemCheck", 23, 20_000);

    let (res_a, res_p, res_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            stream_session(&socket, &Hello::new("clean-a", "AddrCheck"), &clean_a, |_| {})
        });
        let p = scope.spawn(|| {
            stream_session(&socket, &Hello::new("poison", "PanicMonitor"), &poison, |_| {})
        });
        let b = scope.spawn(|| {
            stream_session(&socket, &Hello::new("clean-b", "MemCheck"), &clean_b, |_| {})
        });
        (a.join().unwrap(), p.join().unwrap(), b.join().unwrap())
    });

    assert!(res_a.is_ok(), "clean sibling a: {res_a:?}");
    assert!(res_b.is_ok(), "clean sibling b: {res_b:?}");
    match res_p {
        Err(ClientError::Server(line)) => {
            assert!(line.contains(r#""error": "monitor_panicked""#), "line: {line}");
            assert!(line.contains("deliberate monitor panic"), "line: {line}");
        }
        other => panic!("expected a monitor_panicked server error, got {other:?}"),
    }

    // The daemon (and its worker that caught the panic) keeps serving.
    let after = stream_session(&socket, &Hello::new("after", "AddrCheck"), &clean_a, |_| {});
    assert!(after.is_ok(), "post-panic session: {after:?}");
    daemon.shutdown();
}

/// A tenant whose shadow map overruns its HELLO budget gets a typed
/// `shadow_budget` ERROR; the same trace without the cap still serves.
#[test]
fn shadow_budget_overrun_degrades_only_that_tenant() {
    let socket = temp_socket_path("budget");
    let daemon = Faded::spawn(ServerConfig::new(&socket).workers(2)).expect("daemon spawns");
    let trace = make_trace("gcc", "MemCheck", 31, 40_000);

    let capped = Hello {
        shadow_mem_cap: Some(4096),
        seed: Some(31),
        ..Hello::new("capped", "MemCheck")
    };
    match stream_session(&socket, &capped, &trace, |_| {}) {
        Err(ClientError::Server(line)) => {
            assert!(line.contains(r#""error": "shadow_budget""#), "line: {line}");
        }
        other => panic!("expected a shadow_budget server error, got {other:?}"),
    }

    let uncapped = Hello {
        seed: Some(31),
        ..Hello::new("uncapped", "MemCheck")
    };
    let ok = stream_session(&socket, &uncapped, &trace, |_| {});
    assert!(ok.is_ok(), "uncapped tenant after the overrun: {ok:?}");
    daemon.shutdown();
}

/// Malformed conversations get typed ERROR replies, not hangs or
/// daemon damage: wrong first frame, unsupported version, unreadable
/// trace bytes, unknown monitor, unknown benchmark, oversized trace.
#[test]
fn protocol_and_session_errors_are_typed_replies() {
    let socket = temp_socket_path("errors");
    let daemon = Faded::spawn(
        ServerConfig::new(&socket)
            .workers(1)
            .max_trace_bytes(64 * 1024),
    )
    .expect("daemon spawns");

    // TRACE before HELLO.
    {
        let mut stream = UnixStream::connect(&socket).unwrap();
        write_frame(&mut stream, FRAME_TRACE, b"too soon").unwrap();
        // The server may reply and close before this lands (EPIPE) —
        // the ERROR frame is still buffered for us either way.
        let _ = write_frame(&mut stream, FRAME_FINISH, &[]);
        let (kind, payload) = read_frame(&mut stream).unwrap().expect("a reply");
        assert_eq!(kind, FRAME_ERROR);
        let line = String::from_utf8(payload).unwrap();
        assert!(line.contains(r#""error": "protocol""#), "line: {line}");
        assert!(line.contains("expected HELLO"), "line: {line}");
    }

    // HELLO with a version this build does not speak.
    {
        let mut stream = UnixStream::connect(&socket).unwrap();
        let mut payload = Hello::new("t", "AddrCheck").encode();
        payload[0] = 9;
        write_frame(&mut stream, FRAME_HELLO, &payload).unwrap();
        let (kind, payload) = read_frame(&mut stream).unwrap().expect("a reply");
        assert_eq!(kind, FRAME_ERROR);
        let line = String::from_utf8(payload).unwrap();
        assert!(line.contains("unsupported protocol version 9"), "line: {line}");
    }

    // A frame kind the protocol does not define (0x7f is SHUTDOWN, so
    // use 0x42), as the first frame and mid-intake.
    for after_hello in [false, true] {
        let mut stream = UnixStream::connect(&socket).unwrap();
        if after_hello {
            write_frame(&mut stream, FRAME_HELLO, &Hello::new("t", "AddrCheck").encode()).unwrap();
            write_frame(&mut stream, FRAME_TRACE, b"some bytes").unwrap();
        }
        write_frame(&mut stream, 0x42, b"?").unwrap();
        let (kind, payload) = read_frame(&mut stream).unwrap().expect("a reply");
        assert_eq!(kind, FRAME_ERROR);
        let line = String::from_utf8(payload).unwrap();
        assert!(line.contains(r#""error": "protocol""#), "line: {line}");
        assert!(line.contains("unexpected frame 0x42"), "line: {line}");
    }

    // Bytes that are not a .fadet stream.
    {
        let err = stream_session(
            &socket,
            &Hello::new("t", "AddrCheck"),
            b"not a trace at all",
            |_| {},
        )
        .unwrap_err();
        match err {
            ClientError::Server(line) => {
                assert!(line.contains(r#""error": "trace""#), "line: {line}")
            }
            other => panic!("expected a trace error, got {other:?}"),
        }
    }

    let small = make_trace("mcf", "AddrCheck", 41, 1_000);

    // A monitor the registry does not know.
    {
        let err = stream_session(&socket, &Hello::new("t", "NoSuchMonitor"), &small, |_| {})
            .unwrap_err();
        match err {
            ClientError::Server(line) => {
                assert!(line.contains(r#""error": "build""#), "line: {line}")
            }
            other => panic!("expected a build error, got {other:?}"),
        }
    }

    // A trace whose header names an unknown benchmark.
    {
        let b = bench::by_name("mcf").unwrap();
        let (records, _) = record_trace_prefix(&b, "AddrCheck", 41, 1_000);
        let bytes = encode_trace(&TraceMeta::new("no-such-bench", 41), &records);
        let err =
            stream_session(&socket, &Hello::new("t", "AddrCheck"), &bytes, |_| {}).unwrap_err();
        match err {
            ClientError::Server(line) => {
                assert!(line.contains(r#""error": "unknown_benchmark""#), "line: {line}")
            }
            other => panic!("expected an unknown_benchmark error, got {other:?}"),
        }
    }

    // A trace larger than the per-tenant cap (backpressure bound).
    {
        let big = make_trace("gcc", "MemCheck", 42, 60_000);
        assert!(big.len() > 64 * 1024, "fixture must exceed the cap");
        let err =
            stream_session(&socket, &Hello::new("t", "MemCheck"), &big, |_| {}).unwrap_err();
        match err {
            ClientError::Server(line) => {
                assert!(line.contains(r#""error": "trace_too_large""#), "line: {line}")
            }
            other => panic!("expected a trace_too_large error, got {other:?}"),
        }
    }

    // After all that abuse, a well-formed session still serves.
    let ok = stream_session(&socket, &Hello::new("t", "AddrCheck"), &small, |_| {});
    assert!(ok.is_ok(), "daemon survives malformed conversations: {ok:?}");
    daemon.shutdown();
}

/// A tenant that is wrong in two ways gets the trace-side error: the
/// stream is opened (header, then its benchmark) before the monitor
/// name is resolved.
#[test]
fn trace_errors_precede_monitor_errors() {
    let socket = temp_socket_path("order");
    let daemon = Faded::spawn(ServerConfig::new(&socket).workers(1)).expect("daemon spawns");
    let b = bench::by_name("mcf").unwrap();
    let (records, _) = record_trace_prefix(&b, "AddrCheck", 61, 1_000);
    let unknown_bench = encode_trace(&TraceMeta::new("no-such-bench", 61), &records);
    for (bytes, tag) in [
        (&b"not a trace at all"[..], "trace"),
        (&unknown_bench[..], "unknown_benchmark"),
    ] {
        match stream_session(&socket, &Hello::new("t", "NoSuchMonitor"), bytes, |_| {}) {
            Err(ClientError::Server(line)) => {
                let want = format!(r#""error": "{tag}""#);
                assert!(line.contains(&want), "want {want}, line: {line}");
            }
            other => panic!("expected a {tag} error, got {other:?}"),
        }
    }
    daemon.shutdown();
}

/// A load-harness tenant rejected mid-upload sees the daemon's typed
/// reply, not the broken pipe its unfinished upload runs into.
#[test]
fn load_harness_surfaces_mid_upload_rejections() {
    let socket = temp_socket_path("loadcap");
    let daemon =
        Faded::spawn(ServerConfig::new(&socket).workers(1).max_trace_bytes(4096))
            .expect("daemon spawns");
    let opts = LoadOptions {
        tenants: 1,
        workers: 1,
        events_per_tenant: 20_000,
        engine: EngineSel::Batched,
    };
    match measure_service_throughput_at(&socket, &opts) {
        Err(ClientError::Server(line)) => {
            assert!(line.contains(r#""error": "trace_too_large""#), "line: {line}")
        }
        other => panic!("expected a trace_too_large server error, got {other:?}"),
    }
    daemon.shutdown();
}

/// The admin SHUTDOWN frame stops the daemon and removes the socket
/// file; in-flight sessions drain first.
#[test]
fn shutdown_frame_drains_and_removes_the_socket() {
    let socket = temp_socket_path("shutdown");
    let daemon = Faded::spawn(ServerConfig::new(&socket).workers(2)).expect("daemon spawns");
    assert!(socket.exists(), "socket file exists while serving");

    let trace = make_trace("hmmer", "AddrCheck", 51, 20_000);
    let served = stream_session(&socket, &Hello::new("t", "AddrCheck"), &trace, |_| {});
    assert!(served.is_ok(), "session before shutdown: {served:?}");

    send_shutdown(&socket).expect("shutdown frame sends");
    daemon.wait();
    assert!(!socket.exists(), "clean shutdown removes the socket file");
}
