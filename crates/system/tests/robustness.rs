//! Fault-injection and graceful-degradation properties at the system
//! level: whatever a trace source throws at a [`Session`] — bit flips,
//! truncations, short reads, dying disks, plain exhaustion — the run
//! must end in an `Ok` with exact degradation accounting or in a typed
//! [`SessionRunError`], never in a panic and never with silently wrong
//! records.
//!
//! The sweep width is `FAULT_SEEDS` (default 64 here; CI runs the
//! release sweep wider). Every case is a pure function of its seed, so
//! a failure message's seed replays the exact scenario.

use std::io::Cursor;

use fade_system::{Engine, ReplayBuffer, Session, SessionRunError, SourceError, SystemConfig};
use fade_trace::faultinject::{FaultKind, FaultPlan, FaultyReader};
use fade_trace::file::decode_trace_recovering;
use fade_trace::{bench, encode_trace, BenchProfile, TraceMeta, TraceReader, TraceRecord};

const RECORD_INSTRS: u64 = 6_000;

fn sweep_seeds() -> u64 {
    std::env::var("FAULT_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn cfg() -> SystemConfig {
    SystemConfig::fade_single_core()
}

/// A recorded prefix of gcc under MemLeak, as encoded `.fadet` bytes
/// plus the raw records behind them.
fn fixture() -> (BenchProfile, Vec<TraceRecord>, Vec<u8>, u64) {
    let b = bench::by_name("gcc").unwrap();
    let (records, instrs) = fade_system::record_trace_prefix(&b, "MemLeak", cfg().seed, RECORD_INSTRS);
    let bytes = encode_trace(&TraceMeta::new("gcc", cfg().seed), &records);
    (b, records, bytes, instrs)
}

/// Runs a session over the given source to source exhaustion (or typed
/// failure) and returns it alongside the run outcome.
fn run_to_end(
    b: &BenchProfile,
    source: Box<dyn fade_system::TraceSource>,
) -> (Session, Result<(), SessionRunError>) {
    let mut s = Session::builder()
        .monitor("MemLeak")
        .trace_source(b.clone(), source)
        .config(cfg())
        .build()
        .expect("build never depends on source health");
    let outcome = s.run_exact(u64::MAX / 2).and_then(|()| s.drain());
    (s, outcome)
}

/// Monitor-visible fingerprint for equality comparisons.
fn fingerprint(s: &Session) -> (u64, u64, Vec<String>) {
    (s.instrs(), s.events_seen(), s.monitor().reports())
}

/// A source that runs dry mid-run is a *clean* early stop: `Ok`, the
/// exhaustion flag raised, nothing left in flight — for both engines.
#[test]
fn source_exhaustion_is_a_clean_early_stop() {
    let (b, records, _, instrs) = fixture();
    for engine in [Engine::Cycle, Engine::batched()] {
        let mut s = Session::builder()
            .monitor("MemLeak")
            .trace_source(b.clone(), Box::new(ReplayBuffer::new(records.clone())))
            .engine(engine)
            .config(cfg())
            .build()
            .unwrap();
        // Ask for far more than the source holds.
        s.run_exact(instrs * 100).expect("exhaustion is not an error");
        s.drain().expect("drain after exhaustion");
        assert!(s.source_exhausted(), "{engine:?}: exhaustion flag");
        assert!(
            s.instrs() <= instrs,
            "{engine:?}: cannot execute more than the source holds"
        );
        assert!(s.instrs() > 0, "{engine:?}: the records that exist do run");
    }
}

/// `run` to exhaustion — the counterpart of `run_exact(u64::MAX / 2)`
/// in [`run_to_end`] — on the cycle engine, with and without FADE: an
/// effectively unbounded target must not overflow the progress guard.
#[test]
fn run_to_exhaustion_is_a_clean_early_stop() {
    let b = bench::by_name("hmmer").unwrap();
    let (records, _) = fade_system::record_trace_prefix(&b, "AddrCheck", cfg().seed, 2_000);
    for config in [cfg(), SystemConfig::unaccelerated_single_core()] {
        let mut s = Session::builder()
            .monitor("AddrCheck")
            .trace_source(b.clone(), Box::new(ReplayBuffer::new(records.clone())))
            .engine(Engine::Cycle)
            .config(config)
            .build()
            .unwrap();
        s.run(u64::MAX / 2)
            .expect("running to exhaustion is not an error");
        assert!(s.source_exhausted(), "{}: exhaustion flag", config.label());
    }
}

/// The seeded sweep: every fault kind × seed, replayed through a full
/// monitoring session in recover mode. Zero panics; transport faults
/// are lossless; data faults degrade with the same surviving records a
/// plain recovering decode produces; dead transports fail typed.
#[test]
fn fault_sweep_is_panic_free_and_accounted() {
    let (b, records, bytes, _) = fixture();

    // Clean reference: the same records replayed from memory.
    let (clean, outcome) = run_to_end(&b, Box::new(ReplayBuffer::new(records.clone())));
    outcome.expect("clean replay");
    let clean_fp = fingerprint(&clean);

    let seeds = sweep_seeds();
    let mut recovered_runs = 0u64;
    for seed in 0..seeds {
        for kind in FaultKind::ALL {
            let what = format!("seed {seed} kind {kind:?}");
            let plan = FaultPlan::seeded(seed, kind, bytes.len() as u64);
            let faulty = FaultyReader::new(Cursor::new(bytes.clone()), plan);
            let reader = match TraceReader::new(faulty) {
                Ok(r) => r.with_recovery(),
                // A fault inside the header (or a transport dead on
                // arrival) fails typed at open — also a valid outcome.
                Err(_) => continue,
            };
            let (s, outcome) = run_to_end(&b, Box::new(reader));
            match kind {
                // Semantically lossless: same bytes, slower transport.
                FaultKind::ShortRead => {
                    outcome.unwrap_or_else(|e| panic!("{what}: lossless fault errored: {e}"));
                    assert_eq!(fingerprint(&s), clean_fp, "{what}: bit-exact");
                    assert!(
                        s.degradation().expect("recovering source").is_clean(),
                        "{what}: nothing to account"
                    );
                }
                // Data faults: the session must see exactly the records
                // a recovering decode of the damaged bytes survives.
                FaultKind::BitFlip | FaultKind::Truncate => {
                    outcome.unwrap_or_else(|e| panic!("{what}: recoverable fault errored: {e}"));
                    let damaged = plan.apply(&bytes);
                    let (_, surviving, report) =
                        decode_trace_recovering(&damaged).unwrap_or_else(|e| panic!("{what}: {e}"));
                    let (reference, ref_outcome) =
                        run_to_end(&b, Box::new(ReplayBuffer::new(surviving)));
                    ref_outcome.expect("surviving records replay cleanly");
                    assert_eq!(
                        fingerprint(&s),
                        fingerprint(&reference),
                        "{what}: degraded replay == replay of surviving records"
                    );
                    assert_eq!(
                        s.degradation(),
                        Some(&report),
                        "{what}: session surfaces the decoder's exact accounting"
                    );
                    if !report.is_clean() {
                        recovered_runs += 1;
                    }
                }
                // A dying transport is not recoverable: typed error.
                FaultKind::IoError => {
                    match outcome {
                        Err(SessionRunError::Source(SourceError::Trace(
                            fade_trace::TraceFileError::Io(_),
                        ))) => {}
                        other => panic!("{what}: expected a typed I/O source error, got {other:?}"),
                    }
                    // The error is sticky: the session stays poisoned
                    // for callers that retry.
                    let mut s = s;
                    assert!(s.run_exact(1).is_err(), "{what}: source failure latches");
                }
            }
        }
    }
    assert!(
        recovered_runs > 0,
        "sweep of {seeds} seeds never exercised recovery — fixture too small?"
    );
}

/// `SessionBuilder::recover_faults` on a damaged `.fadet` *file*: the
/// run completes and the degradation accounting reaches the
/// [`fade_system::RunReport`]; the same file without recovery fails
/// typed.
#[test]
fn recovering_file_session_reports_degradation() {
    let (_, _, bytes, instrs) = fixture();
    let plan = FaultPlan::seeded(3, FaultKind::BitFlip, bytes.len() as u64);
    let damaged = plan.apply(&bytes);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("robustness_bitflip.fadet");
    std::fs::write(&path, &damaged).unwrap();

    // Strict replay refuses the damaged file mid-run, typed.
    let mut strict = Session::builder()
        .monitor("MemLeak")
        .source(path.as_path())
        .config(cfg())
        .build()
        .expect("the header is intact");
    let err = strict
        .run_exact(instrs)
        .and_then(|()| strict.drain())
        .expect_err("strict mode must surface the fault");
    assert!(
        matches!(err, SessionRunError::Source(SourceError::Trace(_))),
        "typed trace error, got {err:?}"
    );

    // Recovering replay completes and accounts for the loss end-to-end.
    let report = Session::builder()
        .monitor("MemLeak")
        .source(path.as_path())
        .recover_faults()
        .config(cfg())
        .build()
        .unwrap()
        .run_measured(1_000, instrs / 2)
        .expect("recovering replay completes");
    let degradation = report.degradation.expect("recovering sessions always report");
    assert_eq!(degradation.chunks_skipped, 1, "one flipped bit, one chunk");
    assert!(degradation.records_lost > 0);
    assert!(!degradation.faults.is_empty());
}

/// A byte cap too small for the workload latches a typed, sticky
/// [`SessionRunError::ShadowBudget`].
#[test]
fn shadow_byte_cap_fails_typed_and_sticky() {
    let b = bench::by_name("gcc").unwrap();
    let mut s = Session::builder()
        .monitor("MemLeak")
        .source(&b)
        .config(cfg().with_shadow_mem_cap(2 * 1024))
        .build()
        .unwrap();
    let err = s.run(20_000).expect_err("2 KiB cannot hold even one shadow frame");
    let SessionRunError::ShadowBudget(exceeded) = &err else {
        panic!("expected ShadowBudget, got {err:?}");
    };
    assert!(exceeded.used_bytes > exceeded.cap_bytes);
    // Sticky: the session is poisoned with the same error.
    assert_eq!(s.run(1), Err(err.clone()));
}
