//! Seeded fault-injection sweep over the `.fadet` reader.
//!
//! For every `(seed, fault kind)` pair the sweep damages a recorded
//! trace deterministically and asserts the reader's contract:
//!
//! * no injected fault ever panics, in either read mode;
//! * strict mode never silently corrupts: it returns the original
//!   records bit-exactly or a typed error;
//! * recover mode returns a chunk-aligned subsequence of the original
//!   records, with the loss accounted in the `DegradationReport`;
//! * transport-only faults (short reads) are fully lossless;
//! * a read in any request sizes, whole chunks into a cleared buffer
//!   as a session's refills ask or sizes that straddle chunks, returns
//!   what one `read_all` does: the same records, the same error after
//!   the same record count, the same `DegradationReport`.
//!
//! The sweep width defaults to 256 seeds per kind; override with the
//! `FAULT_SEEDS` environment variable (CI runs the full sweep in
//! release mode).

use fade_trace::faultinject::{FaultKind, FaultPlan, FaultyReader};
use fade_trace::file::decode_trace_recovering;
use fade_trace::{
    bench, decode_trace, DegradationReport, SyntheticProgram, TraceFileError, TraceMeta,
    TraceReader, TraceRecord,
};

const PER_CHUNK: usize = 256;

fn seeds() -> u64 {
    std::env::var("FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

fn sample_trace() -> (Vec<TraceRecord>, Vec<u8>) {
    let p = bench::by_name("gcc").unwrap();
    let mut prog = SyntheticProgram::new(&p, 42);
    let records: Vec<_> = (0..2_000).map(|_| prog.next_record()).collect();
    let mut w = fade_trace::TraceWriter::new(Vec::new(), &TraceMeta::new("gcc", 42))
        .unwrap()
        .with_chunk_records(PER_CHUNK);
    w.write_all(&records).unwrap();
    let bytes = w.finish().unwrap();
    (records, bytes)
}

/// `recovered` must be a concatenation of a subset of the original
/// writer chunks, in order — recovery drops whole chunks, never
/// reorders or invents records.
fn is_chunk_subsequence(recovered: &[TraceRecord], original: &[TraceRecord]) -> bool {
    let chunks: Vec<&[TraceRecord]> = original.chunks(PER_CHUNK).collect();
    let mut pos = 0;
    let mut ci = 0;
    while pos < recovered.len() {
        let mut matched = false;
        while ci < chunks.len() {
            let c = chunks[ci];
            ci += 1;
            if recovered[pos..].starts_with(c) {
                pos += c.len();
                matched = true;
                break;
            }
        }
        if !matched {
            return false;
        }
    }
    true
}

fn check_accounting(
    ctx: &str,
    recovered: &[TraceRecord],
    report: &DegradationReport,
    original: &[TraceRecord],
) {
    assert!(
        is_chunk_subsequence(recovered, original),
        "{ctx}: recovered records are not a chunk-aligned subsequence"
    );
    if report.is_clean() {
        assert_eq!(recovered, original, "{ctx}: clean report but altered records");
    }
    let lost = original.len() as u64 - recovered.len() as u64;
    if report.trailer_verified {
        assert_eq!(
            report.records_lost, lost,
            "{ctx}: trailer-verified loss accounting is exact"
        );
    } else {
        assert!(
            report.records_lost <= lost,
            "{ctx}: best-effort loss accounting is a lower bound ({} > {lost})",
            report.records_lost
        );
        assert!(
            report.truncated_tail || !report.faults.is_empty(),
            "{ctx}: unverified trailer must be accounted"
        );
    }
    if lost > 0 {
        assert!(
            !report.faults.is_empty(),
            "{ctx}: {lost} records lost with no fault recorded"
        );
    }
}

#[test]
fn fault_sweep_never_panics_or_silently_corrupts() {
    let (records, bytes) = sample_trace();
    let n = seeds();
    for kind in FaultKind::ALL {
        for seed in 0..n {
            let plan = FaultPlan::seeded(seed, kind, bytes.len() as u64);
            let ctx = format!("{kind:?} seed {seed} (plan {plan:?})");

            // Strict mode over the faulty transport: typed error or
            // bit-exact records, never a panic, never silent damage.
            let strict = fade_trace::TraceReader::new(FaultyReader::new(&bytes[..], plan))
                .and_then(|mut r| r.read_all());
            match (kind, &strict) {
                (FaultKind::ShortRead, got) => {
                    assert_eq!(
                        got.as_ref().expect("short reads are lossless"),
                        &records,
                        "{ctx}"
                    );
                }
                (_, Ok(got)) => assert_eq!(got, &records, "{ctx}: silent corruption"),
                (_, Err(_)) => {}
            }

            // Recover mode: same transport, but chunk faults are
            // skipped and accounted.
            let recover = fade_trace::TraceReader::new(FaultyReader::new(&bytes[..], plan))
                .map(|r| r.with_recovery())
                .and_then(|mut r| {
                    let recs = r.read_all()?;
                    Ok((recs, r.degradation().cloned().unwrap()))
                });
            match (kind, recover) {
                (FaultKind::ShortRead, got) => {
                    let (recs, report) = got.expect("short reads are lossless");
                    assert_eq!(recs, records, "{ctx}");
                    assert!(report.is_clean(), "{ctx}: {report:?}");
                }
                (FaultKind::IoError, got) => {
                    // A dying transport is an environment failure, not
                    // data corruption: typed, in both modes.
                    match got {
                        Err(fade_trace::TraceFileError::Io(_)) => {}
                        Err(other) => panic!("{ctx}: expected Io error, got {other:?}"),
                        Ok((recs, report)) => {
                            // The fault offset can land in bytes the
                            // reader never needs (nothing after the
                            // trailer exists, so this means the fault
                            // hit exactly at end-of-stream).
                            assert_eq!(recs, records, "{ctx}");
                            assert!(report.is_clean(), "{ctx}: {report:?}");
                        }
                    }
                }
                (_, Ok((recs, report))) => check_accounting(&ctx, &recs, &report, &records),
                // Header faults are not recoverable: still typed.
                (_, Err(_)) => {}
            }
        }
    }
}

/// What one read of a faulted stream produced: the records appended
/// before it stopped, the error that stopped it, and the recover-mode
/// report.
type Outcome = (
    Vec<TraceRecord>,
    Option<TraceFileError>,
    Option<DegradationReport>,
);

/// Reads `bytes` through `plan`'s faulty transport with
/// `next_records_into` calls of `sizes` (cycling) until a call falls
/// short or fails. With `whole`, each call goes into a cleared buffer,
/// as a session's refills do; otherwise every call appends to one.
/// `None` when the header does not parse.
fn read_in(
    bytes: &[u8],
    plan: FaultPlan,
    recover: bool,
    sizes: &[usize],
    whole: bool,
) -> Option<Outcome> {
    let mut r = TraceReader::new(FaultyReader::new(bytes, plan)).ok()?;
    if recover {
        r = r.with_recovery();
    }
    let mut records = Vec::new();
    let mut call = Vec::new();
    let mut error = None;
    for &n in sizes.iter().cycle() {
        call.clear();
        let out = if whole { &mut call } else { &mut records };
        let got = r.next_records_into(out, n);
        records.extend_from_slice(&call);
        match got {
            Ok(k) if k == n => {}
            Ok(_) => break,
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    Some((records, error, r.degradation().cloned()))
}

#[test]
fn fault_sweep_reads_the_same_in_any_request_sizes() {
    let (_, bytes) = sample_trace();
    let n = seeds();
    for kind in FaultKind::ALL {
        for seed in 0..n {
            let plan = FaultPlan::seeded(seed, kind, bytes.len() as u64);
            for recover in [false, true] {
                let ctx = format!("{kind:?} seed {seed} recover {recover}");
                // `read_all` is one call for everything.
                let all = read_in(&bytes, plan, recover, &[usize::MAX], false);
                let chunks = read_in(&bytes, plan, recover, &[PER_CHUNK], true);
                let sizes = read_in(&bytes, plan, recover, &[1, 7, 4095, 4097], false);
                assert_eq!(chunks, all, "{ctx}: whole-chunk requests");
                assert_eq!(sizes, all, "{ctx}: requests of 1, 7, 4095 and 4097");
            }
        }
    }
}

#[test]
fn fault_sweep_is_deterministic() {
    let (_, bytes) = sample_trace();
    for kind in FaultKind::ALL {
        for seed in 0..16 {
            let plan = FaultPlan::seeded(seed, kind, bytes.len() as u64);
            let run = || {
                fade_trace::TraceReader::new(FaultyReader::new(&bytes[..], plan))
                    .map(|r| r.with_recovery())
                    .and_then(|mut r| {
                        let recs = r.read_all()?;
                        Ok((recs, r.degradation().cloned().unwrap()))
                    })
            };
            match (run(), run()) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("nondeterministic outcome: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn zero_fault_modes_agree_bit_exactly() {
    let (records, bytes) = sample_trace();
    let (_, strict) = decode_trace(&bytes).unwrap();
    let (_, recovered, report) = decode_trace_recovering(&bytes).unwrap();
    assert_eq!(strict, records);
    assert_eq!(recovered, records);
    assert!(report.is_clean());
    assert!(report.trailer_verified);
}
