//! Workload inputs: `.fadet` traces recorded from a seed, their
//! cycle-accurate references, and the in-process replay every session
//! of the replay workloads performs.

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use fade_monitors::{monitor_by_name, Monitor};
use fade_shadow::MetadataState;
use fade_sim::WindowSample;
use fade_system::{Engine, Session, SessionRunError, SystemConfig, TraceSource};
use fade_trace::{
    BenchProfile, SyntheticProgram, TraceMeta, TraceReader, TraceRecord, TraceWriter,
};

use crate::layers::{Clock, TimedMonitor, TimedSource};

/// Application-instruction granularity replay sessions are stepped at:
/// the serving loop's own slice, so an in-process replay and a `faded`
/// tenant drive the engine identically.
pub const SLICE: u64 = fade_service::SERVE_SLICE;

/// One recorded workload trace.
#[derive(Clone)]
pub struct Trace {
    /// Benchmark profile the trace was generated from.
    pub bench: BenchProfile,
    /// Monitor whose event selection sized the trace.
    pub monitor: &'static str,
    /// Generator seed, also the session's simulation seed.
    pub seed: u64,
    /// The encoded `.fadet` stream — all a session ever receives.
    pub bytes: Arc<[u8]>,
    /// Records in the trace.
    pub records: u64,
    /// Application instructions in the trace.
    pub instrs: u64,
    /// Monitored events the trace holds for `monitor`.
    pub events: u64,
}

impl Trace {
    /// The system configuration every session over this trace uses.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::fade_single_core().with_seed(self.seed)
    }
}

/// Host time spent recording traces, split into generation and encode.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecordTimes {
    /// Live generation ([`SyntheticProgram`]).
    pub generate: crate::layers::Span,
    /// `.fadet` encoding, seconds.
    pub encode_s: f64,
}

/// SplitMix64 step: derives independent per-trace seeds from the
/// workload seed.
pub fn mix_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Records the prefix of `bench`'s generated program that holds
/// `n_events` events monitored by `monitor`, and encodes it.
pub fn record(
    bench: &BenchProfile,
    monitor: &'static str,
    seed: u64,
    n_events: u64,
    times: &mut RecordTimes,
) -> Trace {
    let probe = monitor_by_name(monitor).expect("workload monitors are builtin");
    let clock = Clock::shared();
    let mut gen = TimedSource::new(SyntheticProgram::new(bench, seed), Arc::clone(&clock));
    let mut writer = TraceWriter::new(Vec::new(), &TraceMeta::new(bench.name, seed))
        .expect("Vec<u8> writes are infallible");
    let mut batch = Vec::new();
    let (mut records, mut events, mut instrs) = (0u64, 0u64, 0u64);
    let mut encode_s = 0.0;
    while events < n_events {
        batch.clear();
        gen.next_records_into(&mut batch, 4096)
            .expect("the generator never fails");
        let mut keep = 0;
        for r in &batch {
            keep += 1;
            match r {
                TraceRecord::Instr(i) => {
                    instrs += 1;
                    events += u64::from(probe.selects(i));
                }
                TraceRecord::Stack(_) => events += u64::from(probe.monitors_stack()),
                TraceRecord::High(_) => events += 1,
            }
            if events == n_events {
                break;
            }
        }
        records += keep as u64;
        let start = Instant::now();
        writer
            .write_all(&batch[..keep])
            .expect("Vec<u8> writes are infallible");
        encode_s += start.elapsed().as_secs_f64();
    }
    let start = Instant::now();
    let bytes = writer.finish().expect("Vec<u8> writes are infallible");
    times.encode_s += encode_s + start.elapsed().as_secs_f64();
    times.generate += clock.take();
    Trace {
        bench: bench.clone(),
        monitor,
        seed,
        bytes: bytes.into(),
        records,
        instrs,
        events,
    }
}

/// Per-session tracing: the clocks a traced replay charges.
#[derive(Clone, Default)]
pub struct Tracing {
    /// `.fadet` decode inside the session.
    pub source: Arc<Clock>,
    /// Monitor software handlers inside the session.
    pub handlers: Arc<Clock>,
}

/// Replays `trace` to its last record through `engine`, the way a
/// `faded` tenant is served: stream the bytes through a
/// [`TraceReader`], step [`SLICE`] instructions at a time, drain. With
/// `tracing`, the reader and the monitor are wrapped in timing layers.
///
/// # Errors
///
/// A failed run ([`SessionRunError`]).
pub fn replay(
    trace: &Trace,
    engine: Engine,
    tracing: Option<&Tracing>,
) -> Result<Session, SessionRunError> {
    let reader = TraceReader::new(Cursor::new(Arc::clone(&trace.bytes)))
        .expect("benchmark traces are well-formed");
    let monitor = monitor_by_name(trace.monitor).expect("workload monitors are builtin");
    let (source, monitor): (Box<dyn TraceSource>, Box<dyn Monitor>) = match tracing {
        Some(t) => (
            Box::new(TimedSource::new(reader, Arc::clone(&t.source))),
            Box::new(TimedMonitor::new(monitor, Arc::clone(&t.handlers))),
        ),
        None => (Box::new(reader), monitor),
    };
    let mut session = Session::builder()
        .monitor(monitor)
        .trace_source(trace.bench.clone(), source)
        .engine(engine)
        .config(trace.config())
        .build()
        .expect("builtin monitor, valid program");
    loop {
        session.run(SLICE)?;
        if session.source_exhausted() {
            break;
        }
    }
    session.drain()?;
    Ok(session)
}

/// The monitor-visible result of one whole-trace replay — what every
/// engine must agree on bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Monitored events accepted.
    pub events_seen: u64,
    /// The monitor's violation reports, in order.
    pub violations: Vec<String>,
    /// The accelerator's engine-invariant functional counters.
    pub functional: Option<[u64; 7]>,
}

impl Verdict {
    /// Collects the verdict of a finished session.
    pub fn of(session: &Session) -> Self {
        Verdict {
            events_seen: session.events_seen(),
            violations: session.monitor().reports(),
            functional: session.fade_stats().map(|f| f.functional_counters()),
        }
    }
}

/// A trace's setup-time reference, from an [`Engine::Cycle`] replay.
pub struct Reference {
    /// Monitor-visible result.
    pub verdict: Verdict,
    /// Final metadata state (shadow memory and registers).
    pub state: MetadataState,
    /// Exact simulated cycles.
    pub exact_cycles: u64,
    /// Host seconds the cycle-accurate replay took.
    pub cycle_s: f64,
}

/// Computes the cycle-accurate reference of `trace`.
pub fn reference(trace: &Trace) -> Reference {
    let start = Instant::now();
    let session = replay(trace, Engine::Cycle, None).expect("reference replay runs clean");
    let cycle_s = start.elapsed().as_secs_f64();
    Reference {
        verdict: Verdict::of(&session),
        state: session.state().clone(),
        exact_cycles: session.cycles(),
        cycle_s,
    }
}

/// The simulated statistics of a batched replay that must repeat
/// exactly whenever the same trace is replayed.
#[derive(Clone, Debug, PartialEq)]
pub struct Simulated {
    /// Estimated total cycles.
    pub estimated_cycles: u64,
    /// Relative half-width of the estimate's 95% CI.
    pub rel_half_width: Option<f64>,
    /// Fast-path statistics.
    pub batch: fade::BatchStats,
    /// Sampled cycle-accurate windows.
    pub windows: Vec<WindowSample>,
    /// Peak resident shadow pages.
    pub full_pages_peak: usize,
    /// Resident shadow bytes at the end.
    pub shadow_bytes: usize,
}

impl Simulated {
    /// Collects the simulated statistics of a finished session.
    pub fn of(session: &Session) -> Self {
        Simulated {
            estimated_cycles: session.estimated_total_cycles(),
            rel_half_width: session.rel_half_width(),
            batch: session.batch_stats(),
            windows: session.sampled_windows().to_vec(),
            full_pages_peak: session.shadow_counters().peak_full_pages,
            shadow_bytes: session.shadow_bytes_in_use().bytes,
        }
    }
}
