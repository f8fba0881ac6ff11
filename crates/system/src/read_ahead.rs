//! Read-ahead: a session's trace source runs on a helper thread, a few
//! bounded batches ahead of the engine, whenever a CPU is free for it.
//!
//! Decoding a `.fadet` stream or generating a synthetic one is the
//! application side of the monitored system; like FADE's own
//! decoupling of the application core from the filter, it need not
//! wait for the engine. [`read_ahead`] wraps a session's
//! [`TraceSource`] in [`ReadAhead`]: a helper thread owns the source
//! and reads it in batches of [`BATCH`] records; the engine copies
//! records out of those batches at whatever sizes it asks for.
//!
//! The decorator answers every call exactly as the inner source would
//! have: the same records, `Ok(k < n)` only at the end of the trace, a
//! source error on the same call (after the same records), and a panic
//! inside the source resumed on the engine's thread at that same call.
//! Results therefore never depend on whether a session reads ahead.
//!
//! Each side polls briefly for the other before it blocks ([`POLL`]),
//! so a hand-over rarely waits for a parked thread to be woken.
//!
//! Read-ahead is bounded twice. Per session, [`BUFFERS`] batch buffers
//! circulate between the helper and the engine. Per process, a helper
//! needs a [`Lease`] from [`SPARE_CPUS`], which holds
//! `available_parallelism() − 1` of them: a session that finds none
//! free runs its source inline, as does every session on one CPU.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, Sender, SyncSender, TryRecvError};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fade_trace::{DegradationReport, TraceRecord};

use crate::system::{SourceError, TraceSource};

/// Records the helper reads per batch.
const BATCH: usize = 2048;

/// Batch buffers a session circulates: the one the engine copies out
/// of, plus at most two the helper has filled ahead of it.
const BUFFERS: usize = 3;

/// A process-wide count of read-ahead helpers and its cap.
#[derive(Debug)]
pub(crate) struct LeasePool {
    held: AtomicUsize,
    cap: fn() -> usize,
}

/// The leases every session draws from: one per CPU beyond the first.
pub(crate) static SPARE_CPUS: LeasePool = LeasePool::new(spare_cpus);

/// `available_parallelism() − 1`, read once per process.
fn spare_cpus() -> usize {
    static SPARE: OnceLock<usize> = OnceLock::new();
    *SPARE.get_or_init(|| std::thread::available_parallelism().map_or(0, |n| n.get() - 1))
}

impl LeasePool {
    pub(crate) const fn new(cap: fn() -> usize) -> Self {
        LeasePool {
            held: AtomicUsize::new(0),
            cap,
        }
    }

    /// Takes a lease if one is free; never waits for one.
    fn try_lease(&'static self) -> Option<Lease> {
        let cap = (self.cap)();
        self.held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                (held < cap).then_some(held + 1)
            })
            .ok()
            .map(|_| Lease(self))
    }

    /// Leases currently held.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Acquire)
    }
}

/// The right to one read-ahead helper, returned on drop.
struct Lease(&'static LeasePool);

impl Drop for Lease {
    fn drop(&mut self) {
        self.0.held.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Wraps `source` in a [`ReadAhead`] if `pool` has a free lease and a
/// helper thread starts; otherwise returns `source` to run inline.
pub(crate) fn read_ahead(
    source: Box<dyn TraceSource>,
    pool: &'static LeasePool,
) -> Box<dyn TraceSource> {
    let Some(lease) = pool.try_lease() else {
        return source;
    };
    // The source follows the thread over a channel, so a failed spawn
    // leaves it here to run inline.
    let (hand_over, handed) = mpsc::channel::<Box<dyn TraceSource>>();
    let (full_tx, full) = mpsc::sync_channel(BUFFERS - 1);
    let (free, free_rx) = mpsc::channel();
    // The only buffers the session ever holds; the helper recycles them.
    for _ in 0..BUFFERS {
        let _ = free.send(Vec::with_capacity(BATCH));
    }
    let spawned = std::thread::Builder::new()
        .name("fade-read-ahead".into())
        .spawn(move || {
            if let Ok(source) = handed.recv() {
                helper(source, &full_tx, &free_rx);
            }
        });
    if spawned.is_err() {
        return source;
    }
    let degradation = source.degradation().cloned();
    if let Err(mpsc::SendError(source)) = hand_over.send(source) {
        return source;
    }
    Box::new(ReadAhead {
        full,
        free,
        records: Vec::new(),
        pos: 0,
        end: None,
        degradation,
        _lease: lease,
    })
}

/// How long either side polls for the other's next message before it
/// blocks.
const POLL: Duration = Duration::from_micros(200);

/// Receives from `rx`, polling and yielding the CPU for up to [`POLL`]
/// before blocking: a thread parked on an idle CPU can take far longer
/// to wake (on a virtual machine, until its vCPU is scheduled again)
/// than the other side takes to fill or drain a batch.
fn recv_soon<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if start.elapsed() < POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv(),
        }
    }
}

/// What stopped the inner source's stream.
enum End {
    /// It appended no records: the trace is over.
    Exhausted,
    /// It failed with a typed error.
    Failed(SourceError),
    /// It panicked; the payload resumes on the engine's thread.
    Panicked(Box<dyn Any + Send>),
}

/// One batch of records, in stream order.
struct Batch {
    records: Vec<TraceRecord>,
    /// Set on the last batch: what the next record would have been.
    end: Option<End>,
    /// The source's degradation report once `records` were read.
    degradation: Option<DegradationReport>,
}

/// The helper thread: fills the session's recycled buffers from
/// `source` until the stream ends or the session hangs up, then drops
/// the source.
fn helper(
    mut source: Box<dyn TraceSource>,
    full: &SyncSender<Batch>,
    free: &Receiver<Vec<TraceRecord>>,
) {
    while let Ok(mut records) = recv_soon(free) {
        records.clear();
        let end = fill(source.as_mut(), &mut records);
        let last = end.is_some();
        let degradation = source.degradation().cloned();
        let batch = Batch {
            records,
            end,
            degradation,
        };
        if full.send(batch).is_err() || last {
            return;
        }
    }
}

/// Reads up to [`BATCH`] records into `records`; returns what ended the
/// stream if it ended first. Short reads that are not the end are
/// topped up, so a batch falls short only at the end of the stream.
fn fill(source: &mut dyn TraceSource, records: &mut Vec<TraceRecord>) -> Option<End> {
    while records.len() < BATCH {
        let before = records.len();
        let call = catch_unwind(AssertUnwindSafe(|| {
            source.next_records_into(records, BATCH - before)
        }));
        match call {
            Ok(Ok(_)) if records.len() > before => {}
            Ok(Ok(_)) => return Some(End::Exhausted),
            Ok(Err(e)) => return Some(End::Failed(e)),
            Err(payload) => return Some(End::Panicked(payload)),
        }
    }
    None
}

/// A [`TraceSource`] served from batches a helper thread reads ahead.
///
/// Dropping it hangs up both channels: the helper drops the source and
/// exits once its current read returns. Drop never joins the helper,
/// and the lease returns with the session, not with the thread.
struct ReadAhead {
    full: Receiver<Batch>,
    free: Sender<Vec<TraceRecord>>,
    /// The batch being copied out, from `pos`.
    records: Vec<TraceRecord>,
    pos: usize,
    /// What follows `records`; `None` while more batches come.
    end: Option<End>,
    degradation: Option<DegradationReport>,
    _lease: Lease,
}

impl ReadAhead {
    /// Recycles the spent batch and waits for the next one.
    fn next_batch(&mut self) {
        let spent = std::mem::take(&mut self.records);
        if spent.capacity() > 0 {
            // The helper may have finished already; then it needs none.
            let _ = self.free.send(spent);
        }
        self.pos = 0;
        // The helper hangs up only after its last batch, which a
        // resumed panic leaves no batch to follow.
        let Ok(batch) = recv_soon(&self.full) else {
            self.end = Some(End::Failed(SourceError::Other(
                "trace source panicked earlier".into(),
            )));
            return;
        };
        self.records = batch.records;
        self.end = batch.end;
        self.degradation = batch.degradation;
    }
}

impl TraceSource for ReadAhead {
    fn next_records_into(
        &mut self,
        buf: &mut Vec<TraceRecord>,
        n: usize,
    ) -> Result<usize, SourceError> {
        let mut appended = 0;
        loop {
            let take = (self.records.len() - self.pos).min(n - appended);
            buf.extend_from_slice(&self.records[self.pos..self.pos + take]);
            self.pos += take;
            appended += take;
            if appended == n {
                return Ok(n);
            }
            match &self.end {
                None => self.next_batch(),
                Some(End::Exhausted) => return Ok(appended),
                Some(End::Failed(e)) => return Err(e.clone()),
                Some(End::Panicked(_)) => {
                    if let Some(End::Panicked(payload)) = self.end.take() {
                        resume_unwind(payload);
                    }
                }
            }
        }
    }

    fn degradation(&self) -> Option<&DegradationReport> {
        self.degradation.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{DefaultHasher, Hash, Hasher};
    use std::io::Cursor;

    use fade_trace::{
        bench, encode_trace, BenchProfile, FaultKind, FaultPlan, FaultyReader, TraceMeta,
        TraceReader, TraceWriter,
    };

    use super::*;
    use crate::{
        record_trace_prefix, Engine, MonitorRegistry, ReplayBuffer, Session, SessionBuilder,
        SourceSpec, SystemConfig,
    };

    /// Grants no lease: every session runs its source inline.
    static INLINE: LeasePool = LeasePool::new(|| 0);
    /// Grants every lease: every session reads ahead.
    static ALWAYS: LeasePool = LeasePool::new(|| usize::MAX);

    /// Instructions per run call, as the `faded` daemon steps sessions.
    const SLICE: u64 = 65_536;

    fn bench_for(monitor: &str) -> BenchProfile {
        let name = match monitor {
            "AddrCheck" => "hmmer",
            "AtomCheck" => "water",
            "MemCheck" => "mcf",
            "TaintCheck" => "astar-taint",
            _ => "gcc",
        };
        bench::by_name(name).unwrap()
    }

    fn builder(monitor: &str, engine: Engine, pool: &'static LeasePool) -> SessionBuilder {
        Session::builder()
            .monitor(monitor)
            .engine(engine)
            .config(SystemConfig::fade_single_core())
            .leases(pool)
    }

    /// Steps `s` in [`SLICE`]s until `instrs` retire, the source runs out
    /// or a run fails, then renders everything a run can observe: the
    /// outcome and where it happened, the degradation report, the
    /// metadata state (hashed), run statistics and violations.
    fn fingerprint(mut s: Session, instrs: u64) -> String {
        let mut outcome = Ok(());
        let mut slices = 0;
        while outcome.is_ok() && s.instrs() < instrs && !s.source_exhausted() {
            outcome = s.run(SLICE.min(instrs - s.instrs()));
            slices += 1;
        }
        let outcome = outcome.and_then(|()| s.drain());
        let mut state = DefaultHasher::new();
        format!("{:?}", s.state()).hash(&mut state);
        let head = format!(
            "{outcome:?} after {slices} slices at {} instrs, degradation {:?}, state {:x}",
            s.instrs(),
            s.degradation(),
            state.finish()
        );
        match s.finish(1) {
            Ok(r) => format!("{head}\n{:?}\n{:?}", r.stats, r.violations),
            Err(e) => format!("{head}\n{e:?}"),
        }
    }

    /// The same session inline and reading ahead; the two must agree.
    fn assert_parity(what: &str, instrs: u64, build: impl Fn(&'static LeasePool) -> Session) {
        let inline = fingerprint(build(&INLINE), instrs);
        let ahead = fingerprint(build(&ALWAYS), instrs);
        assert!(
            inline == ahead,
            "{what}: read-ahead diverged\ninline: {inline}\nahead:  {ahead}"
        );
    }

    #[test]
    fn read_ahead_is_invisible_for_every_monitor_engine_and_source() {
        let seed = SystemConfig::fade_single_core().seed;
        for monitor in MonitorRegistry::builtin().names() {
            let b = bench_for(monitor);
            let (records, _) = record_trace_prefix(&b, monitor, seed, 8_000);
            let bytes = encode_trace(&TraceMeta::new(b.name, seed), &records);
            for engine in [Engine::Cycle, Engine::batched()] {
                let what = format!("{monitor}/{engine:?}");
                assert_parity(&format!("{what}/generator"), 12_000, |pool| {
                    builder(monitor, engine, pool).source(&b).build().unwrap()
                });
                assert_parity(&format!("{what}/bytes"), u64::MAX, |pool| {
                    builder(monitor, engine, pool)
                        .source(SourceSpec::TraceBytes(bytes.clone()))
                        .build()
                        .unwrap()
                });
                for kind in FaultKind::ALL {
                    // The first seed whose fault spares the header.
                    let plan = (0..)
                        .map(|s| FaultPlan::seeded(s, kind, bytes.len() as u64))
                        .find(|&plan| {
                            TraceReader::new(FaultyReader::new(Cursor::new(&bytes), plan)).is_ok()
                        })
                        .unwrap();
                    assert_parity(&format!("{what}/{kind:?}"), u64::MAX, |pool| {
                        let faulty = FaultyReader::new(Cursor::new(bytes.clone()), plan);
                        let reader = TraceReader::new(faulty).unwrap().with_recovery();
                        builder(monitor, engine, pool)
                            .trace_source(b.clone(), Box::new(reader))
                            .build()
                            .unwrap()
                    });
                }
            }
        }
    }

    /// A strict reader whose chunk at record `at` is corrupt, chunked so
    /// that chunk starts fall inside read-ahead batches.
    fn corrupt_at(b: &BenchProfile, records: &[TraceRecord], at: usize, chunk: usize) -> Vec<u8> {
        let meta = TraceMeta::new(b.name, 0);
        // An unfinished writer leaves the whole chunks before `at`.
        let mut prefix = Vec::new();
        let mut w = TraceWriter::new(&mut prefix, &meta)
            .unwrap()
            .with_chunk_records(chunk);
        w.write_all(&records[..at]).unwrap();
        drop(w);
        let mut w = TraceWriter::new(Vec::new(), &meta)
            .unwrap()
            .with_chunk_records(chunk);
        w.write_all(records).unwrap();
        let mut bytes = w.finish().unwrap();
        // Past the chunk's 13-byte header: its CRC no longer matches.
        bytes[prefix.len() + 20] ^= 0xff;
        bytes
    }

    #[test]
    fn strict_source_error_surfaces_at_the_same_call() {
        let b = bench::by_name("hmmer").unwrap();
        let (records, _) = record_trace_prefix(&b, "AddrCheck", 0, 40_000);
        // The record that retires the first slice's last instruction.
        let boundary = records
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, TraceRecord::Instr(_)))
            .nth(SLICE as usize - 1)
            .expect("the trace spans more than one slice")
            .0;
        // Corrupt each chunk starting within two batches past the slice
        // boundary: some of them share a batch with records the first
        // slice runs, so an error surfaced a batch early moves slices.
        let chunk = 1_000;
        let mut checked = 0;
        for at in (0..records.len()).step_by(chunk) {
            if at <= boundary || at > boundary + 2 * BATCH {
                continue;
            }
            let bytes = corrupt_at(&b, &records, at, chunk);
            for engine in [Engine::Cycle, Engine::batched()] {
                let build = |pool| {
                    builder("AddrCheck", engine, pool)
                        .source(SourceSpec::TraceBytes(bytes.clone()))
                        .build()
                        .unwrap()
                };
                let inline = fingerprint(build(&INLINE), u64::MAX);
                assert!(inline.starts_with("Err(Source("), "{inline}");
                let ahead = fingerprint(build(&ALWAYS), u64::MAX);
                assert!(
                    inline == ahead,
                    "chunk at record {at}, {engine:?}\ninline: {inline}\nahead:  {ahead}"
                );
            }
            checked += 1;
        }
        assert!(
            checked >= 3,
            "only {checked} chunks start past the boundary"
        );
    }

    /// Replays records and panics when asked for record `at`, after
    /// appending every record before it.
    struct PanicsAt {
        records: ReplayBuffer,
        left: usize,
    }

    impl TraceSource for PanicsAt {
        fn next_records_into(
            &mut self,
            buf: &mut Vec<TraceRecord>,
            n: usize,
        ) -> Result<usize, SourceError> {
            let k = self.records.next_records_into(buf, n.min(self.left))?;
            self.left -= k;
            if k < n {
                panic!("trace source gave out");
            }
            Ok(k)
        }
    }

    #[test]
    fn source_panic_resumes_at_the_same_call() {
        let b = bench::by_name("gcc").unwrap();
        let (records, _) = record_trace_prefix(&b, "MemLeak", 0, 8_000);
        for engine in [Engine::Cycle, Engine::batched()] {
            let out = |pool| {
                let source = PanicsAt {
                    records: ReplayBuffer::new(records.clone()),
                    left: 5_500,
                };
                let s = builder("MemLeak", engine, pool)
                    .trace_source(b.clone(), Box::new(source))
                    .build()
                    .unwrap();
                fingerprint(s, u64::MAX)
            };
            let inline = out(&INLINE);
            assert!(
                inline.starts_with(
                    "Err(MonitorPanicked { monitor: \"MemLeak\", payload: \"trace source gave out\" })"
                ),
                "{inline}"
            );
            let ahead = out(&ALWAYS);
            assert!(
                inline == ahead,
                "{engine:?}\ninline: {inline}\nahead:  {ahead}"
            );
        }
    }

    #[test]
    fn a_dropped_session_frees_its_lease() {
        static ONE: LeasePool = LeasePool::new(|| 1);
        let b = bench::by_name("gcc").unwrap();
        let build = || {
            builder("MemLeak", Engine::batched(), &ONE)
                .source(&b)
                .build()
                .unwrap()
        };
        let mut first = build();
        assert_eq!(ONE.held(), 1, "the first session reads ahead");
        let second = build();
        assert_eq!(ONE.held(), 1, "the second finds no lease and runs inline");
        first.run(5_000).unwrap();
        drop(first);
        assert_eq!(
            ONE.held(),
            0,
            "dropped mid-run, the first returned its lease"
        );
        let third = build();
        assert_eq!(ONE.held(), 1, "the next session reads ahead");
        assert_eq!(fingerprint(second, 6_000), fingerprint(third, 6_000));
        assert_eq!(ONE.held(), 0);
    }

    /// Blocks in every read until its sender hangs up.
    struct Blocked(Receiver<()>);

    impl TraceSource for Blocked {
        fn next_records_into(
            &mut self,
            _: &mut Vec<TraceRecord>,
            _: usize,
        ) -> Result<usize, SourceError> {
            let _ = self.0.recv();
            Ok(0)
        }
    }

    #[test]
    fn drop_never_waits_for_a_blocked_source() {
        let (unblock, blocked) = mpsc::channel();
        let session = builder("MemLeak", Engine::Cycle, &ALWAYS)
            .trace_source(bench::by_name("gcc").unwrap(), Box::new(Blocked(blocked)))
            .build()
            .unwrap();
        let (dropped, done) = mpsc::channel();
        std::thread::spawn(move || {
            drop(session);
            dropped.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(10))
            .expect("dropping the session returned without the helper");
        drop(unblock);
    }
}
