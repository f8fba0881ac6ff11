//! Read-ahead: a session's trace source runs on a helper thread, a few
//! bounded batches ahead of the engine, whenever a CPU is free for it.
//!
//! Decoding a `.fadet` stream or generating a synthetic one is the
//! application side of the monitored system; like FADE's own
//! decoupling of the application core from the filter, it need not
//! wait for the engine. A session reads its [`TraceSource`] through a
//! [`Feed`], which refills the engine's record buffer one batch of
//! [`BATCH`] records (one writer chunk) at a time. Inline, the source
//! appends the batch to the emptied buffer itself. Reading ahead, a
//! helper thread reads the source into batch buffers of its own, so a
//! `.fadet` reader decodes each chunk straight into a batch, and each
//! refill swaps the next full batch for the spent one: every record is
//! written once.
//!
//! Every refill answers exactly as the inline one would have: the same
//! records, fewer than [`BATCH`] only at the end of the trace, a source
//! error on the same refill (after the same records), and a panic
//! inside the source resumed on the engine's thread at that same
//! refill. Results therefore never depend on whether a session reads
//! ahead.
//!
//! Each side polls briefly for the other before it blocks ([`POLL`]),
//! so a hand-over rarely waits for a parked thread to be woken.
//!
//! Read-ahead is bounded twice. Per process, a session needs a
//! [`Lease`] from [`SPARE_CPUS`], which holds
//! `available_parallelism() − 1` of them: a session that finds none
//! free runs its source inline, as does every session on one CPU. Per
//! lease, one [`Helper`] thread, started on first use, owns [`BUFFERS`]
//! batch buffers and parks between sessions, so back-to-back sessions
//! spawn no thread and allocate no batch. The engine's record buffer
//! is one of those batches, and goes back to the helper with the
//! others when the session ends. A helper that no session takes up
//! within [`IDLE`] frees its buffers and exits; its lease starts a
//! fresh one when it is next used.
//!
//! Dropping a session never waits for its helper. A helper still
//! inside the ended session's source call reads nothing more for it,
//! and takes up the next session's source once that call returns. If
//! that takes longer than [`STUCK`], the source has blocked: the next
//! session retires the helper, which exits once its call returns, and
//! its lease gets a fresh one.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use fade_trace::{DegradationReport, TraceRecord, DEFAULT_CHUNK_RECORDS};

use crate::system::{SourceError, TraceSource};

/// Records per refill, inline or read ahead: one writer chunk of a
/// `.fadet` stream.
pub(crate) const BATCH: usize = DEFAULT_CHUNK_RECORDS;

/// Batch buffers a helper owns: the one its session's engine works
/// through and at most two the helper has filled ahead of it.
const BUFFERS: usize = 3;

/// How long a session waits for its helper to take up its source
/// before it takes the source back and starts a fresh helper. A helper
/// finishes any source call it is in first, and a call reads one batch.
const STUCK: Duration = Duration::from_millis(100);

/// How long a parked helper waits for its lease's next session before
/// it frees its buffers and exits.
const IDLE: Duration = Duration::from_secs(1);

/// A process-wide count of read-ahead leases, its cap, and the helpers
/// of the leases no session holds.
#[derive(Debug)]
pub(crate) struct LeasePool {
    held: AtomicUsize,
    cap: fn() -> usize,
    parked: Mutex<Vec<Helper>>,
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
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Takes a lease, with its parked helper if it has one; never waits
    /// for a lease.
    fn try_lease(&'static self) -> Option<Lease> {
        let cap = (self.cap)();
        self.held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                (held < cap).then_some(held + 1)
            })
            .ok()?;
        let helper = self
            .parked
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        Some(Lease { pool: self, helper })
    }

    /// Leases currently held.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Acquire)
    }
}

/// The right to one read-ahead helper. On drop the helper parks in the
/// pool, then the lease returns.
struct Lease {
    pool: &'static LeasePool,
    helper: Option<Helper>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            let mut parked = self
                .pool
                .parked
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            parked.push(helper);
        }
        self.pool.held.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One session's source and its two channels, as a helper serves them.
struct Job {
    source: Box<dyn TraceSource>,
    full: SyncSender<Batch>,
    free: Receiver<Vec<TraceRecord>>,
}

/// What a helper thread and the lease that owns it share.
#[derive(Default)]
struct Slot {
    /// A session's source, waiting for the thread to take it up.
    job: Option<Job>,
    /// The session whose source the thread took up last has ended: it
    /// reads no further batch for it.
    ended: bool,
    /// The thread takes up no further job: its handle is gone, and it
    /// exits once free, or it was idle for [`IDLE`] and has exited.
    retired: bool,
}

/// The handle to a long-lived read-ahead thread. Dropping it retires
/// the thread.
struct Helper(Arc<(Mutex<Slot>, Condvar)>);

impl std::fmt::Debug for Helper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Helper")
    }
}

impl Helper {
    /// Starts a helper thread; `None` if the thread does not start.
    fn spawn() -> Option<Helper> {
        let shared = Arc::new((Mutex::new(Slot::default()), Condvar::new()));
        let theirs = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("fade-read-ahead".into())
            .spawn(move || helper(&theirs))
            .ok()?;
        Some(Helper(shared))
    }

    /// Locks the slot. Each update of a slot is one assignment, so a
    /// lock poisoned by a panicking holder still guards a valid slot.
    fn slot(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.0 .0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` for the thread, which takes it up once it is free;
    /// gives `job` back if the thread has exited.
    fn submit(&self, job: Job) -> Result<(), Job> {
        let mut slot = self.slot();
        if slot.retired {
            return Err(job);
        }
        slot.job = Some(job);
        self.0 .1.notify_one();
        Ok(())
    }

    /// Takes back a job the thread has not taken up yet.
    fn retract(&self) -> Option<Job> {
        self.slot().job.take()
    }

    /// Ends the session the thread serves, and takes back its job if
    /// the thread has not taken it up yet.
    fn end_session(&self) -> Option<Job> {
        let mut slot = self.slot();
        slot.ended = true;
        slot.job.take()
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.slot().retired = true;
        self.0 .1.notify_one();
    }
}

/// Queues `job` on `helper`, or on a fresh helper if there is none or
/// its thread has exited; gives `job` back if no thread starts.
fn start(helper: Option<Helper>, job: Job) -> Result<Helper, Job> {
    let job = match helper {
        Some(helper) => match helper.submit(job) {
            Ok(()) => return Ok(helper),
            Err(job) => job,
        },
        None => job,
    };
    let Some(fresh) = Helper::spawn() else {
        return Err(job);
    };
    fresh.submit(job)?;
    Ok(fresh)
}

/// A session's trace source and the record buffer its engine refills.
pub(crate) struct Feed {
    /// The records of the last refill.
    pub(crate) records: Vec<TraceRecord>,
    source: Source,
}

/// Where a [`Feed`]'s batches come from.
enum Source {
    /// The engine's thread calls the source itself.
    Inline(Box<dyn TraceSource>),
    /// A lease's helper thread reads the source ahead.
    Ahead(ReadAhead),
}

impl Feed {
    /// Replaces `records` with the source's next [`BATCH`] records.
    ///
    /// # Errors
    ///
    /// The source's error, after the records it read before it. A panic
    /// inside the source resumes here.
    pub(crate) fn refill(&mut self) -> Result<(), SourceError> {
        match &mut self.source {
            Source::Inline(source) => {
                self.records.clear();
                source.next_records_into(&mut self.records, BATCH)?;
                Ok(())
            }
            Source::Ahead(ahead) => ahead.refill(&mut self.records),
        }
    }

    /// The source's degradation report once the records served so far
    /// were read.
    pub(crate) fn degradation(&self) -> Option<&DegradationReport> {
        match &self.source {
            Source::Inline(source) => source.degradation(),
            Source::Ahead(ahead) => ahead.degradation.as_ref(),
        }
    }
}

impl Drop for Feed {
    fn drop(&mut self) {
        if let Source::Ahead(ahead) = &mut self.source {
            ahead.end(std::mem::take(&mut self.records));
        }
    }
}

/// Feeds `source` from its lease's helper if `pool` has a free lease
/// and a helper runs (or starts) for it; otherwise inline.
pub(crate) fn read_ahead(source: Box<dyn TraceSource>, pool: &'static LeasePool) -> Feed {
    let inline = |source| Feed {
        records: Vec::with_capacity(BATCH),
        source: Source::Inline(source),
    };
    let Some(mut lease) = pool.try_lease() else {
        return inline(source);
    };
    let (full_tx, full) = mpsc::sync_channel(BUFFERS);
    let (free, free_rx) = mpsc::channel();
    let degradation = source.degradation().cloned();
    let job = Job {
        source,
        full: full_tx,
        free: free_rx,
    };
    match start(lease.helper.take(), job) {
        Ok(helper) => lease.helper = Some(helper),
        Err(job) => return inline(job.source),
    }
    Feed {
        // The first refill swaps in a batch.
        records: Vec::new(),
        source: Source::Ahead(ReadAhead {
            full,
            free,
            after: None,
            degradation,
            pending: true,
            lease,
        }),
    }
}

/// How long either side polls for the other's next message before it
/// blocks.
const POLL: Duration = Duration::from_micros(200);

/// Receives from `rx` within `limit` (`Duration::MAX`: no limit),
/// polling and yielding the CPU for up to [`POLL`] before blocking: a
/// thread parked on an idle CPU can take far longer to wake (on a
/// virtual machine, until its vCPU is scheduled again) than the other
/// side takes to fill or drain a batch.
fn recv_soon<T>(rx: &Receiver<T>, limit: Duration) -> Result<T, RecvTimeoutError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) if start.elapsed() < POLL => std::thread::yield_now(),
            // A deadline past `Instant`'s range waits without one.
            Err(TryRecvError::Empty) => {
                return rx.recv_timeout(limit.saturating_sub(start.elapsed()))
            }
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

/// A helper thread: serves each session's source that its lease queues
/// and keeps its batch buffers between them, until it is retired or
/// idle for [`IDLE`].
fn helper(shared: &(Mutex<Slot>, Condvar)) {
    let (slot, wake) = shared;
    let mut buffers = Vec::new();
    loop {
        let job = {
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = slot.job.take() {
                    slot.ended = false;
                    break job;
                }
                if slot.retired {
                    return;
                }
                let (next, wait) = wake
                    .wait_timeout(slot, IDLE)
                    .unwrap_or_else(PoisonError::into_inner);
                slot = next;
                if wait.timed_out() && slot.job.is_none() {
                    slot.retired = true;
                    return;
                }
            }
        };
        serve(job, &mut buffers, slot);
    }
}

/// Fills `buffers` with `job`'s source and sends them to its session
/// until the stream ends or the session ends, then drops the source
/// and takes back every buffer the session returns before it hangs up.
fn serve(job: Job, buffers: &mut Vec<Vec<TraceRecord>>, slot: &Mutex<Slot>) {
    let Job {
        mut source,
        full,
        free,
    } = job;
    // A buffer lost in a race with a hang-up is replaced here.
    buffers.resize_with(BUFFERS, || Vec::with_capacity(BATCH));
    while let Some(mut records) = buffers
        .pop()
        .or_else(|| recv_soon(&free, Duration::MAX).ok())
    {
        if slot.lock().unwrap_or_else(PoisonError::into_inner).ended {
            buffers.push(records);
            break;
        }
        records.clear();
        let end = fill(source.as_mut(), &mut records);
        let last = end.is_some();
        let degradation = source.degradation().cloned();
        let batch = Batch {
            records,
            end,
            degradation,
        };
        if let Err(mpsc::SendError(batch)) = full.send(batch) {
            buffers.push(batch.records);
            break;
        }
        if last {
            break;
        }
    }
    drop(source);
    buffers.extend(free.iter());
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

/// A [`Feed`]'s end of the channels to its lease's helper.
///
/// Ending it ([`ReadAhead::end`]) hands every buffer back and hangs up
/// both channels: the helper drops the source once its current read
/// returns. Nothing here waits for the helper; the lease, with its
/// helper, returns with the session.
struct ReadAhead {
    full: Receiver<Batch>,
    free: Sender<Vec<TraceRecord>>,
    /// What every refill after the last batch answers.
    after: Option<Result<(), SourceError>>,
    degradation: Option<DegradationReport>,
    /// No batch has come yet: the helper may still be in an earlier
    /// session's source call.
    pending: bool,
    lease: Lease,
}

impl ReadAhead {
    /// Hands the spent `records` back to the helper and swaps in the
    /// next batch.
    fn refill(&mut self, records: &mut Vec<TraceRecord>) -> Result<(), SourceError> {
        self.give_back(std::mem::take(records));
        if let Some(after) = &self.after {
            return after.clone();
        }
        let batch = if self.pending {
            self.first_batch()
        } else {
            recv_soon(&self.full, Duration::MAX).ok()
        };
        // The helper hangs up only after its last batch, so only a
        // helper thread that died leaves none.
        let Some(batch) = batch else {
            return Err(SourceError::Other("read-ahead helper hung up".into()));
        };
        self.pending = false;
        *records = batch.records;
        self.degradation = batch.degradation;
        match batch.end {
            None => Ok(()),
            Some(End::Exhausted) => {
                self.after = Some(Ok(()));
                Ok(())
            }
            Some(End::Failed(e)) => {
                self.after = Some(Err(e.clone()));
                Err(e)
            }
            Some(End::Panicked(payload)) => {
                self.after = Some(Err(SourceError::Other(
                    "trace source panicked earlier".into(),
                )));
                resume_unwind(payload)
            }
        }
    }

    /// Sends a spent buffer back to the helper. A helper that has
    /// finished with the session already needs none.
    fn give_back(&self, spent: Vec<TraceRecord>) {
        if spent.capacity() > 0 {
            let _ = self.free.send(spent);
        }
    }

    /// Waits for the first batch. While the helper has not taken up
    /// the source, it waits at most [`STUCK`] at a time; then it takes
    /// the source back and hands it to a fresh helper.
    fn first_batch(&mut self) -> Option<Batch> {
        loop {
            match recv_soon(&self.full, STUCK) {
                Ok(batch) => return Some(batch),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {}
            }
            let helper = self
                .lease
                .helper
                .as_mut()
                .expect("a reading lease has a helper");
            if let Some(job) = helper.retract() {
                match start(None, job) {
                    // Dropping the old handle retires its thread.
                    Ok(fresh) => *helper = fresh,
                    // The old thread is busy, not idle, so it takes the
                    // job back.
                    Err(job) => drop(helper.submit(job)),
                }
            }
        }
    }

    /// Ends the session: a source the helper never took up goes with
    /// it, and the helper gets back the engine's buffer and every
    /// batch not yet received.
    fn end(&mut self, records: Vec<TraceRecord>) {
        drop(self.lease.helper.as_ref().and_then(Helper::end_session));
        self.give_back(records);
        while let Ok(batch) = self.full.try_recv() {
            self.give_back(batch.records);
        }
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

    /// Replays records and notes the thread of every call.
    struct OnThread {
        records: ReplayBuffer,
        threads: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl TraceSource for OnThread {
        fn next_records_into(
            &mut self,
            buf: &mut Vec<TraceRecord>,
            n: usize,
        ) -> Result<usize, SourceError> {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            self.records.next_records_into(buf, n)
        }
    }

    /// One session of `engine` replaying `records` through
    /// [`OnThread`], rendered by [`fingerprint`].
    fn on_thread(
        records: &[TraceRecord],
        engine: Engine,
        pool: &'static LeasePool,
        threads: &Arc<Mutex<Vec<std::thread::ThreadId>>>,
    ) -> String {
        let source = OnThread {
            records: ReplayBuffer::new(records.to_vec()),
            threads: Arc::clone(threads),
        };
        let s = builder("AddrCheck", engine, pool)
            .trace_source(bench::by_name("hmmer").unwrap(), Box::new(source))
            .build()
            .unwrap();
        fingerprint(s, u64::MAX)
    }

    #[test]
    fn back_to_back_sessions_share_one_helper_thread() {
        static ONE: LeasePool = LeasePool::new(|| 1);
        let b = bench::by_name("hmmer").unwrap();
        let sessions: Vec<_> = [Engine::batched(), Engine::Cycle, Engine::batched()]
            .into_iter()
            .enumerate()
            .map(|(i, engine)| {
                let (records, _) = record_trace_prefix(&b, "AddrCheck", i as u64, 9_000);
                let inline = on_thread(&records, engine, &INLINE, &Arc::default());
                (records, engine, inline)
            })
            .collect();
        let threads = Arc::default();
        for (i, (records, engine, inline)) in sessions.iter().enumerate() {
            let ahead = on_thread(records, *engine, &ONE, &threads);
            assert!(
                *inline == ahead,
                "session {i}, {engine:?}\ninline: {inline}\nahead:  {ahead}"
            );
            assert_eq!(ONE.held(), 0);
        }
        let threads = threads.lock().unwrap();
        assert!(threads.len() >= 3, "{threads:?}");
        assert!(
            threads
                .iter()
                .all(|&t| t == threads[0] && t != std::thread::current().id()),
            "the sessions' sources ran on {threads:?}"
        );
    }

    #[test]
    fn an_idle_helper_exits_and_its_lease_starts_another() {
        static ONE: LeasePool = LeasePool::new(|| 1);
        let (records, _) =
            record_trace_prefix(&bench::by_name("hmmer").unwrap(), "AddrCheck", 0, 9_000);
        let inline = on_thread(&records, Engine::batched(), &INLINE, &Arc::default());
        let (first, second) = (Arc::default(), Arc::default());
        assert_eq!(on_thread(&records, Engine::batched(), &ONE, &first), inline);
        assert_eq!(ONE.parked.lock().unwrap().len(), 1, "the helper parks");
        let parked = Instant::now();
        while !ONE.parked.lock().unwrap()[0].slot().retired {
            assert!(
                parked.elapsed() < IDLE + Duration::from_secs(10),
                "the parked helper did not exit"
            );
            std::thread::sleep(IDLE / 10);
        }
        assert_eq!(
            on_thread(&records, Engine::batched(), &ONE, &second),
            inline
        );
        let (first, second) = (first.lock().unwrap(), second.lock().unwrap());
        assert!(
            second.iter().all(|&t| t == second[0]) && second[0] != first[0],
            "the sessions' sources ran on {first:?}, then on {second:?}"
        );
    }

    /// Says when it is called, then blocks until its sender hangs up.
    struct BlocksWhenCalled {
        called: mpsc::Sender<()>,
        release: Receiver<()>,
    }

    impl TraceSource for BlocksWhenCalled {
        fn next_records_into(
            &mut self,
            _: &mut Vec<TraceRecord>,
            _: usize,
        ) -> Result<usize, SourceError> {
            let _ = self.called.send(());
            let _ = self.release.recv();
            Ok(0)
        }
    }

    #[test]
    fn a_lease_whose_helper_is_stuck_gets_a_fresh_one() {
        static ONE: LeasePool = LeasePool::new(|| 1);
        let b = bench::by_name("gcc").unwrap();
        let (called, calls) = mpsc::channel();
        let (unblock, release) = mpsc::channel();
        let stuck = builder("MemLeak", Engine::Cycle, &ONE)
            .trace_source(b.clone(), Box::new(BlocksWhenCalled { called, release }))
            .build()
            .unwrap();
        calls
            .recv_timeout(Duration::from_secs(10))
            .expect("the helper calls the source");
        drop(stuck);
        assert_eq!(ONE.held(), 0);
        let build = |pool| {
            builder("MemLeak", Engine::batched(), pool)
                .source(&b)
                .build()
                .unwrap()
        };
        let next = build(&ONE);
        assert_eq!(ONE.held(), 1, "the next session reads ahead");
        assert_eq!(
            fingerprint(next, 20_000),
            fingerprint(build(&INLINE), 20_000)
        );
        assert_eq!(ONE.held(), 0);
        drop(unblock);
    }
}
