//! The top-level FADE accelerator.
//!
//! Composes the Filtering Unit pipeline, the Stack-Update Unit, the MD
//! cache + M-TLB, and (in non-blocking mode) the metadata-update logic
//! and the Filter Store Queue, behind a cycle-accurate [`Fade::tick`].
//!
//! # Timing model
//!
//! The four-stage pipeline of Figure 5 sustains one event per cycle in
//! steady state; what this model tracks is every source of *lost*
//! cycles:
//!
//! * extra shots of multi-shot events (one cycle per chained check),
//! * MD cache misses (L2/DRAM fill latency) and M-TLB misses (software
//!   fill),
//! * unfiltered-queue backpressure and FSQ exhaustion,
//! * draining before stack updates, and the SUU's line writes,
//! * in blocking mode, the stall from dispatching an unfiltered event
//!   until its software handler completes (Section 5 removes exactly
//!   this stall).
//!
//! # Functional model
//!
//! Metadata is updated in program order at filter time: non-blocking
//! critical updates are applied by the update logic the cycle the event
//! resolves, which is also what the paper's hardware guarantees
//! dependent events will observe (via MD-RF write or FSQ forwarding).
//! Software handlers later apply the *same* critical values (the update
//! rules and the handlers agree on critical metadata), so eager
//! application keeps the functional stream
//! identical in blocking mode, non-blocking mode, and software-only
//! runs.

use fade_isa::{AppEvent, HighLevelEvent, InstrEvent, StackUpdateEvent};
use fade_shadow::MetadataState;
use fade_sim::{BoundedQueue, MemLatency, QueueDepth};

use crate::event_table::{EventTableEntry, HandlerPc, OperandSel};
use crate::filter_logic::{evaluate_shot, OperandMeta, ShotChain};
use crate::fsq::Fsq;
use crate::invrf::InvId;
use crate::md_cache::{CacheStats, TagCache, TagCacheConfig};
use crate::md_tlb::MdTlb;
use crate::program::FadeProgram;
use crate::suu::StackUpdateUnit;

/// Blocking (baseline, Section 4) or Non-Blocking (Section 5) filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterMode {
    /// Baseline FADE: stall filtering from dispatching an unfiltered
    /// event until its software handler completes.
    Blocking,
    /// Non-Blocking FADE: keep filtering past unfiltered events using
    /// the metadata-update logic and the FSQ.
    NonBlocking,
}

/// Accelerator configuration (defaults follow Section 6).
#[derive(Clone, Copy, Debug)]
pub struct FadeConfig {
    /// Event queue depth (paper: 32).
    pub event_queue: QueueDepth,
    /// Unfiltered event queue depth (paper: 16).
    pub unfiltered_queue: QueueDepth,
    /// Filter store queue entries (non-blocking only).
    pub fsq_entries: usize,
    /// MD cache geometry (paper: 4 KB, 2-way, 64 B).
    pub md_cache: TagCacheConfig,
    /// M-TLB entries (paper: 16).
    pub tlb_entries: usize,
    /// Cycles to service an M-TLB miss in software.
    pub tlb_miss_penalty: u32,
    /// Blocking mode only: cycles from handler completion until the
    /// updated metadata are visible to the Filtering Unit and filtering
    /// resumes (cross-core signalling + metadata handoff). Non-blocking
    /// filtering exists precisely to hide this round trip (Section 5).
    pub blocking_resume_latency: u32,
    /// Blocking or non-blocking filtering.
    pub(crate) mode: FilterMode,
    /// Memory latencies behind the MD cache.
    pub mem_lat: MemLatency,
}

impl FadeConfig {
    /// The paper's evaluated configuration with the given mode.
    pub fn paper(mode: FilterMode) -> Self {
        FadeConfig {
            event_queue: QueueDepth::Bounded(32),
            unfiltered_queue: QueueDepth::Bounded(16),
            fsq_entries: 16,
            md_cache: TagCacheConfig::md_cache(),
            tlb_entries: MdTlb::DEFAULT_ENTRIES,
            tlb_miss_penalty: 60,
            blocking_resume_latency: 30,
            mode,
            mem_lat: MemLatency::table1(),
        }
    }
}

impl Default for FadeConfig {
    fn default() -> Self {
        FadeConfig::paper(FilterMode::NonBlocking)
    }
}

/// An event FADE could not filter, bound for the software consumer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnfilteredEvent {
    /// The original application event.
    pub event: AppEvent,
    /// Handler the monitor should run.
    pub handler: HandlerPc,
    /// `true` if a partial check passed and `handler` is the short
    /// handler (Section 4.1, Partial Filtering).
    pub partial_hit: bool,
    /// Completion token: pass to [`Fade::handler_completed`] when the
    /// software handler finishes.
    pub token: u64,
}

/// Counters exported by the accelerator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FadeStats {
    /// Instruction events processed.
    pub instr_events: u64,
    /// Instruction events filtered outright.
    pub filtered: u64,
    /// Partial-filter events whose hardware check passed (short
    /// handler dispatched).
    pub partial_hits: u64,
    /// Instruction events dispatched with the full handler.
    pub unfiltered_instr: u64,
    /// Stack-update events processed by the SUU.
    pub stack_updates: u64,
    /// High-level events forwarded to software.
    pub high_level: u64,
    /// Total filter-logic shots evaluated.
    pub shots: u64,
    /// Cycles the filtering unit did useful work.
    pub busy_cycles: u64,
    /// Cycles with no event available.
    pub idle_cycles: u64,
    /// Cycles stalled in blocking mode waiting for a handler.
    pub blocking_stall_cycles: u64,
    /// Cycles stalled because the unfiltered queue was full.
    pub ufq_full_stall_cycles: u64,
    /// Cycles stalled because the FSQ was full.
    pub fsq_full_stall_cycles: u64,
    /// Cycles stalled draining before a stack update.
    pub drain_stall_cycles: u64,
    /// Cycles the SUU was writing frame metadata.
    pub suu_busy_cycles: u64,
    /// Cycles paying MD-cache miss latency.
    pub md_miss_stall_cycles: u64,
    /// Cycles paying M-TLB software-fill latency.
    pub tlb_miss_stall_cycles: u64,
}

impl FadeStats {
    /// The *functional* event counters — the ones that depend only on
    /// the program-order event stream and metadata values, never on
    /// timing. Any two executions of the same stream (per-event vs
    /// batched, blocking vs non-blocking consumer pacing) must agree
    /// on these exactly; the cycle/stall counters legitimately differ.
    /// One definition here so every differential harness checks the
    /// same contract.
    pub fn functional_counters(&self) -> [u64; 7] {
        [
            self.instr_events,
            self.filtered,
            self.partial_hits,
            self.unfiltered_instr,
            self.stack_updates,
            self.high_level,
            self.shots,
        ]
    }

    /// Fraction of instruction event *handlers* elided: filtered events
    /// plus partial hits (whose complex handler was replaced by the
    /// short one), over all instruction events — the paper's "filtering
    /// efficiency" (Table 2).
    pub fn filtering_ratio(&self) -> f64 {
        if self.instr_events == 0 {
            return 1.0;
        }
        (self.filtered + self.partial_hits) as f64 / self.instr_events as f64
    }
}

/// What happened during one [`Fade::tick`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FadeTick {
    /// An event was dispatched to the unfiltered queue this cycle. The
    /// system must apply the event's *functional* handler effect now —
    /// metadata evolves in program order at filter time (see the module
    /// docs); the monitor core only pays the handler's execution time
    /// when it later pops the queue.
    pub dispatched: Option<UnfilteredEvent>,
}

impl FadeTick {
    /// The dispatched high-level event, if this cycle dispatched one.
    pub fn dispatched_high_level(&self) -> Option<HighLevelEvent> {
        match self.dispatched {
            Some(UnfilteredEvent {
                event: AppEvent::HighLevel(ev),
                ..
            }) => Some(ev),
            _ => None,
        }
    }
}

/// Counters for one [`Fade::run_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Events drained from the batch.
    pub events: u64,
    /// Events that took the short-circuit fast path: single-shot
    /// instruction events whose metadata structures were warm (M-TLB
    /// and MD-cache hits), i.e. that paid no miss penalty.
    pub fast_path: u64,
    /// Events off the fast path: stack updates and high-level events
    /// (the cycle-accurate [`Fade::tick`] machinery), multi-shot
    /// chains, and single-shot events that missed in the M-TLB or MD
    /// cache.
    pub fallback: u64,
    /// Events dispatched to the software consumer during the batch.
    pub dispatched: u64,
}

impl BatchStats {
    /// Folds another batch's counters into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.events += other.events;
        self.fast_path += other.fast_path;
        self.fallback += other.fallback;
        self.dispatched += other.dispatched;
    }

    /// Fraction of batch events that took the short-circuit fast path
    /// (0 when no events were drained) — the single number callers
    /// should quote instead of re-deriving it from the raw counters.
    pub fn fast_path_fraction(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.fast_path as f64 / self.events as f64
    }
}

/// A pending functional effect, applied when the in-flight event
/// finalizes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Effect {
    /// Write register critical metadata.
    Reg(fade_isa::Reg, u8),
    /// Write memory critical metadata (via FSQ in non-blocking mode).
    Mem { md_addr: u64, bytes: u8, value: u64 },
}

#[derive(Clone, Debug, PartialEq)]
enum Resolution {
    Filtered,
    Dispatch {
        unfiltered: UnfilteredEvent,
        effect: Option<Effect>,
    },
}

#[derive(Clone, Debug, PartialEq)]
enum FaState {
    /// Ready to accept the next event.
    Idle,
    /// Processing an event for `cycles_left` more cycles.
    Processing {
        cycles_left: u32,
        resolution: Resolution,
    },
    /// Unfiltered queue full: retrying the dispatch each cycle.
    WaitUfq { resolution: Resolution },
    /// FSQ full: waiting for a handler completion to free an entry.
    WaitFsq { resolution: Resolution },
    /// Blocking mode: waiting for the handler of `token`.
    BlockedOnHandler { token: u64 },
}

/// The FADE accelerator.
pub struct Fade {
    config: FadeConfig,
    program: FadeProgram,
    event_q: BoundedQueue<AppEvent>,
    ufq: BoundedQueue<UnfilteredEvent>,
    fsq: Fsq,
    md_cache: TagCache,
    md_l2: TagCache,
    tlb: MdTlb,
    suu: StackUpdateUnit,
    state: FaState,
    outstanding: Vec<u64>,
    next_token: u64,
    stats: FadeStats,
}

impl std::fmt::Debug for Fade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fade")
            .field("mode", &self.config.mode)
            .field("event_q", &self.event_q.len())
            .field("ufq", &self.ufq.len())
            .field("fsq", &self.fsq.len())
            .field("state", &self.state)
            .finish()
    }
}

impl Fade {
    /// Creates an accelerator running `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program fails [`FadeProgram::validate`]; programs
    /// must be validated before being loaded into hardware.
    pub fn new(config: FadeConfig, program: FadeProgram) -> Self {
        program
            .validate()
            .expect("FADE program failed structural validation");
        Fade {
            event_q: BoundedQueue::new(config.event_queue),
            ufq: BoundedQueue::new(config.unfiltered_queue),
            fsq: Fsq::new(config.fsq_entries),
            md_cache: TagCache::new(config.md_cache),
            md_l2: TagCache::new(TagCacheConfig::l2()),
            tlb: MdTlb::new(config.tlb_entries),
            suu: StackUpdateUnit::new(),
            state: FaState::Idle,
            outstanding: Vec::new(),
            next_token: 0,
            stats: FadeStats::default(),
            config,
            program,
        }
    }

    /// Offers an event to the event queue (producer side).
    ///
    /// # Errors
    ///
    /// Returns the event back when the queue is full (backpressure: the
    /// application core must stall).
    pub fn enqueue(&mut self, ev: AppEvent) -> Result<(), AppEvent> {
        self.event_q.push(ev)
    }

    /// Free entries in the event queue.
    pub fn event_queue_free(&self) -> usize {
        self.event_q.free()
    }

    /// Current event-queue occupancy.
    pub fn event_queue_len(&self) -> usize {
        self.event_q.len()
    }

    /// Current unfiltered-queue occupancy.
    pub fn unfiltered_queue_len(&self) -> usize {
        self.ufq.len()
    }

    /// Pops the oldest unfiltered event (consumer side). The caller must
    /// later report [`Fade::handler_completed`] with the event's token.
    pub fn pop_unfiltered(&mut self) -> Option<UnfilteredEvent> {
        self.ufq.pop()
    }

    /// Reports completion of the software handler for `token`:
    /// releases the token's FSQ entries and, in blocking mode, resumes
    /// filtering.
    pub fn handler_completed(&mut self, token: u64) {
        self.outstanding.retain(|&t| t != token);
        self.fsq.retire(token);
        if self.state == (FaState::BlockedOnHandler { token }) {
            // Pay the metadata-handoff round trip before resuming.
            self.state = if self.config.blocking_resume_latency > 0 {
                FaState::Processing {
                    cycles_left: self.config.blocking_resume_latency,
                    resolution: Resolution::Filtered,
                }
            } else {
                FaState::Idle
            };
        }
    }

    /// Runtime invariant-register write (memory-mapped store), e.g. the
    /// AtomCheck monitor updating the current-thread signature on a
    /// thread switch.
    pub fn write_invariant(&mut self, id: InvId, value: u64) {
        self.program.invariants_mut().write(id, value);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FadeStats {
        &self.stats
    }

    /// MD cache hit/miss statistics.
    pub fn md_cache_stats(&self) -> CacheStats {
        self.md_cache.stats()
    }

    /// M-TLB hit/miss counts.
    pub fn tlb_counts(&self) -> (u64, u64) {
        (self.tlb.hits(), self.tlb.misses())
    }

    /// Stack-update unit line writes issued.
    pub fn suu_writes(&self) -> u64 {
        self.suu.writes_issued()
    }

    /// Tokens dispatched but not yet completed.
    pub fn outstanding_handlers(&self) -> usize {
        self.outstanding.len()
    }

    /// Returns `true` when the accelerator has nothing in flight: no
    /// queued events, no multi-cycle operation, and an idle SUU.
    /// (Dispatched-but-uncompleted handlers do not count; they belong
    /// to the consumer.)
    pub fn is_idle(&self) -> bool {
        self.event_q.is_empty() && self.state == FaState::Idle && !self.suu.busy()
    }

    /// Returns `true` when the accelerator sits at a batch boundary:
    /// nothing in flight ([`Fade::is_idle`]), an empty unfiltered
    /// queue, and no dispatched-but-uncompleted handlers. This is
    /// exactly the state [`Fade::run_batch`] requires on entry and
    /// guarantees on exit, so a cycle-accurate driver can check it
    /// before handing the event stream to the batched fast path and
    /// resume bit-exactly afterwards.
    pub fn quiesced(&self) -> bool {
        self.is_idle() && self.ufq.is_empty() && self.outstanding.is_empty()
    }

    /// Current FSQ occupancy.
    pub fn fsq_len(&self) -> usize {
        self.fsq.len()
    }

    /// The loaded program.
    pub fn program(&self) -> &FadeProgram {
        &self.program
    }

    /// Advances the accelerator one cycle.
    pub fn tick(&mut self, st: &mut MetadataState) -> FadeTick {
        let mut out = FadeTick::default();
        // The SUU owns the MD cache port while busy.
        if self.suu.busy() {
            self.suu.tick(&mut self.md_cache);
            self.stats.suu_busy_cycles += 1;
            return out;
        }
        match std::mem::replace(&mut self.state, FaState::Idle) {
            FaState::BlockedOnHandler { token } => {
                self.stats.blocking_stall_cycles += 1;
                self.state = FaState::BlockedOnHandler { token };
            }
            FaState::WaitUfq { resolution } => {
                if self.ufq.is_full() {
                    self.stats.ufq_full_stall_cycles += 1;
                    self.state = FaState::WaitUfq { resolution };
                } else {
                    self.finalize(resolution, st, &mut out);
                }
            }
            FaState::WaitFsq { resolution } => {
                if self.fsq.is_full() {
                    self.stats.fsq_full_stall_cycles += 1;
                    self.state = FaState::WaitFsq { resolution };
                } else {
                    self.finalize(resolution, st, &mut out);
                }
            }
            FaState::Processing {
                cycles_left,
                resolution,
            } => {
                self.stats.busy_cycles += 1;
                if cycles_left > 1 {
                    self.state = FaState::Processing {
                        cycles_left: cycles_left - 1,
                        resolution,
                    };
                } else {
                    self.finalize(resolution, st, &mut out);
                }
            }
            FaState::Idle => {
                self.start_next(st, &mut out);
            }
        }
        out
    }

    /// Advances a quiesced accelerator `cycles` cycles at once, exactly
    /// as that many [`Fade::tick`] calls would with nothing in flight:
    /// each is an idle cycle.
    ///
    /// # Panics
    ///
    /// Panics unless the accelerator is [`Fade::quiesced`].
    pub fn skip_idle(&mut self, cycles: u64) {
        assert!(self.quiesced(), "only a quiesced accelerator idles in bulk");
        self.stats.idle_cycles += cycles;
    }

    /// Drains a slice of events through the four-stage pipeline without
    /// per-event `enqueue`/`tick` round trips.
    ///
    /// Instruction events run the same pipeline stages as
    /// [`Fade::tick`] inline, skipping the event queue and the cycle
    /// state machine; single-shot events whose M-TLB and MD-cache
    /// accesses hit (no miss penalty) are the short-circuit fast path.
    /// Stack updates and high-level events fall back to the
    /// cycle-accurate [`Fade::tick`] loop. Dispatched events are
    /// consumed immediately (their handlers complete the same cycle),
    /// which is the same contract as driving the accelerator per event
    /// with an always-ready consumer:
    /// [`FadeStats`], the metadata state, and every cache/TLB counter
    /// come out bit-identical to that reference execution.
    ///
    /// # Panics
    ///
    /// Panics if handlers dispatched *before* the batch have not been
    /// completed ([`Fade::handler_completed`]), since the batch's
    /// immediate-consumer semantics cannot retire foreign tokens.
    pub fn run_batch(&mut self, events: &[AppEvent], st: &mut MetadataState) -> BatchStats {
        self.run_batch_with(events, st, |_, _| {})
    }

    /// [`Fade::run_batch`], invoking `consumer` for every dispatched
    /// event in program order (after its critical metadata update and
    /// handler completion) so callers can apply software-handler
    /// functional effects — what the monitor core does when it pops the
    /// unfiltered queue.
    pub fn run_batch_with<F>(
        &mut self,
        events: &[AppEvent],
        st: &mut MetadataState,
        mut consumer: F,
    ) -> BatchStats
    where
        F: FnMut(UnfilteredEvent, &mut MetadataState),
    {
        assert!(
            self.outstanding.is_empty(),
            "run_batch requires every previously dispatched handler to be completed"
        );
        let mut out = BatchStats::default();
        // Settle any backlog the caller enqueued before the batch.
        if !self.is_idle() {
            self.settle_batch(st, &mut out, &mut consumer);
        }
        for ev in events {
            out.events += 1;
            match ev {
                AppEvent::Instr(iev) => self.batch_instr(iev, st, &mut out, &mut consumer),
                other => {
                    out.fallback += 1;
                    self.event_q
                        .push(*other)
                        .expect("event queue is drained between batch events");
                    self.settle_batch(st, &mut out, &mut consumer);
                }
            }
        }
        out
    }

    /// One instruction event of a batch: the pipeline stages of
    /// [`Fade::tick`] (`resolve_instr`), without the event-queue round
    /// trip. A dispatch commits through `finalize` — the UFQ and FSQ
    /// are empty, so it cannot stall — and its handler completes at
    /// once.
    fn batch_instr<F>(
        &mut self,
        ev: &InstrEvent,
        st: &mut MetadataState,
        out: &mut BatchStats,
        consumer: &mut F,
    ) where
        F: FnMut(UnfilteredEvent, &mut MetadataState),
    {
        debug_assert!(self.is_idle() && self.ufq.is_empty() && self.fsq.is_empty());
        let (resolution, cycles) = self.resolve_instr(ev, st);
        self.stats.busy_cycles += cycles as u64;
        // One shot and no miss penalty, from a real entry (the no-entry
        // path also takes one cycle): the fast path.
        if cycles == 1 && self.program.table().entry(ev.id).is_some() {
            out.fast_path += 1;
        } else {
            out.fallback += 1;
        }
        if let dispatch @ Resolution::Dispatch { .. } = resolution {
            let mut tk = FadeTick::default();
            self.finalize(dispatch, st, &mut tk);
            debug_assert!(tk.dispatched.is_some(), "empty UFQ/FSQ cannot stall");
            self.drain_dispatched(st, out, consumer);
            self.settle_batch(st, out, consumer); // blocking-mode resume
        }
    }

    /// Pops every dispatched event, completes its handler and hands it
    /// to the batch consumer.
    fn drain_dispatched<F>(
        &mut self,
        st: &mut MetadataState,
        out: &mut BatchStats,
        consumer: &mut F,
    ) where
        F: FnMut(UnfilteredEvent, &mut MetadataState),
    {
        while let Some(uf) = self.ufq.pop() {
            self.handler_completed(uf.token);
            out.dispatched += 1;
            consumer(uf, st);
        }
    }

    /// Runs the cycle-accurate loop (with an always-ready consumer)
    /// until the accelerator quiesces.
    fn settle_batch<F>(&mut self, st: &mut MetadataState, out: &mut BatchStats, consumer: &mut F)
    where
        F: FnMut(UnfilteredEvent, &mut MetadataState),
    {
        let mut guard = 0u64;
        while !self.is_idle() {
            self.tick(st);
            self.drain_dispatched(st, out, consumer);
            guard += 1;
            assert!(guard < 100_000_000, "run_batch failed to quiesce");
        }
        self.drain_dispatched(st, out, consumer);
    }

    /// Tries to start processing the event at the queue head.
    fn start_next(&mut self, st: &mut MetadataState, out: &mut FadeTick) {
        let Some(head) = self.event_q.front() else {
            self.stats.idle_cycles += 1;
            return;
        };
        match *head {
            AppEvent::StackUpdate(ev) => {
                // Stack updates change metadata state: pending unfiltered
                // events may reference frame metadata, so the unfiltered
                // queue must drain first (Section 5.2).
                if !self.ufq.is_empty() || !self.outstanding.is_empty() {
                    self.stats.drain_stall_cycles += 1;
                    return;
                }
                self.event_q.pop();
                if self.program.suu().is_some() {
                    self.start_stack_update(&ev, st);
                } else {
                    // SUU disabled (ablation): the software monitor
                    // performs the bulk update.
                    self.stats.stack_updates += 1;
                    let token = self.alloc_token();
                    let resolution = Resolution::Dispatch {
                        unfiltered: UnfilteredEvent {
                            event: AppEvent::StackUpdate(ev),
                            handler: HandlerPc::default(),
                            partial_hit: false,
                            token,
                        },
                        effect: None,
                    };
                    self.stats.busy_cycles += 1;
                    self.finalize(resolution, st, out);
                }
            }
            AppEvent::HighLevel(ev) => {
                // Malloc/free/taint-source handlers bulk-update
                // metadata, superseding any still-pending critical
                // update: like stack updates (Section 5.2), they must
                // wait for the unfiltered queue to drain so no stale
                // FSQ entry is forwarded over their writes.
                let bulk = !matches!(ev, HighLevelEvent::ThreadSwitch { .. });
                if bulk && (!self.ufq.is_empty() || !self.outstanding.is_empty()) {
                    self.stats.drain_stall_cycles += 1;
                    return;
                }
                self.event_q.pop();
                self.stats.busy_cycles += 1;
                let token = self.alloc_token();
                let resolution = Resolution::Dispatch {
                    unfiltered: UnfilteredEvent {
                        event: AppEvent::HighLevel(ev),
                        handler: HandlerPc::default(),
                        partial_hit: false,
                        token,
                    },
                    effect: None,
                };
                self.finalize(resolution, st, out);
            }
            AppEvent::Instr(ev) => {
                self.event_q.pop();
                self.stats.busy_cycles += 1;
                let (resolution, cycles) = self.resolve_instr(&ev, st);
                if cycles > 1 {
                    self.state = FaState::Processing {
                        cycles_left: cycles - 1,
                        resolution,
                    };
                } else {
                    self.finalize(resolution, st, out);
                }
            }
        }
    }

    fn start_stack_update(&mut self, ev: &StackUpdateEvent, st: &mut MetadataState) {
        self.stats.stack_updates += 1;
        let Some(suu_cfg) = self.program.suu() else {
            return;
        };
        let map = self.program.md_map();
        // Split borrows so the SUU reads the invariant file in place —
        // no per-update clone of the register file on the hot path.
        let Fade { suu, program, .. } = self;
        suu.start(ev, suu_cfg.call_inv, suu_cfg.ret_inv, program.invariants(), &map, st);
    }

    /// Runs the filtering pipeline for an instruction event, returning
    /// the resolution and the cycles of filtering-unit occupancy.
    fn resolve_instr(&mut self, ev: &InstrEvent, st: &MetadataState) -> (Resolution, u32) {
        self.stats.instr_events += 1;
        let Some(primary) = self.program.table().entry(ev.id) else {
            // The producer only enqueues monitored events; an event
            // without an entry is a producer/program mismatch. Treat it
            // as filtered so software is never invoked spuriously.
            debug_assert!(false, "event {:?} has no event-table entry", ev.id);
            self.stats.filtered += 1;
            return (Resolution::Filtered, 1);
        };

        // Metadata Read stage: one MD cache (+TLB) access per event with
        // a memory operand.
        let mut penalty = 0u32;
        let has_mem = OperandSel::ALL
            .iter()
            .any(|&s| primary.operand(s).valid && primary.operand(s).mem);
        if has_mem {
            let md_addr = self.program.md_map().md_addr(ev.app_addr);
            if !self.tlb.access(ev.app_addr) {
                penalty += self.config.tlb_miss_penalty;
                self.stats.tlb_miss_stall_cycles += self.config.tlb_miss_penalty as u64;
            }
            if !self.md_cache.access(md_addr) {
                let fill = if self.md_l2.access(md_addr) {
                    self.config.mem_lat.l2
                } else {
                    self.config.mem_lat.dram
                };
                penalty += fill;
                self.stats.md_miss_stall_cycles += fill as u64;
            }
        }

        // Filter stage: walk the (possibly multi-shot) chain.
        let mut chain = ShotChain::new();
        let mut shots = 0u32;
        let mut entry = primary;
        let mut holds;
        loop {
            shots += 1;
            self.stats.shots += 1;
            let ops = self.fetch_operands(entry, ev, st);
            let d = evaluate_shot(entry, &ops, self.program.invariants());
            holds = chain.step(entry.ms, d.condition_holds);
            match entry.next_entry {
                Some(next) => {
                    entry = self
                        .program
                        .table()
                        .entry(next)
                        .expect("validated chains cannot dangle");
                }
                None => break,
            }
        }

        let cycles = shots + penalty;
        if holds && !primary.partial {
            self.stats.filtered += 1;
            return (Resolution::Filtered, cycles);
        }
        let primary = *primary;
        (self.dispatch_resolution(ev, &primary, holds, st), cycles)
    }

    /// Builds the Dispatch resolution for an unfiltered (or partial-hit)
    /// instruction event: handler selection plus the non-blocking
    /// critical-metadata update from the primary entry's rule.
    fn dispatch_resolution(
        &mut self,
        ev: &InstrEvent,
        primary: &EventTableEntry,
        holds: bool,
        st: &MetadataState,
    ) -> Resolution {
        let token = self.alloc_token();
        let partial_hit = holds && primary.partial;
        let handler = if partial_hit {
            primary.partial_handler_pc
        } else {
            primary.handler_pc
        };
        let effect = primary.nb.and_then(|nb| {
            let ops = self.fetch_operands(primary, ev, st);
            nb.evaluate(&ops, self.program.invariants()).and_then(|v| {
                let d_rule = primary.operand(OperandSel::D);
                if !d_rule.valid {
                    return None;
                }
                if d_rule.mem {
                    let md_addr = self.program.md_map().md_addr(ev.app_addr);
                    Some(Effect::Mem {
                        md_addr,
                        bytes: d_rule.md_bytes,
                        value: v,
                    })
                } else {
                    Some(Effect::Reg(ev.dest, v as u8))
                }
            })
        });
        Resolution::Dispatch {
            unfiltered: UnfilteredEvent {
                event: AppEvent::Instr(*ev),
                handler,
                partial_hit,
                token,
            },
            effect,
        }
    }

    /// Metadata Read stage: fetch the three operands' metadata, masked,
    /// observing the FSQ before the MD cache (non-blocking forwarding).
    fn fetch_operands(
        &self,
        entry: &EventTableEntry,
        ev: &InstrEvent,
        st: &MetadataState,
    ) -> OperandMeta {
        let read = |sel: OperandSel| -> u64 {
            let rule = entry.operand(sel);
            if !rule.valid {
                return 0;
            }
            let raw = if rule.mem {
                let md_addr = self.program.md_map().md_addr(ev.app_addr);
                match self.fsq.search(md_addr, rule.md_bytes) {
                    Some(v) => v,
                    None => st.mem.read_bytes(md_addr, rule.md_bytes as usize),
                }
            } else {
                let reg = match sel {
                    OperandSel::S1 => ev.src1,
                    OperandSel::S2 => ev.src2,
                    OperandSel::D => ev.dest,
                };
                st.regs.read(reg) as u64
            };
            raw & rule.mask
        };
        OperandMeta {
            s1: read(OperandSel::S1),
            s2: read(OperandSel::S2),
            d: read(OperandSel::D),
        }
    }

    /// Commits a resolution: applies effects (Metadata Write stage),
    /// pushes to the unfiltered queue, and transitions state.
    fn finalize(&mut self, resolution: Resolution, st: &mut MetadataState, out: &mut FadeTick) {
        match resolution {
            Resolution::Filtered => {
                self.state = FaState::Idle;
            }
            Resolution::Dispatch { unfiltered, effect } => {
                // FSQ allocation first: a full FSQ stalls the pipeline.
                if let Some(Effect::Mem { .. }) = effect {
                    if self.config.mode == FilterMode::NonBlocking && self.fsq.is_full() {
                        self.stats.fsq_full_stall_cycles += 1;
                        self.state = FaState::WaitFsq {
                            resolution: Resolution::Dispatch { unfiltered, effect },
                        };
                        return;
                    }
                }
                if self.ufq.is_full() {
                    self.stats.ufq_full_stall_cycles += 1;
                    self.state = FaState::WaitUfq {
                        resolution: Resolution::Dispatch { unfiltered, effect },
                    };
                    return;
                }
                // Metadata Write stage: commit the critical update.
                match effect {
                    Some(Effect::Reg(reg, v)) => st.regs.write(reg, v),
                    Some(Effect::Mem {
                        md_addr,
                        bytes,
                        value,
                    }) => {
                        if self.config.mode == FilterMode::NonBlocking {
                            self.fsq
                                .push(md_addr, bytes, value, unfiltered.token)
                                .expect("FSQ fullness checked above");
                        }
                        st.mem.write_bytes(md_addr, bytes as usize, value);
                        self.md_cache.fill(md_addr);
                    }
                    None => {}
                }
                // Classify for statistics.
                match unfiltered.event {
                    AppEvent::Instr(_) => {
                        if unfiltered.partial_hit {
                            self.stats.partial_hits += 1;
                        } else {
                            self.stats.unfiltered_instr += 1;
                        }
                    }
                    AppEvent::HighLevel(_) => {
                        self.stats.high_level += 1;
                    }
                    AppEvent::StackUpdate(_) => {}
                }
                let token = unfiltered.token;
                self.outstanding.push(token);
                out.dispatched = Some(unfiltered);
                self.ufq
                    .push(unfiltered)
                    .expect("UFQ fullness checked above");
                self.state = match self.config.mode {
                    FilterMode::Blocking => FaState::BlockedOnHandler { token },
                    FilterMode::NonBlocking => FaState::Idle,
                };
            }
        }
    }

    fn alloc_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }
}
