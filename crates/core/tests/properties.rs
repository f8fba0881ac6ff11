//! Property tests for the accelerator's storage structures, the
//! non-blocking update algebra, and the batched fast path's equivalence
//! with per-event cycle-accurate execution.

use std::collections::VecDeque;

use fade::{
    BatchStats, Fade, FadeConfig, FadeStats, FilterMode, Fsq, InvId, InvRf, MdTlb, NbAction,
    NbCond, NbCondOperand, NbUpdate, OperandMeta, TagCache, TagCacheConfig, UnfilteredEvent,
};
use fade_isa::{
    instr_event_for, layout, AppEvent, AppInstr, HighLevelEvent, InstrClass, MemRef, Reg,
    StackUpdateEvent, StackUpdateKind, VirtAddr,
};
use fade_monitors::{monitor_by_name, MemCheck, Monitor};
use fade_shadow::MetadataState;
use fade_trace::{SyntheticProgram, TraceRecord};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Batched vs. per-event equivalence.
// ---------------------------------------------------------------------

/// Abstract operations lowered into application events.
#[derive(Clone, Copy, Debug)]
enum BatchOp {
    Load { slot: u8, dest: u8 },
    Store { slot: u8, src: u8 },
    Alu { s1: u8, s2: u8, d: u8 },
    Mov { s1: u8, d: u8 },
    Malloc { block: u8 },
    Free { block: u8 },
    Call,
    Ret,
    Switch { tid: u8 },
}

fn batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (0u8..16, 0u8..6).prop_map(|(slot, dest)| BatchOp::Load { slot, dest }),
        (0u8..16, 0u8..6).prop_map(|(slot, src)| BatchOp::Store { slot, src }),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(s1, s2, d)| BatchOp::Alu { s1, s2, d }),
        (0u8..6, 0u8..6).prop_map(|(s1, d)| BatchOp::Mov { s1, d }),
        (0u8..4).prop_map(|block| BatchOp::Malloc { block }),
        (0u8..4).prop_map(|block| BatchOp::Free { block }),
        Just(BatchOp::Call),
        Just(BatchOp::Ret),
        (0u8..4).prop_map(|tid| BatchOp::Switch { tid }),
    ]
}

/// Address pool spanning several pages (so the M-TLB and MD cache both
/// hit and miss): 8 heap slots on one page, 4 on the next, 4 globals.
fn slot_addr(slot: u8) -> VirtAddr {
    match slot {
        0..=7 => VirtAddr::new(layout::HEAP_BASE + slot as u32 * 4),
        8..=11 => VirtAddr::new(layout::HEAP_BASE + 4096 + (slot as u32 - 8) * 4),
        _ => VirtAddr::new(layout::GLOBALS_BASE + (slot as u32 - 12) * 4),
    }
}

fn reg(i: u8) -> Reg {
    Reg::new(2 + i)
}

/// Lowers ops to events, keeping the call stack balanced. Only events
/// the loaded program can decode (or that bypass the event table) are
/// produced.
fn lower_ops(ops: &[BatchOp], fade: &Fade) -> Vec<AppEvent> {
    let mut sp = layout::STACK_TOP - 8192;
    let mut frames: Vec<(VirtAddr, u32)> = Vec::new();
    let mut tid = 0u8;
    let mut events = Vec::new();
    let push_instr = |i: AppInstr, events: &mut Vec<AppEvent>| {
        let ev = instr_event_for(&i);
        if fade.program().table().entry(ev.id).is_some() {
            events.push(AppEvent::Instr(ev));
        }
    };
    for &op in ops {
        match op {
            BatchOp::Load { slot, dest } => push_instr(
                AppInstr::new(VirtAddr::new(0x400), InstrClass::Load)
                    .with_dest(reg(dest))
                    .with_mem(MemRef::word(slot_addr(slot)))
                    .with_tid(tid),
                &mut events,
            ),
            BatchOp::Store { slot, src } => push_instr(
                AppInstr::new(VirtAddr::new(0x404), InstrClass::Store)
                    .with_src1(reg(src))
                    .with_mem(MemRef::word(slot_addr(slot)))
                    .with_tid(tid),
                &mut events,
            ),
            BatchOp::Alu { s1, s2, d } => push_instr(
                AppInstr::new(VirtAddr::new(0x408), InstrClass::IntAlu)
                    .with_src1(reg(s1))
                    .with_src2(reg(s2))
                    .with_dest(reg(d))
                    .with_tid(tid),
                &mut events,
            ),
            BatchOp::Mov { s1, d } => push_instr(
                AppInstr::new(VirtAddr::new(0x410), InstrClass::IntMove)
                    .with_src1(reg(s1))
                    .with_dest(reg(d))
                    .with_tid(tid),
                &mut events,
            ),
            BatchOp::Malloc { block } => events.push(AppEvent::HighLevel(HighLevelEvent::Malloc {
                base: VirtAddr::new(layout::HEAP_BASE + block as u32 * 64),
                len: 64,
                ctx: 7 + block as u32,
            })),
            BatchOp::Free { block } => events.push(AppEvent::HighLevel(HighLevelEvent::Free {
                base: VirtAddr::new(layout::HEAP_BASE + block as u32 * 64),
                len: 64,
            })),
            BatchOp::Call => {
                sp -= 64;
                let ev = StackUpdateEvent {
                    base: VirtAddr::new(sp),
                    len: 64,
                    kind: StackUpdateKind::Call,
                    tid,
                };
                frames.push((ev.base, ev.len));
                events.push(AppEvent::StackUpdate(ev));
            }
            BatchOp::Ret => {
                if let Some((base, len)) = frames.pop() {
                    sp += len;
                    events.push(AppEvent::StackUpdate(StackUpdateEvent {
                        base,
                        len,
                        kind: StackUpdateKind::Return,
                        tid,
                    }));
                }
            }
            BatchOp::Switch { tid: t } => {
                tid = t;
                events.push(AppEvent::HighLevel(HighLevelEvent::ThreadSwitch { tid: t }));
            }
        }
    }
    events
}

/// A fresh accelerator + metadata state for one monitor.
fn instance(monitor: &str, mode: FilterMode) -> (Fade, MetadataState) {
    let mon = monitor_by_name(monitor).unwrap();
    let program = mon.program();
    let mut st = MetadataState::new(program.md_map());
    mon.init_state(&mut st);
    (Fade::new(FadeConfig::paper(mode), program), st)
}

/// The monitor thread's functional effect for one dispatched event,
/// returning the invariant-register writes a thread switch asks for.
fn apply_handler(
    monitor: &mut dyn Monitor,
    uf: &UnfilteredEvent,
    st: &mut MetadataState,
) -> Vec<(InvId, u64)> {
    match uf.event {
        AppEvent::Instr(ev) => monitor.apply_instr(&ev, st),
        AppEvent::HighLevel(h) => {
            monitor.apply_high_level(&h, st);
            if let HighLevelEvent::ThreadSwitch { tid } = h {
                return monitor.on_thread_switch(tid);
            }
        }
        AppEvent::StackUpdate(ev) => monitor.apply_stack_update(&ev, st),
    }
    Vec::new()
}

/// The canonical per-event reference: enqueue one event, tick until
/// quiescent with an always-ready consumer (running `monitor`'s
/// handlers, if any), collect dispatches.
fn reference_drive(
    fade: &mut Fade,
    st: &mut MetadataState,
    events: &[AppEvent],
    mut monitor: Option<&mut (dyn Monitor + '_)>,
) -> Vec<UnfilteredEvent> {
    let mut dispatched = Vec::new();
    let mut drain = |fade: &mut Fade, st: &mut MetadataState| {
        while let Some(uf) = fade.pop_unfiltered() {
            fade.handler_completed(uf.token);
            for (id, v) in monitor.as_deref_mut().map_or(vec![], |m| apply_handler(m, &uf, st)) {
                fade.write_invariant(id, v);
            }
            dispatched.push(uf);
        }
    };
    for &ev in events {
        fade.enqueue(ev).expect("queue drained between events");
        let mut guard = 0u32;
        while !fade.is_idle() {
            fade.tick(st);
            drain(fade, st);
            guard += 1;
            assert!(guard < 1_000_000, "reference failed to quiesce");
        }
        drain(fade, st);
    }
    dispatched
}

/// The batched counterpart of [`reference_drive`]. With handlers, the
/// stream is cut after every thread switch so its deferred invariant
/// writes land before the next event is filtered.
fn batched_drive(
    fade: &mut Fade,
    st: &mut MetadataState,
    events: &[AppEvent],
    monitor: Option<&mut (dyn Monitor + '_)>,
) -> (BatchStats, Vec<UnfilteredEvent>) {
    let mut dispatched = Vec::new();
    let Some(monitor) = monitor else {
        let bstats = fade.run_batch_with(events, st, |uf, _| dispatched.push(uf));
        return (bstats, dispatched);
    };
    let mut total = BatchStats::default();
    let mut inv_writes = Vec::new();
    let switch =
        |e: &AppEvent| matches!(e, AppEvent::HighLevel(HighLevelEvent::ThreadSwitch { .. }));
    for chunk in events.split_inclusive(switch) {
        total.merge(&fade.run_batch_with(chunk, st, |uf, st| {
            inv_writes.extend(apply_handler(monitor, &uf, st));
            dispatched.push(uf);
        }));
        for (id, v) in inv_writes.drain(..) {
            fade.write_invariant(id, v);
        }
    }
    (total, dispatched)
}

/// Compares the metadata the test can observe: every register and the
/// whole address pool (plus stack frames the ops may have touched).
fn assert_states_match(a: &MetadataState, b: &MetadataState) -> Result<(), TestCaseError> {
    for r in Reg::all() {
        prop_assert_eq!(a.reg_meta(r), b.reg_meta(r), "reg {:?}", r);
    }
    for slot in 0..16u8 {
        let addr = slot_addr(slot);
        prop_assert_eq!(a.mem_meta(addr), b.mem_meta(addr), "mem {:?}", addr);
    }
    for i in 0..64u32 {
        let addr = VirtAddr::new(layout::STACK_TOP - 8192 - 64 * 8 + i * 4);
        prop_assert_eq!(a.mem_meta(addr), b.mem_meta(addr), "stack {:?}", addr);
    }
    Ok(())
}

/// Drives `events` per event and batched, optionally with the monitor's
/// handlers, and checks that everything observable agrees.
fn check_batch_equivalence(
    monitor: &str,
    events: &[AppEvent],
    mode: FilterMode,
    handlers: bool,
) -> Result<(BatchStats, FadeStats), TestCaseError> {
    let (mut f_ref, mut st_ref) = instance(monitor, mode);
    let (mut f_bat, mut st_bat) = instance(monitor, mode);
    let mut m_ref = handlers.then(|| monitor_by_name(monitor).unwrap());
    let mut m_bat = handlers.then(|| monitor_by_name(monitor).unwrap());

    let ref_dispatched = reference_drive(&mut f_ref, &mut st_ref, events, m_ref.as_deref_mut());
    let (bstats, bat_dispatched) =
        batched_drive(&mut f_bat, &mut st_bat, events, m_bat.as_deref_mut());

    prop_assert_eq!(bstats.events, events.len() as u64);
    prop_assert_eq!(bstats.fast_path + bstats.fallback, bstats.events);
    prop_assert_eq!(bstats.dispatched, bat_dispatched.len() as u64);
    prop_assert_eq!(&bat_dispatched, &ref_dispatched, "{}: dispatch streams differ", monitor);
    prop_assert_eq!(
        f_bat.stats(), f_ref.stats(),
        "{}: FadeStats differ (batch fast_path={} fallback={})",
        monitor, bstats.fast_path, bstats.fallback
    );
    prop_assert_eq!(f_bat.md_cache_stats(), f_ref.md_cache_stats(), "{}: MD cache stats", monitor);
    prop_assert_eq!(f_bat.tlb_counts(), f_ref.tlb_counts(), "{}: M-TLB counts", monitor);
    prop_assert_eq!(f_bat.suu_writes(), f_ref.suu_writes(), "{}: SUU writes", monitor);
    prop_assert_eq!(f_bat.fsq_len(), 0, "{}: FSQ must drain", monitor);
    prop_assert!(st_bat == st_ref, "{}: metadata state differs", monitor);
    Ok((bstats, *f_bat.stats()))
}

/// The first `n` events `monitor` selects from `bench`'s generated trace.
fn trace_events(bench: &str, monitor: &str, n: usize) -> Vec<AppEvent> {
    let mon = monitor_by_name(monitor).unwrap();
    let monitors_stack = mon.monitors_stack();
    let mut gen = SyntheticProgram::new(&fade_trace::by_name(bench).unwrap(), 42);
    let (mut records, mut events) = (Vec::new(), Vec::with_capacity(n));
    while events.len() < n {
        records.clear();
        gen.next_records_into(&mut records, 4096);
        events.extend(records.iter().filter_map(|r| match r {
            TraceRecord::Instr(i) => mon.selects(i).then(|| AppEvent::Instr(instr_event_for(i))),
            TraceRecord::Stack(s) => monitors_stack.then_some(AppEvent::StackUpdate(*s)),
            TraceRecord::High(h) => Some(AppEvent::HighLevel(*h)),
        }));
    }
    events.truncate(n);
    events
}

/// Checks the equivalence on the first 20k events `monitor` selects
/// from `bench`'s generated trace, with the monitor's handler effects
/// and thread-switch invariant writes applied.
fn check_generated_trace(bench: &str, monitor: &str) -> (BatchStats, FadeStats) {
    let events = trace_events(bench, monitor, 20_000);
    check_batch_equivalence(monitor, &events, FilterMode::NonBlocking, true)
        .unwrap_or_else(|e| panic!("{bench}/{monitor}: {e}"))
}

#[test]
fn generated_trace_paths_agree_and_fast_path_dominates_for_high_filter_monitors() {
    // Real traces hop between pages and lines; locality still keeps a
    // solid majority of events on the short-circuit path.
    let (hmmer, _) = check_generated_trace("hmmer", "AddrCheck");
    assert!(hmmer.fast_path_fraction() > 0.5, "got {}", hmmer.fast_path_fraction());
}

#[test]
fn generated_trace_low_filter_monitors_still_agree() {
    let (gcc, _) = check_generated_trace("gcc", "MemLeak");
    assert!(gcc.dispatched > 0, "MemLeak dispatches complex events");
}

#[test]
fn generated_trace_parallel_benchmark_with_invariant_writes_agrees() {
    let (_, water) = check_generated_trace("water", "AtomCheck");
    assert!(water.partial_hits > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_batch` and event-at-a-time `tick` produce identical
    /// statistics, dispatch streams, cache/TLB counters and metadata
    /// state over randomized mixed streams, for every monitor.
    #[test]
    fn run_batch_matches_per_event_execution(
        ops in prop::collection::vec(batch_op(), 0..160),
        monitor_idx in 0usize..5,
    ) {
        let monitor = ["addrcheck", "memcheck", "memleak", "taintcheck", "atomcheck"][monitor_idx];
        let events = lower_ops(&ops, &instance(monitor, FilterMode::NonBlocking).0);
        check_batch_equivalence(monitor, &events, FilterMode::NonBlocking, false)?;
    }

    /// The equivalence also holds in blocking mode (resume latency,
    /// BlockedOnHandler transitions).
    #[test]
    fn run_batch_matches_per_event_execution_blocking(
        ops in prop::collection::vec(batch_op(), 0..100),
        monitor_idx in 0usize..5,
    ) {
        let monitor = ["addrcheck", "memcheck", "memleak", "taintcheck", "atomcheck"][monitor_idx];
        let events = lower_ops(&ops, &instance(monitor, FilterMode::Blocking).0);
        check_batch_equivalence(monitor, &events, FilterMode::Blocking, false)?;
    }

    /// Splitting one stream into arbitrary consecutive batches does not
    /// change anything: the batch boundary is invisible.
    #[test]
    fn batch_split_is_invisible(
        ops in prop::collection::vec(batch_op(), 0..120),
        split in 0usize..120,
    ) {
        let (mut f_one, mut st_one) = instance("memleak", FilterMode::NonBlocking);
        let (mut f_two, mut st_two) = instance("memleak", FilterMode::NonBlocking);
        let events = lower_ops(&ops, &f_one);
        let split = split.min(events.len());

        f_one.run_batch(&events, &mut st_one);
        let mut total = f_two.run_batch(&events[..split], &mut st_two);
        total.merge(&f_two.run_batch(&events[split..], &mut st_two));

        prop_assert_eq!(total.events, events.len() as u64);
        prop_assert_eq!(f_one.stats(), f_two.stats());
        prop_assert_eq!(f_one.md_cache_stats(), f_two.md_cache_stats());
        prop_assert_eq!(f_one.tlb_counts(), f_two.tlb_counts());
        assert_states_match(&st_one, &st_two)?;
    }
}

/// An all-filterable stream retires one event per cycle in steady state
/// (the paper's Figure 5 peak rate), on both execution paths.
#[test]
fn steady_state_retires_one_event_per_cycle() {
    let (mut fade, mut st) = instance("memleak", FilterMode::NonBlocking);
    // Same word repeatedly: after the first event warms the M-TLB and
    // MD cache, every event is a single-shot filtered clean check.
    let ev = {
        let i = AppInstr::new(VirtAddr::new(0x400), InstrClass::Load)
            .with_dest(Reg::new(3))
            .with_mem(MemRef::word(VirtAddr::new(layout::HEAP_BASE + 0x40)));
        AppEvent::Instr(instr_event_for(&i))
    };
    let warm = [ev; 4];
    fade.run_batch(&warm, &mut st);
    let busy0 = fade.stats().busy_cycles;
    let idle0 = fade.stats().idle_cycles;
    let filtered0 = fade.stats().filtered;

    let stream = [ev; 1000];
    let bstats = fade.run_batch(&stream, &mut st);
    assert_eq!(bstats.fast_path, 1000, "warm filterable events take the fast path");
    assert_eq!(fade.stats().filtered - filtered0, 1000);
    assert_eq!(
        fade.stats().busy_cycles - busy0,
        1000,
        "steady state must cost exactly one cycle per event"
    );
    assert_eq!(fade.stats().idle_cycles, idle0);

    // The per-event reference path agrees.
    let (mut f_ref, mut st_ref) = instance("memleak", FilterMode::NonBlocking);
    reference_drive(&mut f_ref, &mut st_ref, &warm, None);
    let busy0 = f_ref.stats().busy_cycles;
    reference_drive(&mut f_ref, &mut st_ref, &stream, None);
    assert_eq!(f_ref.stats().busy_cycles - busy0, 1000);
    assert_eq!(f_ref.stats(), fade.stats());
}

/// `BatchStats` sorts instruction events by what the pipeline paid, not
/// by their outcome: one shot with no M-TLB or MD-cache miss is the
/// fast path, filtered or dispatched; a cold miss or a chained shot is
/// fallback, as are stack updates and high-level events.
#[test]
fn batch_stats_classify_by_shots_and_misses() {
    let load = |addr: u32| {
        let i = AppInstr::new(VirtAddr::new(0x400), InstrClass::Load)
            .with_dest(Reg::new(3))
            .with_mem(MemRef::word(VirtAddr::new(addr)));
        AppEvent::Instr(instr_event_for(&i))
    };
    // Globals start allocated and defined; the heap starts unallocated.
    let global = load(layout::GLOBALS_BASE + 0x40);
    let heap = load(layout::HEAP_BASE + 0x40);
    let run = |fade: &mut Fade, st: &mut MetadataState, events: &[AppEvent]| {
        let b = fade.run_batch(events, st);
        assert_eq!(b.events, events.len() as u64);
        assert_eq!(b.fast_path + b.fallback, b.events);
        (b.fast_path, b.fallback)
    };

    // Single shot: a cold M-TLB and MD cache cost a miss penalty, a
    // repeat hits in both.
    let (mut fade, mut st) = instance("addrcheck", FilterMode::NonBlocking);
    assert_eq!(run(&mut fade, &mut st, &[global]), (0, 1));
    assert_eq!(run(&mut fade, &mut st, &[global; 3]), (3, 0));
    assert_eq!(fade.stats().filtered, 4);
    assert_eq!(run(&mut fade, &mut st, &[heap]), (0, 1));
    assert_eq!(run(&mut fade, &mut st, &[heap]), (1, 0));
    assert_eq!(fade.stats().unfiltered_instr, 2);
    let malloc = AppEvent::HighLevel(HighLevelEvent::Malloc {
        base: VirtAddr::new(layout::HEAP_BASE + 0x1000),
        len: 64,
        ctx: 1,
    });
    assert_eq!(run(&mut fade, &mut st, &[malloc, global, global]), (2, 1));

    // Multi-shot: every event pays a chained shot, warm or not.
    let memcheck = MemCheck::new();
    let program = memcheck.program_multi_shot();
    let mut st = MetadataState::new(program.md_map());
    memcheck.init_state(&mut st);
    let mut fade = Fade::new(FadeConfig::paper(FilterMode::NonBlocking), program);
    assert_eq!(run(&mut fade, &mut st, &[global; 4]), (0, 4));
    assert_eq!(fade.stats().filtered, 4);
    assert_eq!(fade.tlb_counts(), (3, 1), "warm after the first event");
    assert_eq!(fade.md_cache_stats().hits, 3);
}

#[derive(Clone, Copy, Debug)]
enum FsqOp {
    Push { addr: u64, value: u64, token: u64 },
    Retire { token: u64 },
}

fn fsq_op() -> impl Strategy<Value = FsqOp> {
    prop_oneof![
        (0u64..16, any::<u64>(), 0u64..8)
            .prop_map(|(a, value, token)| FsqOp::Push { addr: a * 8, value, token }),
        (0u64..8).prop_map(|token| FsqOp::Retire { token }),
    ]
}

proptest! {
    /// FSQ forwarding matches a reference age-ordered store model.
    #[test]
    fn fsq_matches_reference(ops in prop::collection::vec(fsq_op(), 0..200)) {
        let mut fsq = Fsq::new(16);
        let mut reference: VecDeque<(u64, u64, u64)> = VecDeque::new(); // (addr, value, token)
        for op in ops {
            match op {
                FsqOp::Push { addr, value, token } => {
                    let ok = fsq.push(addr, 1, value, token).is_ok();
                    if reference.len() < 16 {
                        prop_assert!(ok);
                        reference.push_back((addr, value, token));
                    } else {
                        prop_assert!(!ok);
                    }
                }
                FsqOp::Retire { token } => {
                    fsq.retire(token);
                    reference.retain(|e| e.2 != token);
                }
            }
            prop_assert_eq!(fsq.len(), reference.len());
            // Youngest-match forwarding for every address.
            for probe in 0..16u64 {
                let addr = probe * 8;
                let expect = reference
                    .iter()
                    .rev()
                    .find(|e| e.0 == addr)
                    .map(|e| e.1);
                prop_assert_eq!(fsq.search(addr, 1), expect, "addr {}", addr);
            }
        }
    }

    /// The tag cache implements exact LRU per set. The pool holds 16
    /// lines, 4 per set, so MRU re-hits, deeper hits and evictions are
    /// all common.
    #[test]
    fn tag_cache_matches_lru_reference(addrs in prop::collection::vec(0u64..(1u64 << 10), 1..400)) {
        let cfg = TagCacheConfig {
            size_bytes: 8 * 64, // 4 sets x 2 ways
            ways: 2,
            line_bytes: 64,
        };
        let sets = cfg.sets() as u64;
        let mut cache = TagCache::new(cfg);
        // Reference: per-set MRU-ordered list of lines.
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        let (mut hits, mut misses) = (0u64, 0u64);
        for &a in &addrs {
            let line = a / 64;
            let set = (line % sets) as usize;
            let hit_ref = reference[set].contains(&line);
            let hit = cache.access(a);
            prop_assert_eq!(hit, hit_ref, "addr {}", a);
            if let Some(pos) = reference[set].iter().position(|&l| l == line) {
                reference[set].remove(pos);
                hits += 1;
            } else {
                if reference[set].len() == 2 {
                    reference[set].pop();
                }
                misses += 1;
            }
            reference[set].insert(0, line);
            prop_assert_eq!(cache.stats().hits, hits);
            prop_assert_eq!(cache.stats().misses, misses);
        }
    }

    /// The M-TLB implements exact LRU: the same hits, misses and
    /// evictions as an MRU-ordered reference list. Six pages over four
    /// entries make MRU re-hits, deeper hits and evictions all common.
    #[test]
    fn md_tlb_matches_lru_reference(pages in prop::collection::vec(0u32..6, 1..400)) {
        const CAPACITY: usize = 4;
        let mut tlb = MdTlb::new(CAPACITY);
        let mut reference: Vec<u32> = Vec::new(); // MRU first
        let (mut hits, mut misses) = (0u64, 0u64);
        let addr = |page: u32| VirtAddr::new(page * 4096 + 0x10);
        for &p in &pages {
            let hit_ref = reference.contains(&p);
            prop_assert_eq!(tlb.access(addr(p)), hit_ref, "page {}", p);
            let mut evicted = None;
            if let Some(pos) = reference.iter().position(|&q| q == p) {
                reference.remove(pos);
                hits += 1;
            } else {
                if reference.len() == CAPACITY {
                    evicted = reference.pop();
                }
                misses += 1;
            }
            reference.insert(0, p);
            prop_assert_eq!((tlb.hits(), tlb.misses()), (hits, misses));
            // Contents, probed on copies so the LRU order is untouched:
            // every reference page is held and the evicted one is gone.
            for &q in &reference {
                prop_assert!(tlb.clone().access(addr(q)), "page {} should be held", q);
            }
            if let Some(q) = evicted {
                prop_assert!(!tlb.clone().access(addr(q)), "page {} should be evicted", q);
            }
        }
    }

    /// Unconditional update actions follow their algebra.
    #[test]
    fn nb_actions_algebra(s1: u64, s2: u64, d: u64, c: u64) {
        let mut inv = InvRf::new();
        inv.write(InvId::new(0), c);
        let ops = OperandMeta { s1, s2, d };
        prop_assert_eq!(
            NbUpdate::unconditional(NbAction::PropagateS1).evaluate(&ops, &inv),
            Some(s1)
        );
        prop_assert_eq!(
            NbUpdate::unconditional(NbAction::ComposeOr).evaluate(&ops, &inv),
            Some(s1 | s2)
        );
        prop_assert_eq!(
            NbUpdate::unconditional(NbAction::ComposeAnd).evaluate(&ops, &inv),
            Some(s1 & s2)
        );
        prop_assert_eq!(
            NbUpdate::unconditional(NbAction::SetConst(InvId::new(0))).evaluate(&ops, &inv),
            Some(c)
        );
    }

    /// Conditional updates take exactly one branch, decided by equality.
    #[test]
    fn nb_conditions_partition(s1: u64, s2: u64, d: u64) {
        let inv = InvRf::new();
        let ops = OperandMeta { s1, s2, d };
        let cond = NbCond {
            lhs: NbCondOperand::S1,
            rhs: NbCondOperand::S2,
            when_equal: true,
        };
        let with_else =
            NbUpdate::when_else(cond, NbAction::PropagateS1, NbAction::PropagateS2);
        let expected = if s1 == s2 { s1 } else { s2 };
        prop_assert_eq!(with_else.evaluate(&ops, &inv), Some(expected));
        // Without an else branch, the failed case is a no-op.
        let without = NbUpdate::when(cond, NbAction::PropagateS1);
        prop_assert_eq!(
            without.evaluate(&ops, &inv),
            if s1 == s2 { Some(s1) } else { None }
        );
    }

    /// Cache statistics count every access exactly once.
    #[test]
    fn cache_stats_conserve_accesses(addrs in prop::collection::vec(0u64..(1u64 << 16), 0..300)) {
        let mut cache = TagCache::new(TagCacheConfig::md_cache());
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.stats().accesses(), addrs.len() as u64);
        let ratio = cache.stats().hit_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio));
    }
}
