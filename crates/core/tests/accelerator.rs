//! Behavioural tests of the full accelerator: pipeline, queues, SUU,
//! blocking vs non-blocking semantics, FSQ forwarding.

use fade::{
    EventTableEntry, Fade, FadeConfig, FilterMode, FadeProgram, HandlerPc, InvId, NbAction,
    NbUpdate, OperandRule, RuCompose, SuuConfig,
};
use fade_isa::{
    event_ids, AppEvent, EventId, HighLevelEvent, InstrEvent, Reg, StackUpdateEvent,
    StackUpdateKind, VirtAddr,
};
use fade_shadow::{MetadataMap, MetadataState};
use fade_sim::QueueDepth;

const CLEAN: u64 = 0;
const DIRTY: u8 = 1;

/// A configuration with free metadata misses, so semantic tests are not
/// dominated by cold-cache fill latency.
fn fast_config(mode: FilterMode) -> FadeConfig {
    let mut c = FadeConfig::paper(mode);
    c.tlb_miss_penalty = 0;
    c.blocking_resume_latency = 0;
    c.mem_lat = fade_sim::MemLatency {
        l1: 0,
        l2: 0,
        dram: 0,
    };
    c
}

/// A minimal taint-style monitor program:
/// * LOAD: clean check (s1 memory, d register against invariant 0 =
///   clean), non-blocking rule "propagate s1 to d".
/// * STORE: redundant update (s1 register vs d memory), non-blocking
///   rule "propagate s1 to d" with a memory destination.
fn test_program() -> FadeProgram {
    let mut p = FadeProgram::new(MetadataMap::per_word());
    p.set_invariant(InvId::new(0), CLEAN);
    p.set_invariant(InvId::new(1), 2); // SUU call value
    p.set_invariant(InvId::new(2), 0); // SUU return value
    p.set_entry(
        event_ids::LOAD,
        EventTableEntry::clean_check([
            Some(OperandRule::mem_operand(1, 0xff, InvId::new(0))),
            None,
            Some(OperandRule::reg_operand(0xff, InvId::new(0))),
        ])
        .with_handler(HandlerPc::new(0x100))
        .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
    );
    p.set_entry(
        event_ids::STORE,
        EventTableEntry::redundant_update(
            [
                Some(OperandRule::reg_plain(0xff)),
                None,
                Some(OperandRule::mem_plain(1, 0xff)),
            ],
            RuCompose::Direct,
        )
        .with_handler(HandlerPc::new(0x200))
        .with_nb(NbUpdate::unconditional(NbAction::PropagateS1)),
    );
    p.set_suu(SuuConfig {
        call_inv: InvId::new(1),
        ret_inv: InvId::new(2),
    });
    p
}

fn load_event(addr: u32, dest: u8) -> AppEvent {
    let mut e = InstrEvent::new(event_ids::LOAD, VirtAddr::new(0x40));
    e.app_addr = VirtAddr::new(addr);
    e.dest = Reg::new(dest);
    e.mem_size = 4;
    AppEvent::Instr(e)
}

fn store_event(addr: u32, src: u8) -> AppEvent {
    let mut e = InstrEvent::new(event_ids::STORE, VirtAddr::new(0x44));
    e.app_addr = VirtAddr::new(addr);
    e.src1 = Reg::new(src);
    e.mem_size = 4;
    AppEvent::Instr(e)
}

fn run_until_quiet(fade: &mut Fade, st: &mut MetadataState, max: u32) {
    for _ in 0..max {
        fade.tick(st);
    }
}

#[test]
fn clean_load_is_filtered() {
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    run_until_quiet(&mut fade, &mut st, 200);
    assert_eq!(fade.stats().filtered, 1);
    assert_eq!(fade.stats().unfiltered_instr, 0);
    assert!(fade.pop_unfiltered().is_none());
    assert_eq!(fade.stats().filtering_ratio(), 1.0);
}

#[test]
fn dirty_load_is_dispatched_with_nb_update() {
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    st.set_mem_meta(VirtAddr::new(0x1000), DIRTY);
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    run_until_quiet(&mut fade, &mut st, 200);
    assert_eq!(fade.stats().unfiltered_instr, 1);
    let uf = fade.pop_unfiltered().expect("event must be dispatched");
    assert_eq!(uf.handler, HandlerPc::new(0x100));
    assert!(!uf.partial_hit);
    // Non-blocking update propagated the dirty bit to the register.
    assert_eq!(st.reg_meta(Reg::new(3)), DIRTY);
    fade.handler_completed(uf.token);
    assert_eq!(fade.outstanding_handlers(), 0);
}

#[test]
fn store_redundant_update_filters_when_values_match() {
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    // Clean register stored over clean memory: redundant.
    fade.enqueue(store_event(0x2000, 5)).unwrap();
    run_until_quiet(&mut fade, &mut st, 200);
    assert_eq!(fade.stats().filtered, 1);
    // Dirty register stored over clean memory: not redundant.
    st.set_reg_meta(Reg::new(5), DIRTY);
    fade.enqueue(store_event(0x2000, 5)).unwrap();
    run_until_quiet(&mut fade, &mut st, 200);
    assert_eq!(fade.stats().unfiltered_instr, 1);
    // The NB update wrote the memory metadata through the FSQ.
    assert_eq!(st.mem_meta(VirtAddr::new(0x2000)), DIRTY);
    assert_eq!(fade.fsq_len(), 1);
    // Dependent load of the same word now sees the dirty value (FSQ
    // forwarding) and is dispatched, not filtered.
    fade.enqueue(load_event(0x2000, 6)).unwrap();
    run_until_quiet(&mut fade, &mut st, 200);
    assert_eq!(fade.stats().unfiltered_instr, 2);
    // Handler completion retires the FSQ entries.
    let a = fade.pop_unfiltered().unwrap();
    let b = fade.pop_unfiltered().unwrap();
    fade.handler_completed(a.token);
    fade.handler_completed(b.token);
    assert_eq!(fade.fsq_len(), 0);
}

#[test]
fn blocking_mode_stalls_until_handler_completes() {
    let mut fade = Fade::new(fast_config(FilterMode::Blocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    st.set_mem_meta(VirtAddr::new(0x1000), DIRTY);
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    fade.enqueue(load_event(0x3000, 4)).unwrap(); // clean, filterable
    run_until_quiet(&mut fade, &mut st, 50);
    // The second (filterable) event is stuck behind the blocked one.
    assert_eq!(fade.stats().filtered, 0);
    assert!(fade.stats().blocking_stall_cycles > 0);
    let uf = fade.pop_unfiltered().unwrap();
    fade.handler_completed(uf.token);
    run_until_quiet(&mut fade, &mut st, 50);
    assert_eq!(fade.stats().filtered, 1);
}

#[test]
fn non_blocking_mode_filters_past_unfiltered_events() {
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    st.set_mem_meta(VirtAddr::new(0x1000), DIRTY);
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    fade.enqueue(load_event(0x3000, 4)).unwrap();
    run_until_quiet(&mut fade, &mut st, 50);
    // No handler completion, yet the clean load got filtered.
    assert_eq!(fade.stats().filtered, 1);
    assert_eq!(fade.stats().unfiltered_instr, 1);
    assert_eq!(fade.stats().blocking_stall_cycles, 0);
}

#[test]
fn ufq_backpressure_stalls_pipeline() {
    let mut config = fast_config(FilterMode::NonBlocking);
    config.unfiltered_queue = QueueDepth::Bounded(1);
    let mut fade = Fade::new(config, test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    st.set_mem_meta(VirtAddr::new(0x1000), DIRTY);
    st.set_mem_meta(VirtAddr::new(0x1004), DIRTY);
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    fade.enqueue(load_event(0x1004, 4)).unwrap();
    run_until_quiet(&mut fade, &mut st, 50);
    assert_eq!(fade.unfiltered_queue_len(), 1);
    assert!(fade.stats().ufq_full_stall_cycles > 0);
    // Popping (and completing) the first unblocks the second.
    let uf = fade.pop_unfiltered().unwrap();
    fade.handler_completed(uf.token);
    run_until_quiet(&mut fade, &mut st, 50);
    assert_eq!(fade.stats().unfiltered_instr, 2);
}

#[test]
fn stack_update_waits_for_drain_then_runs_suu() {
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    st.set_mem_meta(VirtAddr::new(0x1000), DIRTY);
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    fade.enqueue(AppEvent::StackUpdate(StackUpdateEvent {
        base: VirtAddr::new(0x8000),
        len: 256,
        kind: StackUpdateKind::Call,
        tid: 0,
    }))
    .unwrap();
    run_until_quiet(&mut fade, &mut st, 30);
    // The unfiltered load is outstanding: the stack update must wait.
    assert!(fade.stats().drain_stall_cycles > 0);
    assert_eq!(st.mem_meta(VirtAddr::new(0x8000)), 0, "frame not yet set");
    let uf = fade.pop_unfiltered().unwrap();
    fade.handler_completed(uf.token);
    run_until_quiet(&mut fade, &mut st, 30);
    assert_eq!(fade.stats().stack_updates, 1);
    assert!(fade.stats().suu_busy_cycles > 0);
    assert_eq!(st.mem_meta(VirtAddr::new(0x8000)), 2, "call value written");
    assert_eq!(st.mem_meta(VirtAddr::new(0x80fc)), 2);
    assert_eq!(st.mem_meta(VirtAddr::new(0x8100)), 0);
}

#[test]
fn partial_filtering_selects_short_handler() {
    let mut p = test_program();
    p.set_entry(
        event_ids::LOAD,
        EventTableEntry::clean_check([
            Some(OperandRule::mem_operand(1, 0xff, InvId::new(0))),
            None,
            None,
        ])
        .with_handler(HandlerPc::new(0x100))
        .with_partial(HandlerPc::new(0x110)),
    );
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), p);
    let mut st = MetadataState::new(MetadataMap::per_word());
    // Check passes -> partial hit with the short handler.
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    // Check fails -> full handler.
    st.set_mem_meta(VirtAddr::new(0x2000), DIRTY);
    fade.enqueue(load_event(0x2000, 3)).unwrap();
    run_until_quiet(&mut fade, &mut st, 100);
    let first = fade.pop_unfiltered().unwrap();
    assert!(first.partial_hit);
    assert_eq!(first.handler, HandlerPc::new(0x110));
    let second = fade.pop_unfiltered().unwrap();
    assert!(!second.partial_hit);
    assert_eq!(second.handler, HandlerPc::new(0x100));
    assert_eq!(fade.stats().partial_hits, 1);
    assert_eq!(fade.stats().unfiltered_instr, 1);
    // Partial hits count as filtered handlers (Table 2 semantics).
    assert!((fade.stats().filtering_ratio() - 0.5).abs() < 1e-9);
}

#[test]
fn high_level_events_are_reported_in_tick() {
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    let malloc = HighLevelEvent::Malloc {
        base: VirtAddr::new(0x9000),
        len: 64,
        ctx: 7,
    };
    fade.enqueue(AppEvent::HighLevel(malloc)).unwrap();
    let mut seen = None;
    for _ in 0..10 {
        let t = fade.tick(&mut st);
        if t.dispatched_high_level().is_some() {
            seen = t.dispatched_high_level();
            break;
        }
    }
    assert_eq!(seen, Some(malloc));
    assert_eq!(fade.stats().high_level, 1);
    let uf = fade.pop_unfiltered().unwrap();
    assert_eq!(uf.event, AppEvent::HighLevel(malloc));
}

#[test]
fn multi_shot_chain_requires_all_checks() {
    let mut p = FadeProgram::new(MetadataMap::per_word());
    p.set_invariant(InvId::new(0), CLEAN);
    p.set_invariant(InvId::new(1), CLEAN);
    // Shot 1 checks the memory operand, shot 2 (chained) checks dest.
    p.set_entry(
        event_ids::LOAD,
        EventTableEntry::clean_check([
            Some(OperandRule::mem_operand(1, 0xff, InvId::new(0))),
            None,
            None,
        ])
        .with_handler(HandlerPc::new(0x100))
        .with_next(EventId::new(64)),
    );
    p.set_entry(
        EventId::new(64),
        EventTableEntry::clean_check([
            None,
            None,
            Some(OperandRule::reg_operand(0xff, InvId::new(1))),
        ])
        .with_ms(),
    );
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), p);
    let mut st = MetadataState::new(MetadataMap::per_word());
    // Both clean: filtered, two shots.
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    run_until_quiet(&mut fade, &mut st, 50);
    assert_eq!(fade.stats().filtered, 1);
    assert_eq!(fade.stats().shots, 2);
    // Dirty register: second shot fails, event dispatched.
    st.set_reg_meta(Reg::new(3), DIRTY);
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    run_until_quiet(&mut fade, &mut st, 50);
    assert_eq!(fade.stats().unfiltered_instr, 1);
    assert_eq!(fade.stats().shots, 4);
}

#[test]
fn event_queue_backpressure_reports_rejection() {
    let mut config = fast_config(FilterMode::NonBlocking);
    config.event_queue = QueueDepth::Bounded(2);
    let mut fade = Fade::new(config, test_program());
    fade.enqueue(load_event(0, 1)).unwrap();
    fade.enqueue(load_event(4, 1)).unwrap();
    let rejected = fade.enqueue(load_event(8, 1));
    assert!(rejected.is_err());
    assert_eq!(fade.event_queue_free(), 0);
}

#[test]
fn md_cache_and_tlb_misses_cost_cycles() {
    let mut fade = Fade::new(FadeConfig::default(), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    // Touch many distinct pages: every access is a TLB + cache miss.
    for i in 0..32u32 {
        fade.enqueue(load_event(i * (1 << 20), 3)).unwrap();
        run_until_quiet(&mut fade, &mut st, 400);
    }
    assert!(fade.stats().tlb_miss_stall_cycles > 0);
    assert!(fade.stats().md_miss_stall_cycles > 0);
    let (hits, misses) = fade.tlb_counts();
    assert!(misses >= 16, "tlb misses {misses}, hits {hits}");
    assert_eq!(fade.stats().filtered, 32);
    // A hot access costs no further misses.
    let before = fade.stats().md_miss_stall_cycles;
    fade.enqueue(load_event(31 * (1 << 20), 3)).unwrap();
    run_until_quiet(&mut fade, &mut st, 50);
    assert_eq!(fade.stats().md_miss_stall_cycles, before);
}

#[test]
fn thread_switch_reprogramming_changes_invariants() {
    let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    // Make "clean" = 5: previously-clean loads now fail the check.
    fade.write_invariant(InvId::new(0), 5);
    fade.enqueue(load_event(0x1000, 3)).unwrap();
    run_until_quiet(&mut fade, &mut st, 50);
    assert_eq!(fade.stats().unfiltered_instr, 1);
}

#[test]
fn batch_stats_fraction_is_zero_not_nan_on_empty_runs() {
    // A run that drained no events must report a 0.0 fast-path
    // fraction, not NaN from 0/0 — callers serialize this number into
    // BENCH_pipeline.json unguarded.
    let empty = fade::BatchStats::default();
    assert_eq!(empty.events, 0);
    let f = empty.fast_path_fraction();
    assert_eq!(f, 0.0);
    assert!(!f.is_nan());

    // And a real zero-event batch call reports the same.
    let mut fade = Fade::new(FadeConfig::default(), test_program());
    let mut st = MetadataState::new(MetadataMap::per_word());
    let bs = fade.run_batch(&[], &mut st);
    assert_eq!(bs.events, 0);
    assert_eq!(bs.fast_path_fraction(), 0.0);

    // Merging an empty batch into real counters keeps the fraction
    // well-defined and unchanged.
    let mut total = fade::BatchStats {
        events: 10,
        fast_path: 7,
        fallback: 3,
        dispatched: 1,
    };
    total.merge(&bs);
    assert!((total.fast_path_fraction() - 0.7).abs() < 1e-12);
}
