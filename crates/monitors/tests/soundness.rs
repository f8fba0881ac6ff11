//! Cross-cutting property tests: for every monitor, the FADE hardware
//! path and the pure-software path are *functionally equivalent*.
//!
//! Invariants exercised here:
//!
//! 1. **Filtering soundness** — events FADE filters are exactly the
//!    events the software monitor classifies as clean-check /
//!    redundant-update (no-ops on critical metadata).
//! 2. **Non-blocking equivalence** — after any event sequence, critical
//!    metadata produced by the FADE path (non-blocking update rules +
//!    handlers for unfiltered events) equals the software-only path.
//! 3. **Blocking/NB functional equality** — both FADE modes classify
//!    and update identically.

use fade::{Fade, FadeConfig, FilterMode};
use fade_isa::{
    event_ids, instr_event_for, AppEvent, AppInstr, HighLevelEvent, InstrClass, MemRef, Reg,
    StackUpdateEvent, StackUpdateKind, VirtAddr, layout,
};
use fade_monitors::{all_monitors, monitor_by_name, EventClass, Monitor};
use fade_shadow::MetadataState;
use proptest::prelude::*;

/// Abstract operations the property generator draws from.
#[derive(Clone, Copy, Debug)]
enum Op {
    Load { slot: u8, dest: u8 },
    Store { slot: u8, src: u8 },
    Alu { s1: u8, s2: u8, d: u8 },
    Mul { s1: u8, s2: u8, d: u8 },
    Mov { s1: u8, d: u8 },
    Malloc { block: u8 },
    Free { block: u8 },
    Taint { block: u8 },
    Call,
    Ret,
    Switch { tid: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, 0u8..6).prop_map(|(slot, dest)| Op::Load { slot, dest }),
        (0u8..12, 0u8..6).prop_map(|(slot, src)| Op::Store { slot, src }),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(s1, s2, d)| Op::Alu { s1, s2, d }),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(s1, s2, d)| Op::Mul { s1, s2, d }),
        (0u8..6, 0u8..6).prop_map(|(s1, d)| Op::Mov { s1, d }),
        (0u8..4).prop_map(|block| Op::Malloc { block }),
        (0u8..4).prop_map(|block| Op::Free { block }),
        (0u8..4).prop_map(|block| Op::Taint { block }),
        Just(Op::Call),
        Just(Op::Ret),
        (0u8..4).prop_map(|tid| Op::Switch { tid }),
    ]
}

/// Fixed address pool: 4 heap blocks of 32 bytes plus 4 global words.
/// Slots 0..8 hit the heap blocks (2 words each), slots 8..12 globals.
fn slot_addr(slot: u8) -> VirtAddr {
    if slot < 8 {
        let block = (slot / 2) as u32;
        let word = (slot % 2) as u32;
        VirtAddr::new(layout::HEAP_BASE + block * 32 + word * 4)
    } else {
        VirtAddr::new(layout::GLOBALS_BASE + ((slot - 8) as u32) * 4)
    }
}

fn block_base(block: u8) -> VirtAddr {
    VirtAddr::new(layout::HEAP_BASE + (block as u32) * 32)
}

fn reg(i: u8) -> Reg {
    Reg::new(2 + i) // avoid r0 and ABI registers
}

/// Interprets ops into concrete application events.
struct Interp {
    tid: u8,
    frames: Vec<(VirtAddr, u32)>,
    sp: u32,
    allocated: [bool; 4],
}

impl Interp {
    fn new() -> Self {
        Interp {
            tid: 0,
            frames: Vec::new(),
            sp: layout::STACK_TOP - 4096,
            allocated: [false; 4],
        }
    }

    fn lower(&mut self, op: Op) -> Vec<AppEvent> {
        match op {
            Op::Load { slot, dest } => {
                let i = AppInstr::new(VirtAddr::new(0x400), InstrClass::Load)
                    .with_dest(reg(dest))
                    .with_mem(MemRef::word(slot_addr(slot)))
                    .with_tid(self.tid);
                vec![AppEvent::Instr(instr_event_for(&i))]
            }
            Op::Store { slot, src } => {
                let i = AppInstr::new(VirtAddr::new(0x404), InstrClass::Store)
                    .with_src1(reg(src))
                    .with_mem(MemRef::word(slot_addr(slot)))
                    .with_tid(self.tid);
                vec![AppEvent::Instr(instr_event_for(&i))]
            }
            Op::Alu { s1, s2, d } => {
                let i = AppInstr::new(VirtAddr::new(0x408), InstrClass::IntAlu)
                    .with_src1(reg(s1))
                    .with_src2(reg(s2))
                    .with_dest(reg(d))
                    .with_tid(self.tid);
                vec![AppEvent::Instr(instr_event_for(&i))]
            }
            Op::Mul { s1, s2, d } => {
                let i = AppInstr::new(VirtAddr::new(0x40c), InstrClass::IntMul)
                    .with_src1(reg(s1))
                    .with_src2(reg(s2))
                    .with_dest(reg(d))
                    .with_tid(self.tid);
                vec![AppEvent::Instr(instr_event_for(&i))]
            }
            Op::Mov { s1, d } => {
                let i = AppInstr::new(VirtAddr::new(0x410), InstrClass::IntMove)
                    .with_src1(reg(s1))
                    .with_dest(reg(d))
                    .with_tid(self.tid);
                vec![AppEvent::Instr(instr_event_for(&i))]
            }
            Op::Malloc { block } => {
                if self.allocated[block as usize] {
                    return vec![];
                }
                self.allocated[block as usize] = true;
                vec![AppEvent::HighLevel(HighLevelEvent::Malloc {
                    base: block_base(block),
                    len: 32,
                    ctx: 100 + block as u32,
                })]
            }
            Op::Free { block } => {
                if !self.allocated[block as usize] {
                    return vec![];
                }
                self.allocated[block as usize] = false;
                vec![AppEvent::HighLevel(HighLevelEvent::Free {
                    base: block_base(block),
                    len: 32,
                })]
            }
            Op::Taint { block } => vec![AppEvent::HighLevel(HighLevelEvent::TaintSource {
                base: block_base(block),
                len: 32,
            })],
            Op::Call => {
                self.sp -= 64;
                let ev = StackUpdateEvent {
                    base: VirtAddr::new(self.sp),
                    len: 64,
                    kind: StackUpdateKind::Call,
                    tid: self.tid,
                };
                self.frames.push((ev.base, ev.len));
                vec![AppEvent::StackUpdate(ev)]
            }
            Op::Ret => match self.frames.pop() {
                Some((base, len)) => {
                    self.sp += len;
                    vec![AppEvent::StackUpdate(StackUpdateEvent {
                        base,
                        len,
                        kind: StackUpdateKind::Return,
                        tid: self.tid,
                    })]
                }
                None => vec![],
            },
            Op::Switch { tid } => {
                self.tid = tid;
                vec![AppEvent::HighLevel(HighLevelEvent::ThreadSwitch { tid })]
            }
        }
    }
}

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

/// Every address the pool can touch (for state comparison).
fn comparison_addrs() -> Vec<VirtAddr> {
    let mut v: Vec<VirtAddr> = (0..12).map(slot_addr).collect();
    for i in 0..24u32 {
        v.push(VirtAddr::new(layout::STACK_TOP - 4096 - 256 + i * 4));
    }
    v
}

fn states_equal(a: &MetadataState, b: &MetadataState) -> Result<(), String> {
    for r in Reg::all() {
        if a.reg_meta(r) != b.reg_meta(r) {
            return Err(format!(
                "reg {r} differs: fade={} sw={}",
                a.reg_meta(r),
                b.reg_meta(r)
            ));
        }
    }
    for addr in comparison_addrs() {
        if a.mem_meta(addr) != b.mem_meta(addr) {
            return Err(format!(
                "mem {addr} differs: fade={} sw={}",
                a.mem_meta(addr),
                b.mem_meta(addr)
            ));
        }
    }
    Ok(())
}

/// Runs one op sequence through the FADE path and the software path for
/// one monitor, checking classification agreement and state equality.
fn check_monitor(monitor_name: &str, ops: &[Op], mode: FilterMode) -> Result<(), TestCaseError> {
    let mut hw_mon = monitor_by_name(monitor_name).unwrap();
    let mut sw_mon = monitor_by_name(monitor_name).unwrap();

    let program = hw_mon.program();
    let mut hw_state = MetadataState::new(program.md_map());
    let mut sw_state = MetadataState::new(program.md_map());
    hw_mon.init_state(&mut hw_state);
    sw_mon.init_state(&mut sw_state);
    let mut fade = Fade::new(fast_config(mode), program);

    let mut interp = Interp::new();
    for &op in ops {
        for event in interp.lower(op) {
            // Producer-side selection.
            let monitored = match event {
                AppEvent::Instr(_) => true, // instr lowering below selects
                AppEvent::StackUpdate(_) => hw_mon.monitors_stack(),
                AppEvent::HighLevel(_) => true,
            };
            if let AppEvent::Instr(ref iev) = event {
                // Re-derive the AppInstr-level selection from the event:
                // the interpreter only creates selected classes for the
                // propagation monitors; memory monitors skip ALU ops.
                let class_selected = match iev.id {
                    id if id == event_ids::LOAD || id == event_ids::STORE => {
                        // AddrCheck/AtomCheck exclude stack accesses.
                        let i = AppInstr::new(iev.app_pc, InstrClass::Load)
                            .with_mem(MemRef::word(iev.app_addr));
                        hw_mon.selects(&i)
                            || hw_mon.selects(
                                &AppInstr::new(iev.app_pc, InstrClass::Store)
                                    .with_mem(MemRef::word(iev.app_addr)),
                            )
                    }
                    _ => {
                        hw_mon.selects(&AppInstr::new(iev.app_pc, InstrClass::IntAlu))
                    }
                };
                if !class_selected {
                    continue;
                }
                // Software-path classification *before* any effect.
                let sw_class = sw_mon.classify(iev, &sw_state);
                let before = *fade.stats();
                fade.enqueue(event).map_err(|_| {
                    TestCaseError::fail("event queue overflow in test")
                })?;
                pump(&mut fade, &mut hw_state, &mut hw_mon);
                let after = *fade.stats();
                // Classification agreement (invariant 1).
                let hw_class = if after.filtered > before.filtered {
                    EventClass::CleanCheck // CC or RU: both "filtered"
                } else if after.partial_hits > before.partial_hits {
                    EventClass::PartialShort
                } else {
                    EventClass::Complex
                };
                let sw_filterable = matches!(
                    sw_class,
                    EventClass::CleanCheck | EventClass::RedundantUpdate
                );
                let hw_filterable = hw_class == EventClass::CleanCheck;
                prop_assert_eq!(
                    hw_filterable,
                    sw_filterable,
                    "{}: {:?} classified sw={:?} hw={:?} (op {:?})",
                    monitor_name,
                    iev,
                    sw_class,
                    hw_class,
                    op
                );
                if sw_class == EventClass::PartialShort || hw_class == EventClass::PartialShort {
                    prop_assert_eq!(
                        sw_class,
                        hw_class,
                        "{}: partial-hit mismatch",
                        monitor_name
                    );
                }
                // Software path applies its handler for every event.
                sw_mon.apply_instr(iev, &mut sw_state);
            } else {
                if !monitored {
                    continue;
                }
                fade.enqueue(event).map_err(|_| {
                    TestCaseError::fail("event queue overflow in test")
                })?;
                pump(&mut fade, &mut hw_state, &mut hw_mon);
                match event {
                    AppEvent::StackUpdate(ev) => sw_mon.apply_stack_update(&ev, &mut sw_state),
                    AppEvent::HighLevel(ev) => sw_mon.apply_high_level(&ev, &mut sw_state),
                    AppEvent::Instr(_) => unreachable!(),
                }
            }
            // State equality after every event (invariant 2).
            if let Err(msg) = states_equal(&hw_state, &sw_state) {
                return Err(TestCaseError::fail(format!(
                    "{monitor_name} after {op:?}: {msg}"
                )));
            }
        }
    }
    Ok(())
}

/// Drives the accelerator until quiescent, emulating the system's
/// consumer loop (handlers complete immediately).
fn pump(fade: &mut Fade, state: &mut MetadataState, mon: &mut Box<dyn Monitor>) {
    for _ in 0..10_000 {
        let tick = fade.tick(state);
        if let Some(uf) = tick.dispatched {
            // Functional handler effect applies at dispatch (program
            // order); the pop below only models consumer timing.
            match uf.event {
                AppEvent::Instr(ev) => mon.apply_instr(&ev, state),
                AppEvent::HighLevel(hl) => {
                    mon.apply_high_level(&hl, state);
                    if let HighLevelEvent::ThreadSwitch { tid } = hl {
                        for (id, v) in mon.on_thread_switch(tid) {
                            fade.write_invariant(id, v);
                        }
                    }
                }
                AppEvent::StackUpdate(_) => unreachable!(),
            }
        }
        while let Some(uf) = fade.pop_unfiltered() {
            fade.handler_completed(uf.token);
        }
        if fade.is_idle() && fade.outstanding_handlers() == 0 {
            return;
        }
    }
    panic!("accelerator failed to quiesce");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn addrcheck_hw_sw_equivalent(ops in prop::collection::vec(op_strategy(), 0..120)) {
        check_monitor("addrcheck", &ops, FilterMode::NonBlocking)?;
    }

    #[test]
    fn memcheck_hw_sw_equivalent(ops in prop::collection::vec(op_strategy(), 0..120)) {
        check_monitor("memcheck", &ops, FilterMode::NonBlocking)?;
    }

    #[test]
    fn memleak_hw_sw_equivalent(ops in prop::collection::vec(op_strategy(), 0..120)) {
        check_monitor("memleak", &ops, FilterMode::NonBlocking)?;
    }

    #[test]
    fn taintcheck_hw_sw_equivalent(ops in prop::collection::vec(op_strategy(), 0..120)) {
        check_monitor("taintcheck", &ops, FilterMode::NonBlocking)?;
    }

    #[test]
    fn atomcheck_hw_sw_equivalent(ops in prop::collection::vec(op_strategy(), 0..120)) {
        check_monitor("atomcheck", &ops, FilterMode::NonBlocking)?;
    }

    #[test]
    fn blocking_mode_is_functionally_identical(ops in prop::collection::vec(op_strategy(), 0..80)) {
        // Invariant 3: blocking and non-blocking FADE agree.
        check_monitor("memleak", &ops, FilterMode::Blocking)?;
        check_monitor("atomcheck", &ops, FilterMode::Blocking)?;
    }
}

#[test]
fn all_monitors_quiesce_on_empty_input() {
    for mon in all_monitors() {
        let program = mon.program();
        let mut st = MetadataState::new(program.md_map());
        mon.init_state(&mut st);
        let mut fade = Fade::new(fast_config(FilterMode::NonBlocking), program);
        for _ in 0..10 {
            fade.tick(&mut st);
        }
        assert!(fade.is_idle(), "{} should be idle", mon.name());
    }
}
