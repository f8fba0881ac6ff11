//! AtomCheck: atomicity-violation detection via access-interleaving
//! invariants (AVIO, Lu et al.; Section 6 of the paper).
//!
//! * **Critical metadata**: one byte per application word — a
//!   thread-status bit (0x80) plus the ID of the thread that last
//!   referenced the word.
//! * **Non-critical metadata**: the type (read/write) of the last access
//!   by each thread, in per-thread tables; interleaving analysis state.
//! * **Selection**: non-stack memory instructions.
//! * **FADE technique**: *partial filtering*. The hardware checks
//!   whether the word was last referenced by the same thread; when the
//!   check passes (the common case, 85.5% in Table 2) only a short
//!   software handler runs to update the access-type table. Otherwise
//!   the complex interleaving-analysis handler runs. The current-thread
//!   signature lives in an INV register that the monitor rewrites on
//!   every thread switch.

use std::collections::HashMap;

use fade::{EventTableEntry, FadeProgram, HandlerPc, InvId, NbAction, NbUpdate, OperandRule};
use fade_isa::{
    event_ids, layout, AppInstr, HighLevelEvent, InstrClass, InstrEvent, StackUpdateEvent,
};
use fade_shadow::{MetadataMap, MetadataState};

use crate::monitor::{CostModel, EventClass, Monitor, MonitorKind};

/// The thread-status bit: set once a word has been referenced.
pub const THREAD_STATUS: u8 = 0x80;

/// INV register holding the current thread's signature.
pub const INV_SIG: InvId = InvId::new(0);

const HANDLER_LONG: HandlerPc = HandlerPc::new(0xa700_0000);
const HANDLER_SHORT: HandlerPc = HandlerPc::new(0xa700_0100);

/// Signature byte for a thread.
#[inline]
pub fn signature(tid: u8) -> u8 {
    THREAD_STATUS | (tid & 0x7f)
}

/// The AtomCheck monitor.
#[derive(Clone, Debug)]
pub struct AtomCheck {
    cur_tid: u8,
    reports: Vec<String>,
    /// Last access type per (thread, word): true = write. Bounded.
    last_type: HashMap<(u8, u32), bool>,
    /// Non-critical: which thread last accessed each word. The critical
    /// metadata byte encodes the same fact for the hardware check, but
    /// the handler must not rely on it — the non-blocking update logic
    /// may already have overwritten it by the time the handler runs.
    last_owner: HashMap<u32, u8>,
}

impl AtomCheck {
    /// Creates the monitor (thread 0 running).
    pub fn new() -> Self {
        AtomCheck {
            cur_tid: 0,
            reports: Vec::new(),
            last_type: HashMap::new(),
            last_owner: HashMap::new(),
        }
    }
}

impl Default for AtomCheck {
    fn default() -> Self {
        AtomCheck::new()
    }
}

impl Monitor for AtomCheck {
    fn name(&self) -> &'static str {
        "AtomCheck"
    }

    fn fork(&self) -> Option<Box<dyn Monitor>> {
        Some(Box::new(self.clone()))
    }

    fn kind(&self) -> MonitorKind {
        MonitorKind::MemoryTracking
    }

    fn selects(&self, instr: &AppInstr) -> bool {
        match instr.mem {
            Some(m) => {
                matches!(instr.class, InstrClass::Load | InstrClass::Store)
                    && !layout::is_stack(m.addr)
            }
            None => false,
        }
    }

    fn monitors_stack(&self) -> bool {
        false
    }

    fn program(&self) -> FadeProgram {
        let mut p = FadeProgram::new(MetadataMap::per_word());
        p.set_invariant(INV_SIG, signature(0) as u64);
        // Loads: check the accessed word (s1); the update target is the
        // same word, declared as the (memory) destination operand.
        p.set_entry(
            event_ids::LOAD,
            EventTableEntry::clean_check([
                Some(OperandRule::mem_operand(1, 0xff, INV_SIG)),
                None,
                Some(OperandRule::mem_plain(1, 0xff)),
            ])
            .with_handler(HANDLER_LONG)
            .with_partial(HANDLER_SHORT)
            .with_nb(NbUpdate::unconditional(NbAction::SetConst(INV_SIG))),
        );
        // Stores: the accessed word is the destination operand.
        p.set_entry(
            event_ids::STORE,
            EventTableEntry::clean_check([
                None,
                None,
                Some(OperandRule::mem_operand(1, 0xff, INV_SIG)),
            ])
            .with_handler(HANDLER_LONG)
            .with_partial(HANDLER_SHORT)
            .with_nb(NbUpdate::unconditional(NbAction::SetConst(INV_SIG))),
        );
        p
    }

    fn init_state(&self, _state: &mut MetadataState) {
        // Words start untouched (0), which never matches a signature:
        // the first access to each word takes the long handler.
    }

    fn classify(&self, ev: &InstrEvent, state: &MetadataState) -> EventClass {
        if state.mem_meta(ev.app_addr) == signature(ev.tid) {
            EventClass::PartialShort
        } else {
            EventClass::Complex
        }
    }

    fn apply_instr(&mut self, ev: &InstrEvent, state: &mut MetadataState) {
        let word = ev.app_addr.word_index();
        let sig = signature(ev.tid);
        let is_write = ev.id == event_ids::STORE;
        // Interleaving analysis (long-handler path): a write right after
        // a remote access is an atomicity-violation candidate per AVIO.
        // The ownership history comes from the monitor's own tables.
        let prev_owner = self.last_owner.get(&word).copied();
        if let Some(remote) = prev_owner {
            if remote != ev.tid && is_write && self.reports.len() < 1000 {
                self.reports.push(format!(
                    "unserializable interleaving candidate at {} (thread {} after thread {remote})",
                    ev.app_addr, ev.tid
                ));
            }
        }
        state.set_mem_meta(ev.app_addr, sig);
        // Non-critical: ownership + per-thread access-type tables.
        if self.last_owner.len() < (1 << 20) {
            self.last_owner.insert(word, ev.tid);
        }
        if self.last_type.len() < (1 << 20) {
            self.last_type.insert((ev.tid, word), is_write);
        }
    }

    fn apply_high_level(&mut self, ev: &HighLevelEvent, state: &mut MetadataState) {
        match *ev {
            HighLevelEvent::ThreadSwitch { tid } => self.cur_tid = tid,
            HighLevelEvent::Malloc { base, len, .. } | HighLevelEvent::Free { base, len } => {
                state.fill_app_range(base, len, 0);
                for w in base.word_index()..base.wrapping_add(len).word_index() {
                    self.last_owner.remove(&w);
                }
            }
            HighLevelEvent::TaintSource { .. } => {}
        }
    }

    fn apply_stack_update(&self, _ev: &StackUpdateEvent, _state: &mut MetadataState) {
        // Stack data is thread-private; not monitored.
    }

    fn costs(&self) -> CostModel {
        CostModel {
            cc: 26,
            ru: 26,
            partial_short: 4,
            complex: 50,
            stack_per_word: 0,
            stack_base: 0,
            high_level_base: 40,
            high_level_per_word: 1,
            thread_switch: 45,
        }
    }

    fn on_thread_switch(&mut self, tid: u8) -> Vec<(InvId, u64)> {
        self.cur_tid = tid;
        vec![(INV_SIG, signature(tid) as u64)]
    }

    fn reports(&self) -> Vec<String> {
        self.reports.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fade_isa::{instr_event_for, MemRef, Reg, VirtAddr};

    fn access(addr: u32, tid: u8, write: bool) -> InstrEvent {
        let class = if write {
            InstrClass::Store
        } else {
            InstrClass::Load
        };
        let mut i = AppInstr::new(VirtAddr::new(4), class)
            .with_mem(MemRef::word(VirtAddr::new(addr)))
            .with_tid(tid);
        i = if write {
            i.with_src1(Reg::new(2))
        } else {
            i.with_dest(Reg::new(2))
        };
        instr_event_for(&i)
    }

    fn heap(off: u32) -> u32 {
        layout::HEAP_BASE + off
    }

    #[test]
    fn signature_encodes_thread_and_status() {
        assert_eq!(signature(0), 0x80);
        assert_eq!(signature(3), 0x83);
    }

    #[test]
    fn first_access_is_complex_then_same_thread_is_short() {
        let mut m = AtomCheck::new();
        let mut st = MetadataState::new(MetadataMap::per_word());
        let ev = access(heap(0x10), 0, false);
        assert_eq!(m.classify(&ev, &st), EventClass::Complex);
        m.apply_instr(&ev, &mut st);
        assert_eq!(m.classify(&ev, &st), EventClass::PartialShort);
    }

    #[test]
    fn cross_thread_access_is_complex_and_write_reports() {
        let mut m = AtomCheck::new();
        let mut st = MetadataState::new(MetadataMap::per_word());
        m.apply_instr(&access(heap(0x20), 0, false), &mut st);
        let remote_write = access(heap(0x20), 1, true);
        assert_eq!(m.classify(&remote_write, &st), EventClass::Complex);
        m.apply_instr(&remote_write, &mut st);
        assert_eq!(m.reports().len(), 1);
        assert_eq!(st.mem_meta(VirtAddr::new(heap(0x20))), signature(1));
        // Remote *read* does not report.
        m.apply_instr(&access(heap(0x24), 0, true), &mut st);
        let remote_read = access(heap(0x24), 1, false);
        m.apply_instr(&remote_read, &mut st);
        assert_eq!(m.reports().len(), 1);
    }

    #[test]
    fn thread_switch_updates_invariant_register() {
        let mut m = AtomCheck::new();
        let writes = m.on_thread_switch(2);
        assert_eq!(writes, vec![(INV_SIG, signature(2) as u64)]);
    }

    #[test]
    fn selects_only_non_stack_memory() {
        let m = AtomCheck::new();
        let heap_ld = AppInstr::new(VirtAddr::new(0), InstrClass::Load)
            .with_mem(MemRef::word(VirtAddr::new(heap(0))));
        let stack_ld = AppInstr::new(VirtAddr::new(0), InstrClass::Load)
            .with_mem(MemRef::word(VirtAddr::new(layout::STACK_TOP - 64)));
        assert!(m.selects(&heap_ld));
        assert!(!m.selects(&stack_ld));
    }

    #[test]
    fn malloc_resets_word_ownership() {
        let mut m = AtomCheck::new();
        let mut st = MetadataState::new(MetadataMap::per_word());
        m.apply_instr(&access(heap(0x40), 1, true), &mut st);
        m.apply_high_level(
            &HighLevelEvent::Malloc {
                base: VirtAddr::new(heap(0x40)),
                len: 16,
                ctx: 1,
            },
            &mut st,
        );
        assert_eq!(st.mem_meta(VirtAddr::new(heap(0x40))), 0);
    }

    #[test]
    fn program_uses_partial_filtering() {
        let p = AtomCheck::new().program();
        assert!(p.validate().is_ok());
        let load = p.table().entry(event_ids::LOAD).unwrap();
        assert!(load.partial);
        assert_ne!(load.handler_pc, load.partial_handler_pc);
    }
}
