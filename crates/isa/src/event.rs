//! Application events — the currency of the monitoring system.
//!
//! Figure 6(a) of the paper defines the instruction-event format that the
//! application enqueues: a 6-bit event ID, the effective address, the PC,
//! and three 5-bit register operands. [`InstrEvent`] mirrors that format,
//! with two simulator-side side-band fields (`mem_size`, `tid`) that the
//! functional model needs but that hardware derives implicitly.

use std::fmt;

use crate::addr::VirtAddr;
use crate::reg::Reg;

/// Number of entries in the event table ("128 entries, covering the
/// heavily used subset of the modeled ISA", Section 6).
pub const EVENT_TABLE_ENTRIES: usize = 128;

/// A 7-bit index into the 128-entry event table.
///
/// The event format in Figure 6(a) allots 6 bits to the event ID for the
/// primary (decoder-assigned) IDs; the upper half of the table is reserved
/// for multi-shot continuation entries reachable only via `next_entry`
/// pointers, which is why the table itself has 128 entries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(u8);

impl EventId {
    /// Creates an event ID.
    ///
    /// # Panics
    ///
    /// Panics if `index >= EVENT_TABLE_ENTRIES`.
    #[inline]
    pub const fn new(index: u8) -> Self {
        assert!(
            (index as usize) < EVENT_TABLE_ENTRIES,
            "event id out of range"
        );
        EventId(index)
    }

    /// Returns the table index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventId({})", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev{}", self.0)
    }
}

/// An instruction event in the Figure 6(a) format.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct InstrEvent {
    /// Event table index assigned by the event producer.
    pub id: EventId,
    /// Effective address of the memory operand (undefined — by convention
    /// null — for non-memory events; the event-table `mem` bits decide
    /// whether it is consulted).
    pub app_addr: VirtAddr,
    /// Program counter of the monitored instruction.
    pub app_pc: VirtAddr,
    /// First source register field.
    pub src1: Reg,
    /// Second source register field.
    pub src2: Reg,
    /// Destination register field.
    pub dest: Reg,
    /// Side-band: memory access size in bytes (simulator-functional only).
    pub mem_size: u8,
    /// Side-band: retiring hardware thread (simulator-functional only).
    pub tid: u8,
    /// Side-band: the destination *value* is a pointer (consulted by
    /// value-inspecting software handlers, invisible to hardware).
    pub result_ptr: bool,
}

impl InstrEvent {
    /// Creates an instruction event with all register fields zeroed.
    pub const fn new(id: EventId, app_pc: VirtAddr) -> Self {
        InstrEvent {
            id,
            app_addr: VirtAddr::NULL,
            app_pc,
            src1: Reg::ZERO,
            src2: Reg::ZERO,
            dest: Reg::ZERO,
            mem_size: 0,
            tid: 0,
            result_ptr: false,
        }
    }
}

/// Whether a stack update allocates (call) or deallocates (return) a frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StackUpdateKind {
    /// Function call: the frame becomes allocated-and-uninitialized.
    Call,
    /// Function return: the frame becomes unallocated.
    Return,
}

impl fmt::Display for StackUpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StackUpdateKind::Call => "call",
            StackUpdateKind::Return => "return",
        })
    }
}

/// A stack-update event: bulk metadata (re)initialization for a stack
/// frame in response to a function call or return (Section 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StackUpdateEvent {
    /// Lowest address of the affected frame.
    pub base: VirtAddr,
    /// Frame length in bytes.
    pub len: u32,
    /// Allocation or deallocation.
    pub kind: StackUpdateKind,
    /// Retiring hardware thread.
    pub tid: u8,
}

/// High-level events: infrequent, complex actions that FADE deliberately
/// does not target (Section 3.3) and that always go to software.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HighLevelEvent {
    /// Heap allocation: `len` bytes at `base`; `ctx` identifies the
    /// allocation context (used by MemLeak's bookkeeping).
    Malloc {
        /// Base address of the new block.
        base: VirtAddr,
        /// Length of the new block in bytes.
        len: u32,
        /// Allocation-context identifier (PC-like).
        ctx: u32,
    },
    /// Heap deallocation of the block starting at `base` of `len` bytes.
    Free {
        /// Base address of the freed block.
        base: VirtAddr,
        /// Length of the freed block in bytes.
        len: u32,
    },
    /// External input marked tainted (file/network read), for TaintCheck.
    TaintSource {
        /// Base address of the tainted buffer.
        base: VirtAddr,
        /// Length of the tainted buffer in bytes.
        len: u32,
    },
    /// Scheduler switched the time-sliced core to another thread
    /// (parallel AtomCheck benchmarks run 4 threads on one core).
    ThreadSwitch {
        /// The thread now running.
        tid: u8,
    },
}

/// Any event the application can enqueue for the monitoring system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AppEvent {
    /// An instruction event (Figure 6(a)).
    Instr(InstrEvent),
    /// A stack-update event (function call/return frame management).
    StackUpdate(StackUpdateEvent),
    /// A high-level event (malloc/free/taint-source/thread-switch).
    HighLevel(HighLevelEvent),
}

impl From<InstrEvent> for AppEvent {
    fn from(e: InstrEvent) -> Self {
        AppEvent::Instr(e)
    }
}

impl From<StackUpdateEvent> for AppEvent {
    fn from(e: StackUpdateEvent) -> Self {
        AppEvent::StackUpdate(e)
    }
}

impl From<HighLevelEvent> for AppEvent {
    fn from(e: HighLevelEvent) -> Self {
        AppEvent::HighLevel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_id_bounds() {
        assert_eq!(EventId::new(127).index(), 127);
    }

    #[test]
    #[should_panic(expected = "event id out of range")]
    fn event_id_rejects_128() {
        let _ = EventId::new(128);
    }

    /// Packs the architectural fields into the Figure 6(a) wire format:
    /// event ID (bits 0..7), app addr (8..40), app PC (40..72), src1
    /// (72..77), src2 (77..82), dest (82..87). The simulator side-band
    /// fields (`mem_size`, `tid`, `result_ptr`) are *not* encoded —
    /// hardware derives or never sees them.
    fn pack(e: &InstrEvent) -> u128 {
        (e.id.index() as u128)
            | ((e.app_addr.raw() as u128) << 8)
            | ((e.app_pc.raw() as u128) << 40)
            | ((e.src1.index() as u128) << 72)
            | ((e.src2.index() as u128) << 77)
            | ((e.dest.index() as u128) << 82)
    }

    /// Unpacks a Figure 6(a) word produced by [`pack`] — the round-trip
    /// oracle for `pack`. Side-band fields come back zeroed.
    fn unpack(word: u128) -> InstrEvent {
        InstrEvent {
            id: EventId::new((word & 0x7f) as u8),
            app_addr: VirtAddr::new((word >> 8) as u32),
            app_pc: VirtAddr::new((word >> 40) as u32),
            src1: Reg::new(((word >> 72) & 0x1f) as u8),
            src2: Reg::new(((word >> 77) & 0x1f) as u8),
            dest: Reg::new(((word >> 82) & 0x1f) as u8),
            mem_size: 0,
            tid: 0,
            result_ptr: false,
        }
    }

    #[test]
    fn pack_unpack_round_trips_architectural_fields() {
        let mut e = InstrEvent::new(EventId::new(5), VirtAddr::new(0xdead_beec));
        e.app_addr = VirtAddr::new(0x1234_5678);
        e.src1 = Reg::new(31);
        e.src2 = Reg::new(1);
        e.dest = Reg::new(17);
        let back = unpack(pack(&e));
        assert_eq!(back.id, e.id);
        assert_eq!(back.app_addr, e.app_addr);
        assert_eq!(back.app_pc, e.app_pc);
        assert_eq!(back.src1, e.src1);
        assert_eq!(back.src2, e.src2);
        assert_eq!(back.dest, e.dest);
    }

    #[test]
    fn packed_format_fits_87_bits() {
        let mut e = InstrEvent::new(EventId::new(127), VirtAddr::new(u32::MAX));
        e.app_addr = VirtAddr::new(u32::MAX);
        e.src1 = Reg::new(31);
        e.src2 = Reg::new(31);
        e.dest = Reg::new(31);
        assert!(pack(&e) < (1u128 << 87), "event word exceeds its field budget");
    }
}
