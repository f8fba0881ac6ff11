//! The Stack-Update Unit (SUU) — Section 4.2.
//!
//! A finite state machine that takes the stack frame's starting address
//! and length, computes the covered metadata block addresses, and issues
//! one metadata-cache line write per cycle setting the range to one of
//! two predefined INV RF values (one for calls, one for returns).

use fade_isa::{StackUpdateEvent, StackUpdateKind};
use fade_shadow::{MetadataMap, MetadataState};

use crate::invrf::{InvId, InvRf};
use crate::md_cache::TagCache;

/// The SUU FSM. At most one stack update is in flight at a time; the
/// pipeline stalls instruction filtering while the SUU is busy because
/// stack updates change metadata state (Section 5.2).
#[derive(Clone, Debug)]
pub(crate) struct StackUpdateUnit {
    /// Remaining line writes for the in-flight update.
    lines_left: u32,
    /// Next metadata address to write.
    cursor: u64,
    /// End of the metadata range.
    end: u64,
    /// Fill value for the in-flight update.
    value: u8,
    /// Total line writes issued (statistics).
    writes_issued: u64,
}

/// Line size the SUU writes per cycle (matches the MD cache line).
const SUU_LINE_BYTES: u64 = 64;

impl StackUpdateUnit {
    /// Creates an idle SUU.
    pub(crate) fn new() -> Self {
        StackUpdateUnit {
            lines_left: 0,
            cursor: 0,
            end: 0,
            value: 0,
            writes_issued: 0,
        }
    }

    /// Returns `true` while an update is in flight.
    #[inline]
    pub(crate) fn busy(&self) -> bool {
        self.lines_left > 0
    }

    /// Starts processing a stack-update event.
    ///
    /// The *functional* metadata effect is applied immediately (the
    /// simulator keeps metadata in program order); the FSM then accounts
    /// one cycle per covered metadata line.
    ///
    /// Returns the number of cycles the unit will be busy.
    ///
    /// # Panics
    ///
    /// Panics if the unit is already busy.
    pub(crate) fn start(
        &mut self,
        ev: &StackUpdateEvent,
        call_inv: InvId,
        ret_inv: InvId,
        inv: &InvRf,
        map: &MetadataMap,
        state: &mut MetadataState,
    ) -> u32 {
        assert!(!self.busy(), "SUU is busy");
        self.value = match ev.kind {
            StackUpdateKind::Call => inv.read(call_inv) as u8,
            StackUpdateKind::Return => inv.read(ret_inv) as u8,
        };
        // Functional effect: set the frame's metadata range.
        state.fill_app_range(ev.base, ev.len, self.value);
        // Timing: one MD-cache line write per cycle over the range.
        let (start, len) = map.md_range(ev.base, ev.len);
        if len == 0 {
            return 0;
        }
        let first_line = start / SUU_LINE_BYTES;
        let last_line = (start + len - 1) / SUU_LINE_BYTES;
        self.lines_left = (last_line - first_line + 1) as u32;
        self.cursor = first_line * SUU_LINE_BYTES;
        self.end = start + len;
        self.lines_left
    }

    /// Advances one cycle: issues one line write into the MD cache.
    /// Returns `true` when the update completed this cycle.
    pub(crate) fn tick(&mut self, md_cache: &mut TagCache) -> bool {
        if !self.busy() {
            return false;
        }
        md_cache.fill(self.cursor);
        self.cursor += SUU_LINE_BYTES;
        self.writes_issued += 1;
        self.lines_left -= 1;
        self.lines_left == 0
    }

    /// Total line writes issued.
    pub(crate) fn writes_issued(&self) -> u64 {
        self.writes_issued
    }
}

impl Default for StackUpdateUnit {
    fn default() -> Self {
        StackUpdateUnit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md_cache::TagCacheConfig;
    use fade_isa::VirtAddr;

    fn setup() -> (InvRf, MetadataState, TagCache) {
        let mut inv = InvRf::new();
        inv.write(InvId::new(0), 2); // call: allocated-uninitialized
        inv.write(InvId::new(1), 0); // return: unallocated
        let state = MetadataState::new(MetadataMap::per_word());
        let cache = TagCache::new(TagCacheConfig::md_cache());
        (inv, state, cache)
    }

    fn call_event(base: u32, len: u32) -> StackUpdateEvent {
        StackUpdateEvent {
            base: VirtAddr::new(base),
            len,
            kind: StackUpdateKind::Call,
            tid: 0,
        }
    }

    #[test]
    fn call_sets_frame_metadata() {
        let (inv, mut st, _c) = setup();
        let mut suu = StackUpdateUnit::new();
        let map = st.map();
        let cycles = suu.start(&call_event(0x8000, 256), InvId::new(0), InvId::new(1), &inv, &map, &mut st);
        // 256 app bytes -> 64 md bytes -> 1..2 lines depending on alignment.
        assert!((1..=2).contains(&cycles), "got {cycles}");
        assert_eq!(st.mem_meta(VirtAddr::new(0x8000)), 2);
        assert_eq!(st.mem_meta(VirtAddr::new(0x80fc)), 2);
        assert_eq!(st.mem_meta(VirtAddr::new(0x8100)), 0);
    }

    #[test]
    fn return_resets_frame_metadata() {
        let (inv, mut st, _c) = setup();
        let mut suu = StackUpdateUnit::new();
        let map = st.map();
        suu.start(&call_event(0x8000, 128), InvId::new(0), InvId::new(1), &inv, &map, &mut st);
        // Finish the call, then return over the same range.
        while suu.busy() {
            let mut c = TagCache::new(TagCacheConfig::md_cache());
            suu.tick(&mut c);
        }
        let ret = StackUpdateEvent {
            kind: StackUpdateKind::Return,
            ..call_event(0x8000, 128)
        };
        suu.start(&ret, InvId::new(0), InvId::new(1), &inv, &map, &mut st);
        assert_eq!(st.mem_meta(VirtAddr::new(0x8000)), 0);
    }

    #[test]
    fn tick_issues_one_line_per_cycle() {
        let (inv, mut st, mut cache) = setup();
        let mut suu = StackUpdateUnit::new();
        let map = st.map();
        // 1024 app bytes -> 256 md bytes -> 4-5 lines.
        let cycles = suu.start(&call_event(0x10000, 1024), InvId::new(0), InvId::new(1), &inv, &map, &mut st);
        let mut n = 0;
        while suu.busy() {
            suu.tick(&mut cache);
            n += 1;
            assert!(n <= cycles, "SUU ran longer than promised");
        }
        assert_eq!(n, cycles);
        assert_eq!(suu.writes_issued(), cycles as u64);
        // The written lines are now resident in the MD cache.
        let (md_start, _) = map.md_range(VirtAddr::new(0x10000), 1024);
        assert!(cache.probe(md_start));
    }

    #[test]
    fn zero_length_frame_completes_immediately() {
        let (inv, mut st, _c) = setup();
        let mut suu = StackUpdateUnit::new();
        let map = st.map();
        let cycles = suu.start(&call_event(0x8000, 0), InvId::new(0), InvId::new(1), &inv, &map, &mut st);
        assert_eq!(cycles, 0);
        assert!(!suu.busy());
    }

    #[test]
    #[should_panic(expected = "SUU is busy")]
    fn start_while_busy_panics() {
        let (inv, mut st, _c) = setup();
        let mut suu = StackUpdateUnit::new();
        let map = st.map();
        suu.start(&call_event(0, 4096), InvId::new(0), InvId::new(1), &inv, &map, &mut st);
        suu.start(&call_event(0, 4096), InvId::new(0), InvId::new(1), &inv, &map, &mut st);
    }
}
