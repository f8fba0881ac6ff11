//! The application's virtual-memory layout.
//!
//! The synthetic benchmarks place their segments at fixed bases (32-bit
//! binaries, Section 6 of the paper); monitors use the same constants to
//! classify accesses (e.g. AddrCheck processes only non-stack memory
//! instructions).

use crate::addr::VirtAddr;

/// Base of the code segment.
pub const TEXT_BASE: u32 = 0x0040_0000;
/// Base of the globals/data segment.
pub const GLOBALS_BASE: u32 = 0x1000_0000;
/// Size of the globals segment (16 MiB).
pub const GLOBALS_SIZE: u32 = 16 << 20;
/// Base of the heap segment.
pub const HEAP_BASE: u32 = 0x4000_0000;
/// Size of the heap segment (1 GiB).
pub const HEAP_SIZE: u32 = 1 << 30;
/// Top of the downward-growing stack.
pub const STACK_TOP: u32 = 0xf000_0000;
/// Maximum stack size (256 MiB).
pub(crate) const STACK_SIZE: u32 = 256 << 20;

/// Returns `true` for addresses in the stack segment.
#[inline]
pub fn is_stack(addr: VirtAddr) -> bool {
    let a = addr.raw();
    a > STACK_TOP - STACK_SIZE && a <= STACK_TOP
}

/// Returns `true` for addresses in the heap segment.
#[inline]
pub fn is_heap(addr: VirtAddr) -> bool {
    let a = addr.raw();
    (HEAP_BASE..HEAP_BASE.wrapping_add(HEAP_SIZE)).contains(&a)
}

/// Returns `true` for addresses in the globals segment.
#[inline]
pub fn is_globals(addr: VirtAddr) -> bool {
    let a = addr.raw();
    (GLOBALS_BASE..GLOBALS_BASE + GLOBALS_SIZE).contains(&a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_do_not_overlap() {
        let stack = VirtAddr::new(STACK_TOP - 64);
        let heap = VirtAddr::new(HEAP_BASE + 64);
        let glob = VirtAddr::new(GLOBALS_BASE + 64);
        assert!(is_stack(stack) && !is_heap(stack) && !is_globals(stack));
        assert!(is_heap(heap) && !is_stack(heap) && !is_globals(heap));
        assert!(is_globals(glob) && !is_stack(glob) && !is_heap(glob));
    }

    #[test]
    fn stack_bounds() {
        assert!(is_stack(VirtAddr::new(STACK_TOP)));
        assert!(!is_stack(VirtAddr::new(STACK_TOP - STACK_SIZE)));
    }
}
