//! The synthetic program engine.
//!
//! Generates a deterministic dynamic instruction stream with the
//! structural properties instruction-grain monitors react to: a call
//! stack, heap allocation with reuse and (optionally) misuse, pointer
//! and taint dataflow through registers and memory, temporal locality,
//! and multi-threaded time-slicing for the parallel suite.
//!
//! Live generation feeds the cycle-accurate figure runs record by
//! record, so the per-record path keeps bookkeeping small: the
//! instruction-class weights are summed once at construction, register
//! and memory value tags live in the array-backed stores of
//! `crate::value`, and picking a pointer register allocates nothing.
//! None of this changes a random draw: the stream is pinned by the
//! golden generator digests.

use std::collections::VecDeque;

use fade_isa::{
    layout, AppInstr, HighLevelEvent, InstrClass, MemRef, Reg, StackUpdateEvent, StackUpdateKind,
    VirtAddr,
};
use fade_sim::Rng;

use crate::heap::HeapModel;
use crate::profile::BenchProfile;
use crate::value::{RegTags, ValueTags, WordTags};

/// One element of the generated trace.
///
/// Only `Instr` records consume retirement bandwidth; `Stack` and `High`
/// records ride along with the instruction that caused them (a call's
/// frame allocation, a malloc's library call, ...).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceRecord {
    /// A retired instruction.
    Instr(AppInstr),
    /// A stack-update event accompanying a call/return.
    Stack(StackUpdateEvent),
    /// A high-level event (malloc/free/taint-source/thread-switch).
    High(HighLevelEvent),
}

#[derive(Clone, Debug)]
struct Frame {
    base: VirtAddr,
    len: u32,
}

#[derive(Clone, Debug)]
struct ThreadCtx {
    regs: RegTags,
    frames: Vec<Frame>,
    sp: u32,
    /// Recently *stored* (thus initialized) non-stack addresses.
    hot: VecDeque<VirtAddr>,
    /// Larger pool of initialized non-stack addresses for far reuse.
    stored_pool: Vec<VirtAddr>,
    /// Words of the current frame that have been written (locals the
    /// function may legitimately read back).
    frame_written: Vec<VirtAddr>,
    pc: u32,
}

impl ThreadCtx {
    fn new(tid: u8) -> Self {
        let stack_base = layout::STACK_TOP - (tid as u32) * (8 << 20);
        ThreadCtx {
            regs: RegTags::default(),
            frames: vec![Frame {
                base: VirtAddr::new(stack_base - 4096),
                len: 4096,
            }],
            sp: stack_base - 4096,
            hot: VecDeque::with_capacity(64),
            stored_pool: Vec::new(),
            frame_written: Vec::new(),
            pc: layout::TEXT_BASE + (tid as u32) * 0x10000,
        }
    }
}

/// Deterministic synthetic program for one benchmark profile.
pub struct SyntheticProgram {
    profile: BenchProfile,
    /// `profile.mix.weights()` and their sum, fixed at construction:
    /// every instruction draws its class from them.
    mix_weights: [f64; 9],
    mix_total: f64,
    rng: Rng,
    threads: Vec<ThreadCtx>,
    cur_tid: usize,
    slice_left: u32,
    heap: HeapModel,
    /// Memory word tags, shared by every thread.
    mem_tags: WordTags,
    pending: VecDeque<TraceRecord>,
    /// Words of fresh allocations awaiting their first write.
    to_init: VecDeque<VirtAddr>,
    /// Tainted addresses (for taint-density targeting).
    tainted: VecDeque<VirtAddr>,
    next_ctx: u32,
    instrs: u64,
    calls: u64,
    mallocs: u64,
}

const GENERAL_REGS: [u8; 24] = [
    1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
];

impl SyntheticProgram {
    /// Creates the program with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile's instruction mix has no positive total
    /// weight.
    pub fn new(profile: &BenchProfile, seed: u64) -> Self {
        let mix_weights = profile.mix.weights();
        let mix_total: f64 = mix_weights.iter().sum();
        assert!(
            mix_total > 0.0,
            "weights must be non-empty with positive sum"
        );
        let threads = (0..profile.threads.max(1))
            .map(ThreadCtx::new)
            .collect::<Vec<_>>();
        let mut prog = SyntheticProgram {
            profile: profile.clone(),
            mix_weights,
            mix_total,
            rng: Rng::seed_from(seed ^ 0xfade_0000_0000_0000),
            threads,
            cur_tid: 0,
            slice_left: profile.timeslice,
            heap: HeapModel::new(),
            mem_tags: WordTags::new(),
            pending: VecDeque::new(),
            to_init: VecDeque::new(),
            tainted: VecDeque::new(),
            next_ctx: 1,
            instrs: 0,
            calls: 0,
            mallocs: 0,
        };
        // Warm the heap so early accesses have live blocks to target.
        // The malloc events stay queued so monitors learn about the
        // blocks before the first instructions retire.
        for _ in 0..16 {
            prog.do_malloc();
        }
        prog
    }

    /// The benchmark profile driving this program.
    #[cfg(test)]
    fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// Instructions generated so far.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Calls generated so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Mallocs generated so far.
    pub fn mallocs(&self) -> u64 {
        self.mallocs
    }

    /// Appends the next `n` trace records to `buf` — the batched feed
    /// for consumers that drain events in slices (the batched filtering
    /// path, the experiment harness's refill buffer) instead of one
    /// generator round trip per record. Produces exactly the sequence
    /// `n` calls of [`SyntheticProgram::next_record`] would.
    pub fn next_records_into(&mut self, buf: &mut Vec<TraceRecord>, n: usize) {
        buf.reserve(n);
        for _ in 0..n {
            buf.push(self.next_record());
        }
    }

    /// Produces the next trace record.
    pub fn next_record(&mut self) -> TraceRecord {
        if let Some(r) = self.pending.pop_front() {
            return r;
        }
        // Thread switch boundary (parallel suite, time-sliced core).
        if self.threads.len() > 1 {
            if self.slice_left == 0 {
                self.cur_tid = (self.cur_tid + 1) % self.threads.len();
                self.slice_left = self.profile.timeslice;
                return TraceRecord::High(HighLevelEvent::ThreadSwitch {
                    tid: self.cur_tid as u8,
                });
            }
            self.slice_left -= 1;
        }

        // High-level activity interleaved with the instruction stream.
        if self.rng.chance(self.profile.malloc_rate) {
            self.do_malloc();
        }
        if self.heap.live_blocks() > 24 && self.rng.chance(self.profile.malloc_rate) {
            self.do_free();
        }
        if self.profile.taint_source_rate > 0.0 && self.rng.chance(self.profile.taint_source_rate)
        {
            self.do_taint_source();
        }

        // Call/return machinery.
        let depth = self.threads[self.cur_tid].frames.len();
        if depth < 24 && self.rng.chance(self.profile.call_rate) {
            self.do_call();
        } else if depth > 2 && self.rng.chance(self.profile.call_rate) {
            self.do_return();
        }

        if let Some(r) = self.pending.pop_front() {
            return r;
        }
        TraceRecord::Instr(self.gen_instr())
    }

    fn next_pc(&mut self) -> VirtAddr {
        let t = &mut self.threads[self.cur_tid];
        t.pc = t.pc.wrapping_add(4);
        if t.pc >= layout::TEXT_BASE + 0x0100_0000 {
            t.pc = layout::TEXT_BASE;
        }
        VirtAddr::new(t.pc)
    }

    fn do_malloc(&mut self) {
        let len = 8 + self.rng.below(2 * self.profile.alloc_mean as u64) as u32;
        let block = self.heap.malloc(len);
        // Reused address ranges no longer name old data.
        self.purge_range(block.base, block.len);
        self.mem_tags.clear_range(block.base, block.len);
        self.mallocs += 1;
        let ctx = self.next_ctx;
        self.next_ctx += 1;
        // The returned pointer lands in the return-value register.
        let tid = self.cur_tid;
        self.threads[tid]
            .regs
            .set(Reg::RET, ValueTags::POINTER | ValueTags::INIT);
        // Queue the block's words for first-write targeting.
        for w in (0..block.len.min(512)).step_by(4) {
            self.to_init.push_back(block.base.wrapping_add(w));
            if self.to_init.len() > 8192 {
                self.to_init.pop_front();
            }
        }
        self.pending.push_back(TraceRecord::High(HighLevelEvent::Malloc {
            base: block.base,
            len: block.len,
            ctx,
        }));
    }

    fn do_free(&mut self) {
        if let Some(block) = self.heap.free_random(&mut self.rng) {
            self.mem_tags.clear_range(block.base, block.len);
            self.purge_range(block.base, block.len);
            self.pending.push_back(TraceRecord::High(HighLevelEvent::Free {
                base: block.base,
                len: block.len,
            }));
        }
    }

    /// Removes addresses in `[base, base+len)` from every reuse pool: a
    /// correct program stops touching memory it freed (the deliberate
    /// exception is the `wild_rate` knob).
    fn purge_range(&mut self, base: VirtAddr, len: u32) {
        let lo = base.raw();
        let hi = lo.wrapping_add(len);
        // The pools only ever admit non-stack addresses (stack stores
        // go to `frame_written`, which call/return clear wholesale), so
        // purging a stack range — every call and return — is a no-op:
        // skip the scan over thousands of pool entries. This is the
        // hottest path of trace generation for call-heavy profiles.
        if layout::is_stack(base) && layout::is_stack(VirtAddr::new(hi - 1)) {
            debug_assert!(self
                .threads
                .iter()
                .flat_map(|t| t.hot.iter().chain(t.stored_pool.iter()))
                .chain(self.to_init.iter())
                .chain(self.tainted.iter())
                .all(|a| !layout::is_stack(*a)));
            return;
        }
        let out = |a: &VirtAddr| a.raw() < lo || a.raw() >= hi;
        for t in &mut self.threads {
            t.hot.retain(out);
            t.stored_pool.retain(out);
        }
        self.to_init.retain(out);
        self.tainted.retain(out);
    }

    fn do_taint_source(&mut self) {
        // Taint a stretch of a live block (an external read into it).
        let Some(addr) = self.heap.random_live_addr(&mut self.rng) else {
            return;
        };
        let len = 32 + self.rng.below(96) as u32;
        for w in (0..len).step_by(4) {
            let a = addr.wrapping_add(w);
            self.mem_tags.set(a, ValueTags::TAINT | ValueTags::INIT);
            self.tainted.push_back(a);
            if self.tainted.len() > 1024 {
                self.tainted.pop_front();
            }
        }
        self.pending
            .push_back(TraceRecord::High(HighLevelEvent::TaintSource {
                base: addr,
                len,
            }));
    }

    fn do_call(&mut self) {
        self.calls += 1;
        let len = (32 + self.rng.below(2 * self.profile.frame_mean as u64) as u32)
            .next_multiple_of(16);
        let pc = self.next_pc();
        let tid = self.cur_tid as u8;
        let t = &mut self.threads[self.cur_tid];
        t.sp -= len;
        let frame = Frame {
            base: VirtAddr::new(t.sp),
            len,
        };
        let (fb, fl) = (frame.base, frame.len);
        {
            let t = &mut self.threads[self.cur_tid];
            t.frames.push(frame);
            t.frame_written.clear();
        }
        // Fresh frame: uninitialized; stale pool entries at reused
        // stack addresses no longer name live data.
        self.mem_tags.clear_range(fb, fl);
        self.purge_range(fb, fl);
        let ev = StackUpdateEvent {
            base: fb,
            len,
            kind: StackUpdateKind::Call,
            tid,
        };
        self.pending.push_back(TraceRecord::Instr(
            AppInstr::new(pc, InstrClass::Call).with_tid(tid),
        ));
        self.pending.push_back(TraceRecord::Stack(ev));
    }

    fn do_return(&mut self) {
        let pc = self.next_pc();
        let tid = self.cur_tid as u8;
        let t = &mut self.threads[self.cur_tid];
        let Some(frame) = t.frames.pop() else { return };
        t.frame_written.clear();
        t.sp += frame.len;
        self.mem_tags.clear_range(frame.base, frame.len);
        self.purge_range(frame.base, frame.len);
        let ev = StackUpdateEvent {
            base: frame.base,
            len: frame.len,
            kind: StackUpdateKind::Return,
            tid,
        };
        self.pending.push_back(TraceRecord::Instr(
            AppInstr::new(pc, InstrClass::Return).with_tid(tid),
        ));
        self.pending.push_back(TraceRecord::Stack(ev));
    }

    fn gen_instr(&mut self) -> AppInstr {
        self.instrs += 1;
        let pc = self.next_pc();
        let tid = self.cur_tid as u8;
        let class = match self.pick_class() {
            0 => InstrClass::Load,
            1 => InstrClass::Store,
            2 => InstrClass::IntAlu,
            3 => InstrClass::IntMove,
            4 => InstrClass::IntMul,
            5 => InstrClass::FpAlu,
            6 => InstrClass::Branch,
            7 => InstrClass::Jump,
            _ => InstrClass::Nop,
        };
        match class {
            InstrClass::Load => self.gen_load(pc, tid),
            InstrClass::Store => self.gen_store(pc, tid),
            InstrClass::IntAlu | InstrClass::IntMul => self.gen_alu(pc, tid, class),
            InstrClass::IntMove => self.gen_move(pc, tid),
            InstrClass::FpAlu => AppInstr::new(pc, InstrClass::FpAlu).with_tid(tid),
            InstrClass::Branch => {
                let s1 = self.pick_reg();
                let s2 = self.pick_reg();
                AppInstr::new(pc, InstrClass::Branch)
                    .with_src1(s1)
                    .with_src2(s2)
                    .with_tid(tid)
            }
            InstrClass::Jump => {
                let s1 = self.pick_reg();
                AppInstr::new(pc, InstrClass::Jump).with_src1(s1).with_tid(tid)
            }
            _ => AppInstr::new(pc, InstrClass::Nop).with_tid(tid),
        }
    }

    fn gen_load(&mut self, pc: VirtAddr, tid: u8) -> AppInstr {
        let (addr, wild) = self.pick_addr(false);
        let dest = self.pick_reg();
        let tags = self.mem_tags.get(addr);
        self.threads[self.cur_tid].regs.set(dest, tags);
        // Only initialized, valid data enters the reuse set: wild or
        // uninitialized reads are one-off events, not new hot data.
        if !wild && tags.contains(ValueTags::INIT) {
            self.touch_hot(addr);
        }
        AppInstr::new(pc, InstrClass::Load)
            .with_dest(dest)
            .with_mem(MemRef::word(addr))
            .with_tid(tid)
            .with_result_ptr(tags.contains(ValueTags::POINTER))
    }

    fn gen_store(&mut self, pc: VirtAddr, tid: u8) -> AppInstr {
        let (addr, wild) = self.pick_addr(true);
        let src = self.pick_store_src();
        // Defined-ness propagates as-is: storing an undefined value
        // leaves the word written-but-undefined.
        let tags = self.threads[self.cur_tid].regs.get(src);
        self.mem_tags.set(addr, tags);
        // Tainted output is written and rarely read back (output
        // buffers), so it mostly stays out of the reuse set; everything
        // else initialized and valid becomes reusable.
        let suppress_taint =
            tags.contains(ValueTags::TAINT) && self.rng.chance(0.8);
        if !wild && tags.contains(ValueTags::INIT) && !suppress_taint {
            if layout::is_stack(addr) {
                let t = &mut self.threads[self.cur_tid];
                if t.frame_written.len() < 64 {
                    t.frame_written.push(addr);
                }
            } else {
                let replace = self.rng.below(4096) as usize;
                let t = &mut self.threads[self.cur_tid];
                t.hot.push_back(addr);
                if t.hot.len() > 64 {
                    t.hot.pop_front();
                }
                if t.stored_pool.len() < 4096 {
                    t.stored_pool.push(addr);
                } else {
                    t.stored_pool[replace] = addr;
                }
            }
        }
        AppInstr::new(pc, InstrClass::Store)
            .with_src1(src)
            .with_mem(MemRef::word(addr))
            .with_tid(tid)
            .with_result_ptr(tags.contains(ValueTags::POINTER))
    }

    fn gen_alu(&mut self, pc: VirtAddr, tid: u8, class: InstrClass) -> AppInstr {
        let s1 = self.pick_alu_src();
        // Half of integer ALU operations take a register-immediate
        // form; the immediate operand is architecturally the zero
        // register and carries clean metadata.
        // Register-immediate forms dominate compiled integer code.
        let s2 = if self.rng.chance(0.7) {
            None
        } else {
            Some(self.pick_reg())
        };
        let dest = self.pick_reg();
        let keep_ptr = self.rng.chance(0.4);
        let t = &mut self.threads[self.cur_tid];
        let s1_tags = t.regs.get(s1);
        let s2_tags = s2.map(|r| t.regs.get(r)).unwrap_or(ValueTags::INIT);
        // The result is defined only if every register source is.
        let defined = s1_tags.contains(ValueTags::INIT) && s2_tags.contains(ValueTags::INIT);
        let mut tags = (s1_tags | s2_tags).without(ValueTags::INIT);
        if defined {
            tags = tags | ValueTags::INIT;
        }
        if class == InstrClass::IntMul {
            // Multiplying pointers does not yield a pointer.
            tags = tags.without(ValueTags::POINTER);
        } else if tags.contains(ValueTags::POINTER) && !keep_ptr {
            // Much pointer arithmetic computes offsets/differences,
            // which are integers; without this decay pointer-ness would
            // spread virally through the register file.
            tags = tags.without(ValueTags::POINTER);
        }
        t.regs.set(dest, tags);
        let mut i = AppInstr::new(pc, class)
            .with_src1(s1)
            .with_dest(dest)
            .with_tid(tid)
            .with_result_ptr(tags.contains(ValueTags::POINTER));
        if let Some(s2) = s2 {
            i = i.with_src2(s2);
        }
        i
    }

    fn gen_move(&mut self, pc: VirtAddr, tid: u8) -> AppInstr {
        let dest = self.pick_reg();
        // Most moves materialize immediates/constants: they *clean* the
        // destination register, the mechanism by which real programs
        // keep most registers free of pointers/taint/undef values.
        if self.rng.chance(0.55) {
            let t = &mut self.threads[self.cur_tid];
            t.regs.set(dest, ValueTags::INIT);
            return AppInstr::new(pc, InstrClass::IntMove)
                .with_dest(dest)
                .with_tid(tid);
        }
        let s1 = self.pick_alu_src();
        let t = &mut self.threads[self.cur_tid];
        let tags = t.regs.get(s1);
        t.regs.set(dest, tags);
        AppInstr::new(pc, InstrClass::IntMove)
            .with_src1(s1)
            .with_dest(dest)
            .with_tid(tid)
            .with_result_ptr(tags.contains(ValueTags::POINTER))
    }

    /// Index of the next instruction's class in the mix, drawn in
    /// proportion to its weight.
    fn pick_class(&mut self) -> usize {
        let mut x = self.rng.unit_f64() * self.mix_total;
        for (i, &w) in self.mix_weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        self.mix_weights.len() - 1
    }

    fn touch_hot(&mut self, addr: VirtAddr) {
        if layout::is_stack(addr) {
            return;
        }
        let t = &mut self.threads[self.cur_tid];
        t.hot.push_back(addr);
        if t.hot.len() > 64 {
            t.hot.pop_front();
        }
    }

    /// Index into a pool of `len` entries, biased towards the most
    /// recent entries (geometric with mean ~48): working sets are
    /// concentrated, which is what keeps the M-TLB and MD cache
    /// effective on real programs.
    fn recent_index(&mut self, len: usize) -> usize {
        let g = self.rng.geometric(1.0 / 48.0) as usize;
        len - 1 - g.min(len - 1)
    }

    /// A uniformly random general-purpose register.
    fn pick_reg(&mut self) -> Reg {
        Reg::new(GENERAL_REGS[self.rng.below(GENERAL_REGS.len() as u64) as usize])
    }

    /// ALU source selection: biased towards pointer-holding registers
    /// per the profile's pointer density.
    fn pick_alu_src(&mut self) -> Reg {
        if self.rng.chance(self.profile.pointer_density) {
            if let Some(r) = self.pick_pointer_reg() {
                return r;
            }
        }
        self.pick_reg()
    }

    /// Store value selection: occasionally spills a pointer register
    /// (half as often as pointer arithmetic uses one — most stores are
    /// data, not pointer spills).
    fn pick_store_src(&mut self) -> Reg {
        if self.rng.chance(self.profile.pointer_density * 0.5) {
            if let Some(r) = self.pick_pointer_reg() {
                return r;
            }
        }
        self.pick_reg()
    }

    /// A uniformly random pointer-holding register of the current
    /// thread, or `None` (drawing nothing) when none holds a pointer.
    fn pick_pointer_reg(&mut self) -> Option<Reg> {
        let n = self.threads[self.cur_tid].regs.pointer_count();
        if n == 0 {
            return None;
        }
        let k = self.rng.below(n as u64) as u32;
        Some(self.threads[self.cur_tid].regs.nth_pointer(k))
    }

    /// Address selection, the heart of the workload's behaviour.
    /// Returns the address and whether it is a *wild* access (freed or
    /// never-allocated memory) that must not enter the reuse pools.
    fn pick_addr(&mut self, is_store: bool) -> (VirtAddr, bool) {
        let p = &self.profile;
        // Wild access (unallocated / freed memory).
        if self.rng.chance(p.wild_rate) {
            if let Some(a) = self.heap.random_freed_addr(&mut self.rng) {
                return (a, true);
            }
            // Never-allocated heap territory.
            let off = (layout::HEAP_SIZE / 2) + 4 * self.rng.below(1 << 20) as u32;
            return (VirtAddr::new(layout::HEAP_BASE + off), true);
        }
        // Tainted data (TaintCheck workloads).
        if !is_store
            && p.taint_density > 0.0
            && self.rng.chance(p.taint_density)
            && !self.tainted.is_empty()
        {
            let idx = self.rng.below(self.tainted.len() as u64) as usize;
            return (self.tainted[idx], false);
        }
        // Stack accesses: a stable fraction of the access stream hits
        // the current frame's locals.
        if self.rng.chance(p.stack_frac) {
            if is_store {
                // Stores concentrate on a few hot slots; the first
                // store to each slot after a call is a first-write.
                let t = &self.threads[self.cur_tid];
                let f = &t.frames[t.frames.len() - 1];
                let words = (f.len / 16).max(2);
                let a = f.base.wrapping_add(4 * self.rng.below(words as u64) as u32);
                return (a, false);
            }
            // Loads read back locals the function has written.
            let t = &self.threads[self.cur_tid];
            if !t.frame_written.is_empty() {
                let idx = self.rng.below(t.frame_written.len() as u64) as usize;
                return (t.frame_written[idx], false);
            }
            // No locals written yet: fall through to the data path.
        }
        // First writes into fresh allocations (stores), uninitialized
        // reads (loads).
        if is_store {
            if !self.to_init.is_empty() && self.rng.chance(p.first_write_rate) {
                return (self.to_init.pop_front().expect("checked non-empty"), false);
            }
        } else if self.rng.chance(p.uninit_rate) && !self.to_init.is_empty() {
            let idx = self.rng.below(self.to_init.len() as u64) as usize;
            return (self.to_init[idx], false);
        }
        // Temporal locality: recently stored addresses (possibly another
        // thread's, for the sharing knob).
        if self.rng.chance(p.locality) {
            let victim_tid = if self.threads.len() > 1 && self.rng.chance(p.sharing) {
                let other = self.rng.below((self.threads.len() - 1) as u64) as usize;
                (self.cur_tid + 1 + other) % self.threads.len()
            } else {
                self.cur_tid
            };
            let t = &self.threads[victim_tid];
            if !t.hot.is_empty() {
                let idx = self.rng.below(t.hot.len() as u64) as usize;
                return (t.hot[idx], false);
            }
        }
        // Far reuse from the initialized pool, biased towards recent
        // entries (concentrated working set).
        if !self.threads[self.cur_tid].stored_pool.is_empty() && self.rng.chance(0.9) {
            let len = self.threads[self.cur_tid].stored_pool.len();
            let idx = self.recent_index(len);
            return (self.threads[self.cur_tid].stored_pool[idx], false);
        }
        // Fresh addresses: stores explore live regions (creating the
        // first-write stream); loads fall back to the (initialized)
        // globals — correct programs do not read never-written words
        // except through the explicit `uninit_rate` knob.
        let addr = if is_store {
            if self.rng.chance(0.6) {
                self.heap
                    .random_live_addr(&mut self.rng)
                    .unwrap_or(VirtAddr::new(layout::GLOBALS_BASE))
            } else {
                let words = 1 << 12; // 16 KiB of hot globals
                VirtAddr::new(layout::GLOBALS_BASE + 4 * self.rng.below(words) as u32)
            }
        } else {
            let words = 1 << 12;
            VirtAddr::new(layout::GLOBALS_BASE + 4 * self.rng.below(words) as u32)
        };
        (addr, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use std::collections::HashMap;

    fn run(name: &str, n: u64, seed: u64) -> (Vec<TraceRecord>, SyntheticProgram) {
        let p = bench::by_name(name).unwrap();
        let mut prog = SyntheticProgram::new(&p, seed);
        let mut out = Vec::new();
        while prog.instrs() < n {
            out.push(prog.next_record());
        }
        (out, prog)
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, _) = run("gcc", 5_000, 7);
        let (b, _) = run("gcc", 5_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let (a, _) = run("gcc", 1_000, 1);
        let (b, _) = run("gcc", 1_000, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn instruction_mix_roughly_matches_profile() {
        let (records, prog) = run("bzip", 100_000, 3);
        let mut counts: HashMap<InstrClass, u64> = HashMap::new();
        for r in &records {
            if let TraceRecord::Instr(i) = r {
                *counts.entry(i.class).or_default() += 1;
            }
        }
        let total = prog.instrs() as f64;
        let load_frac = counts[&InstrClass::Load] as f64 / total;
        assert!(
            (load_frac - prog.profile().mix.load).abs() < 0.03,
            "load fraction {load_frac}"
        );
        assert!(counts[&InstrClass::Store] > 0);
        assert!(counts.contains_key(&InstrClass::Branch));
    }

    #[test]
    #[should_panic(expected = "weights must be non-empty with positive sum")]
    fn mix_without_positive_total_is_rejected() {
        let mut p = bench::by_name("gcc").unwrap();
        p.mix = crate::profile::InstrMix {
            load: 0.0,
            store: 0.0,
            int_alu: 0.0,
            int_move: 0.0,
            int_mul: 0.0,
            fp_alu: 0.0,
            branch: 0.0,
            jump: 0.0,
            nop: 0.0,
        };
        SyntheticProgram::new(&p, 1);
    }

    #[test]
    fn calls_and_returns_emit_stack_updates() {
        let (records, prog) = run("gcc", 50_000, 11);
        let calls = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Stack(s) if s.kind == StackUpdateKind::Call))
            .count();
        let rets = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Stack(s) if s.kind == StackUpdateKind::Return))
            .count();
        assert!(calls > 100, "calls {calls}");
        assert!(rets > 50, "returns {rets}");
        assert!(prog.calls() as usize == calls);
        // Stack updates stay word-sane.
        for r in &records {
            if let TraceRecord::Stack(s) = r {
                assert!(layout::is_stack(s.base), "frame outside stack: {}", s.base);
                assert!(s.len >= 32 && s.len % 16 == 0);
            }
        }
    }

    #[test]
    fn mallocs_and_frees_flow() {
        let (records, prog) = run("omnet", 100_000, 13);
        let mallocs = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::High(HighLevelEvent::Malloc { .. })))
            .count();
        let frees = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::High(HighLevelEvent::Free { .. })))
            .count();
        assert!(mallocs > 10);
        assert!(frees > 5);
        assert!(prog.mallocs() >= mallocs as u64);
    }

    #[test]
    fn memory_accesses_target_live_segments_mostly() {
        let (records, _) = run("astar", 50_000, 17);
        let mut in_segments = 0u64;
        let mut total = 0u64;
        for r in &records {
            if let TraceRecord::Instr(i) = r {
                if let Some(m) = i.mem {
                    total += 1;
                    if layout::is_stack(m.addr) || layout::is_heap(m.addr) || layout::is_globals(m.addr)
                    {
                        in_segments += 1;
                    }
                }
            }
        }
        assert!(total > 10_000);
        assert_eq!(in_segments, total, "all addresses fall in known segments");
    }

    #[test]
    fn parallel_benchmarks_switch_threads() {
        let p = bench::by_name("water").unwrap();
        assert_eq!(p.threads, 4);
        let mut prog = SyntheticProgram::new(&p, 5);
        let mut seen = std::collections::HashSet::new();
        let mut switches = 0;
        for _ in 0..200_000 {
            match prog.next_record() {
                TraceRecord::High(HighLevelEvent::ThreadSwitch { tid }) => {
                    switches += 1;
                    seen.insert(tid);
                }
                TraceRecord::Instr(i) => {
                    seen.insert(i.tid);
                }
                _ => {}
            }
        }
        assert!(switches >= 3, "switches {switches}");
        assert!(seen.len() >= 4, "threads seen: {seen:?}");
    }

    #[test]
    fn taint_suite_generates_taint_events() {
        let (records, _) = run("astar-taint", 200_000, 19);
        let sources = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::High(HighLevelEvent::TaintSource { .. })))
            .count();
        assert!(sources > 0, "taint workloads must inject taint");
    }

    #[test]
    fn pointer_registers_exist_in_steady_state() {
        let p = bench::by_name("gcc").unwrap();
        let mut prog = SyntheticProgram::new(&p, 23);
        let mut samples = 0;
        let mut with_ptrs = 0;
        for i in 0..100_000u64 {
            prog.next_record();
            if i % 1000 == 0 {
                samples += 1;
                if prog.threads[prog.cur_tid].regs.pointer_count() > 0 {
                    with_ptrs += 1;
                }
            }
        }
        assert!(
            with_ptrs * 2 > samples,
            "pointer registers should usually be live ({with_ptrs}/{samples})"
        );
    }
}
