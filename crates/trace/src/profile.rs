//! Per-benchmark workload profiles.

use fade_sim::CommitProfile;

/// Relative frequencies of the generated instruction classes.
///
/// Call/return instructions are generated by the call-stack machinery
/// (see [`BenchProfile::call_rate`]) and are not part of the mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstrMix {
    /// Memory loads.
    pub load: f64,
    /// Memory stores.
    pub store: f64,
    /// Two-source integer ALU.
    pub int_alu: f64,
    /// Moves / immediates.
    pub int_move: f64,
    /// Integer multiply/divide.
    pub int_mul: f64,
    /// Floating point.
    pub fp_alu: f64,
    /// Conditional branches.
    pub branch: f64,
    /// Jumps.
    pub jump: f64,
    /// Nops / non-architectural.
    pub nop: f64,
}

impl InstrMix {
    /// A generic integer-code mix (~25% loads, ~10% stores, typical for
    /// SPEC-int).
    pub const fn spec_int() -> Self {
        InstrMix {
            load: 0.21,
            store: 0.09,
            int_alu: 0.23,
            int_move: 0.09,
            int_mul: 0.02,
            fp_alu: 0.05,
            branch: 0.16,
            jump: 0.05,
            nop: 0.10,
        }
    }

    /// The weights as a slice in [`crate::program`]'s class order.
    pub fn weights(&self) -> [f64; 9] {
        [
            self.load,
            self.store,
            self.int_alu,
            self.int_move,
            self.int_mul,
            self.fp_alu,
            self.branch,
            self.jump,
            self.nop,
        ]
    }
}

/// Everything that makes one benchmark behave like itself.
///
/// The knobs map one-to-one onto the statistics the paper's evaluation
/// depends on; `crate::bench` holds the calibrated values.
#[derive(Clone, Debug)]
pub struct BenchProfile {
    /// Benchmark name (paper's abbreviation, e.g. "libq.").
    pub name: &'static str,
    /// Commit behaviour on the reference core (IPC, burstiness).
    pub commit: CommitProfile,
    /// Instruction-class mix.
    pub mix: InstrMix,
    /// Function calls per instruction (each call implies a later
    /// return and a pair of stack-update events).
    pub call_rate: f64,
    /// Mean stack frame size in bytes.
    pub frame_mean: u32,
    /// Heap allocations per instruction (each produces a malloc
    /// high-level event and, eventually, a free).
    pub malloc_rate: f64,
    /// Mean heap allocation size in bytes.
    pub alloc_mean: u32,
    /// Probability that a generated ALU/move source is drawn from the
    /// pointer-holding registers: the pointer density seen by MemLeak.
    pub pointer_density: f64,
    /// Probability that a load/store address targets tainted data (only
    /// meaningful for the TaintCheck benchmarks).
    pub taint_density: f64,
    /// Taint-source (external input) events per instruction.
    pub taint_source_rate: f64,
    /// Probability a store performs the first write to a fresh
    /// allocation's word (MemCheck's uninit→init transitions).
    pub first_write_rate: f64,
    /// Probability a load reads a never-written (uninitialized) word.
    pub uninit_rate: f64,
    /// Probability a memory access targets unallocated memory (drives
    /// AddrCheck's residual unfiltered events).
    pub wild_rate: f64,
    /// Probability a store targets the current stack frame (locals
    /// dominate the store stream of compiled code).
    pub stack_frac: f64,
    /// Probability a memory address reuses the hot set (temporal
    /// locality); the rest are drawn fresh from live regions.
    pub locality: f64,
    /// Hardware threads (1, or 4 for the parallel suite).
    pub threads: u8,
    /// Instructions per time slice on the time-sliced core.
    pub timeslice: u32,
    /// For parallel benchmarks: probability an access touches data last
    /// touched by another thread (drives AtomCheck check failures).
    pub sharing: f64,
}

impl BenchProfile {
    /// A neutral single-threaded profile; benchmark constructors
    /// override the interesting knobs.
    pub fn base(name: &'static str, ipc: f64, run_len: f64) -> Self {
        BenchProfile {
            name,
            commit: CommitProfile::new(ipc, run_len),
            mix: InstrMix::spec_int(),
            call_rate: 0.012,
            frame_mean: 112,
            malloc_rate: 0.0006,
            alloc_mean: 128,
            pointer_density: 0.02,
            taint_density: 0.0,
            taint_source_rate: 0.0,
            first_write_rate: 0.04,
            uninit_rate: 0.0008,
            stack_frac: 0.40,
            wild_rate: 0.0015,
            locality: 0.85,
            threads: 1,
            timeslice: 20_000,
            sharing: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_weights_sum_to_one() {
        let total: f64 = InstrMix::spec_int().weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "got {total}");
    }

    #[test]
    fn base_profile_is_single_threaded() {
        let p = BenchProfile::base("x", 1.0, 100.0);
        assert_eq!(p.threads, 1);
        assert!(p.taint_density == 0.0);
        assert!(p.commit.ipc_4way == 1.0);
    }
}
