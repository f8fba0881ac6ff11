//! System configurations (Figure 8 and Section 6 of the paper).

use fade::{FadeConfig, FilterMode};
use fade_sim::{CoreKind, QueueDepth};

/// Where the application and monitor threads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One fine-grained dual-threaded core shared by the application
    /// and monitor threads (Figure 8(b)); minimizes resources.
    SingleCoreDualThread,
    /// Separate application and monitor cores (Figure 8(a));
    /// maximizes concurrency.
    TwoCore,
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Topology::SingleCoreDualThread => "single-core",
            Topology::TwoCore => "two-core",
        })
    }
}

/// Whether the system includes the FADE accelerator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accel {
    /// Unaccelerated: application and monitor communicate through a
    /// single queue; every monitored event runs a software handler.
    None,
    /// FADE-enabled, in the given filtering mode.
    Fade(FilterMode),
}

/// A complete system configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Core microarchitecture (both cores in two-core systems).
    pub core: CoreKind,
    /// Thread placement.
    pub topology: Topology,
    /// Accelerator presence/mode.
    pub accel: Accel,
    /// Event queue depth (app → FADE, or app → monitor when
    /// unaccelerated). Paper default: 32.
    pub(crate) event_queue: QueueDepth,
    /// Unfiltered event queue depth (FADE → monitor). Paper default: 16.
    pub unfiltered_queue: QueueDepth,
    /// Simulation seed (workload and commit process).
    pub seed: u64,
    /// Batched execution mode: length of one sampling period, in
    /// monitored events. Each period runs `sample_period -
    /// sample_window` events through the batched fast path and the
    /// remaining `sample_window` through the cycle-accurate engine.
    /// `1` degenerates to pure cycle-accurate execution; a period no
    /// smaller than the trace degenerates to pure batching (no timing
    /// samples). Ignored by [`Engine::Cycle`].
    ///
    /// [`Engine::Cycle`]: crate::Engine::Cycle
    pub sample_period: u64,
    /// Batched execution mode: cycle-accurate events per sampling
    /// period (clamped to `sample_period`). Larger windows cost
    /// throughput but tighten the cycle estimate.
    pub(crate) sample_window: u64,
    /// Section 3.2's idealized study: the filtering accelerator
    /// consumes exactly one event per cycle (no metadata misses, free
    /// software handlers, unbounded unfiltered queue). Used by the
    /// Figure 3 experiments only.
    pub(crate) ideal_consumer: bool,
    /// Hard cap on shadow-memory bytes held in full page frames
    /// ([`fade_shadow::ShadowMemory::set_mem_cap`]): exceeding it
    /// latches a typed [`fade_shadow::BudgetExceeded`] on the session.
    /// `None` (the default) means uncapped.
    pub shadow_mem_cap_bytes: Option<usize>,
    /// The hardware parameters the sensitivity sweeps vary.
    pub(crate) tweaks: FadeTweaks,
}

/// FADE's hardware parameters that the sensitivity analysis varies
/// (the paper mentions it but omits it for space, Section 6). The
/// default is the paper's design point, so a sweep point at the design
/// point equals [`SystemConfig::fade_single_core`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FadeTweaks {
    /// MD cache capacity in bytes (2-way, 64 B lines).
    pub(crate) md_cache_bytes: u32,
    /// M-TLB entries.
    pub(crate) tlb_entries: usize,
    /// Filter store queue entries.
    pub(crate) fsq_entries: usize,
}

impl Default for FadeTweaks {
    fn default() -> Self {
        let paper = FadeConfig::paper(FilterMode::NonBlocking);
        FadeTweaks {
            md_cache_bytes: paper.md_cache.size_bytes,
            tlb_entries: paper.tlb_entries,
            fsq_entries: paper.fsq_entries,
        }
    }
}

impl SystemConfig {
    /// Default sampling period of batched execution (monitored events):
    /// one cycle-accurate window per 16K events.
    pub(crate) const DEFAULT_SAMPLE_PERIOD: u64 = 16_384;
    /// Default cycle-accurate window length (monitored events): 1/4 of
    /// the period is simulated exactly, which keeps the extrapolated
    /// cycle estimate within a few percent of a full cycle-accurate run
    /// while the other 3/4 of the stream takes the batched fast path.
    /// Windows need to be long: commit run/stall phases and
    /// queue-congestion episodes play out over thousands of events,
    /// and the congestion-carrying window (seed at entry, steady-state
    /// tail residual) needs a tail of at least 1024 events to engage —
    /// shorter windows fall back to whole-window recording, where
    /// boundary effects dominate the sample.
    pub(crate) const DEFAULT_SAMPLE_WINDOW: u64 = 4_096;

    /// The headline configuration: single-core dual-threaded 4-way OoO
    /// with Non-Blocking FADE (used for Figure 9 and Table 2).
    pub fn fade_single_core() -> Self {
        SystemConfig {
            core: CoreKind::AggrOoO4,
            topology: Topology::SingleCoreDualThread,
            accel: Accel::Fade(FilterMode::NonBlocking),
            event_queue: QueueDepth::Bounded(32),
            unfiltered_queue: QueueDepth::Bounded(16),
            seed: 0x5eed,
            sample_period: Self::DEFAULT_SAMPLE_PERIOD,
            sample_window: Self::DEFAULT_SAMPLE_WINDOW,
            ideal_consumer: false,
            shadow_mem_cap_bytes: None,
            tweaks: FadeTweaks::default(),
        }
    }

    /// The unaccelerated counterpart of [`SystemConfig::fade_single_core`].
    pub fn unaccelerated_single_core() -> Self {
        SystemConfig {
            accel: Accel::None,
            ..Self::fade_single_core()
        }
    }

    /// Two-core FADE system (Figure 11(a,b)).
    pub fn fade_two_core() -> Self {
        SystemConfig {
            topology: Topology::TwoCore,
            ..Self::fade_single_core()
        }
    }

    /// Two-core unaccelerated system.
    pub fn unaccelerated_two_core() -> Self {
        SystemConfig {
            accel: Accel::None,
            topology: Topology::TwoCore,
            ..Self::fade_single_core()
        }
    }

    /// Replaces the core kind.
    pub fn with_core(mut self, core: CoreKind) -> Self {
        self.core = core;
        self
    }

    /// Replaces the event-queue depth.
    pub fn with_event_queue(mut self, depth: QueueDepth) -> Self {
        self.event_queue = depth;
        self
    }

    /// Replaces the filtering mode (no-op for unaccelerated systems).
    pub fn with_mode(mut self, mode: FilterMode) -> Self {
        if let Accel::Fade(_) = self.accel {
            self.accel = Accel::Fade(mode);
        }
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the batched-mode sampling period (monitored events per
    /// period; clamped to at least 1 at use).
    pub fn with_sample_period(mut self, period: u64) -> Self {
        self.sample_period = period;
        self
    }

    /// Replaces the batched-mode cycle-accurate window length
    /// (monitored events per period simulated exactly).
    pub fn with_sample_window(mut self, window: u64) -> Self {
        self.sample_window = window;
        self
    }

    /// Enables the idealized one-event-per-cycle consumer (Section 3.2).
    pub fn with_ideal_consumer(mut self) -> Self {
        self.ideal_consumer = true;
        self
    }

    /// Hard-caps total shadow-memory bytes; exceeding the cap latches
    /// a typed [`fade_shadow::BudgetExceeded`] the session surfaces as
    /// an error after the run.
    pub fn with_shadow_mem_cap(mut self, bytes: usize) -> Self {
        self.shadow_mem_cap_bytes = Some(bytes);
        self
    }

    /// Replaces the MD cache capacity (sensitivity sweeps).
    pub fn with_md_cache_bytes(mut self, bytes: u32) -> Self {
        self.tweaks.md_cache_bytes = bytes;
        self
    }

    /// Replaces the M-TLB entry count (sensitivity sweeps).
    pub fn with_tlb_entries(mut self, entries: usize) -> Self {
        self.tweaks.tlb_entries = entries;
        self
    }

    /// Replaces the FSQ entry count (sensitivity sweeps).
    pub fn with_fsq_entries(mut self, entries: usize) -> Self {
        self.tweaks.fsq_entries = entries;
        self
    }

    /// Short description for experiment tables.
    pub fn label(&self) -> String {
        let accel = match self.accel {
            Accel::None => "unaccel".to_string(),
            Accel::Fade(FilterMode::Blocking) => "FADE-B".to_string(),
            Accel::Fade(FilterMode::NonBlocking) => "FADE".to_string(),
        };
        format!("{} {} {}", accel, self.topology, self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_right_knobs() {
        let f = SystemConfig::fade_single_core();
        let u = SystemConfig::unaccelerated_single_core();
        assert_eq!(f.topology, Topology::SingleCoreDualThread);
        assert!(matches!(f.accel, Accel::Fade(FilterMode::NonBlocking)));
        assert!(matches!(u.accel, Accel::None));
        assert_eq!(SystemConfig::fade_two_core().topology, Topology::TwoCore);
    }

    #[test]
    fn builder_methods() {
        let c = SystemConfig::fade_single_core()
            .with_core(CoreKind::InOrder1)
            .with_mode(FilterMode::Blocking)
            .with_event_queue(QueueDepth::Unbounded)
            .with_seed(9);
        assert_eq!(c.core, CoreKind::InOrder1);
        assert!(matches!(c.accel, Accel::Fade(FilterMode::Blocking)));
        assert_eq!(c.event_queue, QueueDepth::Unbounded);
        assert_eq!(c.seed, 9);
        // with_mode on unaccelerated is a no-op.
        let u = SystemConfig::unaccelerated_single_core().with_mode(FilterMode::Blocking);
        assert!(matches!(u.accel, Accel::None));
        // The paper's hardware design point is the default config.
        let f = SystemConfig::fade_single_core();
        assert_eq!(f.with_md_cache_bytes(4096).with_tlb_entries(16).with_fsq_entries(16), f);
        assert_ne!(f.with_fsq_entries(8), f);
    }

    #[test]
    fn sampling_knobs() {
        let c = SystemConfig::fade_single_core();
        assert_eq!(c.sample_period, SystemConfig::DEFAULT_SAMPLE_PERIOD);
        assert_eq!(c.sample_window, SystemConfig::DEFAULT_SAMPLE_WINDOW);
        assert!(c.sample_window <= c.sample_period);
        let c = c.with_sample_period(64).with_sample_window(16);
        assert_eq!(c.sample_period, 64);
        assert_eq!(c.sample_window, 16);
    }

    #[test]
    fn shadow_budget_knobs() {
        let c = SystemConfig::fade_single_core();
        assert!(c.shadow_mem_cap_bytes.is_none());
        let c = c.with_shadow_mem_cap(1 << 20);
        assert_eq!(c.shadow_mem_cap_bytes, Some(1 << 20));
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(
            SystemConfig::fade_single_core().label(),
            SystemConfig::unaccelerated_single_core().label()
        );
        assert!(SystemConfig::fade_single_core().label().contains("FADE"));
    }
}
