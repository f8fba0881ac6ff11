//! Measured results of one experiment run.

use fade::FadeStats;
use fade_sim::LogHistogram;

/// Handler work per software-classification class, in dynamic monitor
/// instructions (the quantity behind Figure 4(a)'s time breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassInstrs {
    /// Clean-check handlers.
    pub cc: u64,
    /// Redundant-update handlers.
    pub ru: u64,
    /// Short handlers after a passed partial check.
    pub partial: u64,
    /// Complex (unfilterable) handlers.
    pub complex: u64,
    /// Stack-update handling.
    pub stack: u64,
    /// High-level event handling.
    pub high_level: u64,
}

impl ClassInstrs {
    /// Total monitor instructions.
    pub(crate) fn total(&self) -> u64 {
        self.cc + self.ru + self.partial + self.complex + self.stack + self.high_level
    }

    /// Percentage of total for a component.
    pub fn pct(&self, component: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            100.0 * component as f64 / t as f64
        }
    }
}

/// Two-core utilization breakdown (Figure 11(b)).
#[derive(Clone, Copy, Debug, Default)]
pub struct UtilBreakdown {
    /// Cycles the application core was idle because the event queue was
    /// full.
    pub app_idle: u64,
    /// Cycles the monitor core was idle (FADE filtered everything).
    pub monitor_idle: u64,
    /// Cycles both cores did useful work.
    pub both: u64,
}

impl UtilBreakdown {
    /// Total classified cycles.
    pub(crate) fn total(&self) -> u64 {
        self.app_idle + self.monitor_idle + self.both
    }

    /// `(app_idle %, monitor_idle %, both %)`.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            100.0 * self.app_idle as f64 / t,
            100.0 * self.monitor_idle as f64 / t,
            100.0 * self.both as f64 / t,
        )
    }
}

/// How a batched run's cycle count was estimated: the sampled
/// cycle-accurate windows and the extrapolation's 95% confidence bound
/// (see [`fade_sim::RatioEstimator`]).
#[derive(Clone, Debug)]
pub struct SamplingSummary {
    /// Cycle-accurate windows the estimate is built from.
    pub windows: usize,
    /// Instructions retired inside sampled windows (simulated exactly).
    pub sampled_instrs: u64,
    /// Cycles simulated exactly (sampled windows and drains).
    pub sampled_cycles: u64,
    /// Instructions retired on the batched path (extrapolated).
    pub extrapolated_instrs: u64,
    /// Monitored events drained on the batched path (extrapolated).
    pub extrapolated_events: u64,
    /// Exact base cycles of the batched stretches: per chunk, the
    /// binding constraint of the application side (replayed unimpeded
    /// on the real commit process) and the handler side (dispatched
    /// events charged at the monitor thread's standalone IPC).
    pub extrapolated_base_cycles: u64,
    /// Handler cycles of carried batch-stretch congestion seeded into
    /// the measured sampling windows (moved out of the base, simulated
    /// inside the windows), so windows start under the backpressure
    /// the batched path built up instead of from drained queues.
    pub carried_seed_cycles: u64,
    /// Sampled *residual* overhead (queueing, SMT interference,
    /// accelerator stalls, imperfect overlap) charged per batched
    /// event on top of the exact base.
    pub residual_per_event: f64,
    /// Relative half-width of the 95% confidence interval on the
    /// total cycle estimate — `(cycles_hi - cycles_lo) / 2` over the
    /// estimated cycles, the production rate's error bound. Only the
    /// sampled residual carries uncertainty; the simulated cycles and
    /// the deterministic base are exact, so the residual's absolute
    /// band divided by the full estimate is the rate's relative CI.
    /// `None` when fewer than two windows were sampled — a point
    /// estimate with no variance information.
    pub rel_half_width: Option<f64>,
    /// Lower confidence bound on the total cycle count.
    pub cycles_lo: u64,
    /// Upper confidence bound on the total cycle count.
    pub cycles_hi: u64,
}

/// Everything measured in one experiment run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Benchmark name.
    pub benchmark: String,
    /// Monitor name.
    pub monitor: String,
    /// System label (accelerator, topology, core).
    pub system: String,
    /// Application instructions retired in the measured window.
    pub app_instrs: u64,
    /// Monitored instruction events produced.
    pub monitored_events: u64,
    /// Stack-update events produced.
    pub stack_events: u64,
    /// High-level events produced.
    pub high_level_events: u64,
    /// Cycles of the measured window. Exact for cycle-accurate runs; a
    /// sampled estimate (see `sampling`) for batched runs.
    pub cycles: u64,
    /// Cycles an unmonitored (application-only) system needs for the
    /// same instruction count.
    pub baseline_cycles: u64,
    /// Present when part of the window ran batched: how the cycle
    /// estimate was sampled and its confidence bounds.
    pub sampling: Option<SamplingSummary>,
    /// Accelerator statistics (FADE systems only), deltas over the
    /// measured window.
    pub fade: Option<FadeStats>,
    /// Software handler-class instruction counts.
    pub class_instrs: ClassInstrs,
    /// Event-queue occupancy distribution (sampled per cycle).
    pub occupancy: LogHistogram,
    /// Distance (in monitored events) between consecutive unfiltered
    /// events.
    pub unfiltered_distances: LogHistogram,
    /// Unfiltered burst sizes (bursts = gaps of at most 16 filterable
    /// events).
    pub burst_sizes: LogHistogram,
    /// Two-core utilization breakdown.
    pub util: UtilBreakdown,
}

impl RunStats {
    /// Monitoring slowdown versus the unmonitored application.
    pub fn slowdown(&self) -> f64 {
        self.cycles as f64 / self.baseline_cycles.max(1) as f64
    }

    /// Application IPC of the unmonitored system.
    pub fn app_ipc(&self) -> f64 {
        self.app_instrs as f64 / self.baseline_cycles.max(1) as f64
    }

    /// Monitored IPC: monitored events per *unmonitored* cycle — the
    /// event generation rate of Figure 2.
    pub fn monitored_ipc(&self) -> f64 {
        self.monitored_events as f64 / self.baseline_cycles.max(1) as f64
    }

    /// Filtering ratio (FADE systems; 0 for unaccelerated runs).
    pub fn filtering_ratio(&self) -> f64 {
        self.fade.map(|f| f.filtering_ratio()).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_instrs_percentages() {
        let c = ClassInstrs {
            cc: 50,
            ru: 25,
            partial: 0,
            complex: 15,
            stack: 10,
            high_level: 0,
        };
        assert_eq!(c.total(), 100);
        assert!((c.pct(c.cc) - 50.0).abs() < 1e-9);
        let empty = ClassInstrs::default();
        assert_eq!(empty.pct(0), 0.0);
    }

    #[test]
    fn util_percentages_sum_to_100() {
        let u = UtilBreakdown {
            app_idle: 30,
            monitor_idle: 50,
            both: 20,
        };
        let (a, m, b) = u.percentages();
        assert!((a + m + b - 100.0).abs() < 1e-9);
        assert!((a - 30.0).abs() < 1e-9);
    }

    #[test]
    fn derived_rates() {
        let stats = RunStats {
            benchmark: "x".into(),
            monitor: "y".into(),
            system: "z".into(),
            app_instrs: 1000,
            monitored_events: 400,
            stack_events: 0,
            high_level_events: 0,
            cycles: 2000,
            baseline_cycles: 1000,
            sampling: None,
            fade: None,
            class_instrs: ClassInstrs::default(),
            occupancy: LogHistogram::new(),
            unfiltered_distances: LogHistogram::new(),
            burst_sizes: LogHistogram::new(),
            util: UtilBreakdown::default(),
        };
        assert!((stats.slowdown() - 2.0).abs() < 1e-12);
        assert!((stats.app_ipc() - 1.0).abs() < 1e-12);
        assert!((stats.monitored_ipc() - 0.4).abs() < 1e-12);
        assert_eq!(stats.filtering_ratio(), 0.0);
    }
}
