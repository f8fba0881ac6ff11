//! The FADE reproduction's benchmark: four closed-loop workloads over
//! the public API (`.fadet` replay on an app-bound and a monitor-bound
//! point, a multi-tenant `faded` mix, and the cycle-accurate paper
//! figure grid), each checked against a setup-time reference, with
//! per-layer timings taken by wrapping the program's public layer
//! boundaries from outside. See `README.md` next to this crate.

pub mod faded;
pub mod figures;
pub mod layers;
pub mod probe;
pub mod replay;
pub mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::Span;
use trace::Tracing;

/// What one benchmark run produced: the sessions it attempted, how many
/// failed the correctness gate, and its metrics in print order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Sessions attempted in the timed region.
    pub attempted: u64,
    /// Sessions that failed or disagreed with their reference.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line: one JSON object with the correctness verdict,
    /// the session counts and every metric by name and unit.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// The `q`-quantile of `values` by nearest rank (`q` in `[0, 1]`); 0
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-session host latencies and monitored-event totals of one timed
/// region, rendered into the end-to-end metrics every workload shares.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, events: u64, wall_s: f64, latencies_ms: &[f64]) {
    out.push("setup_s", setup_s, "s");
    out.push("mev_per_s", ratio(events as f64, wall_s) / 1e6, "Mev/s");
    out.push("session_ms_p50", quantile(latencies_ms, 0.5), "ms");
    out.push("session_ms_p90", quantile(latencies_ms, 0.9), "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The per-layer metrics every workload reports, in print order. Each
/// field is the metric of the same name in [`Layers::render`] (defined
/// in the glossary of `README.md`); a workload that bypasses a layer
/// reports 0 for it.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub decode_ns_per_record: f64,
    pub decode_share: f64,
    pub generate_ns_per_record: f64,
    pub generate_share: f64,
    pub records_per_event: f64,
    pub record_s: f64,
    pub select_ns_per_record: f64,
    pub handler_calls: f64,
    pub handler_ns_per_call: f64,
    pub handler_share: f64,
    pub fast_path_frac: f64,
    pub dispatch_frac: f64,
    pub filter_ns_per_event: f64,
    pub windows: f64,
    pub window_event_frac: f64,
    pub window_share: f64,
    pub cycle_ns_per_event: f64,
    pub commit_ns_per_instr: f64,
    pub cycle_err: f64,
    pub ci_rel_half_width: f64,
    pub full_pages_peak: f64,
    pub shadow_bytes: f64,
    pub intake_ms_p50: f64,
    pub intake_share: f64,
    pub queue_wait_ms_p50: f64,
    pub queue_wait_ms_p90: f64,
    pub queue_wait_share: f64,
    pub run_ms_p50: f64,
    pub unattributed_share: f64,
    pub trace_overhead: f64,
}

impl Layers {
    /// Appends every per-layer metric to `out`.
    pub fn render(&self, out: &mut Outcome) {
        let rows: [(&'static str, f64, &'static str); 30] = [
            (
                "trace.decode_ns_per_record",
                self.decode_ns_per_record,
                "ns",
            ),
            ("trace.decode_share", self.decode_share, "ratio"),
            (
                "trace.generate_ns_per_record",
                self.generate_ns_per_record,
                "ns",
            ),
            ("trace.generate_share", self.generate_share, "ratio"),
            ("trace.records_per_event", self.records_per_event, "ratio"),
            ("trace.record_s", self.record_s, "s"),
            (
                "monitors.select_ns_per_record",
                self.select_ns_per_record,
                "ns",
            ),
            (
                "monitors.handler_calls",
                self.handler_calls,
                "count/session",
            ),
            (
                "monitors.handler_ns_per_call",
                self.handler_ns_per_call,
                "ns",
            ),
            ("monitors.handler_share", self.handler_share, "ratio"),
            ("core.fast_path_frac", self.fast_path_frac, "ratio"),
            ("core.dispatch_frac", self.dispatch_frac, "ratio"),
            ("core.filter_ns_per_event", self.filter_ns_per_event, "ns"),
            ("sim.windows", self.windows, "count/session"),
            ("sim.window_event_frac", self.window_event_frac, "ratio"),
            ("sim.window_share", self.window_share, "ratio"),
            ("sim.cycle_ns_per_event", self.cycle_ns_per_event, "ns"),
            ("sim.commit_ns_per_instr", self.commit_ns_per_instr, "ns"),
            ("cycle_err", self.cycle_err, "ratio"),
            ("ci_rel_half_width", self.ci_rel_half_width, "ratio"),
            ("shadow.full_pages_peak", self.full_pages_peak, "pages"),
            ("shadow.bytes", self.shadow_bytes, "bytes"),
            ("service.intake_ms_p50", self.intake_ms_p50, "ms"),
            ("service.intake_share", self.intake_share, "ratio"),
            ("service.queue_wait_ms_p50", self.queue_wait_ms_p50, "ms"),
            ("service.queue_wait_ms_p90", self.queue_wait_ms_p90, "ms"),
            ("service.queue_wait_share", self.queue_wait_share, "ratio"),
            ("service.run_ms_p50", self.run_ms_p50, "ms"),
            (
                "system.unattributed_share",
                self.unattributed_share,
                "ratio",
            ),
            ("trace_overhead", self.trace_overhead, "ratio"),
        ];
        for (name, value, unit) in rows {
            out.push(name, value, unit);
        }
    }
}

/// What one timed closed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Monitored events of the sessions that passed the gate.
    pub events: u64,
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Every session's latency, in ms.
    pub latencies_ms: Vec<f64>,
    /// Latencies of the traced sessions of a traced run.
    pub traced_ms: Vec<f64>,
    /// Latencies of the untraced sessions of a traced run.
    pub untraced_ms: Vec<f64>,
    /// Time in the wrapped trace source, over the traced sessions.
    pub source: Span,
    /// Time in the wrapped monitor handlers, over the traced sessions.
    pub handlers: Span,
}

impl Timed {
    /// Host ns of all traced sessions together.
    pub fn traced_ns(&self) -> f64 {
        self.traced_ms.iter().sum::<f64>() * 1e6
    }

    /// The per-layer metrics any in-process loop measures: handler
    /// calls and time, and the tracing overhead.
    pub fn layers(&self) -> Layers {
        let h = self.handlers;
        Layers {
            handler_calls: ratio(h.calls as f64, self.traced_ms.len() as f64),
            handler_ns_per_call: ratio(h.ns as f64, h.calls as f64),
            handler_share: ratio(h.ns as f64, self.traced_ns()),
            trace_overhead: ratio(median(&self.traced_ms), median(&self.untraced_ms)) - 1.0,
            ..Layers::default()
        }
    }
}

/// Runs sessions back to back on one thread for `seconds`, cycling
/// `inputs` inputs: `run(k, tracing)` is one session over input `k`,
/// timed from its first call to its result in hand; `check(k, result)`
/// then gates it, returning its monitored events if it passed. A
/// traced run alternates traced and untraced sessions on each input.
pub fn closed_loop<R>(
    out: &mut Outcome,
    inputs: usize,
    seconds: f64,
    trace_mode: bool,
    mut run: impl FnMut(usize, Option<&Tracing>) -> R,
    mut check: impl FnMut(usize, R) -> Option<u64>,
) -> Timed {
    let tracing = Tracing::default();
    let mut t = Timed::default();
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < deadline {
        let traced = trace_mode && i.is_multiple_of(2);
        let k = if trace_mode { i / 2 } else { i } % inputs;
        let t0 = Instant::now();
        let result = run(k, traced.then_some(&tracing));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match check(k, result) {
            Some(events) => t.events += events,
            None => out.failed += 1,
        }
        t.latencies_ms.push(ms);
        if traced {
            t.traced_ms.push(ms);
            t.source += tracing.source.take();
            t.handlers += tracing.handlers.take();
        } else if trace_mode {
            t.untraced_ms.push(ms);
        }
        i += 1;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

/// Runs `setup` `n` times and returns the last result with the median
/// of the host seconds each run took.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        // Free the previous set-up's inputs first, so every timed
        // set-up starts from the same heap.
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&secs))
}
