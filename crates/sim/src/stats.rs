//! Statistics: histograms, CDFs and means for the evaluation harness.

/// A power-of-two bucketed histogram, used for queue-occupancy and
/// burst-size distributions (Figures 3 and 4 of the paper plot exactly
/// these power-of-two x-axes).
///
/// Bucket `i` counts samples in `[2^(i-1)+1 .. 2^i]`, with bucket 0
/// counting zeros and bucket 1 counting ones.
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value, exactly as `n` calls of
    /// [`LogHistogram::record`] would.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = Self::bucket_of(value);
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
    }

    fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            v => 64 - (v - 1).leading_zeros() as usize + 1,
        }
    }

    /// Upper bound of bucket `i` (inclusive).
    pub(crate) fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            i => 1u64 << (i - 1),
        }
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The cumulative distribution: `(bucket_upper, cumulative_percent)`
    /// pairs, one per bucket.
    pub fn cdf(&self) -> Cdf {
        let mut points = Vec::with_capacity(self.counts.len());
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            let pct = if self.total == 0 {
                100.0
            } else {
                100.0 * cum as f64 / self.total as f64
            };
            points.push((Self::bucket_upper(i), pct));
        }
        Cdf { points }
    }

    /// Smallest value `v` such that at least `pct` percent of samples are
    /// `<= v` (reported at bucket granularity).
    pub fn percentile(&self, pct: f64) -> u64 {
        let target = (pct / 100.0 * self.total as f64).ceil() as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(self.counts.len().saturating_sub(1))
    }
}

/// A cumulative distribution function as `(value, percent)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct Cdf {
    /// `(upper-bound, cumulative percent)` points in increasing order.
    pub points: Vec<(u64, f64)>,
}

impl Cdf {
    /// Cumulative percent at the first point whose bound is `>= value`
    /// (100 beyond the last point).
    pub fn percent_at(&self, value: u64) -> f64 {
        for &(v, p) in &self.points {
            if v >= value {
                return p;
            }
        }
        100.0
    }
}

/// The 95% confidence interval of a [`CycleEstimate`].
///
/// Only exists when the estimator has enough information to compute
/// one: at least two sampled windows (a variance needs `n - 1 >= 1`
/// degrees of freedom) and a non-zero mean CPI. Degenerate inputs
/// yield `CycleEstimate::ci == None` instead of `NaN`/`INFINITY`
/// sentinel arithmetic leaking into reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleCi {
    /// Lower 95% confidence bound on the cycle count.
    pub lo: f64,
    /// Upper 95% confidence bound on the cycle count.
    pub hi: f64,
    /// Half-width of the CPI confidence interval relative to the mean
    /// CPI: the documented relative error bound of the estimate.
    pub rel_half_width: f64,
}

/// A cycle-count estimate extrapolated from sampled timing windows.
///
/// Produced by [`RatioEstimator::estimate`]: the pooled ratio
/// `ΣC/ΣE` of the sampled windows times the extrapolated events. `ci`
/// bounds it with a Student-t 95% confidence interval over the windows'
/// ratio residuals (SMARTS-style sampling error bars), and is `None`
/// when fewer than two windows were sampled (no variance information)
/// or the pooled ratio is zero (no relative scale).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleEstimate {
    /// Point estimate of the extrapolated cycle count.
    pub cycles: f64,
    /// 95% confidence interval, when one is computable.
    pub ci: Option<CycleCi>,
}

impl CycleEstimate {
    /// Lower confidence bound (the point estimate itself when no CI
    /// exists — callers quoting `lo..hi` degrade to a point estimate).
    pub fn lo(&self) -> f64 {
        self.ci.map_or(self.cycles, |c| c.lo)
    }

    /// Upper confidence bound (see [`CycleEstimate::lo`]).
    pub fn hi(&self) -> f64 {
        self.ci.map_or(self.cycles, |c| c.hi)
    }

    /// Relative error bound, when a CI exists.
    pub fn rel_half_width(&self) -> Option<f64> {
        self.ci.map(|c| c.rel_half_width)
    }
}

/// Two-sided 95% Student-t critical value (the 97.5th percentile of the
/// t distribution) for `df` degrees of freedom.
///
/// Sampled runs routinely produce single-digit window counts, where the
/// normal z=1.96 understates uncertainty badly (t₁ = 12.7, t₅ = 2.57).
/// A fractional `df` rounds *down* to the next tabulated value, which
/// rounds the critical value *up* — always conservative. Inputs below
/// one degree of freedom clamp to df = 1.
pub fn t_critical_975(df: f64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    if !df.is_finite() || df < 1.0 {
        return TABLE[0];
    }
    match df.floor() as usize {
        i @ 1..=30 => TABLE[i - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// One sampled timing window as consumed by [`RatioEstimator`]: the
/// `(events, cycles)` pair plus its control covariate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSample {
    /// Monitored events the window covered.
    pub events: u64,
    /// Measured cycles. The batched system mode records each window's
    /// *residual* overhead, which can dip below zero in a lucky window.
    pub cycles: f64,
    /// Control covariate: deterministic base cycles per event of the
    /// batched stretch adjacent to the window (0 when unknown). The
    /// interval's fit uses it; the point estimate only through
    /// [`RatioEstimator::estimate_with_covariate_mean`].
    pub covariate: f64,
}

/// Pooled ratio estimator with a control variate — the estimator
/// behind the batched system mode's sampled timing.
///
/// The **point estimate** is the pooled ratio `ΣC/ΣE` of the windows.
///
/// The **interval** is a Student-t 95% interval on that ratio over the
/// windows' ratio residuals `dⱼ = cⱼ − R·eⱼ`, with
/// `Var(R) = n·s²_d / E²`. With at least
/// `RatioEstimator::CV_MIN_WINDOWS` windows, a control variate
/// tightens it: the deterministic base cycles per event of the batched
/// stretch adjacent to each window predict part of the window's
/// residual, so a regression coefficient `β` is fitted and `dⱼ` is
/// replaced by `dⱼ − β(zⱼ − z̄)`. The centering keeps `Σdⱼ` (and hence
/// the point estimate) untouched while the fit removes the explained
/// variance. The degrees of freedom are `n − 1`, or `n − 2` when the
/// slope was fitted.
#[derive(Clone, Debug, Default)]
pub struct RatioEstimator {
    samples: Vec<WindowSample>,
}

impl RatioEstimator {
    /// Minimum windows before the control-variate regression is fitted
    /// — with fewer, spending a degree of freedom on the slope costs
    /// more than the variance it removes (at n = 4 the residual df
    /// drops from 3 to 2 and the t critical value jumps from 3.18 to
    /// 4.30, which a noise-fitted slope never repays).
    pub(crate) const CV_MIN_WINDOWS: usize = 6;

    /// Creates an estimator with no windows.
    pub fn new() -> Self {
        RatioEstimator::default()
    }

    /// Builds an estimator from pre-measured samples. Zero-event
    /// windows carry no per-event information and are discarded,
    /// exactly as [`RatioEstimator::record_window`] would.
    pub fn from_samples(samples: &[WindowSample]) -> Self {
        RatioEstimator {
            samples: samples.iter().copied().filter(|s| s.events > 0).collect(),
        }
    }

    /// Records one sampled window. Windows with zero events carry no
    /// per-event information and are ignored.
    pub fn record_window(&mut self, events: u64, cycles: f64, covariate: f64) {
        if events > 0 {
            self.samples.push(WindowSample {
                events,
                cycles,
                covariate,
            });
        }
    }

    /// The recorded samples, in sampling order.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Number of recorded windows.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no window has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Pooled ratio-estimator cycles-per-event over all windows
    /// (0 when empty).
    pub fn cpi(&self) -> f64 {
        let events: u64 = self.samples.iter().map(|s| s.events).sum();
        let cycles: f64 = self.samples.iter().map(|s| s.cycles).sum();
        if events == 0 {
            0.0
        } else {
            cycles / events as f64
        }
    }

    /// Half-width of the 95% confidence interval of the pooled CPI,
    /// relative to its absolute value. `None` with fewer than two
    /// windows (no variance information) or a zero pooled ratio
    /// `ΣC/ΣE` (no relative scale).
    ///
    /// Variance: `Var(R) = n·s²_d / E²` with `s²_d = Σdⱼ²/df` over the
    /// (control-variate adjusted) ratio residuals; critical value:
    /// Student-t at `df`.
    pub fn rel_half_width(&self) -> Option<f64> {
        let w = &self.samples;
        let n = w.len();
        if n < 2 {
            return None;
        }
        let events: f64 = w.iter().map(|s| s.events as f64).sum();
        let cycles: f64 = w.iter().map(|s| s.cycles).sum();
        let ratio = cycles / events;
        if ratio == 0.0 {
            return None;
        }
        let mut d: Vec<f64> = w.iter().map(|s| s.cycles - ratio * s.events as f64).collect();

        // Control-variate regression on the centered covariate: the
        // slope soaks up the residual variance the adjacent batched
        // stretch already explains. Centering means Σ(adjusted d) =
        // Σd − β·0 = Σd, so nothing downstream of the variance moves.
        let mut df = n - 1;
        if n >= Self::CV_MIN_WINDOWS {
            let zbar: f64 = w.iter().map(|s| s.covariate).sum::<f64>() / n as f64;
            let szz: f64 = w.iter().map(|s| (s.covariate - zbar).powi(2)).sum();
            if szz > 0.0 {
                let sdz: f64 = w.iter().zip(&d).map(|(s, &dj)| dj * (s.covariate - zbar)).sum();
                let b = sdz / szz;
                for (s, dj) in w.iter().zip(&mut d) {
                    *dj -= b * (s.covariate - zbar);
                }
                df = n - 2;
            }
        }

        let ss: f64 = d.iter().map(|dj| dj * dj).sum();
        if ss <= 0.0 {
            return Some(0.0); // exact: every window agrees
        }
        let var_sum = n as f64 * ss / df as f64;
        let half = t_critical_975(df as f64) * var_sum.sqrt() / events;
        Some(half / ratio.abs())
    }

    /// Estimated cycles for `events` unsampled events — the pooled
    /// ratio `ΣC/ΣE` times `events` — with its 95% confidence
    /// bounds. With no windows the estimate is 0 cycles;
    /// with fewer than two windows (or a zero ratio) the point estimate
    /// stands alone and `ci` is `None`.
    pub fn estimate(&self, events: u64) -> CycleEstimate {
        let cpi = self.cpi();
        let cycles = cpi * events as f64;
        let ci = self.rel_half_width().map(|rel| {
            let half = cycles.abs() * rel;
            CycleCi {
                lo: cycles - half,
                hi: cycles + half,
                rel_half_width: rel,
            }
        });
        CycleEstimate { cycles, ci }
    }

    /// Global event-weighted control-variate fit across *all* windows:
    /// `(slope, weighted covariate mean)`, or `None` when too few
    /// windows carry a covariate signal to spend a degree of freedom
    /// on. The unweighted fit in [`Self::rel_half_width`] absorbs
    /// variance; this event-weighted slope carries the regression
    /// estimator's *point* correction in
    /// [`Self::estimate_with_covariate_mean`].
    fn global_fit(&self) -> Option<(f64, f64)> {
        let n = self.samples.len();
        if n < Self::CV_MIN_WINDOWS {
            return None;
        }
        let events: f64 = self.samples.iter().map(|s| s.events as f64).sum();
        if events <= 0.0 {
            return None;
        }
        let ratio = self.samples.iter().map(|s| s.cycles).sum::<f64>() / events;
        let zbar: f64 =
            self.samples.iter().map(|s| s.events as f64 * s.covariate).sum::<f64>() / events;
        let szz: f64 = self
            .samples
            .iter()
            .map(|s| s.events as f64 * (s.covariate - zbar).powi(2))
            .sum();
        if szz <= 0.0 {
            return None;
        }
        let sdz: f64 = self
            .samples
            .iter()
            .map(|s| (s.cycles - ratio * s.events as f64) * (s.covariate - zbar))
            .sum();
        Some((sdz / szz, zbar))
    }

    /// Regression-estimator variant of [`Self::estimate`]: extrapolates
    /// at the *population* covariate mean instead of the sample's.
    ///
    /// The control variate is only statistically sound as a regression
    /// estimator — conditioning the variance on a covariate while
    /// leaving the point estimate alone understates the unadjusted
    /// estimator's error. When the covariate is deterministic and its
    /// population mean over the extrapolated stretches is known (the
    /// batched mode's base-cycles-per-event covariate qualifies: every
    /// stretch's base is computed exactly), the sound form adjusts the
    /// point by `β·(z̄_pop − z̄_sample)` and then legitimately claims
    /// the regression residual variance. Periodic sampling pairs every
    /// stretch with a window, so the two means nearly coincide and the
    /// adjustment is a small bias correction — but it is what makes
    /// the tightened interval honest.
    pub fn estimate_with_covariate_mean(&self, events: u64, pop_mean: f64) -> CycleEstimate {
        let mut e = self.estimate(events);
        if let Some((beta, zbar)) = self.global_fit() {
            if pop_mean.is_finite() {
                let shift = beta * (pop_mean - zbar) * events as f64;
                e.cycles += shift;
                if let Some(ci) = &mut e.ci {
                    ci.lo += shift;
                    ci.hi += shift;
                }
            }
        }
        e
    }
}

/// Queue-congestion summary carried from a batched stretch into the
/// next cycle-accurate sampling window.
///
/// The batched fast path drains the event stream with an always-ready
/// consumer, so when the engine drops into a sampling window the
/// decoupling queues are empty — on monitor-bound workloads that
/// truncates the long congestion episodes the window was supposed to
/// measure, biasing the pooled per-event residual `ΣC/ΣE` low.
/// This summary tracks, from the stretch's dispatch stream, how far the
/// software consumer would have been behind at the stretch boundary:
///
/// * [`CongestionCarry::on_dispatch`] records each dispatched event's
///   estimated handler cycles;
/// * [`CongestionCarry::on_stretch`] advances the backlog by one
///   batched chunk — handler work arrives, application cycles drain it
///   — capping the lag at what the bounded queues could actually hold
///   (the real producer stalls once they fill, so the carried backlog
///   can never exceed the recent dispatches that fit in them);
/// * [`CongestionCarry::take`] hands the accumulated backlog to the
///   window-entry seeding logic and resets for the next stretch.
///
/// The carry is a pure timing quantity: seeding it into a window
/// pre-loads the monitor thread with already-accounted work, which
/// cannot change any monitor-visible result.
#[derive(Clone, Debug)]
pub struct CongestionCarry {
    /// Handler-work backlog (estimated cycles) at the stretch boundary.
    lag_cycles: u64,
    /// Estimated handler cycles of the most recent dispatches — the
    /// events that could still be sitting in the bounded queues.
    recent: std::collections::VecDeque<u64>,
    recent_sum: u64,
    /// How many dispatched events the queues can hold at once.
    cap_entries: usize,
}

impl CongestionCarry {
    /// Creates an empty carry for queues holding `cap_entries`
    /// dispatched events (zero degenerates to "no carry ever").
    pub fn new(cap_entries: usize) -> Self {
        CongestionCarry {
            lag_cycles: 0,
            recent: std::collections::VecDeque::with_capacity(cap_entries),
            recent_sum: 0,
            cap_entries,
        }
    }

    /// Records one dispatched event's estimated handler cycles.
    pub fn on_dispatch(&mut self, est_cycles: u64) {
        if self.cap_entries == 0 {
            return;
        }
        if self.recent.len() == self.cap_entries {
            if let Some(old) = self.recent.pop_front() {
                self.recent_sum -= old;
            }
        }
        self.recent.push_back(est_cycles);
        self.recent_sum += est_cycles;
    }

    /// Advances the backlog by one batched chunk: `handler_cycles` of
    /// estimated handler work arrived while `app_cycles` of application
    /// time drained it. The lag saturates at the recent-dispatch sum —
    /// the work that could really be queued at the boundary.
    pub fn on_stretch(&mut self, handler_cycles: u64, app_cycles: u64) {
        self.lag_cycles = (self.lag_cycles + handler_cycles)
            .saturating_sub(app_cycles)
            .min(self.recent_sum);
    }

    /// Consumes the carried backlog (the window absorbed it) and resets
    /// the dispatch history for the next stretch.
    pub fn take(&mut self) -> u64 {
        let lag = self.lag_cycles;
        self.lag_cycles = 0;
        self.recent.clear();
        self.recent_sum = 0;
        lag
    }
}

/// Geometric mean of a slice of positive values — the paper reports
/// gmean slowdowns (Figure 3(c) x-axis label "gmean").
///
/// Returns 0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 3);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(5), 4);
        assert_eq!(LogHistogram::bucket_of(8), 4);
        assert_eq!(LogHistogram::bucket_of(9), 5);
    }

    #[test]
    fn bucket_upper_matches_bucket_of() {
        for i in 1..20 {
            let upper = LogHistogram::bucket_upper(i);
            assert_eq!(LogHistogram::bucket_of(upper), i);
            assert_eq!(LogHistogram::bucket_of(upper + 1), i + 1);
        }
    }

    #[test]
    fn cdf_reaches_100() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 1, 2, 5, 9] {
            h.record(v);
        }
        let cdf = h.cdf();
        let last = cdf.points.last().unwrap();
        assert!((last.1 - 100.0).abs() < 1e-9);
        // 3 of 6 samples are <= 1.
        assert!((cdf.percent_at(1) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_finds_bucket() {
        let mut h = LogHistogram::new();
        for v in 0..100 {
            h.record(v);
        }
        assert!(h.percentile(50.0) >= 32);
        assert!(h.percentile(100.0) >= 64);
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn mean_tracks_sum() {
        let mut h = LogHistogram::new();
        h.record(2);
        h.record(4);
        assert!((h.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn gmean_of_equal_values() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "gmean requires positive values")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[1.0, 0.0]);
    }

    #[test]
    fn t_critical_tracks_degrees_of_freedom() {
        assert!((t_critical_975(1.0) - 12.706).abs() < 1e-9);
        assert!((t_critical_975(5.0) - 2.571).abs() < 1e-9);
        assert!((t_critical_975(29.0) - 2.045).abs() < 1e-9);
        assert!((t_critical_975(200.0) - 1.96).abs() < 1e-9);
        // Fractional df rounds down (critical value up): conservative.
        assert!((t_critical_975(5.9) - 2.571).abs() < 1e-9);
        // Degenerate inputs clamp to the widest tabulated value.
        assert!((t_critical_975(0.2) - 12.706).abs() < 1e-9);
        assert!((t_critical_975(f64::NAN) - 12.706).abs() < 1e-9);
    }

    #[test]
    fn control_variate_tightens_but_never_shifts() {
        // Residuals perfectly explained by the covariate: the CV fit
        // removes essentially all variance, while the point estimate is
        // identical with and without the covariate.
        let mut with = RatioEstimator::new();
        let mut without = RatioEstimator::new();
        for k in 0..8u64 {
            let z = k as f64;
            let cycles = 200.0 + 40.0 * (z - 3.5); // linear in z, mean 200
            with.record_window(100, cycles, z);
            without.record_window(100, cycles, 0.0);
        }
        assert!((with.cpi() - without.cpi()).abs() < 1e-12);
        assert!((with.cpi() - 2.0).abs() < 1e-12);
        let tight = with.rel_half_width().unwrap();
        let loose = without.rel_half_width().unwrap();
        assert!(tight < loose / 10.0, "CV should kill a linear residual: {tight} vs {loose}");
    }

    /// The 24 windows gcc/MemLeak samples at seed 12 with
    /// `sample_period = 8192`, `sample_window = 4096` over 200k events,
    /// in sampling order: `(events, residual cycles, covariate)`.
    const GCC_MEMLEAK_SEED12: [(u64, f64, f64); 24] = [
        (2048, 4275.0, 1.855712890625),
        (4098, 21642.0, 2.03369140625),
        (2048, 8282.0, 1.901074743527113),
        (4096, 6879.0, 1.484619140625),
        (4096, 13676.0, 2.05224609375),
        (2047, 14363.0, 1.9619140625),
        (2048, 11094.0, 1.717529296875),
        (2048, 17415.0, 1.2578125),
        (4096, 15650.0, 2.27490234375),
        (2048, 11577.0, 1.47216796875),
        (2048, 3763.0, 2.21728515625),
        (2048, 10333.0, 1.707275390625),
        (4096, 13751.0, 1.753662109375),
        (2048, 7865.0, 1.89306640625),
        (4096, 11488.0, 1.9072265625),
        (2048, 1502.0, 1.650146484375),
        (2047, 5602.0, 1.638671875),
        (2048, 5982.0, 2.248291015625),
        (2048, 6261.0, 1.726806640625),
        (2048, 6831.0, 4.71923828125),
        (2047, 5097.0, 2.234375),
        (2049, 11454.0, 1.5341796875),
        (2048, 12256.0, 1.2915750915750916),
        (2048, 9492.0, 1.723388671875),
    ];

    /// The interval's closed form: control-variate-adjusted ratio
    /// residuals, `n − 2` degrees of freedom, t₂₂ = 2.074.
    fn cv_closed_form_t22(w: &[(u64, f64, f64)]) -> f64 {
        assert_eq!(w.len(), 24);
        let n = w.len() as f64;
        let e: f64 = w.iter().map(|x| x.0 as f64).sum();
        let r = w.iter().map(|x| x.1).sum::<f64>() / e;
        let zbar = w.iter().map(|x| x.2).sum::<f64>() / n;
        let d = |x: &(u64, f64, f64)| x.1 - r * x.0 as f64;
        let szz: f64 = w.iter().map(|x| (x.2 - zbar).powi(2)).sum();
        let beta = w.iter().map(|x| d(x) * (x.2 - zbar)).sum::<f64>() / szz;
        let ss: f64 = w.iter().map(|x| (d(x) - beta * (x.2 - zbar)).powi(2)).sum();
        2.074 * (n * ss / (n - 2.0)).sqrt() / e / r.abs()
    }

    #[test]
    fn interval_degrees_of_freedom_do_not_depend_on_window_order() {
        // The degrees of freedom are counted, not computed in floating
        // point, so no summation order can round them below 22 and
        // floor the critical value to t₂₁.
        let mut wins = GCC_MEMLEAK_SEED12.to_vec();
        for order in ["sampling", "reversed"] {
            let e = RatioEstimator::from_samples(
                &wins
                    .iter()
                    .map(|&(events, cycles, covariate)| WindowSample {
                        events,
                        cycles,
                        covariate,
                    })
                    .collect::<Vec<_>>(),
            );
            let got = e.rel_half_width().unwrap();
            let want = cv_closed_form_t22(&wins);
            assert!((got - want).abs() < 1e-9 * want, "{order} order: {got} vs {want}");
            assert!((got - 0.18668).abs() < 5e-6, "{order} order: {got}");
            wins.reverse();
        }
    }

    #[test]
    fn ratio_degenerate_cases_mirror_pooled() {
        let mut e = RatioEstimator::new();
        assert!(e.is_empty());
        assert_eq!(e.cpi(), 0.0);
        assert_eq!(e.rel_half_width(), None);
        assert_eq!(e.estimate(500).ci, None);
        e.record_window(0, 999.0, 1.0); // zero-event window discarded
        assert!(e.is_empty());
        e.record_window(10, 30.0, 1.0);
        assert_eq!(e.len(), 1);
        assert_eq!(e.rel_half_width(), None);
        // Perfectly cancelling windows: zero ratio, no relative scale.
        let z = RatioEstimator::from_samples(&[
            WindowSample { events: 100, cycles: -50.0, covariate: 0.0 },
            WindowSample { events: 100, cycles: 50.0, covariate: 0.0 },
        ]);
        assert_eq!(z.rel_half_width(), None);
    }

    #[test]
    fn congestion_carry_accumulates_and_caps() {
        // `take` consumes the carry, so each check reads a clone.
        let lag = |c: &CongestionCarry| c.clone().take();
        let mut c = CongestionCarry::new(4);
        assert_eq!(lag(&c), 0);
        // Four dispatches of 10 estimated cycles each, in a chunk where
        // handler work (40) outpaced the application (25): 15 carried.
        for _ in 0..4 {
            c.on_dispatch(10);
        }
        c.on_stretch(40, 25);
        assert_eq!(lag(&c), 15);
        // An app-bound chunk drains the lag.
        c.on_stretch(0, 10);
        assert_eq!(lag(&c), 5);
        // The lag can never exceed what the queues hold: the recent
        // window is 4 dispatches x 10 cycles = 40, even if the nominal
        // excess is far larger.
        c.on_stretch(1_000, 0);
        assert_eq!(lag(&c), 40);
        // Taking the carry resets everything.
        assert_eq!(c.take(), 40);
        assert_eq!(lag(&c), 0);
        c.on_stretch(1_000, 0);
        assert_eq!(c.take(), 0, "no recent dispatches, nothing can be queued");
    }

    #[test]
    fn congestion_carry_zero_capacity_is_inert() {
        let mut c = CongestionCarry::new(0);
        c.on_dispatch(10);
        c.on_stretch(100, 0);
        assert_eq!(c.take(), 0);
    }
}
