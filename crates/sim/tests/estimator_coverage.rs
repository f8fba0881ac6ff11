//! Tests for the sampling estimators.
//!
//! A confidence interval's one job is to cover the true parameter at
//! its nominal rate. The coverage tests simulate many independent runs
//! of windows drawn from a *known* residual-per-event model and check
//! that the nominal 95% interval empirically covers the truth in at
//! least 90% of runs — for the pooled ratio estimator
//! ([`SampleEstimator`], defined here as the reference) and the
//! control-variate one the library ships ([`RatioEstimator`]). The
//! tolerance (90% vs the nominal 95%)
//! absorbs Monte-Carlo noise and the Taylor linearization's small-n
//! optimism without letting a broken interval (the old unweighted-CPI
//! z-interval under-covered small runs badly) slip through.
//!
//! Unit tests pin the pooled interval's closed forms and degenerate
//! cases, and compare the library estimator against it. Proptests pin
//! that without a covariate the library interval *is* the pooled one,
//! and the structural invariant the system relies on: covariates may
//! change the *interval*, never the *point estimate*.

use fade_sim::{t_critical_975, CycleCi, CycleEstimate, RatioEstimator, Rng, WindowSample};
use proptest::prelude::*;

/// The pooled ratio estimator — the reference the control-variate
/// [`RatioEstimator`] is checked against.
///
/// Each window contributes an `(instructions, cycles)` pair; unsampled
/// stretches are charged the ratio-estimator CPI `Σcycles / Σinstrs`.
/// The error bound is a 95% confidence interval on that *same ratio* —
/// Taylor-linearized (instruction-weighted) variance with a Student-t
/// critical value — with no covariate. Cycles are `f64`
/// because the batched system mode samples signed residual overheads.
#[derive(Clone, Debug, Default)]
struct SampleEstimator {
    windows: Vec<(u64, f64)>,
}

impl SampleEstimator {
    /// Creates an estimator with no windows.
    fn new() -> Self {
        SampleEstimator::default()
    }

    /// Builds an estimator from pre-measured `(instrs, cycles)` windows.
    /// Zero-instruction windows carry no CPI information and are
    /// discarded, exactly as [`SampleEstimator::record_window`] would —
    /// otherwise a single degenerate window poisons every downstream
    /// ratio with `NaN`/`inf`.
    fn from_windows(windows: &[(u64, f64)]) -> Self {
        SampleEstimator {
            windows: windows.iter().copied().filter(|&(i, _)| i > 0).collect(),
        }
    }

    /// Records one sampled window of `instrs` instructions that took
    /// `cycles` cycles. Windows with zero instructions carry no CPI
    /// information and are ignored.
    fn record_window(&mut self, instrs: u64, cycles: f64) {
        if instrs > 0 {
            self.windows.push((instrs, cycles));
        }
    }

    /// Number of recorded windows.
    fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` when no window has been recorded.
    fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Ratio-estimator cycles-per-instruction over all windows
    /// (0 when empty).
    fn cpi(&self) -> f64 {
        let instrs: u64 = self.windows.iter().map(|&(i, _)| i).sum();
        let cycles: f64 = self.windows.iter().map(|&(_, c)| c).sum();
        if instrs == 0 {
            0.0
        } else {
            cycles / instrs as f64
        }
    }

    /// Half-width of the 95% confidence interval of the ratio-estimator
    /// CPI, relative to its absolute value. `None` with fewer than two
    /// windows (the `n - 1` variance denominator needs at least one
    /// degree of freedom) or a zero ratio (no relative scale) — the
    /// degenerate inputs that used to surface as sentinel infinities.
    ///
    /// The variance is the Taylor-linearized ratio-estimator form: with
    /// `R = ΣC/ΣI`, each window's residual is `dⱼ = cⱼ − R·iⱼ`, and
    /// `Var(R) ≈ n·s²_d / (ΣI)²` where `s²_d = Σdⱼ²/(n−1)`. Unlike a
    /// plain variance of per-window CPIs, this weighs each window by its
    /// instruction count — consistent with the point estimate — so the
    /// short-tail fallback windows the batched mode produces don't get
    /// outsized influence. The critical value is Student-t at `n − 1`
    /// degrees of freedom, not a hard-coded z.
    fn rel_half_width(&self) -> Option<f64> {
        let n = self.windows.len();
        if n < 2 {
            return None;
        }
        let instrs: f64 = self.windows.iter().map(|&(i, _)| i as f64).sum();
        let cycles: f64 = self.windows.iter().map(|&(_, c)| c).sum();
        let ratio = cycles / instrs;
        if ratio == 0.0 {
            return None;
        }
        let ss: f64 = self
            .windows
            .iter()
            .map(|&(i, c)| {
                let d = c - ratio * i as f64;
                d * d
            })
            .sum();
        let var_sum = ss * n as f64 / (n as f64 - 1.0); // estimated Var(Σdⱼ)
        let half = t_critical_975((n - 1) as f64) * var_sum.sqrt() / instrs;
        Some(half / ratio.abs())
    }

    /// Estimated cycles for `instrs` unsampled instructions, with 95%
    /// confidence bounds. With no windows the estimate is 0 cycles (the
    /// caller sampled nothing); with fewer than two windows (or a zero
    /// mean CPI) the point estimate stands alone and `ci` is `None`.
    fn estimate(&self, instrs: u64) -> CycleEstimate {
        let cpi = self.cpi();
        let cycles = cpi * instrs as f64;
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
}

/// Runs per coverage experiment. Enough that a true-95% interval fails
/// the ≥90% bar with probability ~1e-5 (binomial tail), small enough
/// to stay fast in debug builds.
const RUNS: u64 = 400;

/// Windows per simulated run — matches the order of magnitude the
/// batched mode produces at default sampling (about a dozen).
const WINDOWS: usize = 12;

/// Standard normal via Box–Muller over the substrate RNG.
fn gaussian(rng: &mut Rng) -> f64 {
    let u1 = rng.unit_f64().max(1e-12);
    let u2 = rng.unit_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One simulated run: fixed window lengths, per-window cycles
/// `mu_j·e_j + noise`, where `mu_j` alternates between two regimes
/// and the noise is optionally correlated with a
/// covariate. The composition is deterministic so the pooled ratio has
/// a well-defined true value across runs.
fn simulate(seed: u64, beta: f64) -> (Vec<WindowSample>, f64) {
    let mut rng = Rng::seed_from(seed);
    let mus = [1.5, 4.0]; // light vs congested regime residual/event
    let sd = 600.0; // cycles of window-level noise
    let mut samples = Vec::with_capacity(WINDOWS);
    let mut true_cycles = 0.0;
    let mut events_total = 0.0;
    for j in 0..WINDOWS {
        let events = 3_000 + 500 * (j as u64 % 3); // 3000/3500/4000
        let mu = mus[j % 2];
        let z = 2.0 + rng.unit_f64(); // covariate, mean ~2.5
        let noise = beta * (z - 2.5) + sd * gaussian(&mut rng);
        samples.push(WindowSample {
            events,
            cycles: mu * events as f64 + noise,
            covariate: z,
        });
        true_cycles += mu * events as f64;
        events_total += events as f64;
    }
    (samples, true_cycles / events_total)
}

fn covers(lo: f64, hi: f64, truth: f64, events: u64) -> bool {
    let t = truth * events as f64;
    lo <= t && t <= hi
}

#[test]
fn pooled_interval_covers_at_nominal_rate() {
    let mut hits = 0u64;
    for seed in 0..RUNS {
        let (samples, truth) = simulate(seed, 0.0);
        let windows: Vec<(u64, f64)> = samples.iter().map(|s| (s.events, s.cycles)).collect();
        let e = SampleEstimator::from_windows(&windows);
        let est = e.estimate(1_000_000);
        assert!(est.ci.is_some());
        if covers(est.lo(), est.hi(), truth, 1_000_000) {
            hits += 1;
        }
    }
    let rate = hits as f64 / RUNS as f64;
    assert!(rate >= 0.90, "pooled 95% CI covered only {rate:.3}");
}

#[test]
fn control_variate_interval_covers_at_nominal_rate() {
    // Noise partially explained by the covariate (β = 800 cycles per
    // unit): the control-variate fit tightens the interval, and the
    // tightened interval must still cover.
    let mut hits = 0u64;
    for seed in 0..RUNS {
        let (samples, truth) = simulate(seed, 800.0);
        let e = RatioEstimator::from_samples(&samples);
        let est = e.estimate(1_000_000);
        assert!(est.ci.is_some());
        if covers(est.lo(), est.hi(), truth, 1_000_000) {
            hits += 1;
        }
    }
    let rate = hits as f64 / RUNS as f64;
    assert!(rate >= 0.90, "control-variate 95% CI covered only {rate:.3}");
}

proptest! {
    /// Covariates never move the point estimate: the library
    /// estimator's CPI (and hence its extrapolated cycles) equals the
    /// pooled ratio of the same windows exactly, whatever the
    /// covariates — only the interval may differ.
    #[test]
    fn covariate_only_changes_the_interval(
        windows in prop::collection::vec(
            // (events, milli-cycles, milli-covariate) — the shim has no
            // f64 range strategy, so integers scale down.
            (1u64..10_000, 0u64..1_000_000_000, 0u64..100_000),
            2..40,
        ),
        extrapolate in 1u64..10_000_000,
    ) {
        let samples: Vec<WindowSample> = windows
            .iter()
            .map(|&(events, mcycles, mcov)| WindowSample {
                events,
                cycles: mcycles as f64 / 1e3 - 10_000.0, // residuals can be negative
                covariate: mcov as f64 / 1e3,
            })
            .collect();
        let pooled = SampleEstimator::from_windows(
            &samples.iter().map(|s| (s.events, s.cycles)).collect::<Vec<_>>(),
        );
        let lib = RatioEstimator::from_samples(&samples);
        let tol = 1e-9 * (1.0 + pooled.cpi().abs());
        prop_assert!((lib.cpi() - pooled.cpi()).abs() <= tol);
        let ep = pooled.estimate(extrapolate).cycles;
        let el = lib.estimate(extrapolate).cycles;
        let ctol = 1e-9 * (1.0 + ep.abs());
        prop_assert!((el - ep).abs() <= ctol);
    }

    /// Without a covariate signal the library interval is the pooled
    /// ratio interval: same residuals, `n − 1` degrees of freedom.
    #[test]
    fn interval_matches_pooled_reference(
        windows in prop::collection::vec(
            (1u64..10_000, 0u64..1_000_000_000),
            2..40,
        ),
    ) {
        let wins: Vec<(u64, f64)> = windows
            .iter()
            .map(|&(events, mcycles)| (events, mcycles as f64 / 1e3 - 10_000.0))
            .collect();
        let pooled = SampleEstimator::from_windows(&wins).rel_half_width();
        let lib = RatioEstimator::from_samples(
            &wins
                .iter()
                .map(|&(events, cycles)| WindowSample { events, cycles, covariate: 0.0 })
                .collect::<Vec<_>>(),
        )
        .rel_half_width();
        match (pooled, lib) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a), "{} vs {}", a, b),
            (a, b) => prop_assert_eq!(a, b),
        }
    }
}

#[test]
fn sample_estimator_exact_for_constant_cpi() {
    let mut e = SampleEstimator::new();
    for _ in 0..4 {
        e.record_window(100, 250.0); // CPI 2.5 in every window
    }
    assert!((e.cpi() - 2.5).abs() < 1e-12);
    let est = e.estimate(1_000);
    assert!((est.cycles - 2_500.0).abs() < 1e-9);
    // Zero variance: the interval collapses onto the estimate.
    assert!((est.hi() - est.lo()).abs() < 1e-9);
    assert!(est.rel_half_width().unwrap() < 1e-12);
}

#[test]
fn sample_estimator_bounds_cover_the_mean() {
    let e = SampleEstimator::from_windows(&[(100, 200.0), (100, 300.0), (100, 250.0)]);
    assert!((e.cpi() - 2.5).abs() < 1e-12);
    let est = e.estimate(100);
    assert!(est.lo() < est.cycles && est.cycles < est.hi());
    let rel = est.rel_half_width().expect("3 windows give a CI");
    assert!(rel > 0.0 && rel.is_finite());
}

#[test]
fn sample_estimator_handles_negative_overhead_windows() {
    // Differential sampling: a lucky window can have negative
    // overhead; the estimator must keep working on signed cycles.
    let e = SampleEstimator::from_windows(&[(100, -10.0), (100, 30.0), (100, 10.0)]);
    assert!((e.cpi() - 0.1).abs() < 1e-12);
    let est = e.estimate(1_000);
    assert!((est.cycles - 100.0).abs() < 1e-9);
    assert!(est.lo() < est.cycles && est.cycles < est.hi());
}

#[test]
fn sample_estimator_degenerate_cases() {
    let mut e = SampleEstimator::new();
    assert!(e.is_empty());
    let est = e.estimate(500);
    assert_eq!(est.cycles, 0.0);
    assert_eq!(est.ci, None);
    assert_eq!(e.cpi(), 0.0);
    assert_eq!(e.rel_half_width(), None);
    // Zero-instruction windows are discarded.
    e.record_window(0, 999.0);
    assert!(e.is_empty());
    // A single window gives a point estimate with no error bound —
    // and every derived quantity stays finite (no NaN from the
    // n - 1 variance denominator).
    e.record_window(10, 30.0);
    assert_eq!(e.len(), 1);
    let est = e.estimate(10);
    assert!((est.cycles - 30.0).abs() < 1e-12);
    assert_eq!(est.ci, None);
    assert_eq!(est.rel_half_width(), None);
    assert_eq!(est.lo(), est.cycles);
    assert_eq!(est.hi(), est.cycles);
    assert!(est.cycles.is_finite() && est.lo().is_finite() && est.hi().is_finite());
}

#[test]
fn from_windows_discards_zero_instruction_windows() {
    // A zero-instruction window used to slip through `from_windows`
    // and divide by zero in the CPI vector (NaN variance, NaN CI).
    let e = SampleEstimator::from_windows(&[(0, 123.0), (100, 250.0), (0, 9.0), (100, 200.0)]);
    assert_eq!(e.len(), 2);
    assert!((e.cpi() - 2.25).abs() < 1e-12);
    let est = e.estimate(100);
    assert!(est.cycles.is_finite());
    let rel = est.rel_half_width().expect("two real windows give a CI");
    assert!(rel.is_finite() && !rel.is_nan());
}

#[test]
fn zero_mean_cpi_has_no_relative_ci() {
    // Perfectly cancelling overhead windows: the mean CPI is zero,
    // so a *relative* half-width has no scale. Typed None, not inf.
    let e = SampleEstimator::from_windows(&[(100, -50.0), (100, 50.0)]);
    assert_eq!(e.rel_half_width(), None);
    assert_eq!(e.estimate(1_000).ci, None);
}

#[test]
fn small_n_intervals_use_student_t_not_z() {
    // Same per-window CPI spread at n = 2 and n = 30; the n = 2
    // interval must be wider by far more than the √n factor alone —
    // the t₁ = 12.706 critical value vs t₂₉ = 2.045.
    let two = SampleEstimator::from_windows(&[(100, 240.0), (100, 260.0)]);
    let mut wins = Vec::new();
    for k in 0..30 {
        wins.push((100, if k % 2 == 0 { 240.0 } else { 260.0 }));
    }
    let thirty = SampleEstimator::from_windows(&wins);
    let rel2 = two.rel_half_width().unwrap();
    let rel30 = thirty.rel_half_width().unwrap();
    // n = 2: sd of Σd is 10·√2·√2 = 20 over ΣC = 500, CPI 2.5 →
    // rel = 12.706 · 20/200/2.5... compute directly instead:
    // d = ∓10, s² = 200, Var(Σd) = n·s² = 400, half = 12.706·20,
    // rel = 12.706·20/500 ≈ 0.5082.
    assert!((rel2 - 12.706 * 20.0 / 500.0).abs() < 1e-9);
    // n = 30: Var(Σd) = 30·(30·100/29), half = t₂₉·√(Σ)… just pin
    // the closed form.
    let var_sum: f64 = 30.0 * (30.0 * 100.0 / 29.0);
    assert!((rel30 - 2.045 * var_sum.sqrt() / 7_500.0).abs() < 1e-9);
    assert!(
        rel2 > 6.0 * rel30,
        "t must dominate at tiny n: {rel2} vs {rel30}"
    );
}

#[test]
fn ci_weighs_windows_by_instruction_count() {
    // A short window with a wild CPI and a long window near the
    // ratio. The unweighted per-window-CPI variance treats both
    // deviations equally; the ratio-estimator (linearized) variance
    // weighs residuals in *cycles*, so the short window's influence
    // shrinks with its length. Pin the linearized closed form.
    let e = SampleEstimator::from_windows(&[(10, 60.0), (1_000, 2_000.0)]);
    let ratio: f64 = 2060.0 / 1010.0;
    let d1: f64 = 60.0 - ratio * 10.0;
    let d2: f64 = 2000.0 - ratio * 1000.0;
    let var_sum = (d1 * d1 + d2 * d2) * 2.0; // n/(n−1) = 2
    let want = 12.706 * var_sum.sqrt() / 1010.0 / ratio;
    assert!((e.rel_half_width().unwrap() - want).abs() < 1e-9);
    // Sanity: the residuals are equal-and-opposite small numbers,
    // not the enormous per-window CPI gap (6.0 vs 2.0).
    assert!((d1 + d2).abs() < 1e-9);
}

#[test]
fn alternating_regimes_never_move_the_point_estimate() {
    // Identical windows from two alternating CPI regimes fed to the
    // pooled reference and the library estimator: the point
    // estimates agree exactly.
    let wins: Vec<(u64, f64)> = vec![
        (1_000, 1_500.0),
        (900, 4_000.0),
        (1_100, 1_300.0),
        (1_000, 3_900.0),
        (800, 1_100.0),
        (1_200, 4_700.0),
        (1_000, 1_450.0),
        (1_000, 4_100.0),
    ];
    let pooled = SampleEstimator::from_windows(&wins);
    let lib = RatioEstimator::from_samples(
        &wins
            .iter()
            .map(|&(e, c)| WindowSample {
                events: e,
                cycles: c,
                covariate: 0.0,
            })
            .collect::<Vec<_>>(),
    );
    assert!((pooled.cpi() - lib.cpi()).abs() < 1e-12);
    let est_p = pooled.estimate(100_000);
    let est_l = lib.estimate(100_000);
    assert!((est_p.cycles - est_l.cycles).abs() < 1e-6);
}
