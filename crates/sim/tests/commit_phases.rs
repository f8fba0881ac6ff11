//! The commit model's phase-wise fast-forward against the per-cycle
//! loops it replaced, which survive here as oracles.
//!
//! `CommitModel::fast_forward` advances run and idle-stall interiors in
//! bulk; these properties pin it to the plain `tick`/`retire` loop —
//! same cycles, same retirements, and a model that behaves identically
//! afterwards — over every core kind, random profiles and seeds, and
//! starting windows anywhere from empty to clamped at the ROB.

use fade_sim::{CommitModel, CommitProfile, CoreKind, Rng};
use proptest::prelude::*;

/// Oracle of `fast_forward(n, true)`: exactly `n` instructions retire,
/// the last cycle taking only what is left. Returns the cycles taken.
fn exact_per_cycle(commit: &mut CommitModel, n: u64) -> u64 {
    let (mut retired, mut cycles) = (0u64, 0u64);
    while retired < n {
        commit.tick();
        let take = (commit.retirable() as u64).min(n - retired) as u32;
        commit.retire(take);
        retired += take as u64;
        cycles += 1;
    }
    cycles
}

/// Oracle of `fast_forward(n, false)`: every cycle retires everything
/// retirable until at least `n` have. Returns `(cycles, retired)`.
fn uncapped_per_cycle(commit: &mut CommitModel, n: u64) -> (u64, u64) {
    let (mut retired, mut cycles) = (0u64, 0u64);
    while retired < n {
        commit.tick();
        let take = commit.retirable();
        commit.retire(take);
        retired += take as u64;
        cycles += 1;
    }
    (cycles, retired)
}

/// A commit model from drawn parameters: IPC in hundredths on the
/// 4-way core (0.05–4.00) and a mean run length of 1–2999 cycles.
fn model(kind: CoreKind, ipc_centi: u32, run_len: u32, seed: u64) -> CommitModel {
    let profile = CommitProfile::new(ipc_centi as f64 / 100.0, run_len as f64);
    CommitModel::new(kind, profile, Rng::seed_from(seed))
}

/// Ticks `cycles` times without retiring anything — a backpressured
/// application thread, whose window fills up to the ROB.
fn backpressure(commit: &mut CommitModel, cycles: u64) {
    for _ in 0..cycles {
        commit.tick();
    }
}

/// Continues both copies cycle by cycle for 10k cycles, retiring the
/// same random share of the window from each, and requires identical
/// windows every cycle and identical state at the end.
fn assert_same_future(
    a: &mut CommitModel,
    b: &mut CommitModel,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = Rng::seed_from(seed);
    prop_assert_eq!(a.pending(), b.pending());
    for cycle in 0..10_000 {
        a.tick();
        b.tick();
        prop_assert_eq!(
            a.retirable(),
            b.retirable(),
            "cycle {} after the fast-forward",
            cycle
        );
        prop_assert_eq!(a.pending(), b.pending());
        let take = rng.below(a.retirable() as u64 + 1) as u32;
        a.retire(take);
        b.retire(take);
    }
    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact fast-forwards, fed in random chunks, match the per-cycle
    /// loop chunk by chunk and leave an identical model.
    #[test]
    fn exact_fast_forward_matches_per_cycle_loop(
        kind in 0usize..3,
        ipc_centi in 5u32..=400,
        run_len in 1u32..3000,
        seed: u64,
        stall_first in 0u64..400,
        n in 0u64..=200_000,
    ) {
        let mut fast = model(CoreKind::ALL[kind], ipc_centi, run_len, seed);
        // A backpressure stretch first: the window starts anywhere from
        // empty to clamped at the ROB.
        backpressure(&mut fast, stall_first);
        let mut slow = fast.clone();
        let mut chunks = Rng::seed_from(seed ^ n);
        let mut left = n;
        while left > 0 {
            let chunk = chunks.range(1, 4096).min(left);
            let (cycles, retired) = fast.fast_forward(chunk, true);
            prop_assert_eq!(retired, chunk);
            prop_assert_eq!(cycles, exact_per_cycle(&mut slow, chunk));
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            left -= chunk;
        }
        prop_assert_eq!(fast.fast_forward(0, true), (0, 0));
        assert_same_future(&mut fast, &mut slow, seed)?;
    }

    /// Uncapped fast-forwards (the baseline's "retire everything
    /// retirable" rule) match the per-cycle loop, overshoot included.
    #[test]
    fn uncapped_fast_forward_matches_per_cycle_loop(
        kind in 0usize..3,
        ipc_centi in 5u32..=400,
        run_len in 1u32..3000,
        seed: u64,
        stall_first in 0u64..400,
        n in 0u64..=200_000,
    ) {
        let mut fast = model(CoreKind::ALL[kind], ipc_centi, run_len, seed);
        backpressure(&mut fast, stall_first);
        let mut slow = fast.clone();
        let mut chunks = Rng::seed_from(seed ^ n);
        let mut left = n;
        while left > 0 {
            let chunk = chunks.range(1, 50_000).min(left);
            let got = fast.fast_forward(chunk, false);
            prop_assert_eq!(got, uncapped_per_cycle(&mut slow, chunk));
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            left -= chunk;
        }
        assert_same_future(&mut fast, &mut slow, seed)?;
    }

    /// Skipping an idle stall's interior and ticking once equals ticking
    /// through the whole stall; until the model reaches an idle stall
    /// the skip is a no-op.
    #[test]
    fn idle_stall_skip_then_tick_matches_ticks(
        kind in 0usize..3,
        ipc_centi in 5u32..=400,
        run_len in 1u32..3000,
        seed: u64,
        warm in 0u64..5_000,
    ) {
        let mut slow = model(CoreKind::ALL[kind], ipc_centi, run_len, seed);
        slow.fast_forward(warm, true);
        // Step cycle by cycle, retiring everything, into the next stall
        // whose interior can be skipped (some profiles never stall).
        let mut fast = slow.clone();
        let mut k = fast.skip_idle_stall();
        for _ in 0..100_000 {
            if k > 0 {
                break;
            }
            // A refused skip changes nothing.
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            slow.tick();
            slow.retire(slow.retirable());
            fast = slow.clone();
            k = fast.skip_idle_stall();
        }
        fast.tick();
        for _ in 0..=k {
            slow.tick();
        }
        prop_assert_eq!(fast.pending(), slow.pending());
        assert_same_future(&mut fast, &mut slow, seed)?;
    }
}

/// A window clamped at the ROB is no idle stall, and a fast-forward out
/// of it drains the window cycle by cycle exactly like the loop does.
#[test]
fn fast_forward_from_a_full_window() {
    for kind in CoreKind::ALL {
        let mut fast = model(kind, 110, 200, 7);
        backpressure(&mut fast, 10_000);
        assert_eq!(fast.pending(), kind.rob().max(kind.width()));
        assert_eq!(
            fast.skip_idle_stall(),
            0,
            "{kind}: a full window is not idle"
        );
        let mut slow = fast.clone();
        assert_eq!(
            fast.fast_forward(1_000, true).0,
            exact_per_cycle(&mut slow, 1_000)
        );
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }
}
