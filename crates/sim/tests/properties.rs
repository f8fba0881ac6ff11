//! Property tests for the simulation substrate.

use std::collections::VecDeque;

use fade_sim::{BoundedQueue, LogHistogram, QueueDepth, Rng};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum QueueOp {
    Push(u32),
    Pop,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        any::<u32>().prop_map(QueueOp::Push),
        Just(QueueOp::Pop),
    ]
}

proptest! {
    /// BoundedQueue is a FIFO with a hard bound.
    #[test]
    fn bounded_queue_matches_reference(
        cap in 1usize..16,
        ops in prop::collection::vec(queue_op(), 0..200),
    ) {
        let mut q = BoundedQueue::new(QueueDepth::Bounded(cap));
        let mut reference: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    let ok = q.push(v).is_ok();
                    if reference.len() < cap {
                        prop_assert!(ok);
                        reference.push_back(v);
                    } else {
                        prop_assert!(!ok);
                    }
                }
                QueueOp::Pop => {
                    prop_assert_eq!(q.pop(), reference.pop_front());
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert!(q.len() <= cap);
        }
    }

    /// The CDF is monotone, ends at 100%, and percentile() inverts it.
    #[test]
    fn histogram_cdf_is_monotone(samples in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let cdf = h.cdf();
        let mut prev = 0.0;
        for &(_, pct) in &cdf.points {
            prop_assert!(pct >= prev - 1e-9);
            prev = pct;
        }
        prop_assert!((cdf.points.last().unwrap().1 - 100.0).abs() < 1e-9);
        // percentile(p) is an upper bound for at least p% of samples.
        for p in [10.0, 50.0, 90.0, 99.0] {
            let bound = h.percentile(p);
            let covered = samples.iter().filter(|&&s| s <= bound).count() as f64;
            prop_assert!(100.0 * covered / samples.len() as f64 >= p - 1e-9);
        }
    }

    /// Histogram mean equals the arithmetic mean.
    #[test]
    fn histogram_mean_is_exact(samples in prop::collection::vec(0u64..100_000, 1..200)) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let expect = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((h.mean() - expect).abs() < 1e-6);
    }

    /// `record_n(v, n)` is `n` calls of `record(v)`, bucket for bucket.
    #[test]
    fn histogram_record_n_is_repeated_record(
        runs in prop::collection::vec((0u64..100_000, 0u64..50), 0..40),
    ) {
        let (mut bulk, mut single) = (LogHistogram::new(), LogHistogram::new());
        for &(v, n) in &runs {
            bulk.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        prop_assert_eq!(format!("{bulk:?}"), format!("{single:?}"));
    }

    /// RNG ranges honour their bounds for arbitrary seeds.
    #[test]
    fn rng_bounds(seed: u64, lo in 0u64..1000, span in 1u64..1000) {
        let mut r = Rng::seed_from(seed);
        for _ in 0..100 {
            let v = r.range(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
            let u = r.unit_f64();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Forked streams do not correlate trivially with the parent.
    #[test]
    fn rng_forks_differ(seed: u64) {
        let mut root = Rng::seed_from(seed);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }
}
