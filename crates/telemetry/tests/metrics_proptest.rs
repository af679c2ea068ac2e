//! Property tests for the telemetry histogram: its quantiles are
//! monotone in `q` and bounded by the observed extremes, for any sample
//! stream.

use emask_telemetry::Histogram;
use proptest::prelude::*;

const POOL: usize = 64;

/// A sample pool and a split point (the vendored proptest has no
/// `prop_flat_map`, so the split is drawn separately and wrapped).
fn samples_and_split() -> impl Strategy<Value = (Vec<f64>, usize)> {
    (proptest::collection::vec(-50.0f64..550.0, 1..POOL), 0usize..POOL).prop_map(|(pool, cut)| {
        let cut = cut % (pool.len() + 1);
        (pool, cut)
    })
}

fn record_all(values: &[f64]) -> Histogram {
    let mut h = Histogram::new(25.0, 20);
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantiles_are_monotone_and_bounded(
        ps in samples_and_split(),
        qa in 0u32..101,
        qb in 0u32..101,
    ) {
        let (pool, _) = ps;
        let h = record_all(&pool);
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let (qlo, qhi) = (f64::from(lo) / 100.0, f64::from(hi) / 100.0);
        // Monotone in q, and every quantile lies within [min, max].
        prop_assert!(h.quantile(qlo) <= h.quantile(qhi));
        for q in [qlo, qhi] {
            let v = h.quantile(q);
            prop_assert!(v.is_finite());
            prop_assert!(v >= h.min() && v <= h.max(), "q{q}: {v} not in [{}, {}]", h.min(), h.max());
        }
        // The extremes pin to the exact extremes.
        prop_assert_eq!(h.quantile(0.0), h.min());
        prop_assert_eq!(h.quantile(1.0), h.max());
    }
}
