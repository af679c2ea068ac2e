//! Property tests pinning the single-pass accumulators (`Welford`,
//! `OnlineWelch`) to the batch statistics (`mean_trace`,
//! `variance_trace`, `welch_t`): for arbitrary trace sets — including the
//! single-row and constant-column degenerate shapes — Welford's streaming
//! mean/variance and the online Welch-*t* must agree with the two-pass
//! formulas to within 1e-9, and splitting a stream at any point and
//! merging the halves must agree with the unsplit stream.

use emask_attack::{mean_trace, variance_trace, welch_t, TraceMatrix};
use emask_attack::{OnlineWelch, Welford};
use proptest::prelude::*;

const MAX_ROWS: usize = 30;
const MAX_WIDTH: usize = 12;

/// A non-empty trace set: `rows × width` values carved out of a flat pool
/// (the vendored proptest has no `prop_flat_map`, so dimensions and values
/// are drawn together and shaped here).
fn trace_set() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        1usize..MAX_ROWS,
        1usize..MAX_WIDTH,
        proptest::collection::vec(-1e3f64..1e3, MAX_ROWS * MAX_WIDTH..MAX_ROWS * MAX_WIDTH),
    )
        .prop_map(|(rows, width, pool)| shape(rows, width, &pool))
}

fn shape(rows: usize, width: usize, pool: &[f64]) -> Vec<Vec<f64>> {
    (0..rows).map(|r| pool[r * width..(r + 1) * width].to_vec()).collect()
}

/// A trace set where every row is the same — every column constant, the
/// zero-variance edge the `denom` guards exist for.
fn constant_trace_set() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..10, proptest::collection::vec(-50.0f64..50.0, 1..8))
        .prop_map(|(rows, row)| vec![row; rows])
}

fn matrix(rows: &[Vec<f64>]) -> TraceMatrix {
    rows.iter().cloned().collect()
}

fn stream(rows: &[Vec<f64>]) -> Welford {
    let mut w = Welford::new();
    for r in rows {
        w.push(r).expect("equal-width rows");
    }
    w
}

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what} width");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= 1e-9, "{what}[{i}]: online {x} vs batch {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn welford_agrees_with_batch(rows in trace_set()) {
        let w = stream(&rows);
        let m = matrix(&rows);
        assert_close(w.mean(), &mean_trace(&m), "mean");
        assert_close(&w.variance(), &variance_trace(&m), "variance");
    }

    #[test]
    fn welford_split_and_merge_agrees_with_one_stream(
        rows in trace_set(),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((rows.len() as f64) * cut_frac) as usize;
        let whole = stream(&rows);
        let mut merged = stream(&rows[..cut]);
        merged.merge(&stream(&rows[cut..])).expect("equal widths");
        prop_assert_eq!(merged.len(), whole.len());
        assert_close(merged.mean(), whole.mean(), "merged mean");
        assert_close(&merged.variance(), &whole.variance(), "merged variance");
    }

    #[test]
    fn single_row_has_exact_mean_and_zero_variance(
        row in proptest::collection::vec(-1e6f64..1e6, 1..16)
    ) {
        let w = stream(std::slice::from_ref(&row));
        prop_assert_eq!(w.len(), 1);
        assert_close(w.mean(), &row, "single-row mean");
        prop_assert!(w.variance().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn constant_columns_have_zero_variance(rows in constant_trace_set()) {
        let w = stream(&rows);
        assert_close(w.mean(), &rows[0], "constant mean");
        prop_assert!(
            w.variance().iter().all(|&v| v.abs() <= 1e-9),
            "variance of identical rows: {:?}",
            w.variance()
        );
    }

    #[test]
    fn online_welch_t_agrees_with_batch(
        rows0 in 1usize..MAX_ROWS,
        rows1 in 1usize..MAX_ROWS,
        width in 1usize..MAX_WIDTH,
        pool0 in proptest::collection::vec(-1e3f64..1e3, MAX_ROWS * MAX_WIDTH..MAX_ROWS * MAX_WIDTH),
        pool1 in proptest::collection::vec(-1e3f64..1e3, MAX_ROWS * MAX_WIDTH..MAX_ROWS * MAX_WIDTH),
    ) {
        // Both groups share a width — the only shape the accumulators are
        // for (the batch statistic zero-pads mismatches).
        let g0 = shape(rows0, width, &pool0);
        let g1 = shape(rows1, width, &pool1);
        let mut ow = OnlineWelch::new();
        for r in &g0 {
            ow.g0.push(r).expect("aligned");
        }
        for r in &g1 {
            ow.g1.push(r).expect("aligned");
        }
        assert_close(&ow.welch_t(), &welch_t(&matrix(&g0), &matrix(&g1)), "welch_t");
    }

    #[test]
    fn online_welch_t_on_constant_groups_is_zero(
        g in constant_trace_set(),
        offset in -10.0f64..10.0,
    ) {
        // Both groups constant (possibly different constants): Welford
        // accumulates an *exactly* zero variance for identical rows (each
        // update's delta is 0), so the vanishing-deviation guard fires and
        // the statistic is 0 — never NaN/inf. (The batch two-pass formula
        // can leave ~1e-28 rounding residue in the variance here and blow
        // it up into an astronomical t; the streaming path is the more
        // accurate of the two on this edge, so no batch comparison.)
        let shifted: Vec<Vec<f64>> =
            g.iter().map(|r| r.iter().map(|v| v + offset).collect()).collect();
        let mut ow = OnlineWelch::new();
        for r in &g {
            ow.g0.push(r).expect("aligned");
        }
        for r in &shifted {
            ow.g1.push(r).expect("aligned");
        }
        let online = ow.welch_t();
        prop_assert!(online.iter().all(|&t| t == 0.0), "constant groups: {online:?}");
    }
}
