//! Trace statistics: the arithmetic behind DPA.
//!
//! Production code shares [`StatsError`] and `peak` with the online
//! accumulators. The batch engine below (`TraceMatrix`, `mean_trace`,
//! `variance_trace`, `welch_t`) exists in test builds only: it is the
//! two-pass oracle the accumulators are checked against.

use std::fmt;

/// Typed failures of the trace-statistics layer.
///
/// Harness code (campaign runners, CLIs) classifies a misaligned trace
/// instead of panicking deep inside an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// A trace's length disagrees with the accumulator's width.
    WidthMismatch {
        /// The established width.
        expected: usize,
        /// The offending trace's length.
        got: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::WidthMismatch { expected, got } => {
                write!(f, "misaligned trace: expected width {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// A set of equal-length power traces (one row per encryption run).
#[cfg(test)]
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TraceMatrix {
    rows: Vec<Vec<f64>>,
    width: usize,
}

#[cfg(test)]
impl TraceMatrix {
    /// An empty matrix.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace length differs from earlier rows — DPA requires
    /// aligned traces, and the simulator produces perfectly aligned ones.
    pub(crate) fn push(&mut self, trace: Vec<f64>) {
        self.try_push(trace).expect("misaligned trace");
    }

    /// Adds one trace, reporting a width disagreement as a typed error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when the trace length differs from
    /// earlier rows; the matrix is left unchanged.
    pub(crate) fn try_push(&mut self, trace: Vec<f64>) -> Result<(), StatsError> {
        if self.rows.is_empty() {
            self.width = trace.len();
        } else if trace.len() != self.width {
            return Err(StatsError::WidthMismatch { expected: self.width, got: trace.len() });
        }
        self.rows.push(trace);
        Ok(())
    }

    /// Number of traces.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no traces are recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Trace length in cycles.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The rows.
    pub(crate) fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }
}

#[cfg(test)]
impl FromIterator<Vec<f64>> for TraceMatrix {
    fn from_iter<I: IntoIterator<Item = Vec<f64>>>(iter: I) -> Self {
        let mut m = TraceMatrix::new();
        for t in iter {
            m.push(t);
        }
        m
    }
}

/// Pointwise mean of a set of traces. Empty input gives an empty trace.
#[cfg(test)]
pub(crate) fn mean_trace(m: &TraceMatrix) -> Vec<f64> {
    if m.is_empty() {
        return Vec::new();
    }
    let n = m.len() as f64;
    let mut acc = vec![0.0; m.width()];
    for row in m.rows() {
        for (a, v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
    for a in &mut acc {
        *a /= n;
    }
    acc
}

/// Pointwise variance (population) of a set of traces.
#[cfg(test)]
pub(crate) fn variance_trace(m: &TraceMatrix) -> Vec<f64> {
    if m.is_empty() {
        return Vec::new();
    }
    let mean = mean_trace(m);
    let n = m.len() as f64;
    let mut acc = vec![0.0; m.width()];
    for row in m.rows() {
        for ((a, v), mu) in acc.iter_mut().zip(row).zip(&mean) {
            let d = v - mu;
            *a += d * d;
        }
    }
    for a in &mut acc {
        *a /= n;
    }
    acc
}

/// Pointwise Welch's *t* statistic between two groups — the standard
/// leakage-assessment test (TVLA-style): |t| ≳ 4.5 flags a leak.
#[cfg(test)]
pub(crate) fn welch_t(g0: &TraceMatrix, g1: &TraceMatrix) -> Vec<f64> {
    if g0.len() < 2 || g1.len() < 2 {
        return vec![0.0; g0.width().max(g1.width())];
    }
    let m0 = mean_trace(g0);
    let m1 = mean_trace(g1);
    let v0 = variance_trace(g0);
    let v1 = variance_trace(g1);
    let (n0, n1) = (g0.len() as f64, g1.len() as f64);
    m0.iter()
        .zip(&m1)
        .zip(v0.iter().zip(&v1))
        .map(|((mu0, mu1), (s0, s1))| {
            let denom = (s0 / n0 + s1 / n1).sqrt();
            if denom < 1e-15 {
                0.0
            } else {
                (mu1 - mu0) / denom
            }
        })
        .collect()
}

/// Largest absolute value in a statistic trace, with its index.
pub(crate) fn peak(stat: &[f64]) -> (usize, f64) {
    stat.iter().enumerate().map(|(i, &v)| (i, v.abs())).fold((0, 0.0), |best, cur| {
        if cur.1 > best.1 {
            cur
        } else {
            best
        }
    })
}

/// The DPA statistic: pointwise `mean(group1) - mean(group0)`.
///
/// Groups of different sizes are fine; an empty group yields zeros (no
/// evidence either way).
#[cfg(test)]
pub(crate) fn difference_of_means(g0: &TraceMatrix, g1: &TraceMatrix) -> Vec<f64> {
    let width = g0.width().max(g1.width());
    if g0.is_empty() || g1.is_empty() {
        return vec![0.0; width];
    }
    let m0 = mean_trace(g0);
    let m1 = mean_trace(g1);
    m1.iter().zip(&m0).map(|(a, b)| a - b).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn m(rows: &[&[f64]]) -> TraceMatrix {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn mean_of_constant_rows() {
        let mm = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(mean_trace(&mm), vec![2.0, 3.0]);
    }

    #[test]
    fn variance_of_identical_rows_is_zero() {
        let mm = m(&[&[5.0, 5.0], &[5.0, 5.0]]);
        assert_eq!(variance_trace(&mm), vec![0.0, 0.0]);
    }

    #[test]
    fn difference_of_means_signs() {
        let g0 = m(&[&[1.0, 10.0]]);
        let g1 = m(&[&[3.0, 4.0]]);
        assert_eq!(difference_of_means(&g0, &g1), vec![2.0, -6.0]);
    }

    #[test]
    fn empty_group_gives_zeros() {
        let g0 = TraceMatrix::new();
        let g1 = m(&[&[3.0, 4.0]]);
        assert_eq!(difference_of_means(&g0, &g1), vec![0.0, 0.0]);
    }

    #[test]
    fn welch_t_flags_separated_groups() {
        let g0 = m(&[&[0.0], &[0.1], &[-0.1], &[0.05]]);
        let g1 = m(&[&[10.0], &[10.1], &[9.9], &[10.05]]);
        let t = welch_t(&g0, &g1);
        assert!(t[0] > 50.0, "t = {}", t[0]);
    }

    #[test]
    fn welch_t_near_zero_for_same_distribution() {
        let g0 = m(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let g1 = m(&[&[2.0], &[3.0], &[1.0], &[4.0]]);
        let t = welch_t(&g0, &g1);
        assert!(t[0].abs() < 1.0);
    }

    #[test]
    fn welch_t_zero_variance_guard() {
        let g0 = m(&[&[1.0], &[1.0]]);
        let g1 = m(&[&[1.0], &[1.0]]);
        assert_eq!(welch_t(&g0, &g1), vec![0.0]);
    }

    #[test]
    fn peak_finds_largest_magnitude() {
        assert_eq!(peak(&[0.5, -3.0, 2.0]), (1, 3.0));
        assert_eq!(peak(&[]), (0, 0.0));
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_traces_rejected() {
        let mut mm = TraceMatrix::new();
        mm.push(vec![1.0, 2.0]);
        mm.push(vec![1.0]);
    }

    #[test]
    fn try_push_reports_misalignment_as_typed_error() {
        let mut mm = TraceMatrix::new();
        mm.try_push(vec![1.0, 2.0]).expect("first row sets the width");
        let err = mm.try_push(vec![1.0]).unwrap_err();
        assert_eq!(err, StatsError::WidthMismatch { expected: 2, got: 1 });
        assert!(err.to_string().contains("expected width 2"));
        // The rejected row was not recorded.
        assert_eq!(mm.len(), 1);
        assert_eq!(mm.width(), 2);
        // A matching row still lands.
        mm.try_push(vec![3.0, 4.0]).expect("aligned row accepted");
        assert_eq!(mm.len(), 2);
    }

    #[test]
    fn empty_matrix_statistics_are_empty_not_panics() {
        let empty = TraceMatrix::new();
        assert!(empty.is_empty());
        assert_eq!(empty.width(), 0);
        assert_eq!(mean_trace(&empty), Vec::<f64>::new());
        assert_eq!(variance_trace(&empty), Vec::<f64>::new());
        assert_eq!(difference_of_means(&empty, &empty), Vec::<f64>::new());
        assert_eq!(welch_t(&empty, &empty), Vec::<f64>::new());
        assert_eq!(peak(&mean_trace(&empty)), (0, 0.0));
    }

    #[test]
    fn welch_t_propagates_nan_instead_of_hiding_it() {
        // A NaN sample poisons that cycle's t (mean and variance are NaN,
        // the `denom < eps` guard is false for NaN) and leaves the other
        // cycles untouched — corrupt input is visible, never laundered
        // into a plausible statistic.
        let g0 = m(&[&[1.0, f64::NAN], &[2.0, f64::NAN]]);
        let g1 = m(&[&[5.0, 1.0], &[6.0, 2.0]]);
        let t = welch_t(&g0, &g1);
        assert!(t[0].is_finite(), "clean cycle stays finite: {t:?}");
        assert!(t[1].is_nan(), "NaN input must surface as NaN: {t:?}");
    }

    #[test]
    fn peak_on_all_equal_input_picks_the_first_index() {
        assert_eq!(peak(&[2.5, 2.5, 2.5]), (0, 2.5));
        assert_eq!(peak(&[-2.5, -2.5]), (0, 2.5));
        assert_eq!(peak(&[0.0, 0.0]), (0, 0.0));
    }
}
