//! Energy traces and the trace algebra used by the paper's figures.
//!
//! Every figure in the evaluation is an operation on per-cycle traces:
//! Figure 6 buckets a trace per 100 cycles; Figures 7–11 subtract two
//! traces pointwise; Figure 12 subtracts a masked run from an original run
//! over a window. [`EnergyTrace`] provides exactly those operations.

use crate::model::CycleEnergy;
use std::fmt;
use std::ops::Range;

/// A per-cycle energy trace in picojoules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyTrace {
    samples: Vec<f64>,
}

impl EnergyTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trace from raw per-cycle picojoule samples.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self { samples }
    }

    /// Appends one cycle's energy.
    pub fn push(&mut self, cycle: CycleEnergy) {
        self.samples.push(cycle.total_pj());
    }

    /// The per-cycle samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no cycles were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total energy over the whole run, picojoules.
    pub fn total_pj(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Total energy in microjoules — the unit of the paper's Table of
    /// totals (46.4 µJ original etc.).
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }

    /// Mean picojoules per cycle (the paper's "average energy consumption
    /// of 165 pJ per cycle").
    pub fn mean_pj(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total_pj() / self.samples.len() as f64
        }
    }

    /// Sums the trace into buckets of `width` cycles (Figure 6 plots one
    /// point per 100 cycles).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    pub fn bucketed(&self, width: usize) -> Vec<f64> {
        assert!(width > 0, "bucket width must be positive");
        self.samples.chunks(width).map(|c| c.iter().sum()).collect()
    }

    /// Pointwise difference `self - other`, truncated to the shorter trace
    /// — the differential traces of Figures 7–11.
    pub fn diff(&self, other: &EnergyTrace) -> EnergyTrace {
        let samples = self.samples.iter().zip(&other.samples).map(|(a, b)| a - b).collect();
        EnergyTrace { samples }
    }

    /// A sub-trace over a cycle window.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the trace length.
    pub fn window(&self, range: Range<usize>) -> EnergyTrace {
        EnergyTrace { samples: self.samples[range].to_vec() }
    }

    /// Largest absolute sample — used to assert that a masked differential
    /// trace is (near-)zero.
    pub fn max_abs(&self) -> f64 {
        self.samples.iter().fold(0.0, |m, s| m.max(s.abs()))
    }

    /// Root-mean-square of the samples.
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.samples.iter().map(|s| s * s).sum::<f64>() / self.samples.len() as f64).sqrt()
    }

    /// Indices of local maxima above `threshold` separated by at least
    /// `min_gap` cycles — the round-structure detector behind the
    /// Figure 6 observation that the 16 DES rounds are visible.
    #[cfg(test)]
    pub(crate) fn peaks(&self, threshold: f64, min_gap: usize) -> Vec<usize> {
        let mut peaks = Vec::new();
        let mut last: Option<usize> = None;
        for (i, &s) in self.samples.iter().enumerate() {
            if s < threshold {
                continue;
            }
            let left = if i == 0 { f64::NEG_INFINITY } else { self.samples[i - 1] };
            let right = self.samples.get(i + 1).copied().unwrap_or(f64::NEG_INFINITY);
            if s >= left && s > right {
                if let Some(l) = last {
                    if i - l < min_gap {
                        continue;
                    }
                }
                peaks.push(i);
                last = Some(i);
            }
        }
        peaks
    }

    /// Serializes the trace as CSV (`cycle,pj` header plus one row per
    /// cycle) — ready for external plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(16 * self.samples.len() + 16);
        out.push_str("cycle,pj\n");
        for (i, s) in self.samples.iter().enumerate() {
            out.push_str(&format!("{i},{s}\n"));
        }
        out
    }

    /// Parses a trace from the CSV produced by [`EnergyTrace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_csv(csv: &str) -> Result<EnergyTrace, String> {
        let mut samples = Vec::new();
        for (ln, line) in csv.lines().enumerate() {
            if ln == 0 && line.trim() == "cycle,pj" {
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let (_, pj) =
                line.split_once(',').ok_or_else(|| format!("line {}: missing comma", ln + 1))?;
            let v: f64 =
                pj.trim().parse().map_err(|_| format!("line {}: bad sample `{pj}`", ln + 1))?;
            samples.push(v);
        }
        Ok(EnergyTrace { samples })
    }

    /// Renders the trace as a simple ASCII plot, `cols` buckets wide and
    /// `rows` high — enough to eyeball the figures in a terminal.
    pub fn ascii_plot(&self, cols: usize, rows: usize) -> String {
        if self.samples.is_empty() || cols == 0 || rows == 0 {
            return String::new();
        }
        let width = self.len().div_ceil(cols);
        let buckets: Vec<f64> =
            self.samples.chunks(width).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect();
        let max = buckets.iter().cloned().fold(f64::MIN, f64::max);
        let min = buckets.iter().cloned().fold(f64::MAX, f64::min);
        let span = (max - min).max(1e-12);
        let mut grid = vec![vec![' '; buckets.len()]; rows];
        for (x, &b) in buckets.iter().enumerate() {
            let h = (((b - min) / span) * (rows as f64 - 1.0)).round() as usize;
            for row in grid.iter_mut().take(h + 1) {
                // fill from the bottom up
                row[x] = '█';
            }
        }
        let mut out = String::new();
        for row in grid.iter().rev() {
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("min {min:.1} pJ, max {max:.1} pJ, {} cycles\n", self.len()));
        out
    }
}

impl fmt::Display for EnergyTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EnergyTrace({} cycles, {:.2} µJ total, {:.1} pJ/cycle mean)",
            self.len(),
            self.total_uj(),
            self.mean_pj()
        )
    }
}

impl FromIterator<f64> for EnergyTrace {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self { samples: iter.into_iter().collect() }
    }
}

impl Extend<f64> for EnergyTrace {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: &[f64]) -> EnergyTrace {
        EnergyTrace::from_samples(v.to_vec())
    }

    #[test]
    fn totals_and_means() {
        let tr = t(&[1.0, 2.0, 3.0]);
        assert!((tr.total_pj() - 6.0).abs() < 1e-12);
        assert!((tr.mean_pj() - 2.0).abs() < 1e-12);
        assert!((tr.total_uj() - 6e-6).abs() < 1e-18);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn empty_trace_is_safe() {
        let tr = EnergyTrace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.mean_pj(), 0.0);
        assert_eq!(tr.rms(), 0.0);
        assert_eq!(tr.max_abs(), 0.0);
    }

    #[test]
    fn bucketing_sums_chunks() {
        let tr = t(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(tr.bucketed(2), vec![2.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_width_panics() {
        t(&[1.0]).bucketed(0);
    }

    #[test]
    fn diff_is_pointwise() {
        let a = t(&[5.0, 5.0, 5.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert_eq!(a.diff(&b).samples(), &[4.0, 3.0, 2.0]);
    }

    #[test]
    fn diff_truncates_to_shorter() {
        let a = t(&[5.0, 5.0, 5.0]);
        let b = t(&[1.0]);
        assert_eq!(a.diff(&b).len(), 1);
    }

    #[test]
    fn window_extracts_range() {
        let tr = t(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(tr.window(1..3).samples(), &[1.0, 2.0]);
    }

    #[test]
    fn bucket_wider_than_trace_sums_everything_into_one() {
        let tr = t(&[1.0, 2.0, 3.0]);
        assert_eq!(tr.bucketed(100), vec![6.0]);
    }

    #[test]
    fn bucketing_empty_trace_is_empty() {
        assert!(EnergyTrace::new().bucketed(5).is_empty());
    }

    #[test]
    fn diff_with_empty_is_empty() {
        let a = t(&[5.0, 5.0]);
        let empty = EnergyTrace::new();
        assert!(a.diff(&empty).is_empty());
        assert!(empty.diff(&a).is_empty());
    }

    #[test]
    fn diff_is_anticommutative() {
        let a = t(&[5.0, 1.0]);
        let b = t(&[2.0, 4.0]);
        assert_eq!(a.diff(&b).samples(), &[3.0, -3.0]);
        assert_eq!(b.diff(&a).samples(), &[-3.0, 3.0]);
    }

    #[test]
    fn window_full_range_is_identity() {
        let tr = t(&[0.0, 1.0, 2.0]);
        assert_eq!(tr.window(0..3), tr);
    }

    #[test]
    fn window_empty_range_is_empty() {
        assert!(t(&[0.0, 1.0]).window(1..1).is_empty());
    }

    #[test]
    #[should_panic]
    fn window_past_end_panics() {
        t(&[0.0, 1.0]).window(1..5);
    }

    #[test]
    fn windows_tile_the_trace() {
        // Adjacent windows partition the samples exactly — the invariant
        // phase_trace() relies on when splitting a run at its markers.
        let tr = t(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let parts = [tr.window(0..2), tr.window(2..4), tr.window(4..5)];
        let glued: Vec<f64> = parts.iter().flat_map(|w| w.samples().to_vec()).collect();
        assert_eq!(glued, tr.samples());
        let part_total: f64 = parts.iter().map(EnergyTrace::total_pj).sum();
        assert!((part_total - tr.total_pj()).abs() < 1e-12);
    }

    #[test]
    fn peaks_detect_periodic_structure() {
        // 16 humps like the 16 DES rounds of Figure 6.
        let mut samples = Vec::new();
        for _round in 0..16 {
            samples.extend_from_slice(&[1.0, 2.0, 9.0, 2.0, 1.0, 1.0]);
        }
        let tr = t(&samples);
        assert_eq!(tr.peaks(5.0, 3).len(), 16);
    }

    #[test]
    fn peaks_respect_threshold() {
        let tr = t(&[1.0, 9.0, 1.0, 4.0, 1.0]);
        assert_eq!(tr.peaks(5.0, 1), vec![1]);
    }

    #[test]
    fn max_abs_and_rms() {
        let tr = t(&[-3.0, 4.0]);
        assert!((tr.max_abs() - 4.0).abs() < 1e-12);
        assert!((tr.rms() - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ascii_plot_renders() {
        let plot = t(&[1.0, 5.0, 1.0, 5.0]).ascii_plot(4, 3);
        assert!(plot.contains('█'));
        assert!(plot.contains("4 cycles"));
    }

    #[test]
    fn csv_round_trips() {
        let tr = t(&[1.5, 0.0, -2.25, 165.0]);
        let csv = tr.to_csv();
        assert!(csv.starts_with("cycle,pj\n"));
        assert_eq!(EnergyTrace::from_csv(&csv).unwrap(), tr);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(EnergyTrace::from_csv("cycle,pj\n0,notanumber\n").is_err());
        assert!(EnergyTrace::from_csv("justoneword\n").is_err());
    }

    #[test]
    fn empty_csv_is_empty_trace() {
        assert!(EnergyTrace::from_csv("cycle,pj\n").unwrap().is_empty());
    }

    #[test]
    fn display_summarizes() {
        let s = t(&[165.0; 100]).to_string();
        assert!(s.contains("100 cycles"));
        assert!(s.contains("165.0 pJ/cycle"));
    }

    proptest! {
        #[test]
        fn bucket_sums_preserve_total(samples in proptest::collection::vec(0.0f64..100.0, 1..200), width in 1usize..20) {
            let tr = EnergyTrace::from_samples(samples);
            let bucket_total: f64 = tr.bucketed(width).iter().sum();
            prop_assert!((bucket_total - tr.total_pj()).abs() < 1e-6);
        }

        #[test]
        fn diff_with_self_is_zero(samples in proptest::collection::vec(0.0f64..100.0, 0..100)) {
            let tr = EnergyTrace::from_samples(samples);
            prop_assert!(tr.diff(&tr).max_abs() < 1e-12);
        }
    }
}
