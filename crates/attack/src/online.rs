//! Single-pass (online) attack statistics.
//!
//! The batch pipeline in [`crate::stats`] buffers every trace in a
//! [`crate::stats::TraceMatrix`] — O(samples × trace_len) memory — and
//! then re-walks the whole set per subkey guess. Everything the attacks
//! actually need (pointwise means, variances, difference-of-means,
//! Welch's *t*, Pearson correlation) is expressible as running sums, so
//! this module provides streaming accumulators that see each trace
//! **once** and then drop it:
//!
//! * [`Welford`] — pointwise mean/variance via Welford's recurrence, with
//!   the Chan et al. pairwise `merge` for combining per-thread partials;
//! * [`OnlineWelch`] — a two-group [`Welford`] pair yielding the TVLA
//!   Welch-*t* statistic;
//! * [`OnlineDpa`] — the per-guess difference-of-means engine behind
//!   [`crate::dpa`], at O(guesses × trace_len) memory per accumulator
//!   independent of the sample count, with a blocked fold
//!   ([`OnlineDpa::push_block`]) that streams each sum once per block;
//! * [`OnlineCpa`] — the per-guess Pearson-correlation sums behind
//!   [`crate::cpa`], same memory bound.
//!
//! Every accumulator supports `merge`, and merging is deterministic: the
//! parallel drivers in `emask-par` merge shard accumulators in fixed shard
//! order (streamed into a running prefix as shards finish), so results
//! are bit-identical for any worker count.

use crate::cpa::CpaResult;
use crate::dpa::{result_from_peaks, sbox_chunk, DpaResult};
use crate::stats::{peak, StatsError};
use emask_des::sbox_lookup;
use std::ops::Range;

/// Pointwise streaming mean/variance over equal-length traces
/// (Welford's algorithm, one accumulator per cycle).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl Welford {
    /// An empty accumulator; the first pushed trace sets the width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of traces folded in.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when nothing was folded in yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Trace width (0 until the first push).
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// Folds one trace in.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when the trace length differs from
    /// the established width; the accumulator is left unchanged.
    pub fn push(&mut self, trace: &[f64]) -> Result<(), StatsError> {
        if self.n == 0 {
            self.mean = vec![0.0; trace.len()];
            self.m2 = vec![0.0; trace.len()];
        } else if trace.len() != self.mean.len() {
            return Err(StatsError::WidthMismatch { expected: self.mean.len(), got: trace.len() });
        }
        self.n += 1;
        let n = self.n as f64;
        for ((mean, m2), &v) in self.mean.iter_mut().zip(&mut self.m2).zip(trace) {
            let d = v - *mean;
            *mean += d / n;
            *m2 += d * (v - *mean);
        }
        Ok(())
    }

    /// Absorbs another accumulator (Chan et al. pairwise combination).
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when both accumulators are non-empty
    /// with different widths.
    pub fn merge(&mut self, other: &Welford) -> Result<(), StatsError> {
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            *self = other.clone();
            return Ok(());
        }
        if self.mean.len() != other.mean.len() {
            return Err(StatsError::WidthMismatch {
                expected: self.mean.len(),
                got: other.mean.len(),
            });
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        for i in 0..self.mean.len() {
            let delta = other.mean[i] - self.mean[i];
            self.mean[i] += delta * nb / n;
            self.m2[i] += other.m2[i] + delta * delta * na * nb / n;
        }
        self.n += other.n;
        Ok(())
    }

    /// The pointwise mean (empty before the first push).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The pointwise population variance (matches
    /// [`crate::stats::variance_trace`]; empty before the first push).
    pub fn variance(&self) -> Vec<f64> {
        if self.n == 0 {
            return Vec::new();
        }
        let n = self.n as f64;
        self.m2.iter().map(|m2| m2 / n).collect()
    }
}

/// Streaming two-group Welch-*t*: the online equivalent of
/// [`crate::stats::welch_t`] for TVLA-style fixed-vs-random assessments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineWelch {
    /// Group 0 (e.g. the fixed-key traces).
    pub g0: Welford,
    /// Group 1 (e.g. the random-key traces).
    pub g1: Welford,
}

impl OnlineWelch {
    /// An empty two-group accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs another accumulator, group by group.
    ///
    /// # Errors
    ///
    /// As for [`Welford::merge`].
    pub fn merge(&mut self, other: &OnlineWelch) -> Result<(), StatsError> {
        self.g0.merge(&other.g0)?;
        self.g1.merge(&other.g1)
    }

    /// The pointwise Welch *t* statistic, with the same guards as the
    /// batch [`crate::stats::welch_t`]: zeros unless both groups have at
    /// least two traces, zero where the pooled deviation vanishes.
    pub fn welch_t(&self) -> Vec<f64> {
        if self.g0.len() < 2 || self.g1.len() < 2 {
            return vec![0.0; self.g0.width().max(self.g1.width())];
        }
        let (n0, n1) = (self.g0.len() as f64, self.g1.len() as f64);
        let v0 = self.g0.variance();
        let v1 = self.g1.variance();
        self.g0
            .mean()
            .iter()
            .zip(self.g1.mean())
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
}

/// Single-pass difference-of-means DPA over one S-box.
///
/// For every trace, the selection bit of each of the 64 subkey guesses is
/// computed once (one S-box lookup per guess) and the trace is folded
/// into that guess's group-1 sum; the group-0 mean falls out of the
/// shared total sum. One accumulator holds O(bits × guesses × trace_len)
/// — one sum vector per (bit, guess) plus the total — whatever the number
/// of traces folded into it, unlike a batch difference of means over a
/// retained [`TraceMatrix`](crate::TraceMatrix). (A sharded campaign
/// holds several accumulators at once; see [`crate::dpa::recover_subkey`],
/// which folds its traces in blocks that walk each sum vector once per
/// block instead of once per trace.)
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineDpa {
    sbox: usize,
    /// The bit whose per-guess peak cycles the result reports (matches
    /// the batch multibit convention).
    report_bit: usize,
    /// The analyzed output bits: `[report_bit]` or all four.
    bits: Vec<usize>,
    n: u64,
    /// Sum over *all* traces (shared by every guess's group 0).
    total: Vec<f64>,
    /// Per (bit, guess): group-1 trace count, row-major `[bit][guess]`.
    n1: Vec<u64>,
    /// Per (bit, guess): group-1 sum vector, row-major `[bit][guess]`;
    /// empty until the slot's first trace.
    sum1: Vec<Vec<f64>>,
}

/// Traces folded per pass of the blocked kernel: one `u64` selection mask
/// per (bit, guess) slot. Longer blocks are folded in runs of this many.
const MASK_BITS: usize = 64;

/// Samples of every trace in a block that the blocked kernel keeps in
/// cache at once: a tile of `TILE_BUDGET / traces` samples per trace
/// (512 for a 16-trace block, 64 KiB in all) stays resident while the
/// per-slot sum tiles stream past it once each.
const TILE_BUDGET: usize = 16 * 512;

/// Running sums the kernel keeps in registers while it adds the selected
/// traces of a block.
const LANES: usize = 8;

impl OnlineDpa {
    /// Single-bit DPA on output `bit` of `sbox`.
    ///
    /// # Panics
    ///
    /// Panics if `sbox >= 8` or `bit >= 4`.
    pub fn single(sbox: usize, bit: usize) -> Self {
        Self::with_bits(sbox, bit, vec![bit])
    }

    /// Multi-bit DPA aggregating all four output bits of `sbox`, with
    /// peak cycles reported for `report_bit` — the accumulator of
    /// [`crate::dpa::recover_subkey`].
    ///
    /// # Panics
    ///
    /// Panics if `sbox >= 8` or `report_bit >= 4`.
    pub fn multibit(sbox: usize, report_bit: usize) -> Self {
        Self::with_bits(sbox, report_bit, vec![0, 1, 2, 3])
    }

    fn with_bits(sbox: usize, report_bit: usize, bits: Vec<usize>) -> Self {
        assert!(sbox < 8 && report_bit < 4);
        let slots = bits.len() * 64;
        OnlineDpa {
            sbox,
            report_bit,
            bits,
            n: 0,
            total: Vec::new(),
            n1: vec![0; slots],
            sum1: vec![Vec::new(); slots],
        }
    }

    /// Number of traces folded in.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when nothing was folded in yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Empties the accumulator but keeps its buffers, so a sharded
    /// campaign can hand it to the next shard without allocating (and
    /// page-faulting) another one. Afterwards it behaves bit for bit like
    /// a fresh accumulator of the same configuration.
    pub fn clear(&mut self) {
        self.n = 0;
        self.total.clear();
        self.n1.fill(0);
        for sum in &mut self.sum1 {
            sum.clear();
        }
    }

    /// Folds one `(plaintext, trace)` observation in: the one-trace case
    /// of the blocked fold that DPA campaigns use.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when the trace length differs from
    /// the established width; the accumulator is left unchanged.
    pub fn push(&mut self, plaintext: u64, trace: &[f64]) -> Result<(), StatsError> {
        self.push_block(&[plaintext], &[trace])
    }

    /// Folds a block of `(plaintexts[i], traces[i])` observations in, with
    /// exactly the float result of pushing them one by one in order.
    ///
    /// Each sum vector is walked once per block rather than once per
    /// trace: the kernel adds all of the block's selected traces to a
    /// tile of running sums held in registers. Every sum element still
    /// sees the same additions in the same (push) order, and a slot's
    /// first trace is still copied rather than added to `0.0`, so the
    /// sign of a zero survives.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when any trace length differs from
    /// the established width (or, on an empty accumulator, from the
    /// block's first trace); the accumulator is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `plaintexts` and `traces` differ in length.
    pub(crate) fn push_block<T: AsRef<[f64]>>(
        &mut self,
        plaintexts: &[u64],
        traces: &[T],
    ) -> Result<(), StatsError> {
        assert_eq!(plaintexts.len(), traces.len(), "one plaintext per trace");
        let Some(first) = traces.first() else { return Ok(()) };
        let width = if self.n == 0 { first.as_ref().len() } else { self.total.len() };
        if let Some(bad) = traces.iter().find(|t| t.as_ref().len() != width) {
            return Err(StatsError::WidthMismatch { expected: width, got: bad.as_ref().len() });
        }
        if self.n == 0 {
            self.total.resize(width, 0.0);
        }
        for (ps, ts) in plaintexts.chunks(MASK_BITS).zip(traces.chunks(MASK_BITS)) {
            self.fold_block(ps, ts);
        }
        Ok(())
    }

    /// [`push_block`](OnlineDpa::push_block) on at most [`MASK_BITS`]
    /// validated traces.
    fn fold_block<T: AsRef<[f64]>>(&mut self, plaintexts: &[u64], traces: &[T]) {
        let mut rows: [&[f64]; MASK_BITS] = [&[]; MASK_BITS];
        for (row, t) in rows.iter_mut().zip(traces) {
            *row = t.as_ref();
        }
        let rows = &rows[..traces.len()];
        // Bit r of masks[slot] set: trace r falls in the slot's group 1.
        let mut masks = [0u64; 4 * 64];
        let masks = &mut masks[..self.n1.len()];
        for (r, &p) in plaintexts.iter().enumerate() {
            let chunk = sbox_chunk(p, self.sbox);
            for guess in 0..64u8 {
                let s_out = sbox_lookup(self.sbox, chunk ^ guess);
                for (bi, &bit) in self.bits.iter().enumerate() {
                    if (s_out >> (3 - bit)) & 1 == 1 {
                        let slot = bi * 64 + guess as usize;
                        masks[slot] |= 1 << r;
                        self.n1[slot] += 1;
                    }
                }
            }
        }
        self.n += rows.len() as u64;
        for (sum, mask) in self.sum1.iter_mut().zip(masks.iter_mut()) {
            // A slot's first trace is copied, not added to 0.0.
            if *mask != 0 && sum.is_empty() {
                sum.extend_from_slice(rows[mask.trailing_zeros() as usize]);
                *mask &= *mask - 1;
            }
        }
        let all = u64::MAX >> (MASK_BITS - rows.len());
        let width = self.total.len();
        let tile_len = (TILE_BUDGET / rows.len()).next_multiple_of(LANES);
        let mut sel: [&[f64]; MASK_BITS] = [&[]; MASK_BITS];
        for start in (0..width).step_by(tile_len) {
            let tile = start..width.min(start + tile_len);
            add_rows(&mut self.total[tile.clone()], select(&mut sel, rows, all, &tile));
            for (sum, &mask) in self.sum1.iter_mut().zip(masks.iter()) {
                if mask != 0 {
                    add_rows(&mut sum[tile.clone()], select(&mut sel, rows, mask, &tile));
                }
            }
        }
    }

    /// Absorbs another accumulator of the same configuration.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when both accumulators are non-empty
    /// with different trace widths.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators target different S-boxes or bits —
    /// that is a driver bug, not a data condition.
    pub fn merge(&mut self, other: &OnlineDpa) -> Result<(), StatsError> {
        assert!(
            self.sbox == other.sbox && self.bits == other.bits,
            "merging differently-configured DPA accumulators"
        );
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            *self = other.clone();
            return Ok(());
        }
        if self.total.len() != other.total.len() {
            return Err(StatsError::WidthMismatch {
                expected: self.total.len(),
                got: other.total.len(),
            });
        }
        self.n += other.n;
        for (t, &v) in self.total.iter_mut().zip(&other.total) {
            *t += v;
        }
        for slot in 0..self.n1.len() {
            self.n1[slot] += other.n1[slot];
            let (sum, theirs) = (&mut self.sum1[slot], &other.sum1[slot]);
            if sum.is_empty() {
                sum.extend_from_slice(theirs);
            } else {
                for (s, &v) in sum.iter_mut().zip(theirs) {
                    *s += v;
                }
            }
        }
        Ok(())
    }

    /// The per-guess difference-of-means trace for one analyzed bit slot,
    /// mirroring the batch semantics: zeros when either group is empty.
    fn dom(&self, slot: usize) -> Vec<f64> {
        let n1 = self.n1[slot];
        let n0 = self.n - n1;
        if n1 == 0 || n0 == 0 {
            return vec![0.0; self.total.len()];
        }
        let sum1 = &self.sum1[slot];
        let (n0, n1) = (n0 as f64, n1 as f64);
        self.total.iter().zip(sum1).map(|(&tot, &s1)| s1 / n1 - (tot - s1) / n0).collect()
    }

    /// Finalizes the accumulated statistics into a [`DpaResult`]
    /// (per-guess peaks, best guess, margin).
    pub fn result(&self) -> DpaResult {
        let mut peaks = [0.0f64; 64];
        let mut peak_cycles = [0usize; 64];
        for (bi, &bit) in self.bits.iter().enumerate() {
            for guess in 0..64 {
                let (cycle, magnitude) = peak(&self.dom(bi * 64 + guess));
                peaks[guess] += magnitude;
                if bit == self.report_bit {
                    peak_cycles[guess] = cycle;
                }
            }
        }
        result_from_peaks(peaks, peak_cycles)
    }
}

/// The `tile` of each row selected by `mask` (bit `r` for `rows[r]`), in
/// row order, written to the front of `sel`.
fn select<'s, 'a>(
    sel: &'s mut [&'a [f64]; MASK_BITS],
    rows: &[&'a [f64]],
    mut mask: u64,
    tile: &Range<usize>,
) -> &'s [&'a [f64]] {
    let mut k = 0;
    while mask != 0 {
        sel[k] = &rows[mask.trailing_zeros() as usize][tile.clone()];
        k += 1;
        mask &= mask - 1;
    }
    &sel[..k]
}

/// Adds `rows`, in order, to `out`.
///
/// Each run of [`LANES`] sums stays in registers while every row is added
/// to it, so per element the additions happen in row order — the order
/// one-by-one pushes would make them.
fn add_rows(out: &mut [f64], rows: &[&[f64]]) {
    let body = out.len() - out.len() % LANES;
    for (c, chunk) in out[..body].chunks_exact_mut(LANES).enumerate() {
        let mut acc = [0.0f64; LANES];
        acc.copy_from_slice(chunk);
        for row in rows {
            for (a, &v) in acc.iter_mut().zip(&row[c * LANES..(c + 1) * LANES]) {
                *a += v;
            }
        }
        chunk.copy_from_slice(&acc);
    }
    for (j, s) in out.iter_mut().enumerate().skip(body) {
        for row in rows {
            *s += row[j];
        }
    }
}

/// Single-pass Hamming-weight CPA over one S-box.
///
/// Keeps the per-cycle trace sums shared across guesses and one
/// cross-moment vector per guess — O(guesses × trace_len), independent of
/// the sample count. Finalizing evaluates Pearson's r between the
/// predicted Hamming weight and every cycle, per guess.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineCpa {
    sbox: usize,
    n: u64,
    sum_t: Vec<f64>,
    sum_t2: Vec<f64>,
    /// Per guess: Σh, Σh², Σh·t (the model moments and cross-moments).
    sum_h: [f64; 64],
    sum_h2: [f64; 64],
    sum_ht: Vec<Vec<f64>>,
}

impl OnlineCpa {
    /// An empty accumulator targeting `sbox`.
    ///
    /// # Panics
    ///
    /// Panics if `sbox >= 8`.
    pub fn new(sbox: usize) -> Self {
        assert!(sbox < 8);
        OnlineCpa {
            sbox,
            n: 0,
            sum_t: Vec::new(),
            sum_t2: Vec::new(),
            sum_h: [0.0; 64],
            sum_h2: [0.0; 64],
            sum_ht: vec![Vec::new(); 64],
        }
    }

    /// Number of traces folded in.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when nothing was folded in yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Folds one `(plaintext, trace)` observation in.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when the trace length differs from
    /// the established width; the accumulator is left unchanged.
    pub fn push(&mut self, plaintext: u64, trace: &[f64]) -> Result<(), StatsError> {
        if self.n == 0 {
            self.sum_t = vec![0.0; trace.len()];
            self.sum_t2 = vec![0.0; trace.len()];
            for s in &mut self.sum_ht {
                *s = vec![0.0; trace.len()];
            }
        } else if trace.len() != self.sum_t.len() {
            return Err(StatsError::WidthMismatch { expected: self.sum_t.len(), got: trace.len() });
        }
        self.n += 1;
        for ((st, st2), &v) in self.sum_t.iter_mut().zip(&mut self.sum_t2).zip(trace) {
            *st += v;
            *st2 += v * v;
        }
        let chunk = sbox_chunk(plaintext, self.sbox);
        for guess in 0..64u8 {
            let h = f64::from(sbox_lookup(self.sbox, chunk ^ guess).count_ones());
            let g = guess as usize;
            self.sum_h[g] += h;
            self.sum_h2[g] += h * h;
            if h != 0.0 {
                for (s, &v) in self.sum_ht[g].iter_mut().zip(trace) {
                    *s += h * v;
                }
            }
        }
        Ok(())
    }

    /// Absorbs another accumulator of the same configuration.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when both accumulators are non-empty
    /// with different trace widths.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators target different S-boxes.
    pub fn merge(&mut self, other: &OnlineCpa) -> Result<(), StatsError> {
        assert!(self.sbox == other.sbox, "merging differently-configured CPA accumulators");
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            *self = other.clone();
            return Ok(());
        }
        if self.sum_t.len() != other.sum_t.len() {
            return Err(StatsError::WidthMismatch {
                expected: self.sum_t.len(),
                got: other.sum_t.len(),
            });
        }
        self.n += other.n;
        for (s, &v) in self.sum_t.iter_mut().zip(&other.sum_t) {
            *s += v;
        }
        for (s, &v) in self.sum_t2.iter_mut().zip(&other.sum_t2) {
            *s += v;
        }
        for g in 0..64 {
            self.sum_h[g] += other.sum_h[g];
            self.sum_h2[g] += other.sum_h2[g];
            for (s, &v) in self.sum_ht[g].iter_mut().zip(&other.sum_ht[g]) {
                *s += v;
            }
        }
        Ok(())
    }

    /// Finalizes the accumulated sums into a [`CpaResult`] via the same
    /// Pearson formula and guards as the batch path.
    pub fn result(&self) -> CpaResult {
        let n = self.n as f64;
        let width = self.sum_t.len();
        let mut peaks = [0.0f64; 64];
        let mut peak_cycles = [0usize; 64];
        for g in 0..64 {
            let var_h = self.sum_h2[g] - self.sum_h[g] * self.sum_h[g] / n;
            if var_h < 1e-12 {
                continue; // degenerate model (all predictions equal)
            }
            let mut best = (0usize, 0.0f64);
            for j in 0..width {
                let cov = self.sum_ht[g][j] - self.sum_h[g] * self.sum_t[j] / n;
                let var_t = self.sum_t2[j] - self.sum_t[j] * self.sum_t[j] / n;
                if var_t < 1e-12 {
                    continue;
                }
                let r = (cov / (var_h * var_t).sqrt()).abs();
                if r > best.1 {
                    best = (j, r);
                }
            }
            peaks[g] = best.1;
            peak_cycles[g] = best.0;
        }
        let (best_guess, margin) = crate::dpa::verdict(&peaks);
        CpaResult { peaks, peak_cycles, best_guess, margin }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stats::{mean_trace, variance_trace, welch_t, TraceMatrix};

    fn matrix(rows: &[&[f64]]) -> TraceMatrix {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn welford_matches_batch_mean_and_variance() {
        let rows: Vec<Vec<f64>> =
            vec![vec![1.0, -2.0, 3.5], vec![0.5, 7.0, -1.0], vec![2.5, 0.0, 4.0]];
        let batch: TraceMatrix = rows.iter().cloned().collect();
        let mut w = Welford::new();
        for r in &rows {
            w.push(r).unwrap();
        }
        assert_eq!(w.len(), 3);
        assert!(close(w.mean(), &mean_trace(&batch), 1e-12));
        assert!(close(&w.variance(), &variance_trace(&batch), 1e-12));
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i * i) as f64 * 0.1]).collect();
        let mut whole = Welford::new();
        for r in &rows {
            whole.push(r).unwrap();
        }
        let (mut a, mut b) = (Welford::new(), Welford::new());
        for r in &rows[..3] {
            a.push(r).unwrap();
        }
        for r in &rows[3..] {
            b.push(r).unwrap();
        }
        a.merge(&b).unwrap();
        assert_eq!(a.len(), whole.len());
        assert!(close(a.mean(), whole.mean(), 1e-9));
        assert!(close(&a.variance(), &whole.variance(), 1e-9));
        // Merging into/from empty is the identity.
        let mut empty = Welford::new();
        empty.merge(&whole).unwrap();
        assert_eq!(empty, whole);
        whole.merge(&Welford::new()).unwrap();
        assert_eq!(empty, whole);
    }

    #[test]
    fn welford_width_mismatch_is_typed() {
        let mut w = Welford::new();
        w.push(&[1.0, 2.0]).unwrap();
        assert_eq!(w.push(&[1.0]), Err(StatsError::WidthMismatch { expected: 2, got: 1 }));
        let mut other = Welford::new();
        other.push(&[1.0]).unwrap();
        assert!(w.merge(&other).is_err());
    }

    #[test]
    fn online_welch_matches_batch() {
        let g0 = matrix(&[&[0.0, 1.0], &[0.1, 2.0], &[-0.1, 3.0], &[0.05, 4.0]]);
        let g1 = matrix(&[&[10.0, 2.0], &[10.1, 3.0], &[9.9, 1.0], &[10.05, 4.0]]);
        let mut ow = OnlineWelch::new();
        for r in g0.rows() {
            ow.g0.push(r).unwrap();
        }
        for r in g1.rows() {
            ow.g1.push(r).unwrap();
        }
        assert!(close(&ow.welch_t(), &welch_t(&g0, &g1), 1e-9));
    }

    #[test]
    fn online_welch_small_group_guard_matches_batch() {
        let mut ow = OnlineWelch::new();
        ow.g0.push(&[1.0, 2.0]).unwrap();
        ow.g1.push(&[3.0, 4.0]).unwrap();
        assert_eq!(ow.welch_t(), vec![0.0, 0.0]);
    }

    #[test]
    fn online_dpa_single_bit_matches_batch_analysis() {
        use crate::dpa::{analyze_bit, selection_bit};
        let plaintexts: Vec<u64> =
            (0..40u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let traces: Vec<Vec<f64>> = plaintexts
            .iter()
            .map(|&p| {
                let b = selection_bit(p, 0x2A, 2, 1);
                vec![(p % 11) as f64, 100.0 + if b { 7.0 } else { 0.0 }]
            })
            .collect();
        let (peaks, cycles) = analyze_bit(&plaintexts, &traces, 2, 1);
        let mut acc = OnlineDpa::single(2, 1);
        for (p, t) in plaintexts.iter().zip(&traces) {
            acc.push(*p, t).unwrap();
        }
        let r = acc.result();
        for g in 0..64 {
            assert!((r.peaks[g] - peaks[g]).abs() < 1e-9, "guess {g}");
            assert_eq!(r.peak_cycles[g], cycles[g], "guess {g}");
        }
    }

    #[test]
    fn online_dpa_merge_is_order_of_shards() {
        let plaintexts: Vec<u64> =
            (0..30u64).map(|i| i.wrapping_mul(0xABCD_EF12_3456_789B)).collect();
        let trace = |p: u64| vec![(p % 13) as f64, (p % 7) as f64];
        let mut whole = OnlineDpa::multibit(0, 0);
        for &p in &plaintexts {
            whole.push(p, &trace(p)).unwrap();
        }
        let (mut a, mut b) = (OnlineDpa::multibit(0, 0), OnlineDpa::multibit(0, 0));
        for &p in &plaintexts[..11] {
            a.push(p, &trace(p)).unwrap();
        }
        for &p in &plaintexts[11..] {
            b.push(p, &trace(p)).unwrap();
        }
        a.merge(&b).unwrap();
        assert_eq!(a.len(), whole.len());
        let (ra, rw) = (a.result(), whole.result());
        assert_eq!(ra.best_guess, rw.best_guess);
        for g in 0..64 {
            assert!((ra.peaks[g] - rw.peaks[g]).abs() < 1e-9);
        }
    }

    /// The batch CPA reference: Pearson's r per guess and cycle over the
    /// whole retained trace set, peak |r| and its cycle per guess.
    fn batch_cpa(plaintexts: &[u64], traces: &[Vec<f64>], sbox: usize) -> ([f64; 64], [usize; 64]) {
        let n = plaintexts.len() as f64;
        let width = traces[0].len();
        let column = |j: usize| traces.iter().map(move |t| t[j]);
        let mut peaks = [0.0f64; 64];
        let mut peak_cycles = [0usize; 64];
        for guess in 0..64u8 {
            let hw: Vec<f64> = plaintexts
                .iter()
                .map(|&p| f64::from(crate::cpa::predicted_hamming_weight(p, guess, sbox)))
                .collect();
            let (sum_h, sum_h2) = (hw.iter().sum::<f64>(), hw.iter().map(|h| h * h).sum::<f64>());
            let var_h = sum_h2 - sum_h * sum_h / n;
            if var_h < 1e-12 {
                continue;
            }
            for j in 0..width {
                let (sum_t, sum_t2) =
                    (column(j).sum::<f64>(), column(j).map(|v| v * v).sum::<f64>());
                let sum_ht: f64 = hw.iter().zip(column(j)).map(|(h, v)| h * v).sum();
                let var_t = sum_t2 - sum_t * sum_t / n;
                if var_t < 1e-12 {
                    continue;
                }
                let r = ((sum_ht - sum_h * sum_t / n) / (var_h * var_t).sqrt()).abs();
                if r > peaks[guess as usize] {
                    peaks[guess as usize] = r;
                    peak_cycles[guess as usize] = j;
                }
            }
        }
        (peaks, peak_cycles)
    }

    #[test]
    fn online_cpa_matches_batch_result() {
        let plaintexts: Vec<u64> = (0..64u64).map(|i| crate::dpa::plaintext_for(99, i)).collect();
        let oracle = |p: u64| {
            let chunk = sbox_chunk(p, 3);
            let h = f64::from(sbox_lookup(3, chunk ^ 0x15).count_ones());
            vec![50.0 + (p % 9) as f64, 100.0 + 4.0 * h]
        };
        let traces: Vec<Vec<f64>> = plaintexts.iter().map(|&p| oracle(p)).collect();
        let (peaks, cycles) = batch_cpa(&plaintexts, &traces, 3);
        let mut acc = OnlineCpa::new(3);
        for (&p, t) in plaintexts.iter().zip(&traces) {
            acc.push(p, t).unwrap();
        }
        let online = acc.result();
        assert_eq!(online.best_guess, crate::dpa::verdict(&peaks).0);
        for g in 0..64 {
            assert!((online.peaks[g] - peaks[g]).abs() < 1e-9, "guess {g}");
            assert_eq!(online.peak_cycles[g], cycles[g], "guess {g}");
        }
        assert_eq!(online.best_guess, 0x15, "the leak's subkey wins");
    }

    #[test]
    fn online_accumulators_report_width_mismatches() {
        let mut dpa = OnlineDpa::single(0, 0);
        dpa.push(1, &[1.0, 2.0]).unwrap();
        assert_eq!(dpa.push(2, &[1.0]), Err(StatsError::WidthMismatch { expected: 2, got: 1 }));
        // A mismatch anywhere in a block rejects the whole block.
        let before = format!("{dpa:?}");
        for bad in 0..3 {
            let mut block = vec![vec![3.0, -0.0]; 3];
            block[bad] = vec![5.0];
            let err = dpa.push_block(&[7, 8, 9], &block);
            assert_eq!(err, Err(StatsError::WidthMismatch { expected: 2, got: 1 }), "bad = {bad}");
            assert_eq!(format!("{dpa:?}"), before, "bad = {bad}: accumulator changed");
        }
        // On an empty accumulator the block's first trace sets the width.
        let mut empty = OnlineDpa::multibit(0, 0);
        let err = empty.push_block(&[1, 2], &[vec![1.0, 2.0], vec![1.0]]);
        assert_eq!(err, Err(StatsError::WidthMismatch { expected: 2, got: 1 }));
        assert_eq!(empty, OnlineDpa::multibit(0, 0));
        let mut cpa = OnlineCpa::new(0);
        cpa.push(1, &[1.0, 2.0]).unwrap();
        assert_eq!(cpa.push(2, &[1.0]), Err(StatsError::WidthMismatch { expected: 2, got: 1 }));
    }

    /// The per-trace fold as it was before the blocked kernel: the
    /// reference every blocked fold must match bit for bit.
    fn reference_push(acc: &mut OnlineDpa, plaintext: u64, trace: &[f64]) {
        if acc.n == 0 {
            acc.total = vec![0.0; trace.len()];
        }
        acc.n += 1;
        for (t, &v) in acc.total.iter_mut().zip(trace) {
            *t += v;
        }
        let chunk = sbox_chunk(plaintext, acc.sbox);
        for guess in 0..64u8 {
            let s_out = sbox_lookup(acc.sbox, chunk ^ guess);
            for (bi, &bit) in acc.bits.iter().enumerate() {
                if (s_out >> (3 - bit)) & 1 == 1 {
                    let slot = bi * 64 + guess as usize;
                    acc.n1[slot] += 1;
                    let sum = &mut acc.sum1[slot];
                    if sum.is_empty() {
                        *sum = trace.to_vec();
                    } else {
                        for (s, &v) in sum.iter_mut().zip(trace) {
                            *s += v;
                        }
                    }
                }
            }
        }
    }

    /// Values a DPA sum must not disturb: signed zeros (a slot's first
    /// trace is copied, so `-0.0` survives; adding it to `0.0` would not),
    /// subnormals, and magnitudes far enough apart that any reordered
    /// addition changes the bits.
    const PALETTE: [f64; 9] = [0.0, -0.0, 5e-324, -1e-310, 2.5e-309, 1.0, -3.5, 1e16, 0.1];

    /// A SplitMix64 stream: each case draws its (many) samples from one
    /// seed instead of a pool sized for the widest trace.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `traces` plaintexts and `width`-sample traces, half of the samples
    /// from [`PALETTE`], the rest spread over ±1e3.
    fn observations(traces: usize, width: usize, seed: u64) -> (Vec<u64>, Vec<Vec<f64>>) {
        let mut state = seed;
        let plaintexts = (0..traces).map(|_| splitmix(&mut state)).collect();
        let rows = (0..traces)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        let r = splitmix(&mut state);
                        match (r % (2 * PALETTE.len() as u64)) as usize {
                            i if i < PALETTE.len() => PALETTE[i],
                            _ => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e3,
                        }
                    })
                    .collect()
            })
            .collect();
        (plaintexts, rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn push_block_is_bitwise_equal_to_per_trace_pushes(
            traces in 1usize..70,
            narrow in 1usize..20,
            wide in proptest::prelude::any::<bool>(),
            block in 1usize..41,
            lead in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Widths off the lane grid; wide ones cross a cache tile. Up
            // to 69 traces: one block can need two selection masks.
            let width = if wide { TILE_BUDGET / 16 - 12 + narrow } else { narrow };
            let (plaintexts, rows) = observations(traces, width, seed);
            let mut reference = OnlineDpa::multibit(2, 1);
            let mut one_by_one = OnlineDpa::multibit(2, 1);
            for (&p, r) in plaintexts.iter().zip(&rows) {
                reference_push(&mut reference, p, r);
                one_by_one.push(p, r).unwrap();
            }
            // A few single pushes first, so blocks meet slots both empty
            // and holding a sum, and first-touch some of them mid-block.
            let lead = lead.min(traces);
            let mut blocked = OnlineDpa::multibit(2, 1);
            for (&p, r) in plaintexts[..lead].iter().zip(&rows[..lead]) {
                blocked.push(p, r).unwrap();
            }
            for (ps, rs) in plaintexts[lead..].chunks(block).zip(rows[lead..].chunks(block)) {
                blocked.push_block(ps, rs).unwrap();
            }
            let mut whole = OnlineDpa::multibit(2, 1);
            whole.push_block(&plaintexts, &rows).unwrap();
            // `Debug` prints every float's exact value, sign of zero included.
            let expect = format!("{reference:?}");
            proptest::prop_assert_eq!(format!("{one_by_one:?}"), expect.clone());
            proptest::prop_assert_eq!(format!("{blocked:?}"), expect.clone());
            proptest::prop_assert_eq!(format!("{whole:?}"), expect);
        }
    }

    #[test]
    fn cleared_dpa_accumulator_behaves_like_a_fresh_one() {
        let plaintexts: Vec<u64> =
            (0..21u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let wide: Vec<Vec<f64>> =
            plaintexts.iter().map(|&p| vec![-0.0, (p % 5) as f64, 1e-310, 3.0, 0.5]).collect();
        let narrow: Vec<Vec<f64>> =
            plaintexts.iter().map(|&p| vec![(p % 7) as f64 - 3.0, -0.0, 5e-324]).collect();
        let mut reused = OnlineDpa::multibit(3, 2);
        reused.push_block(&plaintexts, &wide).unwrap();
        reused.clear();
        assert_eq!(reused, OnlineDpa::multibit(3, 2));
        assert!(reused.is_empty());
        // Same behaviour afterwards, bit for bit — at a new width too.
        let mut fresh = OnlineDpa::multibit(3, 2);
        for acc in [&mut reused, &mut fresh] {
            acc.push_block(&plaintexts[..9], &narrow[..9]).unwrap();
            acc.push(plaintexts[9], &narrow[9]).unwrap();
        }
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        let mut rest = OnlineDpa::multibit(3, 2);
        rest.push_block(&plaintexts[10..], &narrow[10..]).unwrap();
        reused.merge(&rest).unwrap();
        fresh.merge(&rest).unwrap();
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn empty_accumulators_finalize_calmly() {
        let dpa = OnlineDpa::multibit(0, 0);
        assert!(dpa.is_empty());
        let r = dpa.result();
        assert!(r.peaks.iter().all(|&p| p == 0.0));
        assert!((r.margin - 1.0).abs() < 1e-12);
        let cpa = OnlineCpa::new(0);
        assert!(cpa.is_empty());
        let r = cpa.result();
        assert!(r.peaks.iter().all(|&p| p == 0.0));
    }
}
