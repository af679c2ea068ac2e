//! Single-pass (online) attack statistics.
//!
//! A batch computation would buffer every trace — O(samples × trace_len)
//! memory — and then re-walk the whole set per subkey guess. Everything
//! the attacks actually need (pointwise means, variances,
//! difference-of-means, Welch's *t*, Pearson correlation) is expressible
//! as running sums, so this module provides streaming accumulators that
//! see each trace **once** and then drop it:
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
use std::borrow::Cow;
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
    #[cfg(test)]
    pub(crate) fn new() -> Self {
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

    /// The pointwise population variance (that of a batch two-pass
    /// computation; empty before the first push).
    pub fn variance(&self) -> Vec<f64> {
        if self.n == 0 {
            return Vec::new();
        }
        let n = self.n as f64;
        self.m2.iter().map(|m2| m2 / n).collect()
    }
}

/// Streaming two-group Welch-*t* for TVLA-style fixed-vs-random
/// assessments.
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

    /// The pointwise Welch *t* statistic: zeros unless both groups have
    /// at least two traces, zero where the pooled deviation vanishes. A
    /// NaN sample makes that cycle's statistic NaN rather than a plausible
    /// number.
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
/// retained trace set.
///
/// The last pushed block of at most 16 traces is kept as raw rows
/// and folded only when the next block arrives, when
/// [`merge`](OnlineDpa::merge) absorbs it into another accumulator, or
/// when [`result`](OnlineDpa::result) or equality needs the sums. A
/// shard of a sharded campaign ([`crate::dpa::recover_subkey`]) that sees
/// at most one block therefore never allocates sum vectors: the merge
/// folds its rows straight into the prefix. Folding and merging add in
/// the same order either way, so every sum is bit for bit what pushing
/// the traces one by one into a single accumulator would give.
///
/// The sum vectors share one buffer, allocated when the first block is
/// folded. A multibit accumulator over a 1-round window is then one
/// ~40 MB block, which goes back to the operating system when the
/// accumulator is dropped. 256 separate ~160 KB vectors would stay on
/// the allocator's free lists, in the arena of whichever thread had
/// allocated them, so a long-lived process that runs campaign after
/// campaign would keep more or less memory resident depending on thread
/// timing.
#[derive(Debug, Clone)]
pub struct OnlineDpa {
    sbox: usize,
    /// The bit whose per-guess peak cycles the result reports (matches
    /// the batch multibit convention).
    report_bit: usize,
    /// The analyzed output bits: `[report_bit]` or all four.
    bits: Vec<usize>,
    /// Traces folded into `total`, `n1` and `sum1` (the pending block
    /// not included).
    n: u64,
    /// Samples per trace; fixed by the first trace, 0 while empty.
    width: usize,
    /// Sum over all folded traces (shared by every guess's group 0);
    /// empty until a block is folded.
    total: Vec<f64>,
    /// Per (bit, guess): group-1 trace count, row-major `[bit][guess]`.
    n1: Vec<u64>,
    /// Per (bit, guess): the group-1 sum vector, `width` samples a slot,
    /// slots row-major `[bit][guess]`. A slot's samples hold a sum only
    /// while its `n1` is non-zero; before the slot's first trace (and
    /// after [`clear`](OnlineDpa::clear)) they are stale and never read.
    sum1: Vec<f64>,
    /// The plaintexts of the pending block: pushed, not yet folded.
    pending_plaintexts: Vec<u64>,
    /// The pending block's traces, `width` samples a row.
    pending: Vec<f64>,
}

/// The logical state: pending rows count as folded, and a slot without
/// traces reads as an empty sum, whatever its stale samples hold.
impl PartialEq for OnlineDpa {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.settled(), other.settled());
        (a.sbox, a.report_bit, &a.bits, a.n, &a.total, &a.n1)
            == (b.sbox, b.report_bit, &b.bits, b.n, &b.total, &b.n1)
            && (0..a.n1.len()).all(|slot| a.slot(slot) == b.slot(slot))
    }
}

/// The most traces an [`OnlineDpa`] keeps as raw rows: a pushed block of
/// at most this many waits, unfolded, for the next block or a merge, and
/// a longer one is folded at once. It is also the block a DPA shard
/// acquires before each push, so the 256 sum vectors (40 MB for a
/// 1-round window) stream through memory once per 16 traces, not per
/// trace, and a shard of at most 16 traces never allocates them.
pub(crate) const BLOCK: usize = 16;

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
    #[cfg(test)]
    pub(crate) fn single(sbox: usize, bit: usize) -> Self {
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
            width: 0,
            total: Vec::new(),
            n1: vec![0; slots],
            sum1: Vec::new(),
            pending_plaintexts: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Slot `slot`'s folded group-1 sum vector (empty when no folded
    /// trace falls in the slot).
    fn slot(&self, slot: usize) -> &[f64] {
        if self.n1[slot] == 0 {
            return &[];
        }
        &self.sum1[slot * self.width..][..self.width]
    }

    /// Number of traces pushed, folded or pending.
    fn pushed(&self) -> u64 {
        self.n + self.pending_plaintexts.len() as u64
    }

    /// Number of traces pushed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pushed() as usize
    }

    /// True when nothing was pushed yet.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pushed() == 0
    }

    /// Empties the accumulator but keeps its buffers, so a sharded
    /// campaign can hand it to the next shard without allocating (and
    /// page-faulting) another one. Afterwards it behaves bit for bit like
    /// a fresh accumulator of the same configuration.
    pub fn clear(&mut self) {
        self.n = 0;
        self.width = 0;
        self.total.clear();
        self.n1.fill(0);
        self.pending_plaintexts.clear();
        self.pending.clear();
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
    /// The block before this one is folded first. A block of at most
    /// [`BLOCK`] traces is then kept as raw rows, pending, and a longer
    /// one is folded at once. Each sum vector is walked once per block
    /// rather than once per trace: the kernel adds all of the block's
    /// selected traces to a tile of running sums held in registers. Every
    /// sum element still sees the same additions in the same (push)
    /// order, and a slot's first trace is still copied rather than added
    /// to `0.0`, so the sign of a zero survives.
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
        let width = if self.pushed() == 0 { first.as_ref().len() } else { self.width };
        if let Some(bad) = traces.iter().find(|t| t.as_ref().len() != width) {
            return Err(StatsError::WidthMismatch { expected: width, got: bad.as_ref().len() });
        }
        self.settle();
        self.width = width;
        if traces.len() <= BLOCK {
            self.pending_plaintexts.extend_from_slice(plaintexts);
            for t in traces {
                self.pending.extend_from_slice(t.as_ref());
            }
            return Ok(());
        }
        self.reserve_sums();
        for (ps, ts) in plaintexts.chunks(MASK_BITS).zip(traces.chunks(MASK_BITS)) {
            let rows: Vec<&[f64]> = ts.iter().map(AsRef::as_ref).collect();
            self.fold_block(ps, &rows);
        }
        Ok(())
    }

    /// Zeroes the sums before the first block is folded, allocating the
    /// sum buffer unless it is already the right size.
    fn reserve_sums(&mut self) {
        if self.n > 0 {
            return;
        }
        self.total.clear();
        self.total.resize(self.width, 0.0);
        let len = self.n1.len() * self.width;
        if self.sum1.len() != len {
            // Zeroed, so the pages of slots no trace reaches are never
            // touched.
            self.sum1 = vec![0.0; len];
        }
    }

    /// Folds the pending block, if any, into the sums.
    fn settle(&mut self) {
        if self.pending_plaintexts.is_empty() {
            return;
        }
        self.reserve_sums();
        let plaintexts = std::mem::take(&mut self.pending_plaintexts);
        let mut pending = std::mem::take(&mut self.pending);
        self.fold_block(&plaintexts, &rows(&pending, plaintexts.len(), self.width));
        pending.clear();
        self.pending = pending;
        self.pending_plaintexts = plaintexts;
        self.pending_plaintexts.clear();
    }

    /// This accumulator with its pending block folded: itself when
    /// nothing is pending, else a folded copy.
    fn settled(&self) -> Cow<'_, OnlineDpa> {
        if self.pending_plaintexts.is_empty() {
            return Cow::Borrowed(self);
        }
        let mut copy = self.clone();
        copy.settle();
        Cow::Owned(copy)
    }

    /// The selection masks of a block: bit `r` of `masks[slot]` is set
    /// when trace `r` (plaintext `plaintexts[r]`) falls in the slot's
    /// group 1. Slots past `n1.len()` stay zero.
    fn masks(&self, plaintexts: &[u64]) -> [u64; 4 * 64] {
        let mut masks = [0u64; 4 * 64];
        for (r, &p) in plaintexts.iter().enumerate() {
            let chunk = sbox_chunk(p, self.sbox);
            for guess in 0..64u8 {
                let s_out = sbox_lookup(self.sbox, chunk ^ guess);
                for (bi, &bit) in self.bits.iter().enumerate() {
                    if (s_out >> (3 - bit)) & 1 == 1 {
                        masks[bi * 64 + guess as usize] |= 1 << r;
                    }
                }
            }
        }
        masks
    }

    /// Folds at most [`MASK_BITS`] validated traces into the sums, which
    /// [`reserve_sums`](OnlineDpa::reserve_sums) has set up.
    fn fold_block(&mut self, plaintexts: &[u64], rows: &[&[f64]]) {
        let mut masks = self.masks(plaintexts);
        let masks = &mut masks[..self.n1.len()];
        self.n += rows.len() as u64;
        let width = self.width;
        for (slot, mask) in masks.iter_mut().enumerate() {
            // A slot's first trace is copied, not added to 0.0.
            let first = self.n1[slot] == 0;
            self.n1[slot] += u64::from(mask.count_ones());
            if *mask != 0 && first {
                let sum = &mut self.sum1[slot * width..][..width];
                sum.copy_from_slice(rows[mask.trailing_zeros() as usize]);
                *mask &= *mask - 1;
            }
        }
        let all = u64::MAX >> (MASK_BITS - rows.len());
        let tile_len = (TILE_BUDGET / rows.len()).next_multiple_of(LANES);
        let mut sel: [&[f64]; MASK_BITS] = [&[]; MASK_BITS];
        for start in (0..width).step_by(tile_len) {
            let tile = start..width.min(start + tile_len);
            add_rows(&mut self.total[tile.clone()], select(&mut sel, rows, all, &tile));
            for (sum, &mask) in self.sum1.chunks_exact_mut(width).zip(masks.iter()) {
                if mask != 0 {
                    add_rows(&mut sum[tile.clone()], select(&mut sel, rows, mask, &tile));
                }
            }
        }
    }

    /// Absorbs another accumulator of the same configuration.
    ///
    /// This accumulator's own pending block is folded first. `other`'s
    /// pending block is folded on the way in, a cache tile at a time: per
    /// slot, `other`'s folded sum (or else its first selected row) and
    /// its selected rows are added up in registers, and the result is
    /// added into this accumulator's sum. So every sum gets exactly the
    /// additions, in the same order, of folding `other` first and merging
    /// after, without writing `other`'s sums — an `other` with nothing
    /// folded never needs any.
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
        if other.pushed() == 0 {
            return Ok(());
        }
        if self.pushed() == 0 {
            *self = other.clone();
            return Ok(());
        }
        if self.width != other.width {
            return Err(StatsError::WidthMismatch { expected: self.width, got: other.width });
        }
        self.settle();
        let width = self.width;
        let pending = other.pending_plaintexts.len();
        let rows = rows(&other.pending, pending, width);
        let masks = other.masks(&other.pending_plaintexts);
        let masks = &masks[..self.n1.len()];
        // A pending block holds at most `BLOCK` < 64 rows.
        let all = (1u64 << pending) - 1;
        let tile_len = (TILE_BUDGET / pending.max(1)).next_multiple_of(LANES);
        let mut sel: [&[f64]; MASK_BITS] = [&[]; MASK_BITS];
        for at in (0..width).step_by(tile_len) {
            let tile = at..width.min(at + tile_len);
            // With nothing folded the total starts from 0.0, as a fold
            // starts it.
            let folded = (other.n > 0).then(|| &other.total[tile.clone()]);
            let selected = select(&mut sel, &rows, all, &tile);
            add_settled(&mut self.total[tile.clone()], folded, selected, false);
            for (slot, &mask) in masks.iter().enumerate() {
                let mut mask = mask;
                let first = if other.n1[slot] > 0 {
                    &other.slot(slot)[tile.clone()]
                } else if mask != 0 {
                    let row = &rows[mask.trailing_zeros() as usize][tile.clone()];
                    mask &= mask - 1;
                    row
                } else {
                    continue;
                };
                let sum = &mut self.sum1[slot * width..][tile.clone()];
                let selected = select(&mut sel, &rows, mask, &tile);
                add_settled(sum, Some(first), selected, self.n1[slot] == 0);
            }
        }
        self.n += other.pushed();
        for ((n1, &theirs), &mask) in self.n1.iter_mut().zip(&other.n1).zip(masks) {
            *n1 += theirs + u64::from(mask.count_ones());
        }
        Ok(())
    }

    /// The per-guess difference-of-means trace for one analyzed bit slot
    /// of a settled accumulator, mirroring the batch semantics: zeros
    /// when either group is empty.
    fn dom(&self, slot: usize) -> Vec<f64> {
        let n1 = self.n1[slot];
        let n0 = self.n - n1;
        if n1 == 0 || n0 == 0 {
            return vec![0.0; self.total.len()];
        }
        let sum1 = self.slot(slot);
        let (n0, n1) = (n0 as f64, n1 as f64);
        self.total.iter().zip(sum1).map(|(&tot, &s1)| s1 / n1 - (tot - s1) / n0).collect()
    }

    /// Finalizes the accumulated statistics into a [`DpaResult`]
    /// (per-guess peaks, best guess, margin), folding a pending block
    /// into a copy first.
    pub fn result(&self) -> DpaResult {
        let acc = self.settled();
        let mut peaks = [0.0f64; 64];
        let mut peak_cycles = [0usize; 64];
        for (bi, &bit) in acc.bits.iter().enumerate() {
            for guess in 0..64 {
                let (cycle, magnitude) = peak(&acc.dom(bi * 64 + guess));
                peaks[guess] += magnitude;
                if bit == acc.report_bit {
                    peak_cycles[guess] = cycle;
                }
            }
        }
        result_from_peaks(peaks, peak_cycles)
    }
}

/// The first `count` rows of `width` samples in `buf`.
fn rows(buf: &[f64], count: usize, width: usize) -> Vec<&[f64]> {
    (0..count).map(|r| &buf[r * width..][..width]).collect()
}

/// Adds to `out` the sum of `first` (`None`: `0.0`) and then `rows`, in
/// order, per element — or stores that sum in `out` when `replace`, so a
/// signed zero survives. The sum is built in registers, [`LANES`]
/// elements at a time, with the additions a fold makes in the same
/// order.
fn add_settled(out: &mut [f64], first: Option<&[f64]>, rows: &[&[f64]], replace: bool) {
    let body = out.len() - out.len() % LANES;
    for (c, chunk) in out[..body].chunks_exact_mut(LANES).enumerate() {
        let lanes = c * LANES..(c + 1) * LANES;
        let mut acc = [0.0f64; LANES];
        if let Some(first) = first {
            acc.copy_from_slice(&first[lanes.clone()]);
        }
        for row in rows {
            for (a, &v) in acc.iter_mut().zip(&row[lanes.clone()]) {
                *a += v;
            }
        }
        if replace {
            chunk.copy_from_slice(&acc);
        } else {
            for (o, a) in chunk.iter_mut().zip(acc) {
                *o += a;
            }
        }
    }
    for (j, o) in out.iter_mut().enumerate().skip(body) {
        let mut sum = first.map_or(0.0, |first| first[j]);
        for row in rows {
            sum += row[j];
        }
        *o = if replace { sum } else { *o + sum };
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

    /// True when nothing was folded in yet.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
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
    fn online_welch_t_propagates_nan_instead_of_hiding_it() {
        // The TVLA path's contract: a NaN sample poisons that cycle's t
        // (its mean and variance are NaN, and the `denom < eps` guard is
        // false for NaN) and leaves the other cycles finite.
        let mut ow = OnlineWelch::new();
        for r in [[1.0, f64::NAN], [2.0, f64::NAN]] {
            ow.g0.push(&r).unwrap();
        }
        for r in [[5.0, 1.0], [6.0, 2.0]] {
            ow.g1.push(&r).unwrap();
        }
        let t = ow.welch_t();
        assert!(t[0].is_finite(), "clean cycle stays finite: {t:?}");
        assert!(t[1].is_nan(), "NaN input must surface as NaN: {t:?}");
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
            acc.width = trace.len();
            acc.total = vec![0.0; trace.len()];
            acc.sum1 = vec![0.0; acc.n1.len() * trace.len()];
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
                    let sum = &mut acc.sum1[slot * trace.len()..][..trace.len()];
                    acc.n1[slot] += 1;
                    if acc.n1[slot] == 1 {
                        sum.copy_from_slice(trace);
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
            // `Debug` prints every float's exact value, sign of zero
            // included; the settled copies fold any pending rows.
            let expect = format!("{reference:?}");
            proptest::prop_assert_eq!(format!("{:?}", one_by_one.settled()), expect.clone());
            proptest::prop_assert_eq!(format!("{:?}", blocked.settled()), expect.clone());
            proptest::prop_assert_eq!(format!("{:?}", whole.settled()), expect);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn merging_pending_rows_equals_folding_them_first(
            before in 1usize..40,
            narrow in 1usize..20,
            wide in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // A shard pushed the way a campaign shard is, in blocks of
            // `BLOCK`, so its last block is pending, merged into a prefix
            // with a pending block of its own.
            let width = if wide { TILE_BUDGET / 16 - 12 + narrow } else { narrow };
            for shard in [1usize, 6, 16, 17, 40, 64, 65] {
                let (plaintexts, rows) = observations(before + shard, width, seed);
                let mut prefix = OnlineDpa::multibit(2, 1);
                prefix.push_block(&plaintexts[..before], &rows[..before]).unwrap();
                let mut part = OnlineDpa::multibit(2, 1);
                let (ps, rs) = (&plaintexts[before..], &rows[before..]);
                for (p, r) in ps.chunks(BLOCK).zip(rs.chunks(BLOCK)) {
                    part.push_block(p, r).unwrap();
                }
                proptest::prop_assert!(!part.pending_plaintexts.is_empty());
                let mut folded_first = prefix.clone();
                folded_first.merge(&part.settled()).unwrap();
                prefix.merge(&part).unwrap();
                proptest::prop_assert!(prefix.pending_plaintexts.is_empty());
                let (got, want) = (format!("{prefix:?}"), format!("{folded_first:?}"));
                proptest::prop_assert_eq!(got, want, "shard of {} traces", shard);
            }
        }
    }

    #[test]
    fn an_accumulator_of_at_most_one_block_holds_no_sums() {
        let (plaintexts, rows) = observations(BLOCK + 1, 40, 7);
        for traces in [1, BLOCK] {
            let mut shard = OnlineDpa::multibit(0, 0);
            shard.push_block(&plaintexts[..traces], &rows[..traces]).unwrap();
            assert_eq!(shard.len(), traces);
            assert_eq!((shard.sum1.capacity(), shard.total.capacity()), (0, 0), "{traces} traces");
            let mut prefix = OnlineDpa::multibit(0, 0);
            prefix.push_block(&plaintexts[traces..], &rows[traces..]).unwrap();
            prefix.merge(&shard).unwrap();
            assert_eq!(shard.sum1.capacity(), 0, "merging reads the rows, not sums");
            assert_eq!(prefix.len(), BLOCK + 1);
        }
        // A second block folds the first.
        let mut two = OnlineDpa::multibit(0, 0);
        two.push_block(&plaintexts[..1], &rows[..1]).unwrap();
        two.push_block(&plaintexts[1..2], &rows[1..2]).unwrap();
        assert_eq!(two.sum1.len(), 256 * 40);
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
        // At the same width the buffer keeps its stale sums: a slot
        // without traces must still read as empty.
        reused.clear();
        let mut again = OnlineDpa::multibit(3, 2);
        for acc in [&mut reused, &mut again] {
            acc.push(plaintexts[0], &narrow[0]).unwrap();
        }
        assert_eq!(reused, again);
        assert_eq!(format!("{:?}", reused.result()), format!("{:?}", again.result()));
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

/// Property tests pinning the single-pass accumulators (`Welford`,
/// `OnlineWelch`) to the batch statistics (`mean_trace`,
/// `variance_trace`, `welch_t`): for arbitrary trace sets — including the
/// single-row and constant-column degenerate shapes — Welford's streaming
/// mean/variance and the online Welch-*t* must agree with the two-pass
/// formulas to within 1e-9, and splitting a stream at any point and
/// merging the halves must agree with the unsplit stream.
#[cfg(test)]
mod proptests {
    use super::{OnlineWelch, Welford};
    use crate::stats::{mean_trace, variance_trace, welch_t, TraceMatrix};
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
}
