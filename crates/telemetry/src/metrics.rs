//! The metrics registry: the instruction mix, a per-cycle energy
//! histogram and phase-attributed energy accounting over one simulated
//! run, beside the run's own statistics.

use emask_cpu::{CycleActivity, RunResult};
use emask_energy::{ComponentEnergy, CycleEnergy};
use emask_isa::OpClass;

/// All instruction classes, in a fixed reporting order.
pub const OP_CLASSES: [OpClass; 8] = [
    OpClass::AluReg,
    OpClass::AluImm,
    OpClass::ShiftImm,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
    OpClass::Jump,
    OpClass::Halt,
];

/// A short stable name for an instruction class (used in reports).
pub(crate) fn op_class_name(class: OpClass) -> &'static str {
    match class {
        OpClass::AluReg => "alu_reg",
        OpClass::AluImm => "alu_imm",
        OpClass::ShiftImm => "shift_imm",
        OpClass::Load => "load",
        OpClass::Store => "store",
        OpClass::Branch => "branch",
        OpClass::Jump => "jump",
        OpClass::Halt => "halt",
    }
}

fn op_class_index(class: OpClass) -> usize {
    OP_CLASSES.iter().position(|&c| c == class).expect("class in table")
}

/// A fixed-width linear histogram with an overflow bucket.
///
/// Buckets are half-open `[k·width, (k+1)·width)`: a sample exactly on a
/// boundary lands in the *upper* bucket. Negative samples clamp into
/// bucket 0; samples past the last bucket — and non-finite samples,
/// which carry no usable magnitude — land in the overflow bucket.
/// Non-finite samples are kept out of `sum`/`min`/`max`, so one poisoned
/// cycle cannot corrupt the whole distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    n: u64,
    /// Finite samples only — the denominator for [`Histogram::mean`].
    finite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram of `buckets` bins, each `width` wide, starting at 0.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive or `buckets` is 0.
    pub fn new(width: f64, buckets: usize) -> Self {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            width,
            counts: vec![0; buckets],
            overflow: 0,
            n: 0,
            finite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample (negative samples land in bucket 0, boundary
    /// samples in the upper bucket, non-finite samples in overflow; all
    /// counters saturate instead of wrapping).
    pub fn record(&mut self, value: f64) {
        self.n = self.n.saturating_add(1);
        if !value.is_finite() {
            self.overflow = self.overflow.saturating_add(1);
            return;
        }
        // The float cast saturates, so a huge value/width lands in
        // overflow rather than wrapping into a live bucket.
        let idx = (value / self.width).floor().max(0.0) as usize;
        if idx < self.counts.len() {
            self.counts[idx] = self.counts[idx].saturating_add(1);
        } else {
            self.overflow = self.overflow.saturating_add(1);
        }
        self.finite = self.finite.saturating_add(1);
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Per-bucket counts (overflow excluded).
    #[cfg(test)]
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples beyond the last bucket.
    #[cfg(test)]
    pub(crate) fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of recorded samples (finite or not).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of finite recorded samples — the population behind
    /// [`Histogram::mean`], [`Histogram::min`] and [`Histogram::max`].
    #[cfg(test)]
    pub(crate) fn finite_count(&self) -> u64 {
        self.finite
    }

    /// Mean of the finite recorded samples (0 when none).
    pub fn mean(&self) -> f64 {
        if self.finite == 0 {
            0.0
        } else {
            self.sum / self.finite as f64
        }
    }

    /// Smallest finite recorded sample (0 when none).
    pub fn min(&self) -> f64 {
        if self.finite == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest finite recorded sample (0 when none).
    pub fn max(&self) -> f64 {
        if self.finite == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated from the bucket counts.
    ///
    /// Semantics, fixed so service dashboards agree across versions:
    ///
    /// * The population is **every** recorded sample (`count()`), ordered
    ///   by bucket; overflow samples (too large or non-finite) sort last,
    ///   "past the final bucket edge".
    /// * Within the bucket containing the target rank `q·count()`, the
    ///   value is **linearly interpolated** across the bucket's width —
    ///   rank fraction `f` of a bucket `[k·w, (k+1)·w)` maps to
    ///   `(k + f)·w`.
    /// * Results clamp to the observed finite `[min(), max()]`, so
    ///   `quantile(0.0) == min()` and `quantile(1.0) == max()`; a rank
    ///   landing in overflow reports `max()` (the histogram knows no
    ///   better upper bound).
    /// * An empty histogram reports 0, like the other accessors; `q`
    ///   outside `[0, 1]` clamps.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        // Rank 0 is the smallest sample itself — interpolating inside
        // bucket 0 would misreport negative samples (they clamp into
        // bucket 0 but sit below its nominal lower edge).
        if target <= 0.0 {
            return self.min();
        }
        let mut below = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let through = below + c;
            if target <= through as f64 {
                let frac = (target - below as f64) / c as f64;
                let v = (k as f64 + frac) * self.width;
                return v.clamp(self.min(), self.max());
            }
            below = through;
        }
        self.max()
    }
}

/// Energy and cycle counts attributed to one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// The phase name from the marker (e.g. `"round 3"`), or
    /// [`MetricsRegistry::STARTUP_PHASE`] for cycles before the first
    /// marker.
    pub name: String,
    /// First cycle owned by the phase.
    pub start_cycle: u64,
    /// Number of cycles attributed.
    pub cycles: u64,
    /// Per-component energy attributed (picojoules).
    pub energy: ComponentEnergy,
}

/// Retired-instruction counts for one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MixEntry {
    /// Retired instructions of this class without the secure bit.
    pub normal: u64,
    /// Retired instructions of this class carrying the secure bit.
    pub secure: u64,
}

impl MixEntry {
    /// Total retired instructions of this class (saturating).
    pub fn total(&self) -> u64 {
        self.normal.saturating_add(self.secure)
    }
}

/// The metrics of one run: the instruction mix, a per-cycle energy
/// histogram and phase-attributed component energy, counted from the
/// cycles fed to [`MetricsRegistry::record`], beside the pipeline's own
/// [`RunResult`] (cycles, retirement, stalls, flushes).
///
/// Feed it from the closure of `MaskedDes::encrypt_observed`, then set
/// [`run`](MetricsRegistry::run) to the returned run's `stats`:
/// [`metrics_csv`](crate::metrics_csv) and [`summary`](crate::summary)
/// read both.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    /// The pipeline's aggregate result; zero until the caller sets it.
    pub run: RunResult,
    /// Cycles in which at least one stage carried a secure value.
    pub secure_cycles: u64,
    /// Retired-instruction mix, indexed like [`OP_CLASSES`].
    pub mix: [MixEntry; 8],
    /// Total per-component energy (picojoules).
    pub energy: ComponentEnergy,
    /// Per-phase attribution, in marker order (first entry is the
    /// pre-marker startup region when any cycles precede the first marker).
    pub phases: Vec<PhaseMetrics>,
    /// Distribution of per-cycle total energy (picojoules).
    pub cycle_energy: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// The synthetic phase name for cycles before the first marker.
    pub const STARTUP_PHASE: &'static str = "startup";

    /// An empty registry. The default histogram spans 0–500 pJ in 25 pJ
    /// bins, bracketing the calibrated model's per-cycle range.
    pub fn new() -> Self {
        MetricsRegistry {
            run: RunResult::default(),
            secure_cycles: 0,
            mix: [MixEntry::default(); 8],
            energy: ComponentEnergy::default(),
            phases: Vec::new(),
            cycle_energy: Histogram::new(25.0, 20),
        }
    }

    /// Counts one cycle. `phase` names the phase a marker starts on this
    /// cycle; the marker cycle is charged to that new phase, the same
    /// start-inclusive windows as `EncryptionRun::phase_window`.
    pub fn record(&mut self, act: &CycleActivity, energy: &CycleEnergy, phase: Option<&str>) {
        if let Some(name) = phase {
            self.phases.push(PhaseMetrics {
                name: name.to_string(),
                start_cycle: act.cycle,
                cycles: 0,
                energy: ComponentEnergy::default(),
            });
        }
        if act.any_secure() {
            self.secure_cycles += 1;
        }
        if let Some(inst) = &act.retired {
            let entry = &mut self.mix[op_class_index(inst.op.class())];
            if inst.secure {
                entry.secure += 1;
            } else {
                entry.normal += 1;
            }
        }
        self.energy += energy.components;
        self.cycle_energy.record(energy.total_pj());
        if self.phases.is_empty() {
            self.phases.push(PhaseMetrics {
                name: Self::STARTUP_PHASE.to_string(),
                start_cycle: act.cycle,
                cycles: 0,
                energy: ComponentEnergy::default(),
            });
        }
        let current = self.phases.last_mut().expect("non-empty");
        current.cycles += 1;
        current.energy += energy.components;
    }

    /// The metrics of a named phase, if it was crossed.
    pub fn phase(&self, name: &str) -> Option<&PhaseMetrics> {
        self.phases.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(10.0, 3);
        for v in [0.0, 5.0, 15.0, 25.0, 35.0, -1.0] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[3, 1, 1]); // -1 clamps into bucket 0
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 79.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 35.0);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new(1.0, 1);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn boundary_samples_land_in_the_upper_bucket() {
        let mut h = Histogram::new(10.0, 4);
        for v in [0.0, 10.0, 20.0, 30.0, 40.0] {
            h.record(v);
        }
        // Half-open [k·w, (k+1)·w): each boundary value opens bucket k;
        // 40.0 is the first boundary past the last bucket → overflow.
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn non_finite_samples_overflow_without_poisoning_stats() {
        let mut h = Histogram::new(10.0, 3);
        h.record(5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(15.0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.finite_count(), 2);
        assert_eq!(h.counts(), &[1, 1, 0], "NaN must not clamp into bucket 0");
        assert_eq!(h.overflow(), 3);
        assert!((h.mean() - 10.0).abs() < 1e-12, "mean over finite samples only");
        assert_eq!(h.min(), 5.0);
        assert_eq!(h.max(), 15.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets_and_clamp_to_observed_range() {
        let mut h = Histogram::new(10.0, 4);
        // 10 samples, uniformly one per unit across [0, 10): bucket 0
        // holds all of them.
        for i in 0..10 {
            h.record(f64::from(i));
        }
        // Rank q·10 interpolated across bucket [0, 10).
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-12);
        assert!((h.quantile(0.95) - 9.0).abs() < 1e-12, "clamped to max 9.0");
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
        // Out-of-range q clamps.
        assert_eq!(h.quantile(-3.0), h.min());
        assert_eq!(h.quantile(7.0), h.max());

        // Two occupied buckets: the p50 boundary falls exactly between
        // them, the p75 sits mid-way through the upper bucket.
        let mut two = Histogram::new(10.0, 4);
        for v in [1.0, 2.0, 21.0, 29.0] {
            two.record(v);
        }
        assert!((two.quantile(0.5) - 10.0).abs() < 1e-12);
        assert!((two.quantile(0.75) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_of_empty_and_overflow_heavy_histograms() {
        let empty = Histogram::new(1.0, 4);
        assert_eq!(empty.quantile(0.5), 0.0);

        let mut h = Histogram::new(10.0, 2);
        h.record(5.0);
        for _ in 0..9 {
            h.record(1_000.0); // overflow
        }
        // p50 lands among the overflow samples: the histogram only knows
        // "past the last edge", so it reports the observed max.
        assert_eq!(h.quantile(0.5), 1_000.0);
        assert_eq!(h.quantile(0.05), 5.0, "clamps to min");
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = Histogram::new(5.0, 8);
        for v in [0.0, 2.0, 7.0, 7.5, 12.0, 19.0, 33.0, 50.0] {
            h.record(v);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let v = h.quantile(f64::from(i) / 100.0);
            assert!(v >= last, "q={}: {v} < {last}", f64::from(i) / 100.0);
            last = v;
        }
    }

    #[test]
    fn huge_samples_saturate_into_overflow() {
        let mut h = Histogram::new(0.001, 2);
        h.record(f64::MAX); // index would overflow any usize — saturating cast
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts(), &[0, 0]);
        assert_eq!(h.max(), f64::MAX);
    }

    #[test]
    fn phase_attribution_is_start_inclusive() {
        let mut reg = MetricsRegistry::new();
        let one_pj = |cycle| CycleEnergy {
            cycle,
            components: ComponentEnergy { clock: 1.0, ..Default::default() },
        };
        // Cycles 0–1 before any marker, marker at cycle 2, cycles 2–3 after.
        for c in 0..4 {
            let phase = (c == 2).then_some("round 1");
            reg.record(&CycleActivity::idle(c), &one_pj(c), phase);
        }
        assert_eq!(reg.phases.len(), 2);
        assert_eq!(reg.phases[0].name, MetricsRegistry::STARTUP_PHASE);
        assert_eq!(reg.phases[0].cycles, 2);
        let round = reg.phase("round 1").expect("phase recorded");
        assert_eq!(round.start_cycle, 2);
        assert_eq!(round.cycles, 2);
        assert!((round.energy.total() - 2.0).abs() < 1e-12);
        assert!((reg.energy.total() - 4.0).abs() < 1e-12);
        assert_eq!(reg.cycle_energy.count(), 4);
    }

    #[test]
    fn op_class_table_is_total_and_unique() {
        let names: std::collections::BTreeSet<_> =
            OP_CLASSES.iter().map(|&c| op_class_name(c)).collect();
        assert_eq!(names.len(), OP_CLASSES.len());
        for &c in &OP_CLASSES {
            assert_eq!(OP_CLASSES[op_class_index(c)], c);
        }
    }
}
