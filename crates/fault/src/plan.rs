//! Declarative fault plans: *when* to strike, *where*, and *how*.

use emask_cpu::{FaultLane, RailMode};
use emask_isa::OpClass;

/// When a fault becomes active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Active on exactly this cycle.
    AtCycle(u64),
    /// Active on every cycle in `start..end` (a phase window translated to
    /// cycles by the campaign harness).
    CycleWindow {
        /// First active cycle.
        start: u64,
        /// First cycle past the window.
        end: u64,
    },
    /// Active once this many instructions have retired — an
    /// instruction-indexed strike that is robust to stall-cycle jitter.
    AtRetired(u64),
    /// Active whenever an instruction of `class` occupies the ID/EX latch
    /// (about to execute), after skipping the first `skip` occurrences.
    OnOpClass {
        /// The instruction class to strike.
        class: OpClass,
        /// Occurrences to let pass unharmed first.
        skip: u64,
    },
}

#[cfg(test)]
impl FaultTrigger {
    /// A short stable name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultTrigger::AtCycle(_) => "at-cycle",
            FaultTrigger::CycleWindow { .. } => "cycle-window",
            FaultTrigger::AtRetired(_) => "at-retired",
            FaultTrigger::OnOpClass { .. } => "on-op-class",
        }
    }
}

/// What the fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A pipeline-latch lane, under the given rail mode (single-rail
    /// upsets are what the dual-rail checker exists to catch).
    Lane(FaultLane, RailMode),
    /// Architectural register `n & 31`.
    Register(u8),
    /// The data-memory word at this byte address.
    Memory {
        /// Word-aligned byte address.
        addr: u32,
    },
    /// Squash whatever sits in the IF/ID latch (instruction skip).
    FetchSquash,
}

#[cfg(test)]
impl FaultTarget {
    /// A short stable name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultTarget::Lane(lane, _) => lane.name(),
            FaultTarget::Register(_) => "regfile",
            FaultTarget::Memory { .. } => "memory",
            FaultTarget::FetchSquash => "fetch-squash",
        }
    }
}

/// The fault's temporal shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// A transient single-event upset: XOR `1 << bit` exactly once, on the
    /// first active cycle.
    BitFlip {
        /// Bit position, 0–31.
        bit: u8,
    },
    /// A persistent defect: on every active cycle, force `bit` to the
    /// stuck value (one when `stuck_one`, else zero).
    StuckAt {
        /// Bit position, 0–31.
        bit: u8,
        /// Stuck-at-1 when true, stuck-at-0 when false.
        stuck_one: bool,
    },
    /// A voltage/clock glitch: once triggered, XOR `mask` on `cycles`
    /// consecutive cycles.
    Glitch {
        /// Bits disturbed each glitch cycle.
        mask: u32,
        /// How many consecutive cycles the glitch lasts.
        cycles: u32,
    },
}

impl FaultModel {
    /// A short stable name (used in campaign reports).
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::BitFlip { .. } => "bit-flip",
            FaultModel::StuckAt { .. } => "stuck-at",
            FaultModel::Glitch { .. } => "glitch",
        }
    }
}

/// One planned fault: a trigger, a target, and a temporal model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// When the fault is active.
    pub trigger: FaultTrigger,
    /// What it strikes.
    pub target: FaultTarget,
    /// Its temporal shape.
    pub model: FaultModel,
}

/// An ordered collection of [`FaultSpec`]s, executed together by one
/// [`FaultInjector`](crate::FaultInjector).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan with a single fault.
    pub fn single(spec: FaultSpec) -> Self {
        Self { faults: vec![spec] }
    }

    /// Adds a fault, builder-style.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// The planned faults, in injection order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_accumulates_in_order() {
        let spec = |c| FaultSpec {
            trigger: FaultTrigger::AtCycle(c),
            target: FaultTarget::FetchSquash,
            model: FaultModel::BitFlip { bit: 0 },
        };
        let plan = FaultPlan::new().with(spec(1)).with(spec(2));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.faults()[0].trigger, FaultTrigger::AtCycle(1));
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FaultTrigger::AtCycle(3).name(), "at-cycle");
        assert_eq!(FaultTarget::Register(4).name(), "regfile");
        assert_eq!(FaultModel::Glitch { mask: 1, cycles: 2 }.name(), "glitch");
        assert_eq!(
            FaultTarget::Lane(emask_cpu::FaultLane::IdExA, emask_cpu::RailMode::Both).name(),
            "id_ex.a"
        );
    }
}
