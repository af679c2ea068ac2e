//! Liveness analysis and linear-scan register allocation.
//!
//! Temps whose live interval crosses a call are placed in callee-saved
//! `$s` registers (saved in the prologue); the rest compete for
//! caller-saved `$t` registers. When both pools run dry the interval with
//! the furthest end is spilled to a stack slot. `$t8`/`$t9` are reserved as
//! spill scratch, `$at` for assembler pseudo-expansions.

use crate::cfg::Cfg;
use crate::ir::{FuncIr, Inst, Temp};
use emask_isa::Reg;
use std::collections::{HashMap, HashSet};

/// Where a temp lives at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// A physical register.
    Reg(Reg),
    /// A stack slot (index, word-sized) in the frame's spill area.
    Slot(u32),
}

/// The allocation result for one function.
#[derive(Debug, Clone)]
pub(crate) struct Allocation {
    /// Temp → location.
    pub assign: HashMap<Temp, Loc>,
    /// Callee-saved registers used (must be saved/restored).
    pub used_callee_saved: Vec<Reg>,
    /// Number of spill slots.
    pub spill_slots: u32,
}

impl Allocation {
    /// The location of `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` was never seen by the allocator — a compiler bug.
    pub(crate) fn loc(&self, t: Temp) -> Loc {
        *self.assign.get(&t).expect("temp escaped allocation")
    }
}

const CALLER_SAVED: [Reg; 8] =
    [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4, Reg::T5, Reg::T6, Reg::T7];
const CALLEE_SAVED: [Reg; 8] =
    [Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::S4, Reg::S5, Reg::S6, Reg::S7];

/// A live interval over linear instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    temp: Temp,
    start: usize,
    end: usize,
    crosses_call: bool,
}

/// Computes per-instruction liveness (the set live *before* each
/// instruction) via standard backward dataflow over the CFG.
pub(crate) fn liveness(f: &FuncIr, cfg: &Cfg) -> Vec<HashSet<Temp>> {
    let n = f.body.len();
    let nb = cfg.blocks.len();
    // Block-level use/def.
    let mut use_b = vec![HashSet::new(); nb];
    let mut def_b = vec![HashSet::new(); nb];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        for i in b.start..b.end {
            for u in f.body[i].uses() {
                if !def_b[bi].contains(&u) {
                    use_b[bi].insert(u);
                }
            }
            if let Some(d) = f.body[i].def() {
                def_b[bi].insert(d);
            }
        }
    }
    let mut live_in: Vec<HashSet<Temp>> = vec![HashSet::new(); nb];
    let mut live_out: Vec<HashSet<Temp>> = vec![HashSet::new(); nb];
    loop {
        let mut changed = false;
        for bi in (0..nb).rev() {
            let mut out = HashSet::new();
            for &s in &cfg.blocks[bi].succs {
                out.extend(live_in[s].iter().copied());
            }
            let mut inn: HashSet<Temp> = use_b[bi].clone();
            inn.extend(out.difference(&def_b[bi]).copied());
            if inn != live_in[bi] || out != live_out[bi] {
                changed = true;
                live_in[bi] = inn;
                live_out[bi] = out;
            }
        }
        if !changed {
            break;
        }
    }
    // Per-instruction live-before sets.
    let mut before = vec![HashSet::new(); n];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        let mut live = live_out[bi].clone();
        for i in (b.start..b.end).rev() {
            if let Some(d) = f.body[i].def() {
                live.remove(&d);
            }
            live.extend(f.body[i].uses());
            before[i] = live.clone();
        }
    }
    before
}

fn intervals(f: &FuncIr, before: &[HashSet<Temp>]) -> Vec<Interval> {
    let n = f.body.len();
    let mut range: HashMap<Temp, (usize, usize)> = HashMap::new();
    let mut touch = |t: Temp, i: usize| {
        let e = range.entry(t).or_insert((i, i));
        e.0 = e.0.min(i);
        e.1 = e.1.max(i);
    };
    // Params are live from function entry.
    for &p in &f.params {
        touch(p, 0);
    }
    for (i, live) in before.iter().enumerate().take(n) {
        for &t in live {
            touch(t, i);
        }
        if let Some(d) = f.body[i].def() {
            touch(d, i);
            // Value exists until at least the next point.
            touch(d, (i + 1).min(n.saturating_sub(1)));
        }
        for t in f.body[i].uses() {
            touch(t, i);
        }
    }
    let call_sites: Vec<usize> = f
        .body
        .iter()
        .enumerate()
        .filter(|(_, inst)| matches!(inst, Inst::Call { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut out: Vec<Interval> = range
        .into_iter()
        .map(|(temp, (start, end))| Interval {
            temp,
            start,
            end,
            crosses_call: call_sites.iter().any(|&c| start < c && c < end),
        })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.temp));
    out
}

/// Allocates registers for `f`.
pub(crate) fn allocate(f: &FuncIr, cfg: &Cfg) -> Allocation {
    let before = liveness(f, cfg);
    let ivs = intervals(f, &before);
    let mut free_t: Vec<Reg> = CALLER_SAVED.to_vec();
    let mut free_s: Vec<Reg> = CALLEE_SAVED.to_vec();
    let mut active: Vec<(Interval, Loc)> = Vec::new();
    let mut assign: HashMap<Temp, Loc> = HashMap::new();
    let mut used_callee: HashSet<Reg> = HashSet::new();
    let mut spill_slots = 0u32;

    for iv in ivs {
        // Expire old intervals.
        active.retain(|(a, loc)| {
            if a.end < iv.start {
                if let Loc::Reg(r) = loc {
                    if CALLER_SAVED.contains(r) {
                        free_t.push(*r);
                    } else {
                        free_s.push(*r);
                    }
                }
                false
            } else {
                true
            }
        });
        // Pick a register from the preferred pool, falling back to the
        // other pool (an $s reg is always safe; a $t reg is safe only for
        // intervals that do not cross calls).
        let reg =
            if iv.crosses_call { free_s.pop() } else { free_t.pop().or_else(|| free_s.pop()) };
        let loc = match reg {
            Some(r) => {
                if CALLEE_SAVED.contains(&r) {
                    used_callee.insert(r);
                }
                Loc::Reg(r)
            }
            None => {
                // Spill the interval that ends furthest (this one or an
                // active one with a compatible register class).
                let victim = active
                    .iter()
                    .enumerate()
                    .filter(|(_, (a, loc))| {
                        matches!(loc, Loc::Reg(r)
                            if !iv.crosses_call || CALLEE_SAVED.contains(r))
                            && a.end > iv.end
                    })
                    .max_by_key(|(_, (a, _))| a.end)
                    .map(|(i, _)| i);
                match victim {
                    Some(vi) => {
                        let (vict, vloc) = active.remove(vi);
                        let slot = Loc::Slot(spill_slots);
                        spill_slots += 1;
                        assign.insert(vict.temp, slot);
                        active.push((iv, vloc));
                        assign.insert(iv.temp, vloc);
                        continue;
                    }
                    None => {
                        let slot = Loc::Slot(spill_slots);
                        spill_slots += 1;
                        slot
                    }
                }
            }
        };
        assign.insert(iv.temp, loc);
        active.push((iv, loc));
    }

    let mut used_callee_saved: Vec<Reg> = used_callee.into_iter().collect();
    used_callee_saved.sort_by_key(|r| r.number());
    Allocation { assign, used_callee_saved, spill_slots }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::lower::lower_unit;
    use crate::opt::optimize;
    use crate::parser::parse;
    use crate::sema::check;

    fn alloc_src(src: &str, which: &str) -> (FuncIr, Allocation) {
        let unit = parse(src).unwrap();
        let info = check(&unit).unwrap();
        let mut funcs = lower_unit(&unit, &info);
        for f in &mut funcs {
            optimize(f);
        }
        let f = funcs.into_iter().find(|f| f.name == which).unwrap();
        let cfg = Cfg::build(&f);
        let a = allocate(&f, &cfg);
        (f, a)
    }

    /// No two temps with overlapping live intervals may share a register.
    fn assert_no_conflicts(f: &FuncIr, a: &Allocation) {
        let cfg = Cfg::build(f);
        let before = liveness(f, &cfg);
        for (i, live) in before.iter().enumerate() {
            let mut seen: HashMap<Reg, Temp> = HashMap::new();
            let mut check = |t: Temp| {
                if let Loc::Reg(r) = a.loc(t) {
                    if let Some(prev) = seen.insert(r, t) {
                        panic!("temps {prev} and {t} share {r} at inst {i}");
                    }
                }
            };
            for &t in live {
                check(t);
            }
        }
    }

    #[test]
    fn small_function_all_in_registers() {
        let (f, a) = alloc_src("int main() { int x = 1; int y = 2; return x + y; }", "main");
        assert_eq!(a.spill_slots, 0);
        assert_no_conflicts(&f, &a);
    }

    #[test]
    fn loop_variable_gets_stable_register() {
        let (f, a) = alloc_src(
            "int g; int main() { int i; int s = 0; for (i = 0; i < 9; i = i + 1) { s = s + i; } g = s; return s; }",
            "main",
        );
        assert_no_conflicts(&f, &a);
        // i and s are live simultaneously: different registers.
        let regs: HashSet<_> = a
            .assign
            .values()
            .filter_map(|l| match l {
                Loc::Reg(r) => Some(*r),
                _ => None,
            })
            .collect();
        assert!(regs.len() >= 2);
    }

    #[test]
    fn values_across_calls_use_callee_saved() {
        let (f, a) = alloc_src(
            "int g = 7; int id(int x) { return x; } int main() { int k = g; int r = id(3); return k + r; }",
            "main",
        );
        assert_no_conflicts(&f, &a);
        // k is live across the call → must be in an $s register or spilled.
        assert!(!a.used_callee_saved.is_empty() || a.spill_slots > 0);
        for (t, loc) in &a.assign {
            if let Loc::Reg(r) = loc {
                // No temp may sit in a reserved register.
                assert!(
                    !matches!(r, Reg::T8 | Reg::T9 | Reg::At | Reg::V0 | Reg::A0),
                    "temp {t} in reserved {r}"
                );
            }
        }
    }

    #[test]
    fn high_pressure_spills_not_crashes() {
        // 20 simultaneously-live values exceed the 16-register pool.
        let mut src = String::from("int g; int main() {");
        for i in 0..20 {
            src.push_str(&format!("int v{i} = g + {i};"));
        }
        src.push_str("g = ");
        let sum = (0..20).map(|i| format!("v{i}")).collect::<Vec<_>>().join(" + ");
        src.push_str(&sum);
        src.push_str("; return 0; }");
        let (f, a) = alloc_src(&src, "main");
        assert!(a.spill_slots > 0, "pressure of 20 must spill");
        assert_no_conflicts(&f, &a);
    }

    #[test]
    fn liveness_detects_loop_carried_values() {
        let (f, _) = alloc_src(
            "int g; int main() { int s = 0; int i = 0; while (i < 3) { s = s + 1; i = i + 1; } g = s; return 0; }",
            "main",
        );
        let cfg = Cfg::build(&f);
        let before = liveness(&f, &cfg);
        // s must be live at the loop's backward edge (i.e. live somewhere
        // inside the loop body even before its redefinition).
        let live_points = before.iter().filter(|s| !s.is_empty()).count();
        assert!(live_points > 3);
    }

    #[test]
    fn params_allocated_from_entry() {
        let (f, a) =
            alloc_src("int f(int a, int b) { return a + b; } int main() { return f(1, 2); }", "f");
        for p in &f.params {
            let _ = a.loc(*p); // must be assigned
        }
        assert_no_conflicts(&f, &a);
    }
}
