//! The optimization passes: constant folding, local copy/constant
//! propagation, strength reduction, and dead-code elimination.
//!
//! The paper's compiler is "an optimizing compiler"; these are the classic
//! passes (Muchnick ch. 12–13) that matter for the DES bit-array kernel —
//! in particular strength reduction turns the `i * 4`-style scaled
//! addressing of array code into shifts.

use crate::ast::Unit;
use crate::ir::{BinKind, FuncIr, Inst, Operand, Temp};
use std::collections::{HashMap, HashSet};

/// Runs all passes to a fixpoint (bounded).
pub fn optimize(f: &mut FuncIr) {
    for _ in 0..8 {
        let mut changed = false;
        changed |= fold_constants(f);
        changed |= propagate_local(f);
        changed |= eliminate_common_subexpressions(f);
        changed |= reduce_strength(f);
        changed |= eliminate_dead(f);
        if !changed {
            break;
        }
    }
}

/// Replaces loads of `const` globals with their initializer values:
/// scalars unconditionally, array elements when the index is a constant.
/// Run before [`optimize`] so the folded constants feed the other passes.
///
/// Sound because sema rejects every write to `const` data.
pub fn fold_const_globals(f: &mut FuncIr, unit: &Unit) -> bool {
    let consts: HashMap<&str, &crate::ast::Global> =
        unit.globals.iter().filter(|g| g.konst).map(|g| (g.name.as_str(), g)).collect();
    let mut changed = false;
    for inst in &mut f.body {
        match inst {
            Inst::LoadGlobal { dst, name } => {
                if let Some(g) = consts.get(name.as_str()) {
                    if g.len.is_none() {
                        let value = g.init.first().copied().unwrap_or(0);
                        *inst = Inst::Const { dst: *dst, value };
                        changed = true;
                    }
                }
            }
            Inst::LoadElem { dst, array, index: Operand::Const(i) } => {
                if let Some(g) = consts.get(array.as_str()) {
                    if let Some(len) = g.len {
                        if *i < len {
                            let value = g.init.get(*i as usize).copied().unwrap_or(0);
                            *inst = Inst::Const { dst: *dst, value };
                            changed = true;
                        }
                        // An out-of-range constant index keeps the load and
                        // faults at runtime, as the machine would.
                    }
                }
            }
            _ => {}
        }
    }
    changed
}

/// Local common-subexpression elimination: within a basic block, a pure
/// `Bin` computing the same `(op, lhs, rhs)` as an earlier one becomes a
/// copy of the earlier result. All knowledge resets at labels and dies
/// when an operand (or the holding temp) is redefined.
pub(crate) fn eliminate_common_subexpressions(f: &mut FuncIr) -> bool {
    let mut changed = false;
    let mut available: HashMap<(BinKind, Operand, Operand), Temp> = HashMap::new();
    for inst in &mut f.body {
        if matches!(inst, Inst::Label(_)) {
            available.clear();
            continue;
        }
        // Only pure Bins participate (div/rem may trap and must not be
        // deduplicated across a fault point).
        let pure_bin = matches!(
            inst,
            Inst::Bin { op, .. } if !matches!(op, BinKind::Div | BinKind::Rem)
        );
        if pure_bin {
            if let Inst::Bin { op, dst, lhs, rhs } = inst {
                let key = (*op, *lhs, *rhs);
                if let Some(&prev) = available.get(&key) {
                    if prev != *dst {
                        *inst = Inst::Copy { dst: *dst, src: Operand::Temp(prev) };
                        changed = true;
                    }
                } else {
                    available.insert(key, *dst);
                }
            }
        }
        if let Some(d) = inst.def() {
            // Kill expressions using or held in the redefined temp —
            // except the fact we just recorded for this instruction.
            let this_inst = inst.clone();
            available.retain(|(op, lhs, rhs), held| {
                let still_this = matches!(&this_inst, Inst::Bin { op: o, dst, lhs: l, rhs: r }
                    if o == op && l == lhs && r == rhs && dst == held);
                still_this || (lhs.as_temp() != Some(d) && rhs.as_temp() != Some(d) && *held != d)
            });
        }
    }
    changed
}

/// Folds `Bin` instructions whose operands are both constants, and
/// simplifies identities (`x + 0`, `x ^ 0`, `x * 1`, `x * 0`).
pub(crate) fn fold_constants(f: &mut FuncIr) -> bool {
    let mut changed = false;
    for inst in &mut f.body {
        let Inst::Bin { op, dst, lhs, rhs } = inst else { continue };
        let (dst, op) = (*dst, *op);
        match (lhs.as_const(), rhs.as_const()) {
            (Some(a), Some(b)) => {
                if let Some(v) = op.eval(a, b) {
                    *inst = Inst::Const { dst, value: v };
                    changed = true;
                }
            }
            (_, Some(0))
                if matches!(
                    op,
                    BinKind::Add
                        | BinKind::Sub
                        | BinKind::Xor
                        | BinKind::Or
                        | BinKind::Shl
                        | BinKind::Shr
                ) =>
            {
                *inst = Inst::Copy { dst, src: *lhs };
                changed = true;
            }
            (Some(0), _) if matches!(op, BinKind::Add | BinKind::Xor | BinKind::Or) => {
                *inst = Inst::Copy { dst, src: *rhs };
                changed = true;
            }
            (_, Some(1)) if matches!(op, BinKind::Mul | BinKind::Div) => {
                *inst = Inst::Copy { dst, src: *lhs };
                changed = true;
            }
            (Some(1), _) if op == BinKind::Mul => {
                *inst = Inst::Copy { dst, src: *rhs };
                changed = true;
            }
            (_, Some(0)) if op == BinKind::Mul => {
                *inst = Inst::Const { dst, value: 0 };
                changed = true;
            }
            (Some(0), _) if op == BinKind::Mul => {
                *inst = Inst::Const { dst, value: 0 };
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

/// Local (within basic block, reset at labels/branch targets) propagation
/// of constants and copies into later uses.
///
/// Correctness: a temp's known value is invalidated when the temp is
/// redefined; all knowledge is dropped at every label (join point).
pub(crate) fn propagate_local(f: &mut FuncIr) -> bool {
    let mut changed = false;
    let mut known: HashMap<Temp, Operand> = HashMap::new();
    for inst in &mut f.body {
        if matches!(inst, Inst::Label(_)) {
            known.clear();
            continue;
        }
        // Rewrite uses.
        let mut subst = |o: &mut Operand| {
            if let Operand::Temp(t) = o {
                if let Some(&v) = known.get(t) {
                    *o = v;
                    changed = true;
                }
            }
        };
        match inst {
            Inst::Copy { src, .. } | Inst::Declassify { src, .. } => subst(src),
            Inst::Bin { lhs, rhs, .. } => {
                subst(lhs);
                subst(rhs);
            }
            Inst::StoreGlobal { src, .. } => subst(src),
            Inst::LoadElem { index, .. } => subst(index),
            Inst::StoreElem { index, src, .. } => {
                subst(index);
                subst(src);
            }
            Inst::Call { args, .. } => args.iter_mut().for_each(subst),
            Inst::Branch { cond, .. } => subst(cond),
            Inst::Ret { value: Some(v) } => subst(v),
            _ => {}
        }
        // Record new facts / kill redefined temps.
        if let Some(d) = inst.def() {
            // Any fact that referred to `d` is now stale.
            known.retain(|_, v| v.as_temp() != Some(d));
            known.remove(&d);
            match inst {
                Inst::Const { value, .. } => {
                    known.insert(d, Operand::Const(*value));
                }
                Inst::Copy { src, .. } if src.as_temp() != Some(d) => {
                    known.insert(d, *src);
                }
                _ => {}
            }
        }
    }
    changed
}

/// Strength reduction: multiplication/division by powers of two become
/// shifts (division only when provably safe — i.e. never, for signed
/// semantics, so only `Mul` is reduced; `Rem` by a power of two is reduced
/// to a mask when the dividend is a known-nonnegative comparison result).
pub(crate) fn reduce_strength(f: &mut FuncIr) -> bool {
    let mut changed = false;
    for inst in &mut f.body {
        let Inst::Bin { op: BinKind::Mul, dst, lhs, rhs } = inst else { continue };
        let (dst, lhs, rhs) = (*dst, *lhs, *rhs);
        let (var, konst) = match (lhs.as_const(), rhs.as_const()) {
            (None, Some(c)) => (lhs, c),
            (Some(c), None) => (rhs, c),
            _ => continue,
        };
        if konst.is_power_of_two() {
            *inst = Inst::Bin {
                op: BinKind::Shl,
                dst,
                lhs: var,
                rhs: Operand::Const(konst.trailing_zeros()),
            };
            changed = true;
        }
    }
    changed
}

/// Removes pure instructions whose results are never used. Iterates until
/// stable so chains of dead computations disappear.
pub(crate) fn eliminate_dead(f: &mut FuncIr) -> bool {
    let mut changed_any = false;
    loop {
        let mut used: HashSet<Temp> = HashSet::new();
        for inst in &f.body {
            used.extend(inst.uses());
        }
        // Parameters are observable (they arrive in registers).
        used.extend(f.params.iter().copied());
        let before = f.body.len();
        f.body.retain(|inst| match inst.def() {
            Some(d) if inst.is_pure() => used.contains(&d),
            _ => true,
        });
        if f.body.len() == before {
            break;
        }
        changed_any = true;
    }
    changed_any
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::lower::lower_unit;
    use crate::parser::parse;
    use crate::sema::check;

    fn lowered(src: &str) -> FuncIr {
        let unit = parse(src).unwrap();
        let info = check(&unit).unwrap();
        lower_unit(&unit, &info).into_iter().find(|f| f.name == "main").unwrap()
    }

    fn optimized(src: &str) -> FuncIr {
        let mut f = lowered(src);
        optimize(&mut f);
        f
    }

    #[test]
    fn constant_expressions_fold_away() {
        let f = optimized("int g; int main() { g = 2 + 3 * 4; return 0; }");
        // The store's operand must be the folded constant 14.
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Inst::StoreGlobal { src: Operand::Const(14), .. })));
        assert!(!f.body.iter().any(|i| matches!(i, Inst::Bin { .. })));
    }

    #[test]
    fn identities_simplify() {
        let f = optimized("int g; int main() { int x = g; g = x + 0; g = x * 1; return 0; }");
        assert!(!f.body.iter().any(|i| matches!(i, Inst::Bin { .. })));
    }

    #[test]
    fn mul_by_power_of_two_becomes_shift() {
        let f = optimized("int g; int main() { int x = g; g = x * 8; return 0; }");
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: BinKind::Shl, rhs: Operand::Const(3), .. })));
        assert!(!f.body.iter().any(|i| matches!(i, Inst::Bin { op: BinKind::Mul, .. })));
    }

    #[test]
    fn mul_by_non_power_survives() {
        let f = optimized("int g; int main() { int x = g; g = x * 6; return 0; }");
        assert!(f.body.iter().any(|i| matches!(i, Inst::Bin { op: BinKind::Mul, .. })));
    }

    #[test]
    fn dead_code_removed() {
        let f = optimized("int g; int main() { int dead = g + 5; return 7; }");
        // `dead` and its chain disappear; the global load too (pure).
        assert!(!f.body.iter().any(|i| matches!(i, Inst::Bin { .. })));
        assert!(!f.body.iter().any(|i| matches!(i, Inst::LoadGlobal { .. })));
    }

    #[test]
    fn stores_and_calls_never_removed() {
        let f = optimized("int g; void f() {} int main() { g = 1; f(); return 0; }");
        assert!(f.body.iter().any(|i| matches!(i, Inst::StoreGlobal { .. })));
        assert!(f.body.iter().any(|i| matches!(i, Inst::Call { .. })));
    }

    #[test]
    fn division_by_zero_not_folded_or_removed() {
        let f = optimized("int main() { int x = 1 / 0; return 2; }");
        // Must keep the trapping division.
        assert!(f.body.iter().any(|i| matches!(i, Inst::Bin { op: BinKind::Div, .. })));
    }

    #[test]
    fn propagation_respects_redefinition() {
        // x's first value must not leak past its redefinition.
        let f = optimized("int g; int main() { int x = 1; x = g; g = x; return 0; }");
        // The final store must not be Const(1).
        assert!(!f
            .body
            .iter()
            .any(|i| matches!(i, Inst::StoreGlobal { src: Operand::Const(1), .. })));
    }

    #[test]
    fn propagation_stops_at_labels() {
        // The loop-carried variable must not be treated as constant.
        let f = optimized(
            "int g; int main() { int i = 0; while (i < 3) { i = i + 1; } g = i; return 0; }",
        );
        assert!(!f
            .body
            .iter()
            .any(|i| matches!(i, Inst::StoreGlobal { src: Operand::Const(0), .. })));
    }

    #[test]
    fn const_scalar_globals_fold() {
        let unit = parse("const int n = 48; int g; int main() { g = n + 2; return 0; }").unwrap();
        let info = check(&unit).unwrap();
        let mut f = lower_unit(&unit, &info).remove(0);
        assert!(fold_const_globals(&mut f, &unit));
        optimize(&mut f);
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Inst::StoreGlobal { src: Operand::Const(50), .. })));
        assert!(!f.body.iter().any(|i| matches!(i, Inst::LoadGlobal { .. })));
    }

    #[test]
    fn const_array_with_constant_index_folds() {
        let unit =
            parse("const int t[3] = {7, 8, 9}; int g; int main() { g = t[1]; return 0; }").unwrap();
        let info = check(&unit).unwrap();
        let mut f = lower_unit(&unit, &info).remove(0);
        assert!(fold_const_globals(&mut f, &unit));
        optimize(&mut f);
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Inst::StoreGlobal { src: Operand::Const(8), .. })));
    }

    #[test]
    fn const_array_with_dynamic_index_does_not_fold() {
        let unit = parse(
            "const int t[3] = {7, 8, 9}; int g; int main() { int i = g; g = t[i]; return 0; }",
        )
        .unwrap();
        let info = check(&unit).unwrap();
        let mut f = lower_unit(&unit, &info).remove(0);
        fold_const_globals(&mut f, &unit);
        assert!(f.body.iter().any(|i| matches!(i, Inst::LoadElem { .. })));
    }

    #[test]
    fn const_array_partial_initializer_reads_zero() {
        let unit =
            parse("const int t[4] = {7}; int g; int main() { g = t[3]; return 0; }").unwrap();
        let info = check(&unit).unwrap();
        let mut f = lower_unit(&unit, &info).remove(0);
        assert!(fold_const_globals(&mut f, &unit));
        optimize(&mut f);
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Inst::StoreGlobal { src: Operand::Const(0), .. })));
    }

    #[test]
    fn cse_reuses_repeated_expressions() {
        // `x * y` computed twice in one block: second becomes a copy.
        let f = optimized(
            "int g; int h; int main() { int x = g; int y = h; g = x * y; h = x * y; return 0; }",
        );
        let muls =
            f.body.iter().filter(|i| matches!(i, Inst::Bin { op: BinKind::Mul, .. })).count();
        assert_eq!(
            muls, 1,
            "CSE must collapse the duplicate multiply:
{f}"
        );
    }

    #[test]
    fn cse_respects_operand_redefinition() {
        // x changes between the two `x + y` computations: no reuse.
        let f = optimized(
            "int g; int h; int main() { int x = g; int y = h; g = x + y; x = g + 3; h = x + y; return 0; }",
        );
        let adds =
            f.body.iter().filter(|i| matches!(i, Inst::Bin { op: BinKind::Add, .. })).count();
        assert!(
            adds >= 2,
            "must keep both adds plus the x update:
{f}"
        );
    }

    #[test]
    fn cse_resets_at_labels() {
        let f = optimized(
            "int g; int main() { int x = g; int s = 0; int i; for (i = 0; i < 3; i = i + 1) { s = s + x * 2; } g = s; return 0; }",
        );
        // The loop-body multiply survives (its block is re-entered).
        assert!(f.body.iter().any(|i| matches!(
            i,
            Inst::Bin { op: BinKind::Shl, .. } | Inst::Bin { op: BinKind::Mul, .. }
        )));
    }

    #[test]
    fn optimization_preserves_terminator() {
        let f = optimized("int main() { return 3; }");
        assert!(matches!(f.body.last(), Some(Inst::Ret { .. })));
    }
}
