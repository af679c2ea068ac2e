//! Forward slicing: from `secure`-annotated seeds to every dependent
//! instruction.
//!
//! This is the paper's central compiler analysis (§4.1): "given a set of
//! variables ... the compiler determines all the variables/instructions
//! whose values depend on the seeds", so that *indirect* information leaks
//! are also masked — the worked example being the left-side assignment
//! `Lm = Rm-1`, which never touches the key directly but carries
//! key-derived data from round 2 on.
//!
//! The implementation is a monotone taint fixpoint over the whole unit:
//!
//! * values flow through copies and arithmetic;
//! * memory is summarized per variable: storing a tainted value (or storing
//!   *at* a tainted index) taints the whole array; loading from a tainted
//!   array — or loading with a tainted **index** — taints the result. The
//!   index rule is what forces the S-box lookups secure (the paper's
//!   *secure indexing*);
//! * calls flow taint into parameters and out of returns.
//!
//! Termination: the tainted sets only grow and are bounded by the program
//! size, and each pass is linear in the instruction count, so the fixpoint
//! is reached in at most `O(program²)` — in practice a handful of passes,
//! consistent with the paper's CFG-edge bound.

use crate::ir::{FuncIr, Inst, Operand, Temp};
use crate::sema::UnitInfo;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The result of slicing a unit.
#[derive(Debug, Clone, Default)]
pub struct SliceReport {
    /// Globals (scalars and arrays) carrying key-derived data, including
    /// the seeds themselves.
    pub tainted_globals: HashSet<String>,
    /// Tainted temps, per function.
    pub tainted_temps: HashMap<String, HashSet<Temp>>,
    /// Instruction indices that must run as secure instructions, per
    /// function.
    pub critical: HashMap<String, HashSet<usize>>,
    /// Functions whose return value is tainted.
    pub tainted_returns: HashSet<String>,
    /// `(function, instruction index)` of branches whose condition is
    /// tainted — a *control-flow* leak that secure instructions alone
    /// cannot mask (the paper's SPA discussion); surfaced as a warning.
    pub tainted_branches: Vec<(String, usize)>,
}

impl SliceReport {
    /// Total number of critical instructions across the unit.
    pub(crate) fn critical_count(&self) -> usize {
        self.critical.values().map(HashSet::len).sum()
    }
}

impl fmt::Display for SliceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut globals: Vec<&String> = self.tainted_globals.iter().collect();
        globals.sort();
        writeln!(f, "tainted globals: {globals:?}")?;
        writeln!(f, "critical instructions: {}", self.critical_count())?;
        if !self.tainted_branches.is_empty() {
            writeln!(
                f,
                "warning: {} branch(es) depend on secure data (control-flow leak)",
                self.tainted_branches.len()
            )?;
        }
        Ok(())
    }
}

/// Runs the forward slice over all functions of a unit.
pub(crate) fn slice_unit(funcs: &[FuncIr], info: &UnitInfo) -> SliceReport {
    let mut report = SliceReport::default();
    // Seeds.
    for (name, g) in &info.globals {
        if g.secure {
            report.tainted_globals.insert(name.clone());
        }
    }
    for f in funcs {
        report.tainted_temps.insert(f.name.clone(), HashSet::new());
        report.critical.insert(f.name.clone(), HashSet::new());
    }
    let by_name: HashMap<&str, &FuncIr> = funcs.iter().map(|f| (f.name.as_str(), f)).collect();

    // Monotone fixpoint.
    loop {
        let mut changed = false;
        for f in funcs {
            for inst in &f.body {
                changed |= propagate(f, inst, &by_name, &mut report);
            }
        }
        if !changed {
            break;
        }
    }

    // Mark critical instructions and tainted branches.
    for f in funcs {
        let temps = report.tainted_temps[&f.name].clone();
        let is_tainted = |o: &Operand| o.as_temp().is_some_and(|t| temps.contains(&t));
        let mut crit = HashSet::new();
        for (i, inst) in f.body.iter().enumerate() {
            let critical = match inst {
                // A constant is program text, not data: loading an
                // immediate leaks nothing even into a tainted temp.
                Inst::Const { .. } | Inst::Label(_) | Inst::Jump { .. } => false,
                // The programmer's explicit declassification point.
                Inst::Declassify { .. } => false,
                Inst::Copy { dst, src } => temps.contains(dst) || is_tainted(src),
                Inst::Bin { dst, lhs, rhs, .. } => {
                    temps.contains(dst) || is_tainted(lhs) || is_tainted(rhs)
                }
                Inst::LoadGlobal { dst, name } => {
                    temps.contains(dst) || report.tainted_globals.contains(name)
                }
                // A store is critical only when the *data it drives* (or
                // the address it computes from) is secret; writing a
                // public value into a tainted array leaks nothing — this
                // is why the paper's initial permutation stays insecure
                // even though it writes L and R.
                Inst::StoreGlobal { name: _, src } => is_tainted(src),
                Inst::LoadElem { dst, array, index } => {
                    temps.contains(dst)
                        || report.tainted_globals.contains(array)
                        || is_tainted(index)
                }
                Inst::StoreElem { array: _, index, src } => is_tainted(index) || is_tainted(src),
                // Argument registers are pipeline data like any other.
                Inst::Call { args, dst, .. } => {
                    args.iter().any(&is_tainted) || dst.is_some_and(|d| temps.contains(&d))
                }
                Inst::Branch { cond, .. } => {
                    let t = is_tainted(cond);
                    if t {
                        report.tainted_branches.push((f.name.clone(), i));
                    }
                    t
                }
                Inst::Ret { value } => value.as_ref().is_some_and(is_tainted),
            };
            if critical {
                crit.insert(i);
            }
        }
        report.critical.insert(f.name.clone(), crit);
    }
    report
}

fn propagate(
    f: &FuncIr,
    inst: &Inst,
    by_name: &HashMap<&str, &FuncIr>,
    report: &mut SliceReport,
) -> bool {
    let fname = &f.name;
    let tainted = |report: &SliceReport, o: &Operand| {
        o.as_temp().is_some_and(|t| report.tainted_temps[fname].contains(&t))
    };
    let taint_temp = |report: &mut SliceReport, func: &str, t: Temp| -> bool {
        report.tainted_temps.get_mut(func).expect("known function").insert(t)
    };
    match inst {
        Inst::Copy { dst, src } if tainted(report, src) => {
            return taint_temp(report, fname, *dst);
        }
        Inst::Bin { dst, lhs, rhs, .. } if (tainted(report, lhs) || tainted(report, rhs)) => {
            return taint_temp(report, fname, *dst);
        }
        Inst::LoadGlobal { dst, name } if report.tainted_globals.contains(name) => {
            return taint_temp(report, fname, *dst);
        }
        Inst::StoreGlobal { name, src }
            if tainted(report, src) && !report.tainted_globals.contains(name) =>
        {
            report.tainted_globals.insert(name.clone());
            return true;
        }
        Inst::LoadElem { dst, array, index }
            if (report.tainted_globals.contains(array) || tainted(report, index)) =>
        {
            return taint_temp(report, fname, *dst);
        }
        Inst::StoreElem { array, index, src }
            if (tainted(report, src) || tainted(report, index))
                && !report.tainted_globals.contains(array) =>
        {
            report.tainted_globals.insert(array.clone());
            return true;
        }
        Inst::Call { dst, func, args } => {
            let mut changed = false;
            if let Some(callee) = by_name.get(func.as_str()) {
                for (arg, param) in args.iter().zip(&callee.params) {
                    if tainted(report, arg) {
                        changed |= taint_temp(report, func, *param);
                    }
                }
            }
            if report.tainted_returns.contains(func) {
                if let Some(d) = dst {
                    changed |= taint_temp(report, fname, *d);
                }
            }
            return changed;
        }
        Inst::Ret { value: Some(v) }
            if tainted(report, v) && !report.tainted_returns.contains(fname) =>
        {
            report.tainted_returns.insert(fname.clone());
            return true;
        }
        _ => {}
    }
    false
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::lower::lower_unit;
    use crate::parser::parse;
    use crate::sema::check;

    fn slice_src(src: &str) -> (Vec<FuncIr>, SliceReport) {
        let unit = parse(src).unwrap();
        let info = check(&unit).unwrap();
        let funcs = lower_unit(&unit, &info);
        let report = slice_unit(&funcs, &info);
        (funcs, report)
    }

    #[test]
    fn seeds_are_tainted() {
        let (_, r) = slice_src("secure int key[4]; int main() { return 0; }");
        assert!(r.tainted_globals.contains("key"));
    }

    #[test]
    fn direct_use_is_critical() {
        let (_, r) = slice_src(
            "secure int key[4]; int out[4]; int main() { out[0] = key[0] ^ 1; return 0; }",
        );
        assert!(r.tainted_globals.contains("out"), "out receives key-derived data");
        assert!(r.critical_count() >= 2, "load, xor, store must be critical");
    }

    #[test]
    fn indirect_flow_through_variable() {
        // The paper's left-side-assignment case: l never reads key
        // directly, only data derived from it.
        let (_, r) = slice_src(
            "secure int key[4]; int r0[4]; int l[4];\
             int main() { int i;\
               for (i = 0; i < 4; i = i + 1) { r0[i] = key[i]; }\
               for (i = 0; i < 4; i = i + 1) { l[i] = r0[i]; }\
               return 0; }",
        );
        assert!(r.tainted_globals.contains("r0"));
        assert!(r.tainted_globals.contains("l"), "second-hop flow must taint l");
    }

    #[test]
    fn tainted_index_taints_lookup() {
        // The S-box case: a public table indexed by key-derived data.
        let (_, r) = slice_src(
            "secure int key[4]; const int sbox[4] = {7, 1, 0, 2}; int out;\
             int main() { out = sbox[key[0]]; return 0; }",
        );
        assert!(r.tainted_globals.contains("out"));
        assert!(!r.tainted_globals.contains("sbox"), "const table itself stays public");
    }

    #[test]
    fn untainted_code_is_not_critical() {
        let (_, r) = slice_src(
            "secure int key[4]; int pub[4];\
             int main() { int i; for (i = 0; i < 4; i = i + 1) { pub[i] = i * 2; } return 0; }",
        );
        assert!(!r.tainted_globals.contains("pub"));
        assert_eq!(r.critical_count(), 0);
    }

    #[test]
    fn taint_flows_through_calls_and_returns() {
        let (_, r) = slice_src(
            "secure int key[2]; int out;\
             int id(int x) { return x; }\
             int main() { out = id(key[1]); return 0; }",
        );
        assert!(r.tainted_returns.contains("id"));
        assert!(r.tainted_globals.contains("out"));
        let id_temps = &r.tainted_temps["id"];
        assert!(!id_temps.is_empty(), "id's parameter must be tainted");
    }

    #[test]
    fn tainted_branch_reported() {
        let (_, r) = slice_src(
            "secure int key[2]; int out;\
             int main() { if (key[0]) { out = 1; } return 0; }",
        );
        assert_eq!(r.tainted_branches.len(), 1);
        assert!(r.to_string().contains("control-flow leak"));
    }

    #[test]
    fn constants_into_tainted_temps_not_critical() {
        let (funcs, r) = slice_src(
            "secure int key[2]; int out; int main() { int x = 0; x = key[0]; out = x; return 0; }",
        );
        let main = funcs.iter().find(|f| f.name == "main").unwrap();
        for (i, inst) in main.body.iter().enumerate() {
            if matches!(inst, Inst::Const { .. }) {
                assert!(!r.critical["main"].contains(&i), "const at {i} wrongly critical");
            }
        }
    }

    #[test]
    fn storing_at_tainted_index_taints_array() {
        // Writing to a key-derived position reveals the key through the
        // address/value correlation; the array becomes critical.
        let (_, r) = slice_src(
            "secure int key[2]; int buf[8];\
             int main() { buf[key[0]] = 1; return 0; }",
        );
        assert!(r.tainted_globals.contains("buf"));
    }

    #[test]
    fn report_displays_summary() {
        let (_, r) = slice_src("secure int key[2]; int main() { return key[0]; }");
        let s = r.to_string();
        assert!(s.contains("key"));
        assert!(s.contains("critical instructions"));
    }
}
