//! An IR-level interpreter.
//!
//! Executes the three-address IR directly against a model of global
//! memory — a second, independent semantics for Tiny-C programs. The
//! differential tests run every program three ways (IR interpreter,
//! optimized+compiled on the pipeline, unoptimized+compiled) and demand
//! identical results, which pins miscompiles to a specific layer:
//! a lowering bug breaks all three against expectation, an optimizer bug
//! breaks compiled-vs-IR, a codegen/pipeline bug breaks compiled-vs-IR
//! with optimizations off.

use crate::ast::Unit;
use crate::ir::{FuncIr, Inst, Label, Operand, Temp};
use std::collections::HashMap;
use std::fmt;

/// A runtime trap during IR evaluation — mirrors the machine's fault set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrTrap {
    /// Integer division by zero.
    DivideByZero,
    /// Array access out of bounds (the machine would fault or corrupt a
    /// neighbor; the IR interpreter is stricter and always traps).
    OutOfBounds {
        /// Array name.
        array: String,
        /// The offending index.
        index: u32,
    },
    /// The step budget was exhausted (runaway loop).
    StepLimit,
    /// Call to an unknown function.
    UnknownFunction(String),
}

impl fmt::Display for IrTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrTrap::DivideByZero => f.write_str("division by zero"),
            IrTrap::OutOfBounds { array, index } => {
                write!(f, "index {index} out of bounds of `{array}`")
            }
            IrTrap::StepLimit => f.write_str("step limit exhausted"),
            IrTrap::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
        }
    }
}

impl std::error::Error for IrTrap {}

/// The IR machine: global memory plus the function table.
#[derive(Debug, Clone)]
pub struct IrMachine {
    globals: HashMap<String, Vec<u32>>,
    funcs: HashMap<String, FuncIr>,
    steps_left: u64,
}

impl IrMachine {
    /// Builds a machine from a checked unit and its (possibly optimized)
    /// IR, with a default budget of 10 M IR steps.
    pub fn new(unit: &Unit, funcs: &[FuncIr]) -> Self {
        let globals = unit
            .globals
            .iter()
            .map(|g| {
                let len = g.len.unwrap_or(1) as usize;
                let mut v = g.init.clone();
                v.resize(len, 0);
                (g.name.clone(), v)
            })
            .collect();
        Self {
            globals,
            funcs: funcs.iter().map(|f| (f.name.clone(), f.clone())).collect(),
            steps_left: 10_000_000,
        }
    }

    /// Reads a global array (or scalar, length 1) after execution.
    #[cfg(test)]
    pub(crate) fn global(&self, name: &str) -> Option<&[u32]> {
        self.globals.get(name).map(Vec::as_slice)
    }

    /// Runs `main` and returns its value.
    ///
    /// # Errors
    ///
    /// Returns [`IrTrap`] on division by zero, out-of-bounds access, an
    /// exhausted step budget, or a call to an unknown function.
    pub fn run_main(&mut self) -> Result<u32, IrTrap> {
        Ok(self.call("main", &[])?.unwrap_or(0))
    }

    fn call(&mut self, name: &str, args: &[u32]) -> Result<Option<u32>, IrTrap> {
        let f = self
            .funcs
            .get(name)
            .cloned()
            .ok_or_else(|| IrTrap::UnknownFunction(name.to_owned()))?;
        let mut temps = vec![0u32; f.temp_count as usize];
        for (p, a) in f.params.iter().zip(args) {
            temps[p.0 as usize] = *a;
        }
        // Label → instruction index.
        let labels: HashMap<Label, usize> = f
            .body
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| match inst {
                Inst::Label(l) => Some((*l, i)),
                _ => None,
            })
            .collect();
        let read = |temps: &[u32], o: Operand| -> u32 {
            match o {
                Operand::Temp(Temp(t)) => temps[t as usize],
                Operand::Const(c) => c,
            }
        };
        let mut pc = 0usize;
        while pc < f.body.len() {
            if self.steps_left == 0 {
                return Err(IrTrap::StepLimit);
            }
            self.steps_left -= 1;
            match &f.body[pc] {
                Inst::Const { dst, value } => temps[dst.0 as usize] = *value,
                Inst::Copy { dst, src } | Inst::Declassify { dst, src } => {
                    temps[dst.0 as usize] = read(&temps, *src)
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    let a = read(&temps, *lhs);
                    let b = read(&temps, *rhs);
                    temps[dst.0 as usize] = op.eval(a, b).ok_or(IrTrap::DivideByZero)?;
                }
                Inst::LoadGlobal { dst, name } => {
                    temps[dst.0 as usize] = self.globals[name][0];
                }
                Inst::StoreGlobal { name, src } => {
                    let v = read(&temps, *src);
                    self.globals.get_mut(name).expect("checked global")[0] = v;
                }
                Inst::LoadElem { dst, array, index } => {
                    let i = read(&temps, *index);
                    let arr = &self.globals[array];
                    let v = *arr
                        .get(i as usize)
                        .ok_or_else(|| IrTrap::OutOfBounds { array: array.clone(), index: i })?;
                    temps[dst.0 as usize] = v;
                }
                Inst::StoreElem { array, index, src } => {
                    let i = read(&temps, *index);
                    let v = read(&temps, *src);
                    let arr = self.globals.get_mut(array).expect("checked global");
                    let slot = arr
                        .get_mut(i as usize)
                        .ok_or_else(|| IrTrap::OutOfBounds { array: array.clone(), index: i })?;
                    *slot = v;
                }
                Inst::Call { dst, func, args } => {
                    let vals: Vec<u32> = args.iter().map(|a| read(&temps, *a)).collect();
                    let ret = self.call(func, &vals)?;
                    if let Some(d) = dst {
                        temps[d.0 as usize] = ret.unwrap_or(0);
                    }
                }
                Inst::Jump { target } => {
                    pc = labels[target];
                    continue;
                }
                Inst::Branch { cond, if_true, target } => {
                    let taken = (read(&temps, *cond) != 0) == *if_true;
                    if taken {
                        pc = labels[target];
                        continue;
                    }
                }
                Inst::Label(_) => {}
                Inst::Ret { value } => {
                    return Ok(value.map(|v| read(&temps, v)));
                }
            }
            pc += 1;
        }
        Ok(None)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::lower::lower_unit;
    use crate::opt;
    use crate::parser::parse;
    use crate::sema::check;

    fn machine(src: &str, optimize: bool) -> (Unit, IrMachine) {
        let unit = parse(src).expect("parse");
        let info = check(&unit).expect("sema");
        let mut funcs = lower_unit(&unit, &info);
        if optimize {
            for f in &mut funcs {
                opt::fold_const_globals(f, &unit);
                opt::optimize(f);
            }
        }
        let m = IrMachine::new(&unit, &funcs);
        (unit, m)
    }

    fn eval(src: &str) -> u32 {
        machine(src, true).1.run_main().expect("run")
    }

    #[test]
    fn arithmetic_and_loops() {
        assert_eq!(eval("int main() { int s = 0; int i; for (i = 1; i <= 10; i = i + 1) { s = s + i; } return s; }"), 55);
        assert_eq!(eval("int main() { return (7 * 6) % 5; }"), 2);
    }

    #[test]
    fn globals_and_arrays() {
        let (_, mut m) = machine(
            "int a[4] = {1, 2, 3, 4}; int g; int main() { g = a[0] + a[3]; a[1] = 9; return g; }",
            true,
        );
        assert_eq!(m.run_main().unwrap(), 5);
        assert_eq!(m.global("a").unwrap(), &[1, 9, 3, 4]);
        assert_eq!(m.global("g").unwrap(), &[5]);
    }

    #[test]
    fn calls_and_recursion() {
        assert_eq!(
            eval("int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } int main() { return fib(10); }"),
            55
        );
    }

    #[test]
    fn break_continue() {
        assert_eq!(
            eval("int main() { int i; int s = 0; for (i = 0; i < 10; i = i + 1) { if (i == 6) { break; } if (i % 2 == 0) { continue; } s = s + i; } return s; }"),
            1 + 3 + 5
        );
    }

    #[test]
    fn declassify_is_transparent() {
        assert_eq!(eval("secure int k[1] = {9}; int main() { return declassify(k[0] * 2); }"), 18);
    }

    #[test]
    fn division_by_zero_traps() {
        let (_, mut m) = machine("int g; int main() { int x = g; return 1 / x; }", true);
        assert_eq!(m.run_main(), Err(IrTrap::DivideByZero));
    }

    #[test]
    fn out_of_bounds_traps() {
        let (_, mut m) = machine("int a[2]; int g = 5; int main() { return a[g]; }", true);
        assert!(matches!(m.run_main(), Err(IrTrap::OutOfBounds { index: 5, .. })));
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let (unit, _) = machine("int main() { while (1) { } return 0; }", false);
        let info = check(&unit).unwrap();
        let funcs = lower_unit(&unit, &info);
        let mut m = IrMachine::new(&unit, &funcs);
        m.steps_left = 1_000;
        assert_eq!(m.run_main(), Err(IrTrap::StepLimit));
    }

    #[test]
    fn optimized_and_unoptimized_ir_agree() {
        let src = "int a[6] = {3, 1, 4, 1, 5, 9}; int g;\
                   int main() { int i; int acc = 1;\
                     for (i = 0; i < 6; i = i + 1) { acc = acc * 2 + a[i] * 4; }\
                     g = acc; return acc & 0xFFFF; }";
        let x = machine(src, true).1.run_main().unwrap();
        let y = machine(src, false).1.run_main().unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn trap_display_is_informative() {
        assert!(IrTrap::OutOfBounds { array: "a".into(), index: 7 }.to_string().contains("a"));
        assert!(IrTrap::StepLimit.to_string().contains("step"));
    }
}
