//! The compiler driver: source → assembled [`Program`].

use crate::codegen::emit_unit;
use crate::ir::FuncIr;
use crate::lexer::LexError;
use crate::lower::lower_unit;
use crate::opt;
use crate::parser::{parse, ParseError};
use crate::sema::{check, SemaError};
use crate::slice::{slice_unit, SliceReport};
use emask_isa::{assemble, AssembleError, Program};
use std::fmt;

/// Which instructions receive the secure bit — the paper's four comparison
/// points (§4.3): 46.4 µJ / 52.6 µJ / 63.6 µJ / 83.5 µJ in the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MaskPolicy {
    /// No masking: the unprotected baseline.
    None,
    /// The paper's contribution: only instructions reached by the forward
    /// slice from `secure` seeds.
    #[default]
    Selective,
    /// The naive software approach: every load and store is secure,
    /// without any compiler analysis.
    AllLoadsStores,
    /// The existing dual-rail-hardware approach: every instruction secure.
    AllInstructions,
}

impl fmt::Display for MaskPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MaskPolicy::None => "none",
            MaskPolicy::Selective => "selective",
            MaskPolicy::AllLoadsStores => "all-loads-stores",
            MaskPolicy::AllInstructions => "all-instructions",
        };
        f.write_str(s)
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOptions {
    /// The masking policy.
    pub policy: MaskPolicy,
    /// Disable the optimization passes (for debugging / ablation).
    pub no_optimize: bool,
    /// Keep named locals in memory instead of registers, reproducing the
    /// codegen of the paper's compiler (its Figure 4 loads the loop
    /// counter from memory). This is what gives the naive
    /// all-loads/stores policy its large overhead over selective masking.
    /// Recursion is unsupported in this mode.
    pub locals_in_memory: bool,
}

impl CompileOptions {
    /// Options with the given policy and optimizations on.
    pub fn with_policy(policy: MaskPolicy) -> Self {
        Self { policy, ..Self::default() }
    }

    /// Paper-faithful codegen: the given policy plus memory-resident
    /// locals.
    pub fn paper_style(policy: MaskPolicy) -> Self {
        Self { policy, no_optimize: false, locals_in_memory: true }
    }
}

/// Any front-to-back compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexical error.
    Lex(LexError),
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error.
    Sema(SemaError),
    /// The generated assembly failed to assemble — a compiler bug surfaced
    /// with full context.
    Assemble(AssembleError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Sema(e) => write!(f, "semantic error: {e}"),
            CompileError::Assemble(e) => write!(f, "internal assembly error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<SemaError> for CompileError {
    fn from(e: SemaError) -> Self {
        CompileError::Sema(e)
    }
}

impl From<AssembleError> for CompileError {
    fn from(e: AssembleError) -> Self {
        CompileError::Assemble(e)
    }
}

/// The result of a successful compilation.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The generated assembly text.
    pub asm: String,
    /// The assembled, runnable program.
    pub program: Program,
    /// The forward-slice report (what was deemed critical and why).
    pub report: SliceReport,
    /// The optimized IR, for inspection.
    pub ir: Vec<FuncIr>,
}

/// Compiles Tiny-C source to a runnable program.
///
/// # Errors
///
/// Returns [`CompileError`] for any front-end failure; internal assembly
/// failures indicate a code-generation bug and are surfaced rather than
/// panicking.
///
/// # Examples
///
/// ```
/// use emask_cc::{compile, CompileOptions, MaskPolicy};
/// let out = compile(
///     "int main() { return 6 * 7; }",
///     CompileOptions::with_policy(MaskPolicy::None),
/// )?;
/// assert!(out.program.text.len() > 3);
/// # Ok::<(), emask_cc::CompileError>(())
/// ```
pub fn compile(source: &str, options: CompileOptions) -> Result<CompileOutput, CompileError> {
    let mut unit = parse(source)?;
    check(&unit)?;
    if options.locals_in_memory {
        unit = crate::hoist::hoist_locals(&unit)?;
    }
    let info = check(&unit)?;
    let mut funcs = lower_unit(&unit, &info);
    if !options.no_optimize {
        for f in &mut funcs {
            opt::fold_const_globals(f, &unit);
            opt::optimize(f);
        }
    }
    let report = slice_unit(&funcs, &info);
    let asm = emit_unit(&unit, &funcs, &report, options.policy);
    let program = assemble(&asm)?;
    Ok(CompileOutput { asm, program, report, ir: funcs })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_cpu::Cpu;
    use emask_isa::Reg;

    fn run_main(src: &str, policy: MaskPolicy) -> (u32, emask_cpu::RunResult) {
        let out = compile(src, CompileOptions::with_policy(policy))
            .unwrap_or_else(|e| panic!("compile failed: {e}\n"));
        let mut cpu = Cpu::new(&out.program);
        let r = cpu.run(5_000_000).unwrap_or_else(|e| panic!("run failed: {e}\nasm:\n{}", out.asm));
        (cpu.reg(Reg::V0), r)
    }

    fn ret(src: &str) -> u32 {
        run_main(src, MaskPolicy::None).0
    }

    #[test]
    fn returns_constant() {
        assert_eq!(ret("int main() { return 42; }"), 42);
    }

    #[test]
    fn arithmetic_works() {
        assert_eq!(ret("int main() { return (2 + 3) * 4 - 6 / 2; }"), 17);
        assert_eq!(ret("int main() { return 17 % 5; }"), 2);
        assert_eq!(ret("int main() { int x = -8; return x >> 1; }") as i32, -4);
        assert_eq!(ret("int main() { return 1 << 10; }"), 1024);
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(ret("int main() { return (0xF0 & 0x3C) | (1 ^ 3); }"), 0x32);
        assert_eq!(ret("int main() { return ~0; }"), u32::MAX);
    }

    #[test]
    fn comparisons_produce_01() {
        assert_eq!(ret("int main() { return (1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 5) + (5 == 5) + (6 != 6); }"), 3);
    }

    #[test]
    fn locals_and_assignment() {
        assert_eq!(ret("int main() { int x = 3; int y; y = x * x; x = y - x; return x; }"), 6);
    }

    #[test]
    fn globals_persist() {
        assert_eq!(ret("int g = 10; int main() { g = g + 5; return g; }"), 15);
    }

    #[test]
    fn arrays_read_write() {
        assert_eq!(
            ret("int a[4] = {10, 20, 30, 40}; int main() { a[1] = a[0] + a[3]; return a[1]; }"),
            50
        );
    }

    #[test]
    fn loops_compute() {
        assert_eq!(
            ret("int main() { int s = 0; int i; for (i = 1; i <= 10; i = i + 1) { s = s + i; } return s; }"),
            55
        );
        assert_eq!(
            ret("int main() { int n = 10; int f0 = 0; int f1 = 1; while (n > 0) { int t = f0 + f1; f0 = f1; f1 = t; n = n - 1; } return f0; }"),
            55
        );
    }

    #[test]
    fn if_else_branches() {
        assert_eq!(ret("int main() { int x = 5; if (x > 3) { return 1; } else { return 2; } }"), 1);
        assert_eq!(ret("int main() { int x = 2; if (x > 3) { return 1; } else { return 2; } }"), 2);
    }

    #[test]
    fn short_circuit_semantics() {
        // Division by zero on the unevaluated side must not trap.
        assert_eq!(
            ret("int main() { int x = 0; if (x != 0 && 10 / x > 1) { return 1; } return 2; }"),
            2
        );
        assert_eq!(
            ret("int main() { int x = 1; if (x == 1 || 10 / 0 > 1) { return 3; } return 4; }"),
            3
        );
    }

    #[test]
    fn function_calls() {
        assert_eq!(ret("int sq(int x) { return x * x; } int main() { return sq(3) + sq(4); }"), 25);
    }

    #[test]
    fn recursion_works() {
        assert_eq!(
            ret("int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } int main() { return fact(6); }"),
            720
        );
    }

    #[test]
    fn four_argument_calls() {
        assert_eq!(
            ret("int f(int a, int b, int c, int d) { return a + 2*b + 3*c + 4*d; } int main() { return f(1, 2, 3, 4); }"),
            30
        );
    }

    #[test]
    fn nested_calls_preserve_live_values() {
        assert_eq!(
            ret("int id(int x) { return x; } int main() { int k = 100; int a = id(1); int b = id(2); return k + a + b; }"),
            103
        );
    }

    #[test]
    fn high_register_pressure_program_runs() {
        let mut src = String::from("int g = 1; int main() {");
        for i in 0..20 {
            src.push_str(&format!("int v{i} = g + {i};"));
        }
        src.push_str("return ");
        let sum = (0..20).map(|i| format!("v{i}")).collect::<Vec<_>>().join(" + ");
        src.push_str(&sum);
        src.push_str("; }");
        // Σ (1 + i) for i in 0..20 = 20 + 190.
        assert_eq!(ret(&src), 210);
    }

    #[test]
    fn policies_preserve_semantics() {
        let src = "secure int key[4] = {1, 0, 1, 1}; int out[4];\
                   int main() { int i; int acc = 0;\
                     for (i = 0; i < 4; i = i + 1) { out[i] = key[i] ^ 1; }\
                     for (i = 0; i < 4; i = i + 1) { acc = acc * 2 + out[i]; }\
                     return acc; }";
        let expect = 0b0100;
        for policy in [
            MaskPolicy::None,
            MaskPolicy::Selective,
            MaskPolicy::AllLoadsStores,
            MaskPolicy::AllInstructions,
        ] {
            let (v, _) = run_main(src, policy);
            assert_eq!(v, expect, "policy {policy} changed semantics");
        }
    }

    #[test]
    fn policy_secure_counts_are_ordered() {
        let src = "secure int key[4] = {1, 0, 1, 1}; int out[4]; int pubwork;\
                   int main() { int i;\
                     pubwork = 12345;\
                     for (i = 0; i < 4; i = i + 1) { out[i] = key[i] ^ 1; }\
                     return out[0]; }";
        let count = |policy| {
            compile(src, CompileOptions::with_policy(policy))
                .unwrap()
                .program
                .secure_instruction_count()
        };
        let none = count(MaskPolicy::None);
        let selective = count(MaskPolicy::Selective);
        let ls = count(MaskPolicy::AllLoadsStores);
        let all = count(MaskPolicy::AllInstructions);
        assert_eq!(none, 0);
        assert!(selective > 0, "slice must secure something");
        assert!(selective < all, "selective must secure fewer than everything");
        assert!(ls < all);
    }

    #[test]
    fn selective_masks_only_sliced_loads() {
        // Exactly the paper's Figure 4 situation: of the loads in the
        // loop body, only the key-derived one becomes slw.
        let src = "secure int key[4] = {1,0,1,1}; int pubsrc[4] = {9,9,9,9};\
                   int sink1[4]; int sink2[4];\
                   int main() { int i;\
                     for (i = 0; i < 4; i = i + 1) {\
                       sink1[i] = key[i];\
                       sink2[i] = pubsrc[i];\
                     } return 0; }";
        let out = compile(src, CompileOptions::with_policy(MaskPolicy::Selective)).unwrap();
        assert!(out.report.tainted_globals.contains("sink1"));
        assert!(!out.report.tainted_globals.contains("sink2"));
        assert!(out.asm.contains("sec.lw"), "key load must be secure:\n{}", out.asm);
        // The pubsrc loop still uses plain loads.
        assert!(out.asm.contains("    lw"), "public load must stay plain");
    }

    #[test]
    fn break_exits_the_innermost_loop() {
        assert_eq!(
            ret("int main() { int i; int s = 0; for (i = 0; i < 100; i = i + 1) { if (i == 5) { break; } s = s + i; } return s * 100 + i; }"),
            10 * 100 + 5
        );
    }

    #[test]
    fn continue_skips_to_the_step() {
        // Sum of odd numbers below 10 = 25; continue must still run the
        // step expression.
        assert_eq!(
            ret("int main() { int i; int s = 0; for (i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } s = s + i; } return s; }"),
            25
        );
    }

    #[test]
    fn break_continue_in_while_loops() {
        assert_eq!(
            ret("int main() { int n = 0; int s = 0; while (1) { n = n + 1; if (n % 3 == 0) { continue; } if (n > 10) { break; } s = s + n; } return s; }"),
            1 + 2 + 4 + 5 + 7 + 8 + 10
        );
    }

    #[test]
    fn break_targets_only_the_inner_loop() {
        assert_eq!(
            ret("int main() { int i; int j; int c = 0; for (i = 0; i < 3; i = i + 1) { for (j = 0; j < 10; j = j + 1) { if (j == 2) { break; } c = c + 1; } } return c; }"),
            6
        );
    }

    #[test]
    fn break_outside_loop_is_rejected() {
        assert!(matches!(
            compile("int main() { break; return 0; }", CompileOptions::default()),
            Err(CompileError::Sema(_))
        ));
        assert!(matches!(
            compile("int main() { continue; return 0; }", CompileOptions::default()),
            Err(CompileError::Sema(_))
        ));
    }

    #[test]
    fn break_continue_survive_paper_style() {
        let src = "int main() { int i; int s = 0; for (i = 0; i < 10; i = i + 1) { if (i == 7) { break; } if (i % 2 == 0) { continue; } s = s + i; } return s; }";
        let a = run_main(src, MaskPolicy::None).0;
        let b = {
            let out = compile(src, CompileOptions::paper_style(MaskPolicy::None)).unwrap();
            let mut cpu = Cpu::new(&out.program);
            cpu.run(1_000_000).unwrap();
            cpu.reg(Reg::V0)
        };
        assert_eq!(a, 1 + 3 + 5);
        assert_eq!(a, b);
    }

    #[test]
    fn compile_errors_are_reported() {
        assert!(matches!(
            compile("int main() { return x; }", CompileOptions::default()),
            Err(CompileError::Sema(_))
        ));
        assert!(matches!(
            compile("int main() { return 1 +; }", CompileOptions::default()),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compile("int main() { return 1 @ 2; }", CompileOptions::default()),
            Err(CompileError::Parse(_))
        ));
    }

    #[test]
    fn unoptimized_build_still_correct() {
        let src = "int main() { int x = 2 + 3 * 4; return x * 2; }";
        let out = compile(
            src,
            CompileOptions { policy: MaskPolicy::None, no_optimize: true, locals_in_memory: false },
        )
        .unwrap();
        let mut cpu = Cpu::new(&out.program);
        cpu.run(100_000).unwrap();
        assert_eq!(cpu.reg(Reg::V0), 28);
    }

    #[test]
    fn paper_style_locals_live_in_memory() {
        let src = "int g; int main() { int i; int s = 0; for (i = 0; i < 5; i = i + 1) { s = s + i; } g = s; return s; }";
        let reg = compile(src, CompileOptions::with_policy(MaskPolicy::None)).unwrap();
        let mem = compile(src, CompileOptions::paper_style(MaskPolicy::None)).unwrap();
        // Same answer either way.
        for out in [&reg, &mem] {
            let mut cpu = Cpu::new(&out.program);
            cpu.run(100_000).unwrap();
            assert_eq!(cpu.reg(Reg::V0), 10);
        }
        // Paper style must generate strictly more loads/stores (Figure 4's
        // `lw $2,i` loop-counter traffic).
        let mem_ops =
            |p: &emask_isa::Program| p.text.iter().filter(|i| i.is_load() || i.is_store()).count();
        assert!(
            mem_ops(&mem.program) > mem_ops(&reg.program),
            "paper style: {} vs optimized: {}",
            mem_ops(&mem.program),
            mem_ops(&reg.program)
        );
    }

    #[test]
    fn paper_style_rejects_recursion() {
        let src = "int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); } int main() { return f(3); }";
        assert!(matches!(
            compile(src, CompileOptions::paper_style(MaskPolicy::None)),
            Err(CompileError::Sema(_))
        ));
    }

    #[test]
    fn paper_style_selective_skips_loop_counter_traffic() {
        // The Figure 4 situation: in paper style the loop counter is
        // loaded from memory but must NOT be a secure load, while the key
        // element load must be.
        let src = "secure int key[4] = {1,0,1,1}; int sink[4];                   int main() { int i; for (i = 0; i < 4; i = i + 1) { sink[i] = key[i]; } return 0; }";
        let out = compile(src, CompileOptions::paper_style(MaskPolicy::Selective)).unwrap();
        let secure_mem =
            out.program.text.iter().filter(|i| (i.is_load() || i.is_store()) && i.secure).count();
        let plain_mem =
            out.program.text.iter().filter(|i| (i.is_load() || i.is_store()) && !i.secure).count();
        assert!(secure_mem > 0, "key traffic must be secure");
        assert!(plain_mem > secure_mem, "counter traffic must dominate and stay plain");
    }

    #[test]
    fn optimization_reduces_instruction_count() {
        let src = "int g; int main() { int x = 2 + 3 * 4; int dead = x * 100; g = x; return 0; }";
        let opt = compile(src, CompileOptions::default()).unwrap().program.text.len();
        let unopt = compile(
            src,
            CompileOptions {
                policy: MaskPolicy::Selective,
                no_optimize: true,
                locals_in_memory: false,
            },
        )
        .unwrap()
        .program
        .text
        .len();
        assert!(opt < unopt, "optimizer must shrink code: {opt} vs {unopt}");
    }
}
