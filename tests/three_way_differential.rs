//! Three-way differential testing: the IR interpreter, the optimized
//! compiled binary on the pipeline, and the unoptimized compiled binary —
//! all must agree on every program, which localizes any miscompile to a
//! single layer (lowering / optimizer / codegen+machine).

use emask::cc::IrMachine;
use emask::cc::{check, fold_const_globals, lower_unit, optimize, parse};
use emask::cc::{compile, CompileOptions, MaskPolicy};
use emask::cpu::Cpu;
use emask::isa::Reg;
use emask_conformance::{random_array_source, random_expression_source};
use proptest::prelude::*;

fn via_ir(src: &str, optimized: bool) -> u32 {
    let unit = parse(src).expect("parse");
    let info = check(&unit).expect("sema");
    let mut funcs = lower_unit(&unit, &info);
    if optimized {
        for f in &mut funcs {
            fold_const_globals(f, &unit);
            optimize(f);
        }
    }
    IrMachine::new(&unit, &funcs).run_main().expect("ir run")
}

fn via_machine(src: &str, opts: CompileOptions) -> u32 {
    let out = compile(src, opts).expect("compile");
    let mut cpu = Cpu::new(&out.program);
    cpu.run(20_000_000).expect("run");
    cpu.reg(Reg::V0)
}

fn assert_three_way(src: &str) {
    let ir_opt = via_ir(src, true);
    let ir_raw = via_ir(src, false);
    let machine_opt = via_machine(src, CompileOptions::with_policy(MaskPolicy::None));
    let machine_raw = via_machine(
        src,
        CompileOptions { policy: MaskPolicy::None, no_optimize: true, locals_in_memory: false },
    );
    assert_eq!(ir_opt, ir_raw, "optimizer changed IR semantics:\n{src}");
    assert_eq!(ir_opt, machine_opt, "codegen/machine diverged from IR:\n{src}");
    assert_eq!(ir_opt, machine_raw, "unoptimized codegen diverged:\n{src}");
}

#[test]
fn fixed_corpus_agrees() {
    for src in [
        "int main() { return 0; }",
        "int main() { int x = -5; return (x >> 1) + (x << 2) + (x & 0xF0F) + !x; }",
        "int g = 3; int sq(int v) { return v * v; } int main() { return sq(g) + sq(sq(2)); }",
        "int a[5] = {9, 8, 7, 6, 5}; int main() { int i; int s = 0; for (i = 0; i < 5; i = i + 1) { if (a[i] % 2) { s = s + a[i]; } else { s = s - a[i]; } } return s; }",
        "int main() { int n = 20; int c = 0; while (n != 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } c = c + 1; } return c; }",
        "const int t[4] = {2, 3, 5, 7}; int main() { return t[0] * t[1] * t[2] * t[3]; }",
        "secure int k[2] = {1, 0}; int main() { return declassify(k[0] ^ k[1]) + 10; }",
        "int main() { int i; int s = 0; for (i = 0; i < 8; i = i + 1) { if (i == 5) { break; } if (i == 2) { continue; } s = s * 10 + i; } return s; }",
    ] {
        assert_three_way(src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn random_expression_trees_agree(
        a in -500i32..500,
        b in 1i32..100,
        c in 0u32..16,
        pick in 0u8..5,
    ) {
        let src = random_expression_source(a, b, c, pick);
        assert_three_way(&src);
    }

    #[test]
    fn random_array_programs_agree(vals in proptest::collection::vec(0u32..256, 3..7), rounds in 1u32..4) {
        let src = random_array_source(&vals, rounds);
        assert_three_way(&src);
    }
}
