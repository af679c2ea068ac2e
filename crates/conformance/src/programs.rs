//! Shared random-program generators for differential and conformance
//! testing.
//!
//! These Tiny-C source generators used to be copy-pasted across the
//! workspace integration tests (`tests/differential.rs`,
//! `tests/three_way_differential.rs`, `tests/compiler_pipeline.rs`); they
//! live here once, parameterized over plain integers so they compose with
//! both proptest strategies and the deterministic [`corpus`] expansion the
//! conformance suite uses.
//!
//! Every generated program is terminating by construction (bounded loops,
//! no recursion) and writes its observable result into globals and `$v0`,
//! which is what lets the differential harnesses compare full final
//! architectural state.

/// A family of random-but-terminating Tiny-C programs: a global array
/// initialized from random constants, a bounded nested loop applying a
/// random mix of operations, and a running reduction.
#[must_use]
pub fn random_program(seed: &[u32], ops: &[u8], bound: u32) -> String {
    let inits: Vec<String> = seed.iter().map(|v| v.to_string()).collect();
    let n = seed.len();
    let mut body = String::new();
    for (k, op) in ops.iter().enumerate() {
        let expr = match op % 6 {
            0 => format!("a[i] + {}", k + 1),
            1 => "a[i] ^ acc".to_string(),
            2 => "(a[i] << 1) | 1".to_string(),
            3 => format!("a[i] - acc + {k}"),
            4 => "(a[i] * 3) % 251".to_string(),
            _ => format!("a[i] & (acc | {k})"),
        };
        body.push_str(&format!("a[i] = {expr}; "));
    }
    format!(
        "int a[{n}] = {{{}}};\n\
         int main() {{\n\
           int i; int j; int acc = 1;\n\
           for (j = 0; j < {bound}; j = j + 1) {{\n\
             for (i = 0; i < {n}; i = i + 1) {{ {body} acc = acc + a[i]; }}\n\
           }}\n\
           return acc;\n\
         }}",
        inits.join(", ")
    )
}

/// A random arithmetic/logic expression tree wrapped in `main` — the
/// straight-line family that stresses constant folding, shifts, division
/// and comparisons without touching memory.
#[must_use]
pub fn random_expression_source(a: i32, b: i32, c: u32, pick: u8) -> String {
    let b = b.max(1); // divisor / shift guard
    let c = c % 16;
    let expr = match pick % 5 {
        0 => format!("({a} + {b}) * ({b} - {a}) + ({a} << {c})"),
        1 => format!("({a} / {b}) % ({b} + 1) ^ {a}"),
        2 => format!("(({a} | {b}) & ~{b}) + ({a} >> {c})"),
        3 => format!("({a} < {b}) * 100 + ({a} == {a}) * 10 + ({b} >= {b})"),
        _ => format!("-{a} + !{b} + ~{a}"),
    };
    format!("int main() {{ return {expr}; }}")
}

/// A random global-array program: repeated in-place transformation with a
/// running XOR accumulator — the family that stresses load/store codegen
/// and loop-carried state.
#[must_use]
pub fn random_array_source(vals: &[u32], rounds: u32) -> String {
    let n = vals.len();
    let inits: Vec<String> = vals.iter().map(u32::to_string).collect();
    format!(
        "int a[{n}] = {{{}}}; int main() {{ int r; int i; int acc = 0;\
         for (r = 0; r < {rounds}; r = r + 1) {{\
           for (i = 0; i < {n}; i = i + 1) {{ a[i] = (a[i] * 5 + r) % 251; acc = acc ^ a[i]; }}\
         }} return acc; }}",
        inits.join(", ")
    )
}

/// A random fold over a constant-initialized array — the smallest family
/// on which the two codegen modes (optimizing vs paper-style) can
/// meaningfully disagree.
#[must_use]
pub fn random_reduce_source(vals: &[u32]) -> String {
    let inits: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    let n = vals.len();
    format!(
        "int a[{n}] = {{{}}}; int main() {{ int i; int acc = 1; \
         for (i = 0; i < {n}; i = i + 1) {{ acc = acc * 3 + a[i]; }} return acc; }}",
        inits.join(", ")
    )
}

/// SplitMix64 — the deterministic seed expander behind [`corpus`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic corpus of `count` generated Tiny-C programs, cycling
/// through all four generator families. The expansion is a pure function
/// of `base_seed`, so every conformance run (any machine, any test order)
/// exercises byte-identical programs — a divergence report always
/// reproduces.
#[must_use]
pub fn corpus(base_seed: u64, count: usize) -> Vec<String> {
    let mut state = base_seed;
    let mut draw = move || splitmix64(&mut state);
    (0..count)
        .map(|i| match i % 4 {
            0 => {
                let n = 2 + (draw() % 4) as usize;
                let seed: Vec<u32> = (0..n).map(|_| (draw() % 10_000) as u32).collect();
                let ops: Vec<u8> = (0..1 + (draw() % 4) as usize).map(|_| draw() as u8).collect();
                let bound = 1 + (draw() % 3) as u32;
                random_program(&seed, &ops, bound)
            }
            1 => {
                let a = (draw() % 1000) as i32 - 500;
                let b = 1 + (draw() % 99) as i32;
                let c = (draw() % 16) as u32;
                random_expression_source(a, b, c, draw() as u8)
            }
            2 => {
                let n = 3 + (draw() % 4) as usize;
                let vals: Vec<u32> = (0..n).map(|_| (draw() % 256) as u32).collect();
                random_array_source(&vals, 1 + (draw() % 3) as u32)
            }
            _ => {
                let n = 4 + (draw() % 4) as usize;
                let vals: Vec<u32> = (0..n).map(|_| (draw() % 100) as u32).collect();
                random_reduce_source(&vals)
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let a = corpus(42, 32);
        let b = corpus(42, 32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        // All four families appear.
        assert_ne!(corpus(42, 8), corpus(43, 8));
    }

    #[test]
    fn every_corpus_program_compiles_and_terminates() {
        use emask_cc::{compile, CompileOptions, MaskPolicy};
        for (i, src) in corpus(7, 16).iter().enumerate() {
            let out = compile(src, CompileOptions::with_policy(MaskPolicy::None))
                .unwrap_or_else(|e| panic!("program {i} failed to compile: {e}\n{src}"));
            let mut cpu = emask_cpu::Cpu::new(&out.program);
            cpu.run(20_000_000).unwrap_or_else(|e| panic!("program {i} failed to run: {e}"));
        }
    }
}
