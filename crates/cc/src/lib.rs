//! # emask-cc — the optimizing, slicing compiler
//!
//! The compiler half of the paper's contribution: a from-scratch compiler
//! for **Tiny-C**, a small C-like language, targeting the
//! [`emask-isa`](emask_isa) smart-card ISA. Its distinguishing feature is
//! the security pipeline of §4.1 of the paper:
//!
//! 1. the programmer annotates critical variables with the `secure`
//!    storage qualifier (`secure int key[64];`);
//! 2. **forward slicing** (Horwitz/Reps/Binkley-style, over def-use chains
//!    on the control-flow graph) computes every variable and instruction
//!    whose value depends on the seeds — including values that flow
//!    through arrays and through address computations (the S-box indexing
//!    case);
//! 3. instruction selection emits the **secure version** of every machine
//!    instruction that touches sliced data (`slw`, `ssw`, `sxor`, secure
//!    shifts/moves, and secure indexing), and the normal version elsewhere.
//!
//! The [`MaskPolicy`] reproduces the paper's comparison points: no masking,
//! the compiler's selective masking, the naive all-loads/stores masking,
//! and whole-program dual-rail masking.
//!
//! The classic pipeline around that: lexer → recursive-descent parser →
//! type checker → three-address IR → CFG → dataflow (liveness, def-use) →
//! optimizations (constant folding, copy propagation, dead-code
//! elimination, strength reduction) → linear-scan register allocation →
//! MIPS-like code generation, emitting assembly that
//! [`emask_isa::assemble`] turns into a runnable [`emask_isa::Program`].
//!
//! ## Example
//!
//! ```
//! use emask_cc::{compile, CompileOptions};
//!
//! let out = compile(
//!     r#"
//!     secure int key[4] = {1, 0, 1, 1};
//!     int work[4];
//!     int main() {
//!         int i;
//!         for (i = 0; i < 4; i = i + 1) {
//!             work[i] = key[i] ^ 1;   // sliced: becomes sxor/slw/ssw
//!         }
//!         return work[0];
//!     }
//! "#,
//!     CompileOptions::default(),
//! )?;
//! assert!(out.program.secure_instruction_count() > 0);
//! # Ok::<(), emask_cc::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod ast;
mod cfg;
mod codegen;
mod driver;
mod hoist;
mod interp;
mod ir;
mod lexer;
mod lower;
mod opt;
mod parser;
mod regalloc;
mod sema;
mod slice;

pub use ast::{BinOp, Expr, Function, Global, Stmt, UnOp, Unit};
pub use driver::{compile, CompileError, CompileOptions, CompileOutput, MaskPolicy};
pub use interp::{IrMachine, IrTrap};
pub use ir::{BinKind, FuncIr, Inst, Label, Operand, Temp};
pub use lexer::LexError;
pub use lower::lower_unit;
pub use opt::{fold_const_globals, optimize};
pub use parser::{parse, ParseError};
pub use sema::{check, FuncInfo, GlobalInfo, SemaError, UnitInfo};
pub use slice::SliceReport;
