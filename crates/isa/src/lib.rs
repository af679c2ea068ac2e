//! # emask-isa — the smart-card processor's instruction set
//!
//! A 32-bit MIPS-like RISC instruction set in the spirit of the integer
//! subset of the SimpleScalar PISA used by the paper ("its ISA is
//! representative of current embedded 32-bit RISC cores used in smart cards
//! such as the ARM7-TDMI").
//!
//! The paper's architectural contribution is a **secure bit** carried by
//! selected instructions: a secure load/store/XOR/shift/indexing operation
//! activates the dual-rail pre-charged data path so its energy is
//! data-independent. Following the paper's implementation choice
//! ("augmenting the original opcodes with an additional secure bit ... to
//! minimize the impact on the decoding logic"), every [`Instruction`] here
//! carries a [`secure`](Instruction::secure) flag, and the binary encoding
//! reserves bit 31 for it.
//!
//! The crate provides:
//!
//! * [`Reg`] — architectural register names with MIPS conventions,
//! * [`Op`] / [`Instruction`] — the instruction model with classification
//!   helpers used by the pipeline and the energy model,
//! * [`encode`] / [`decode`] — binary encode/decode (round-trip tested),
//! * [`assemble`] — a two-pass assembler with labels, `.data` directives, the
//!   paper's secure mnemonics (`slw`, `ssw`, `sxor`, ...), and the usual
//!   pseudo-instructions (`li`, `la`, `move`, `b`, `blt`, ...),
//! * [`Program`] — an assembled text + data image with a symbol table.
//!
//! ## Example
//!
//! ```
//! use emask_isa::assemble;
//!
//! let program = assemble(
//!     r#"
//!     .data
//! value:  .word 42
//!     .text
//! main:   la   $t0, value
//!         slw  $t1, 0($t0)      # secure load: dual-rail data path
//!         addiu $t1, $t1, 1
//!         halt
//! "#,
//! )?;
//! // `la` expands to lui+ori, so the secure load is instruction 2.
//! assert!(program.text[2].secure);
//! # Ok::<(), emask_isa::AssembleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod asm;
mod encode;
mod inst;
mod program;
mod reg;

pub use asm::{assemble, AssembleError};
pub use encode::{decode, encode, DecodeError};
pub use inst::{Instruction, Op, OpClass};
pub use program::{Program, Symbol, DATA_BASE, MEM_SIZE, STACK_TOP};
pub use reg::{ParseRegError, Reg};
