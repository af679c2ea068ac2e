//! Assembled program images: text, initial data memory, and symbols.

use crate::inst::Instruction;
use std::collections::HashMap;
use std::fmt;

/// Default base byte address of the `.data` segment.
pub const DATA_BASE: u32 = 0x1000;

/// Default size of the simulated data memory in bytes (32 KiB).
pub const MEM_SIZE: u32 = 0x8000;

/// Default initial stack pointer (top of data memory, 16-byte aligned).
pub const STACK_TOP: u32 = MEM_SIZE - 16;

/// Where an assembled symbol points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// An instruction index in the text segment.
    Text(u32),
    /// A byte address in the data segment.
    Data(u32),
}

impl Symbol {
    /// The raw address value: instruction index or byte address.
    pub fn value(self) -> u32 {
        match self {
            Symbol::Text(v) | Symbol::Data(v) => v,
        }
    }
}

/// An assembled program: decoded text, an initial data image, and the
/// symbol table.
///
/// The machine is a Harvard architecture — instruction memory is indexed by
/// instruction, data memory is byte-addressed starting at 0 with the
/// assembled `.data` contents placed at [`DATA_BASE`].
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instructions, indexed by PC.
    pub text: Vec<Instruction>,
    /// Initial contents of data memory from byte address [`DATA_BASE`],
    /// one word per element.
    pub data: Vec<u32>,
    /// Label → location map.
    pub symbols: HashMap<String, Symbol>,
}

impl Program {
    /// An empty program.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Looks up a symbol.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.symbols.get(name).copied()
    }

    /// The byte address of a data symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol is missing or is a text symbol — intended for
    /// tests and harness code where the label is known to exist.
    /// CLI-reachable callers should use [`Program::try_data_addr`].
    pub fn data_addr(&self, name: &str) -> u32 {
        match self.symbol(name) {
            Some(Symbol::Data(a)) => a,
            other => panic!("`{name}` is not a data symbol (found {other:?})"),
        }
    }

    /// The byte address of a data symbol, or `None` if the symbol is
    /// missing or names a text location — the non-panicking counterpart of
    /// [`Program::data_addr`] for fallible (CLI-reachable) paths.
    pub fn try_data_addr(&self, name: &str) -> Option<u32> {
        match self.symbol(name) {
            Some(Symbol::Data(a)) => Some(a),
            _ => None,
        }
    }

    /// Number of instructions carrying the secure bit.
    pub fn secure_instruction_count(&self) -> usize {
        self.text.iter().filter(|i| i.secure).count()
    }

    /// A full disassembly listing with instruction indices and text labels.
    #[cfg(test)]
    pub(crate) fn listing(&self) -> String {
        let mut by_index: HashMap<u32, Vec<&str>> = HashMap::new();
        for (name, sym) in &self.symbols {
            if let Symbol::Text(i) = sym {
                by_index.entry(*i).or_default().push(name);
            }
        }
        let mut out = String::new();
        for (i, inst) in self.text.iter().enumerate() {
            if let Some(labels) = by_index.get(&(i as u32)) {
                for label in labels {
                    out.push_str(label);
                    out.push_str(":\n");
                }
            }
            out.push_str(&format!("{i:6}  {inst}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Program({} instructions, {} secure, {} data words, {} symbols)",
            self.text.len(),
            self.secure_instruction_count(),
            self.data.len(),
            self.symbols.len()
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::inst::{Instruction, Op};
    use crate::reg::Reg;

    fn sample() -> Program {
        let mut p = Program::new();
        p.text.push(Instruction::i(Op::Addiu, Reg::T0, Reg::Zero, 1));
        p.text.push(Instruction::r(Op::Xor, Reg::T1, Reg::T0, Reg::T0).with_secure(true));
        p.text.push(Instruction::halt());
        p.data.push(0xDEAD_BEEF);
        p.symbols.insert("main".into(), Symbol::Text(0));
        p.symbols.insert("buf".into(), Symbol::Data(DATA_BASE));
        p
    }

    #[test]
    fn symbol_lookup() {
        let p = sample();
        assert_eq!(p.symbol("main"), Some(Symbol::Text(0)));
        assert_eq!(p.data_addr("buf"), DATA_BASE);
        assert!(p.symbol("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "not a data symbol")]
    fn data_addr_rejects_text_symbol() {
        sample().data_addr("main");
    }

    #[test]
    fn secure_count() {
        assert_eq!(sample().secure_instruction_count(), 1);
    }

    #[test]
    fn listing_contains_labels_and_mnemonics() {
        let l = sample().listing();
        assert!(l.contains("main:"));
        assert!(l.contains("sxor"));
        assert!(l.contains("halt"));
    }

    #[test]
    fn display_summarizes() {
        let s = sample().to_string();
        assert!(s.contains("3 instructions"));
        assert!(s.contains("1 secure"));
    }

    #[test]
    fn stack_top_is_aligned_and_in_memory() {
        // Evaluated through a function so the layout invariants are
        // checked as values, not constant-folded assertions.
        fn check(stack_top: u32, mem_size: u32, data_base: u32) {
            assert_eq!(stack_top % 16, 0);
            assert!(stack_top < mem_size);
            assert!(data_base < stack_top);
        }
        check(STACK_TOP, MEM_SIZE, DATA_BASE);
    }
}
