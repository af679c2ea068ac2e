//! A two-pass assembler for the emask ISA.
//!
//! Supported syntax:
//!
//! * one instruction, label, or directive per line; `#` comments;
//! * directives `.text`, `.data`, `.word v, ...`, `.space bytes`,
//!   `.align pow2`;
//! * labels `name:` in either segment;
//! * all hardware mnemonics of [`crate::inst::Op`];
//! * secure forms: the paper's dedicated mnemonics (`slw`, `ssw`, `sxor`,
//!   `sxori`, `ssll`, `ssrl`, `ssra`, `ssllv`, `ssrlv`, `saddu`, `smove`)
//!   and a generic `sec.` prefix on any mnemonic;
//! * pseudo-instructions `nop`, `move`, `li`, `la`, `b`, `not`, `neg`,
//!   `blt`, `bgt`, `ble`, `bge` (signed, expanded through `$at`).
//!
//! Branches take label operands and are encoded as word offsets relative to
//! the following instruction; `j`/`jal` take labels encoded as absolute
//! instruction indices.

use crate::inst::{Instruction, Op, OpClass};
use crate::program::{Program, Symbol, DATA_BASE};
use crate::reg::Reg;
use std::collections::HashMap;
use std::fmt;

/// Error raised during assembly, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleError {
    /// 1-based line number of the offending source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AssembleError {}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns [`AssembleError`] for syntax errors, unknown mnemonics or
/// registers, out-of-range immediates, duplicate labels, and undefined
/// symbols.
///
/// # Examples
///
/// ```
/// use emask_isa::{assemble, Symbol};
/// let p = assemble(".text\nstart: li $t0, 7\n b start\n halt\n")?;
/// assert_eq!(p.symbol("start"), Some(Symbol::Text(0)));
/// # Ok::<(), emask_isa::AssembleError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AssembleError> {
    Assembler::new().run(source)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Text,
    Data,
}

struct Assembler {
    symbols: HashMap<String, Symbol>,
}

/// A parsed, label-bearing source line retained for pass 2.
struct PendingInst<'a> {
    line_no: usize,
    mnemonic: &'a str,
    secure: bool,
    operands: Vec<&'a str>,
    /// Instruction index where this (possibly multi-instruction) item
    /// starts.
    index: u32,
}

impl Assembler {
    fn new() -> Self {
        Self { symbols: HashMap::new() }
    }

    fn run(mut self, source: &str) -> Result<Program, AssembleError> {
        let mut segment = Segment::Text;
        let mut text_index: u32 = 0;
        let mut data_offset: u32 = 0; // bytes past DATA_BASE
        let mut pending: Vec<PendingInst<'_>> = Vec::new();
        let mut data_items: Vec<(usize, u32, Vec<&str>)> = Vec::new(); // (line, offset, words)

        // Pass 1: labels, sizes, data layout.
        for (i, raw) in source.lines().enumerate() {
            let line_no = i + 1;
            let mut line = raw;
            if let Some(pos) = line.find('#') {
                line = &line[..pos];
            }
            let mut line = line.trim();
            // Leading labels (possibly several on one line).
            while let Some(colon) = line.find(':') {
                let (label, rest) = line.split_at(colon);
                let label = label.trim();
                if !is_ident(label) {
                    break;
                }
                let sym = match segment {
                    Segment::Text => Symbol::Text(text_index),
                    Segment::Data => Symbol::Data(DATA_BASE + data_offset),
                };
                if self.symbols.insert(label.to_owned(), sym).is_some() {
                    return Err(err(line_no, format!("duplicate label `{label}`")));
                }
                line = rest[1..].trim();
            }
            if line.is_empty() {
                continue;
            }
            if let Some(directive) = line.strip_prefix('.') {
                let (name, args) = split_first_word(directive);
                match name {
                    "text" => segment = Segment::Text,
                    "data" => segment = Segment::Data,
                    "word" => {
                        if segment != Segment::Data {
                            return Err(err(line_no, ".word outside .data".into()));
                        }
                        let values: Vec<&str> =
                            args.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                        if values.is_empty() {
                            return Err(err(line_no, ".word needs at least one value".into()));
                        }
                        data_items.push((line_no, data_offset, values.clone()));
                        data_offset += 4 * values.len() as u32;
                    }
                    "space" => {
                        let n = parse_imm(args.trim()).map_err(|m| err(line_no, m))? as u32;
                        if !n.is_multiple_of(4) {
                            return Err(err(line_no, ".space must be word-aligned".into()));
                        }
                        data_items.push((line_no, data_offset, vec![]));
                        data_offset += n;
                    }
                    "align" => {
                        let p = parse_imm(args.trim()).map_err(|m| err(line_no, m))?;
                        if !(0..=16).contains(&p) {
                            return Err(err(line_no, format!("bad alignment {p}")));
                        }
                        let align = 1u32 << p;
                        let addr = DATA_BASE + data_offset;
                        data_offset += (align - addr % align) % align;
                    }
                    "globl" | "global" => {}
                    other => return Err(err(line_no, format!("unknown directive .{other}"))),
                }
                continue;
            }
            if segment != Segment::Text {
                return Err(err(line_no, "instruction outside .text".into()));
            }
            let (raw_mnemonic, rest) = split_first_word(line);
            let (mnemonic, secure) = resolve_secure(raw_mnemonic);
            let operands: Vec<&str> =
                rest.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
            let size = pseudo_size(mnemonic, &operands)
                .ok_or_else(|| err(line_no, format!("unknown mnemonic `{raw_mnemonic}`")))?;
            pending.push(PendingInst { line_no, mnemonic, secure, operands, index: text_index });
            text_index += size;
        }

        // Materialize data image.
        let mut data = vec![0u32; (data_offset as usize).div_ceil(4)];
        for (line_no, offset, words) in data_items {
            for (k, w) in words.iter().enumerate() {
                let value = parse_imm(w).map_err(|m| err(line_no, m))? as u32;
                data[offset as usize / 4 + k] = value;
            }
        }

        // Pass 2: emit.
        let mut text = Vec::with_capacity(text_index as usize);
        for p in pending {
            let before = text.len() as u32;
            self.emit(&p, &mut text)?;
            debug_assert_eq!(before, p.index, "pass-1 sizing mismatch at line {}", p.line_no);
        }
        Ok(Program { text, data, symbols: self.symbols })
    }

    fn lookup(&self, line: usize, label: &str) -> Result<Symbol, AssembleError> {
        self.symbols
            .get(label)
            .copied()
            .ok_or_else(|| err(line, format!("undefined symbol `{label}`")))
    }

    fn emit(&self, p: &PendingInst<'_>, out: &mut Vec<Instruction>) -> Result<(), AssembleError> {
        let line = p.line_no;
        let ops = &p.operands;
        let need = |n: usize| -> Result<(), AssembleError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(line, format!("`{}` expects {n} operands, got {}", p.mnemonic, ops.len())))
            }
        };
        let reg = |s: &str| -> Result<Reg, AssembleError> {
            s.parse::<Reg>().map_err(|e| err(line, e.to_string()))
        };
        let imm =
            |s: &str| -> Result<i32, AssembleError> { parse_imm(s).map_err(|m| err(line, m)) };
        let sec = p.secure;
        let push = |out: &mut Vec<Instruction>, i: Instruction| out.push(i.with_secure(sec));

        match p.mnemonic {
            // ---- pseudo-instructions ----
            "nop" => {
                need(0)?;
                push(out, Instruction::nop());
            }
            "move" => {
                need(2)?;
                push(out, Instruction::r(Op::Addu, reg(ops[0])?, reg(ops[1])?, Reg::Zero));
            }
            "not" => {
                need(2)?;
                push(out, Instruction::r(Op::Nor, reg(ops[0])?, reg(ops[1])?, Reg::Zero));
            }
            "neg" => {
                need(2)?;
                push(out, Instruction::r(Op::Subu, reg(ops[0])?, Reg::Zero, reg(ops[1])?));
            }
            "li" => {
                need(2)?;
                let rt = reg(ops[0])?;
                let v = imm(ops[1])?;
                emit_li(out, rt, v, sec);
            }
            "la" => {
                need(2)?;
                let rt = reg(ops[0])?;
                let addr = self.lookup(line, ops[1])?.value();
                push(out, Instruction::i(Op::Lui, rt, Reg::Zero, (addr >> 16) as i32));
                push(out, Instruction::i(Op::Ori, rt, rt, (addr & 0xFFFF) as i32));
            }
            "b" => {
                need(1)?;
                let off = self.branch_offset(line, ops[0], out.len() as u32)?;
                push(out, Instruction::branch(Op::Beq, Reg::Zero, Reg::Zero, off));
            }
            m @ ("blt" | "bgt" | "ble" | "bge") => {
                need(3)?;
                let rs = reg(ops[0])?;
                let rt = reg(ops[1])?;
                // slt $at, a, b  (a < b)
                let (sa, sb, branch_op) = match m {
                    "blt" => (rs, rt, Op::Bne), // a<b  → slt=1 → taken
                    "bge" => (rs, rt, Op::Beq), // !(a<b)
                    "bgt" => (rt, rs, Op::Bne), // b<a
                    "ble" => (rt, rs, Op::Beq), // !(b<a)
                    _ => unreachable!(),
                };
                push(out, Instruction::r(Op::Slt, Reg::At, sa, sb));
                let off = self.branch_offset(line, ops[2], out.len() as u32)?;
                push(out, Instruction::branch(branch_op, Reg::At, Reg::Zero, off));
            }
            // ---- hardware instructions ----
            "halt" => {
                need(0)?;
                push(out, Instruction::halt());
            }
            "jr" => {
                need(1)?;
                push(out, Instruction::jr(reg(ops[0])?));
            }
            "jalr" => {
                need(2)?;
                push(out, Instruction::jalr(reg(ops[0])?, reg(ops[1])?));
            }
            m @ ("j" | "jal") => {
                need(1)?;
                let op = if m == "j" { Op::J } else { Op::Jal };
                let target = match self.lookup(line, ops[0]) {
                    Ok(Symbol::Text(t)) => t,
                    Ok(Symbol::Data(_)) => {
                        return Err(err(line, format!("`{}` is a data symbol", ops[0])))
                    }
                    Err(e) => match parse_imm(ops[0]) {
                        Ok(v) => v as u32,
                        Err(_) => return Err(e),
                    },
                };
                push(out, Instruction::jump(op, target));
            }
            "lui" => {
                need(2)?;
                push(out, Instruction::i(Op::Lui, reg(ops[0])?, Reg::Zero, imm(ops[1])?));
            }
            m @ ("lw" | "sw") => {
                need(2)?;
                let rt = reg(ops[0])?;
                let (off, base) = parse_mem(ops[1]).map_err(|msg| err(line, msg))?;
                let base = reg(base)?;
                let off = parse_imm(off).map_err(|msg| err(line, msg))?;
                let i = if m == "lw" {
                    Instruction::lw(rt, off, base)
                } else {
                    Instruction::sw(rt, off, base)
                };
                push(out, i);
            }
            m => {
                let op =
                    mnemonic_op(m).ok_or_else(|| err(line, format!("unknown mnemonic `{m}`")))?;
                match op.class() {
                    OpClass::AluReg => {
                        need(3)?;
                        push(out, Instruction::r(op, reg(ops[0])?, reg(ops[1])?, reg(ops[2])?));
                    }
                    OpClass::ShiftImm => {
                        need(3)?;
                        let sh = imm(ops[2])?;
                        if !(0..32).contains(&sh) {
                            return Err(err(line, format!("shift amount {sh} out of range")));
                        }
                        push(out, Instruction::shift(op, reg(ops[0])?, reg(ops[1])?, sh as u32));
                    }
                    OpClass::AluImm => {
                        need(3)?;
                        let v = imm(ops[2])?;
                        if !imm_in_range(op, v) {
                            return Err(err(line, format!("immediate {v} out of range for {op}")));
                        }
                        push(out, Instruction::i(op, reg(ops[0])?, reg(ops[1])?, v));
                    }
                    OpClass::Branch => match op {
                        Op::Beq | Op::Bne => {
                            need(3)?;
                            let off = self.branch_offset(line, ops[2], out.len() as u32)?;
                            push(out, Instruction::branch(op, reg(ops[0])?, reg(ops[1])?, off));
                        }
                        _ => {
                            need(2)?;
                            let off = self.branch_offset(line, ops[1], out.len() as u32)?;
                            push(out, Instruction::branch(op, reg(ops[0])?, Reg::Zero, off));
                        }
                    },
                    _ => return Err(err(line, format!("`{m}` cannot be assembled here"))),
                }
            }
        }
        Ok(())
    }

    fn branch_offset(&self, line: usize, label: &str, at: u32) -> Result<i32, AssembleError> {
        let target = match self.lookup(line, label) {
            Ok(Symbol::Text(t)) => t as i64,
            Ok(Symbol::Data(_)) => {
                return Err(err(line, format!("branch to data symbol `{label}`")))
            }
            Err(e) => {
                // Allow raw numeric offsets too.
                match parse_imm(label) {
                    Ok(v) => return Ok(v),
                    Err(_) => return Err(e),
                }
            }
        };
        let off = target - (i64::from(at) + 1);
        if !(-(1 << 15)..(1 << 15)).contains(&off) {
            return Err(err(line, format!("branch to `{label}` out of range ({off})")));
        }
        Ok(off as i32)
    }
}

fn emit_li(out: &mut Vec<Instruction>, rt: Reg, v: i32, sec: bool) {
    if (-(1 << 15)..(1 << 15)).contains(&v) {
        out.push(Instruction::i(Op::Addiu, rt, Reg::Zero, v).with_secure(sec));
    } else if (0..(1 << 16)).contains(&v) {
        out.push(Instruction::i(Op::Ori, rt, Reg::Zero, v).with_secure(sec));
    } else {
        let u = v as u32;
        out.push(Instruction::i(Op::Lui, rt, Reg::Zero, (u >> 16) as i32).with_secure(sec));
        out.push(Instruction::i(Op::Ori, rt, rt, (u & 0xFFFF) as i32).with_secure(sec));
    }
}

/// Number of hardware instructions an item expands to, or `None` for an
/// unknown mnemonic. Must agree exactly with [`Assembler::emit`].
fn pseudo_size(mnemonic: &str, operands: &[&str]) -> Option<u32> {
    Some(match mnemonic {
        "nop" | "move" | "not" | "neg" | "b" | "halt" | "jr" | "jalr" | "j" | "jal" | "lui"
        | "lw" | "sw" => 1,
        "la" => 2,
        "blt" | "bgt" | "ble" | "bge" => 2,
        "li" => {
            let v = operands.get(1).and_then(|s| parse_imm(s).ok())?;
            if (-(1 << 15)..(1 << 16)).contains(&v) {
                1
            } else {
                2
            }
        }
        m => {
            mnemonic_op(m)?;
            1
        }
    })
}

fn mnemonic_op(m: &str) -> Option<Op> {
    use Op::*;
    Some(match m {
        "addu" => Addu,
        "subu" => Subu,
        "and" => And,
        "or" => Or,
        "xor" => Xor,
        "nor" => Nor,
        "sllv" => Sllv,
        "srlv" => Srlv,
        "srav" => Srav,
        "slt" => Slt,
        "sltu" => Sltu,
        "mul" => Mul,
        "div" => Div,
        "rem" => Rem,
        "addiu" => Addiu,
        "andi" => Andi,
        "ori" => Ori,
        "xori" => Xori,
        "slti" => Slti,
        "sltiu" => Sltiu,
        "sll" => Sll,
        "srl" => Srl,
        "sra" => Sra,
        "beq" => Beq,
        "bne" => Bne,
        "blez" => Blez,
        "bgtz" => Bgtz,
        "bltz" => Bltz,
        "bgez" => Bgez,
        _ => return None,
    })
}

/// Maps a possibly-secure mnemonic to (base mnemonic, secure flag).
fn resolve_secure(m: &str) -> (&str, bool) {
    if let Some(rest) = m.strip_prefix("sec.") {
        return (rest, true);
    }
    let table: &[(&str, &str)] = &[
        ("slw", "lw"),
        ("ssw", "sw"),
        ("sxor", "xor"),
        ("sxori", "xori"),
        ("ssll", "sll"),
        ("ssrl", "srl"),
        ("ssra", "sra"),
        ("ssllv", "sllv"),
        ("ssrlv", "srlv"),
        ("saddu", "addu"),
        ("smove", "move"),
    ];
    for &(sec, base) in table {
        if m == sec {
            return (base, true);
        }
    }
    (m, false)
}

fn split_first_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_mem(s: &str) -> Result<(&str, &str), String> {
    let open = s.find('(').ok_or_else(|| format!("bad memory operand `{s}`"))?;
    let close = s.rfind(')').ok_or_else(|| format!("bad memory operand `{s}`"))?;
    if close < open {
        return Err(format!("bad memory operand `{s}`"));
    }
    let off = s[..open].trim();
    let off = if off.is_empty() { "0" } else { off };
    Ok((off, s[open + 1..close].trim()))
}

fn parse_imm(s: &str) -> Result<i32, String> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let value: i64 = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X"))
    {
        i64::from_str_radix(hex, 16).map_err(|_| format!("bad immediate `{s}`"))?
    } else {
        body.parse::<i64>().map_err(|_| format!("bad immediate `{s}`"))?
    };
    let value = if neg { -value } else { value };
    if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&value) {
        return Err(format!("immediate `{s}` out of 32-bit range"));
    }
    Ok(value as u32 as i32)
}

fn imm_in_range(op: Op, v: i32) -> bool {
    if op.zero_extends_imm() {
        (0..(1 << 16)).contains(&v)
    } else {
        (-(1 << 15)..(1 << 15)).contains(&v)
    }
}

fn err(line: usize, message: String) -> AssembleError {
    AssembleError { line, message }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program_assembles() {
        let p = assemble(".text\nmain: addiu $t0, $zero, 5\n halt\n").unwrap();
        assert_eq!(p.text.len(), 2);
        assert_eq!(p.symbol("main"), Some(crate::program::Symbol::Text(0)));
    }

    #[test]
    fn data_words_and_labels() {
        let p =
            assemble(".data\ntbl: .word 1, 2, 0x10\nbuf: .space 8\nend: .word -1\n.text\nhalt\n")
                .unwrap();
        assert_eq!(p.data_addr("tbl"), DATA_BASE);
        assert_eq!(p.data_addr("buf"), DATA_BASE + 12);
        assert_eq!(p.data_addr("end"), DATA_BASE + 20);
        assert_eq!(p.data[..3], [1, 2, 16]);
        assert_eq!(p.data[5], 0xFFFF_FFFF);
    }

    #[test]
    fn align_directive_pads() {
        let p = assemble(".data\n.word 1\n.align 4\nb: .word 2\n.text\nhalt\n").unwrap();
        assert_eq!(p.data_addr("b") % 16, 0);
    }

    #[test]
    fn secure_mnemonics_set_the_bit() {
        let p = assemble(
            ".text\n slw $t0, 0($t1)\n ssw $t0, 4($t1)\n sxor $t2, $t0, $t0\n sec.addiu $t3, $t3, 1\n lw $t4, 0($t1)\n halt\n",
        )
        .unwrap();
        assert!(p.text[0].secure && p.text[0].is_load());
        assert!(p.text[1].secure && p.text[1].is_store());
        assert!(p.text[2].secure && p.text[2].op == Op::Xor);
        assert!(p.text[3].secure && p.text[3].op == Op::Addiu);
        assert!(!p.text[4].secure);
        assert_eq!(p.secure_instruction_count(), 4);
    }

    #[test]
    fn branches_resolve_backward_and_forward() {
        let p = assemble(
            ".text\nloop: addiu $t0, $t0, 1\n bne $t0, $t1, loop\n beq $t0, $t1, done\n nop\ndone: halt\n",
        )
        .unwrap();
        assert_eq!(p.text[1].imm, -2); // back to index 0 from index 2
        assert_eq!(p.text[2].imm, 1); // forward to index 4 from index 3
    }

    #[test]
    fn jumps_use_absolute_indices() {
        let p = assemble(".text\n j end\n nop\nend: halt\n").unwrap();
        assert_eq!(p.text[0].target, 2);
    }

    #[test]
    fn li_chooses_shortest_form() {
        let p = assemble(
            ".text\n li $t0, 5\n li $t1, -5\n li $t2, 0x8000\n li $t3, 0x12345678\n halt\n",
        )
        .unwrap();
        // 1 + 1 + 1 + 2 + 1 instructions.
        assert_eq!(p.text.len(), 6);
        assert_eq!(p.text[0].op, Op::Addiu);
        assert_eq!(p.text[2].op, Op::Ori);
        assert_eq!(p.text[3].op, Op::Lui);
        assert_eq!(p.text[4].op, Op::Ori);
    }

    #[test]
    fn la_is_lui_ori_pair() {
        let p = assemble(".data\nv: .word 9\n.text\n la $t0, v\n lw $t1, 0($t0)\n halt\n").unwrap();
        assert_eq!(p.text[0].op, Op::Lui);
        assert_eq!(p.text[1].op, Op::Ori);
        let addr = ((p.text[0].imm as u32) << 16) | (p.text[1].imm as u32);
        assert_eq!(addr, DATA_BASE);
    }

    #[test]
    fn comparison_pseudos_expand_via_at() {
        let p = assemble(".text\nloop: blt $t0, $t1, loop\n bge $t0, $t1, loop\n halt\n").unwrap();
        assert_eq!(p.text.len(), 5);
        assert_eq!(p.text[0].op, Op::Slt);
        assert_eq!(p.text[1].op, Op::Bne);
        assert_eq!(p.text[2].op, Op::Slt);
        assert_eq!(p.text[3].op, Op::Beq);
        // Pass-1 sizing must keep label math right: offset from idx 1 → 0.
        assert_eq!(p.text[1].imm, -2);
    }

    #[test]
    fn move_and_not_pseudos() {
        let p = assemble(".text\n move $t0, $t1\n not $t2, $t3\n neg $t4, $t5\n halt\n").unwrap();
        assert_eq!(p.text[0].op, Op::Addu);
        assert_eq!(p.text[1].op, Op::Nor);
        assert_eq!(p.text[2].op, Op::Subu);
        assert_eq!(p.text[2].rs, Reg::Zero);
    }

    #[test]
    fn smove_is_secure_assignment() {
        let p = assemble(".text\n smove $t0, $t1\n halt\n").unwrap();
        assert!(p.text[0].secure);
        assert_eq!(p.text[0].op, Op::Addu);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(".text\n nop\n bogus $t0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = assemble(".text\nx: nop\nx: nop\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn undefined_symbol_rejected() {
        let e = assemble(".text\n j nowhere\n").unwrap_err();
        assert!(e.message.contains("undefined"));
    }

    #[test]
    fn wrong_operand_count_rejected() {
        let e = assemble(".text\n addu $t0, $t1\n").unwrap_err();
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn instruction_in_data_segment_rejected() {
        let e = assemble(".data\n addu $t0, $t1, $t2\n").unwrap_err();
        assert!(e.message.contains("outside .text"));
    }

    #[test]
    fn memory_operand_forms() {
        let p = assemble(".text\n lw $t0, ($t1)\n lw $t0, -8($sp)\n sw $t0, 0x10($gp)\n halt\n")
            .unwrap();
        assert_eq!(p.text[0].imm, 0);
        assert_eq!(p.text[1].imm, -8);
        assert_eq!(p.text[2].imm, 16);
    }

    #[test]
    fn out_of_range_immediate_rejected() {
        let e = assemble(".text\n addiu $t0, $t0, 40000\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn display_output_reassembles_to_the_same_instruction() {
        use crate::inst::{Instruction, Op};
        // Every displayable instruction form must survive
        // display → assemble; branches/jumps print numeric targets which
        // the assembler accepts.
        let samples = vec![
            Instruction::r(Op::Addu, Reg::T0, Reg::T1, Reg::T2),
            Instruction::r(Op::Xor, Reg::S3, Reg::A0, Reg::V1).with_secure(true),
            Instruction::r(Op::Nor, Reg::T0, Reg::T1, Reg::T2).with_secure(true),
            Instruction::shift(Op::Sll, Reg::T0, Reg::T1, 31),
            Instruction::shift(Op::Sra, Reg::T0, Reg::T1, 1).with_secure(true),
            Instruction::i(Op::Addiu, Reg::Sp, Reg::Sp, -32),
            Instruction::i(Op::Andi, Reg::T0, Reg::T1, 0xFFFF),
            Instruction::i(Op::Slti, Reg::T0, Reg::T1, -5).with_secure(true),
            Instruction::i(Op::Lui, Reg::T0, Reg::Zero, 0xFFFF),
            Instruction::lw(Reg::T0, -4, Reg::Sp),
            Instruction::lw(Reg::T3, 128, Reg::Gp).with_secure(true),
            Instruction::sw(Reg::Ra, 0, Reg::Sp).with_secure(true),
            Instruction::branch(Op::Bne, Reg::T0, Reg::T1, 5),
            Instruction::branch(Op::Bgez, Reg::A0, Reg::Zero, -3),
            Instruction::jr(Reg::Ra),
            Instruction::jalr(Reg::Ra, Reg::T9),
            Instruction::nop(),
            Instruction::halt(),
        ];
        for inst in samples {
            let text = format!(".text\n {inst}\n halt\n");
            let p =
                assemble(&text).unwrap_or_else(|e| panic!("`{inst}` failed to reassemble: {e}"));
            assert_eq!(p.text[0], inst, "round trip changed `{inst}`");
        }
    }

    #[test]
    fn full_round_trip_through_encoding() {
        let src = r#"
        .data
table:  .word 10, 20, 30, 40
        .text
main:   la   $t0, table
        li   $t1, 0
        li   $t2, 0
loop:   sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        slw  $t4, 0($t3)
        addu $t2, $t2, $t4
        addiu $t1, $t1, 1
        blt  $t1, $t5, loop
        halt
"#;
        let p = assemble(src).unwrap();
        for inst in &p.text {
            let word = crate::encode::encode(inst);
            assert_eq!(&crate::encode::decode(word).unwrap(), inst);
        }
    }
}
