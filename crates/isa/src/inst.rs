//! The instruction model: operations, operand fields, the secure bit, and
//! the classification helpers used by the pipeline and the energy model.

use crate::reg::Reg;
use std::fmt;

/// Every operation of the ISA.
///
/// The set mirrors the integer core of the SimpleScalar PISA / MIPS-I:
/// register and immediate ALU ops, immediate shifts, word loads/stores,
/// branches and jumps, plus `halt` to end simulation. `mul`/`div`/`rem`
/// write their destination directly (as in MIPS32 `mul`), which keeps the
/// 5-stage pipeline free of HI/LO side registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // mnemonics are the documentation
pub enum Op {
    // R-type ALU
    Addu,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Sllv,
    Srlv,
    Srav,
    Slt,
    Sltu,
    Mul,
    Div,
    Rem,
    // I-type ALU
    Addiu,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    Lui,
    // immediate shifts
    Sll,
    Srl,
    Sra,
    // memory
    Lw,
    Sw,
    // branches
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
    // jumps
    J,
    Jal,
    Jr,
    Jalr,
    // misc
    Halt,
}

/// Coarse classification used by the hazard logic and the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Three-register ALU operation.
    AluReg,
    /// Register-immediate ALU operation (including `lui`).
    AluImm,
    /// Shift by immediate amount.
    ShiftImm,
    /// Word load.
    Load,
    /// Word store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (`j`, `jal`, `jr`, `jalr`).
    Jump,
    /// End of simulation.
    Halt,
}

impl Op {
    /// The operation's classification.
    pub fn class(self) -> OpClass {
        use Op::*;
        match self {
            Addu | Subu | And | Or | Xor | Nor | Sllv | Srlv | Srav | Slt | Sltu | Mul | Div
            | Rem => OpClass::AluReg,
            Addiu | Andi | Ori | Xori | Slti | Sltiu | Lui => OpClass::AluImm,
            Sll | Srl | Sra => OpClass::ShiftImm,
            Lw => OpClass::Load,
            Sw => OpClass::Store,
            Beq | Bne | Blez | Bgtz | Bltz | Bgez => OpClass::Branch,
            J | Jal | Jr | Jalr => OpClass::Jump,
            Halt => OpClass::Halt,
        }
    }

    /// The assembler mnemonic.
    pub(crate) fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Addu => "addu",
            Subu => "subu",
            And => "and",
            Or => "or",
            Xor => "xor",
            Nor => "nor",
            Sllv => "sllv",
            Srlv => "srlv",
            Srav => "srav",
            Slt => "slt",
            Sltu => "sltu",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            Addiu => "addiu",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slti => "slti",
            Sltiu => "sltiu",
            Lui => "lui",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Lw => "lw",
            Sw => "sw",
            Beq => "beq",
            Bne => "bne",
            Blez => "blez",
            Bgtz => "bgtz",
            Bltz => "bltz",
            Bgez => "bgez",
            J => "j",
            Jal => "jal",
            Jr => "jr",
            Jalr => "jalr",
            Halt => "halt",
        }
    }

    /// The paper's dedicated secure mnemonic, if this operation has one
    /// (`lw → slw`, `sw → ssw`, `xor → sxor`, shifts → `ssll`/`ssrl`/`ssra`,
    /// `xori → sxori`). Other operations render as `sec.<mnemonic>`.
    pub(crate) fn secure_mnemonic(self) -> Option<&'static str> {
        use Op::*;
        match self {
            Lw => Some("slw"),
            Sw => Some("ssw"),
            Xor => Some("sxor"),
            Xori => Some("sxori"),
            Sll => Some("ssll"),
            Srl => Some("ssrl"),
            Sra => Some("ssra"),
            Sllv => Some("ssllv"),
            Srlv => Some("ssrlv"),
            Addu => Some("saddu"),
            _ => None,
        }
    }

    /// Whether the operation's immediate field is zero-extended (logical
    /// immediates and `lui`'s raw upper half) rather than sign-extended.
    pub fn zero_extends_imm(self) -> bool {
        matches!(self, Op::Andi | Op::Ori | Op::Xori | Op::Lui)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One decoded instruction.
///
/// Field use by format:
///
/// * R-type: `rd = op(rs, rt)`; immediate shifts use `imm` as the shift
///   amount and read only `rt` (as in MIPS `sll rd, rt, shamt`).
/// * I-type: `rt = op(rs, imm)`; loads `rt = mem[rs + imm]`; stores
///   `mem[rs + imm] = rt`; branches compare `rs` (and `rt`) and jump by
///   `imm` words relative to the next instruction.
/// * J-type: `target` is an absolute instruction index.
///
/// The [`secure`](Self::secure) flag selects the dual-rail pre-charged data
/// path for this instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub op: Op,
    /// Destination register (R-type) — `$zero` when unused.
    pub rd: Reg,
    /// First source register — `$zero` when unused.
    pub rs: Reg,
    /// Second source / I-type destination register — `$zero` when unused.
    pub rt: Reg,
    /// Immediate: 16-bit constant, branch word offset, or shift amount.
    pub imm: i32,
    /// Absolute instruction index for `j`/`jal`.
    pub target: u32,
    /// Secure bit: run this instruction on the dual-rail pre-charged path.
    pub secure: bool,
}

impl Instruction {
    fn base(op: Op) -> Self {
        Self { op, rd: Reg::Zero, rs: Reg::Zero, rt: Reg::Zero, imm: 0, target: 0, secure: false }
    }

    /// Three-register ALU instruction `rd = op(rs, rt)`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an [`OpClass::AluReg`] operation.
    pub fn r(op: Op, rd: Reg, rs: Reg, rt: Reg) -> Self {
        assert_eq!(op.class(), OpClass::AluReg, "{op} is not an R-type ALU op");
        Self { rd, rs, rt, ..Self::base(op) }
    }

    /// Immediate shift `rd = op(rt, shamt)`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a shift or `shamt >= 32`.
    pub fn shift(op: Op, rd: Reg, rt: Reg, shamt: u32) -> Self {
        assert_eq!(op.class(), OpClass::ShiftImm, "{op} is not an immediate shift");
        assert!(shamt < 32, "shift amount {shamt} out of range");
        Self { rd, rt, imm: shamt as i32, ..Self::base(op) }
    }

    /// Register-immediate ALU instruction `rt = op(rs, imm)`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an [`OpClass::AluImm`] operation or `imm` does
    /// not fit its (sign- or zero-extended) 16-bit field.
    pub fn i(op: Op, rt: Reg, rs: Reg, imm: i32) -> Self {
        assert_eq!(op.class(), OpClass::AluImm, "{op} is not an I-type ALU op");
        assert!(imm_fits(op, imm), "immediate {imm} out of 16-bit range for {op}");
        Self { rt, rs, imm, ..Self::base(op) }
    }

    /// Word load `rt = mem[base + offset]`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in a signed 16-bit field.
    pub fn lw(rt: Reg, offset: i32, base: Reg) -> Self {
        assert!(fits_i16(offset), "offset {offset} out of range");
        Self { rt, rs: base, imm: offset, ..Self::base(Op::Lw) }
    }

    /// Word store `mem[base + offset] = rt`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in a signed 16-bit field.
    pub fn sw(rt: Reg, offset: i32, base: Reg) -> Self {
        assert!(fits_i16(offset), "offset {offset} out of range");
        Self { rt, rs: base, imm: offset, ..Self::base(Op::Sw) }
    }

    /// Conditional branch; `offset` is in instructions relative to the
    /// instruction after the branch.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a branch or `offset` does not fit in 16 bits.
    pub fn branch(op: Op, rs: Reg, rt: Reg, offset: i32) -> Self {
        assert_eq!(op.class(), OpClass::Branch, "{op} is not a branch");
        assert!(fits_i16(offset), "branch offset {offset} out of range");
        Self { rs, rt, imm: offset, ..Self::base(op) }
    }

    /// Absolute jump to instruction index `target`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not `j`/`jal` or `target` exceeds 26 bits.
    pub fn jump(op: Op, target: u32) -> Self {
        assert!(matches!(op, Op::J | Op::Jal), "{op} is not an absolute jump");
        assert!(target < (1 << 26), "jump target {target} out of range");
        Self { target, ..Self::base(op) }
    }

    /// Register jump `jr rs`.
    pub fn jr(rs: Reg) -> Self {
        Self { rs, ..Self::base(Op::Jr) }
    }

    /// Jump-and-link-register `jalr rd, rs`.
    pub fn jalr(rd: Reg, rs: Reg) -> Self {
        Self { rd, rs, ..Self::base(Op::Jalr) }
    }

    /// The canonical no-op (`sll $zero, $zero, 0`).
    pub fn nop() -> Self {
        Self::base(Op::Sll)
    }

    /// End of simulation.
    pub fn halt() -> Self {
        Self::base(Op::Halt)
    }

    /// Returns the same instruction with the secure bit as given.
    pub fn with_secure(self, secure: bool) -> Self {
        Self { secure, ..self }
    }

    /// The operation's classification.
    pub fn class(&self) -> OpClass {
        self.op.class()
    }

    /// The register written by this instruction, if any (never `$zero`).
    pub fn dest(&self) -> Option<Reg> {
        use OpClass::*;
        let r = match self.class() {
            AluReg | ShiftImm => self.rd,
            AluImm | Load => self.rt,
            Jump => match self.op {
                Op::Jal => Reg::Ra,
                Op::Jalr => self.rd,
                _ => return None,
            },
            Store | Branch | Halt => return None,
        };
        (!r.is_zero()).then_some(r)
    }

    /// The registers read by this instruction, in (first, second) order.
    pub fn sources(&self) -> (Option<Reg>, Option<Reg>) {
        use OpClass::*;
        match self.class() {
            AluReg => (Some(self.rs), Some(self.rt)),
            AluImm => {
                if self.op == Op::Lui {
                    (None, None)
                } else {
                    (Some(self.rs), None)
                }
            }
            ShiftImm => (None, Some(self.rt)),
            Load => (Some(self.rs), None),
            Store => (Some(self.rs), Some(self.rt)),
            Branch => match self.op {
                Op::Beq | Op::Bne => (Some(self.rs), Some(self.rt)),
                _ => (Some(self.rs), None),
            },
            Jump => match self.op {
                Op::Jr | Op::Jalr => (Some(self.rs), None),
                _ => (None, None),
            },
            Halt => (None, None),
        }
    }

    /// True for `lw` (secure or not).
    pub fn is_load(&self) -> bool {
        self.class() == OpClass::Load
    }

    /// True for `sw` (secure or not).
    pub fn is_store(&self) -> bool {
        self.class() == OpClass::Store
    }

    /// True for the canonical no-op encoding.
    pub(crate) fn is_nop(&self) -> bool {
        self.op == Op::Sll && self.rd.is_zero() && self.rt.is_zero() && self.imm == 0
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mnem: String = if self.secure {
            match self.op.secure_mnemonic() {
                Some(m) => m.to_owned(),
                None => format!("sec.{}", self.op.mnemonic()),
            }
        } else {
            self.op.mnemonic().to_owned()
        };
        if self.is_nop() && !self.secure {
            return f.write_str("nop");
        }
        use OpClass::*;
        match self.class() {
            AluReg => write!(f, "{mnem} {}, {}, {}", self.rd, self.rs, self.rt),
            ShiftImm => write!(f, "{mnem} {}, {}, {}", self.rd, self.rt, self.imm),
            AluImm => {
                if self.op == Op::Lui {
                    write!(f, "{mnem} {}, {}", self.rt, self.imm)
                } else {
                    write!(f, "{mnem} {}, {}, {}", self.rt, self.rs, self.imm)
                }
            }
            Load | Store => write!(f, "{mnem} {}, {}({})", self.rt, self.imm, self.rs),
            Branch => match self.op {
                Op::Beq | Op::Bne => {
                    write!(f, "{mnem} {}, {}, {}", self.rs, self.rt, self.imm)
                }
                _ => write!(f, "{mnem} {}, {}", self.rs, self.imm),
            },
            Jump => match self.op {
                Op::J | Op::Jal => write!(f, "{mnem} {}", self.target),
                Op::Jr => write!(f, "{mnem} {}", self.rs),
                Op::Jalr => write!(f, "{mnem} {}, {}", self.rd, self.rs),
                _ => unreachable!(),
            },
            Halt => f.write_str(&mnem),
        }
    }
}

fn fits_i16(v: i32) -> bool {
    (-(1 << 15)..(1 << 15)).contains(&v)
}

fn imm_fits(op: Op, v: i32) -> bool {
    if op.zero_extends_imm() {
        (0..(1 << 16)).contains(&v)
    } else {
        fits_i16(v)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn dest_of_alu_forms() {
        let add = Instruction::r(Op::Addu, Reg::T0, Reg::T1, Reg::T2);
        assert_eq!(add.dest(), Some(Reg::T0));
        let addi = Instruction::i(Op::Addiu, Reg::T3, Reg::T1, 5);
        assert_eq!(addi.dest(), Some(Reg::T3));
        let sll = Instruction::shift(Op::Sll, Reg::T4, Reg::T1, 2);
        assert_eq!(sll.dest(), Some(Reg::T4));
    }

    #[test]
    fn writes_to_zero_are_no_dest() {
        let i = Instruction::r(Op::Addu, Reg::Zero, Reg::T1, Reg::T2);
        assert_eq!(i.dest(), None);
        assert!(Instruction::nop().dest().is_none());
    }

    #[test]
    fn load_store_sources_and_dest() {
        let lw = Instruction::lw(Reg::T0, 8, Reg::Sp);
        assert_eq!(lw.dest(), Some(Reg::T0));
        assert_eq!(lw.sources(), (Some(Reg::Sp), None));
        let sw = Instruction::sw(Reg::T0, 8, Reg::Sp);
        assert_eq!(sw.dest(), None);
        assert_eq!(sw.sources(), (Some(Reg::Sp), Some(Reg::T0)));
    }

    #[test]
    fn jal_writes_ra() {
        assert_eq!(Instruction::jump(Op::Jal, 10).dest(), Some(Reg::Ra));
        assert_eq!(Instruction::jump(Op::J, 10).dest(), None);
        assert_eq!(Instruction::jalr(Reg::T9, Reg::T0).dest(), Some(Reg::T9));
    }

    #[test]
    fn branch_sources() {
        let beq = Instruction::branch(Op::Beq, Reg::T0, Reg::T1, -3);
        assert_eq!(beq.sources(), (Some(Reg::T0), Some(Reg::T1)));
        let bltz = Instruction::branch(Op::Bltz, Reg::T0, Reg::Zero, 4);
        assert_eq!(bltz.sources(), (Some(Reg::T0), None));
    }

    #[test]
    fn secure_bit_round_trips() {
        let i = Instruction::lw(Reg::T0, 0, Reg::T1).with_secure(true);
        assert!(i.secure);
        assert!(!i.with_secure(false).secure);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Instruction::r(Op::Xor, Reg::T0, Reg::T1, Reg::T2).to_string(),
            "xor $t0, $t1, $t2"
        );
        assert_eq!(
            Instruction::r(Op::Xor, Reg::T0, Reg::T1, Reg::T2).with_secure(true).to_string(),
            "sxor $t0, $t1, $t2"
        );
        assert_eq!(Instruction::lw(Reg::T3, -4, Reg::Sp).to_string(), "lw $t3, -4($sp)");
        assert_eq!(
            Instruction::lw(Reg::T3, -4, Reg::Sp).with_secure(true).to_string(),
            "slw $t3, -4($sp)"
        );
        assert_eq!(Instruction::nop().to_string(), "nop");
        assert_eq!(Instruction::halt().to_string(), "halt");
        assert_eq!(
            Instruction::r(Op::Subu, Reg::T0, Reg::T1, Reg::T2).with_secure(true).to_string(),
            "sec.subu $t0, $t1, $t2"
        );
    }

    #[test]
    fn nop_is_canonical_sll() {
        let nop = Instruction::nop();
        assert!(nop.is_nop());
        assert_eq!(nop.op, Op::Sll);
        assert!(!Instruction::shift(Op::Sll, Reg::T0, Reg::T0, 0).is_nop());
    }

    #[test]
    #[should_panic(expected = "not an R-type")]
    fn r_constructor_rejects_itype() {
        Instruction::r(Op::Addiu, Reg::T0, Reg::T1, Reg::T2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shift_amount_bounds_checked() {
        Instruction::shift(Op::Sll, Reg::T0, Reg::T1, 32);
    }

    #[test]
    #[should_panic(expected = "out of 16-bit range")]
    fn andi_rejects_negative_imm() {
        Instruction::i(Op::Andi, Reg::T0, Reg::T1, -1);
    }

    #[test]
    fn andi_accepts_full_unsigned_range() {
        let i = Instruction::i(Op::Andi, Reg::T0, Reg::T1, 0xFFFF);
        assert_eq!(i.imm, 0xFFFF);
    }

    #[test]
    fn classes_cover_all_ops() {
        use Op::*;
        for op in [
            Addu, Subu, And, Or, Xor, Nor, Sllv, Srlv, Srav, Slt, Sltu, Mul, Div, Rem, Addiu, Andi,
            Ori, Xori, Slti, Sltiu, Lui, Sll, Srl, Sra, Lw, Sw, Beq, Bne, Blez, Bgtz, Bltz, Bgez,
            J, Jal, Jr, Jalr, Halt,
        ] {
            // class() must be total; mnemonics must be unique.
            let _ = op.class();
            assert!(!op.mnemonic().is_empty());
        }
    }
}
