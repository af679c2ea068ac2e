//! Binary instruction encoding.
//!
//! The word layout keeps a MIPS-like shape but reserves the top bit for the
//! paper's secure flag:
//!
//! ```text
//! R-type: [31 secure][30:26 opcode=0][25:21 rs][20:16 rt][15:11 rd][10:6 shamt][5:0 funct]
//! I-type: [31 secure][30:26 opcode  ][25:21 rs][20:16 rt][15:0 imm]
//! J-type: [31 secure][30:26 opcode  ][25:0 target]
//! ```
//!
//! This matches the paper's decision to implement secure instructions "by
//! augmenting the original opcodes with an additional secure bit ... to
//! minimize the impact on the decoding logic": the decoder below is the
//! ordinary decoder plus one bit test.

use crate::inst::{Instruction, Op, OpClass};
use crate::reg::Reg;
use std::fmt;

const SECURE_BIT: u32 = 1 << 31;

/// I/J-type opcode numbers (R-type ops share opcode 0 with a funct field).
fn opcode(op: Op) -> u32 {
    use Op::*;
    match op {
        // R-type family.
        Addu | Subu | And | Or | Xor | Nor | Sllv | Srlv | Srav | Slt | Sltu | Mul | Div | Rem
        | Sll | Srl | Sra | Jr | Jalr | Halt => 0,
        Addiu => 1,
        Andi => 2,
        Ori => 3,
        Xori => 4,
        Slti => 5,
        Sltiu => 6,
        Lui => 7,
        Lw => 8,
        Sw => 9,
        Beq => 10,
        Bne => 11,
        Blez => 12,
        Bgtz => 13,
        Bltz => 14,
        Bgez => 15,
        J => 16,
        Jal => 17,
    }
}

fn funct(op: Op) -> u32 {
    use Op::*;
    match op {
        Sll => 0,
        Srl => 2,
        Sra => 3,
        Sllv => 4,
        Srlv => 6,
        Srav => 7,
        Jr => 8,
        Jalr => 9,
        Halt => 12,
        Addu => 33,
        Subu => 35,
        And => 36,
        Or => 37,
        Xor => 38,
        Nor => 39,
        Slt => 42,
        Sltu => 43,
        Mul => 24,
        Div => 26,
        Rem => 27,
        _ => unreachable!("{op} is not an R-type funct"),
    }
}

fn op_from_funct(f: u32) -> Option<Op> {
    use Op::*;
    Some(match f {
        0 => Sll,
        2 => Srl,
        3 => Sra,
        4 => Sllv,
        6 => Srlv,
        7 => Srav,
        8 => Jr,
        9 => Jalr,
        12 => Halt,
        33 => Addu,
        35 => Subu,
        36 => And,
        37 => Or,
        38 => Xor,
        39 => Nor,
        42 => Slt,
        43 => Sltu,
        24 => Mul,
        26 => Div,
        27 => Rem,
        _ => return None,
    })
}

fn op_from_opcode(o: u32) -> Option<Op> {
    use Op::*;
    Some(match o {
        1 => Addiu,
        2 => Andi,
        3 => Ori,
        4 => Xori,
        5 => Slti,
        6 => Sltiu,
        7 => Lui,
        8 => Lw,
        9 => Sw,
        10 => Beq,
        11 => Bne,
        12 => Blez,
        13 => Bgtz,
        14 => Bltz,
        15 => Bgez,
        16 => J,
        17 => Jal,
        _ => return None,
    })
}

/// Encodes one instruction to its 32-bit word.
pub fn encode(inst: &Instruction) -> u32 {
    let sec = if inst.secure { SECURE_BIT } else { 0 };
    let rs = u32::from(inst.rs.number());
    let rt = u32::from(inst.rt.number());
    let rd = u32::from(inst.rd.number());
    match inst.class() {
        OpClass::AluReg => sec | (rs << 21) | (rt << 16) | (rd << 11) | funct(inst.op),
        OpClass::ShiftImm => {
            sec | (rt << 16) | (rd << 11) | (((inst.imm as u32) & 0x1F) << 6) | funct(inst.op)
        }
        OpClass::AluImm | OpClass::Load | OpClass::Store | OpClass::Branch => {
            sec | (opcode(inst.op) << 26) | (rs << 21) | (rt << 16) | ((inst.imm as u32) & 0xFFFF)
        }
        OpClass::Jump => match inst.op {
            Op::J | Op::Jal => sec | (opcode(inst.op) << 26) | (inst.target & 0x03FF_FFFF),
            Op::Jr => sec | (rs << 21) | funct(Op::Jr),
            Op::Jalr => sec | (rs << 21) | (rd << 11) | funct(Op::Jalr),
            _ => unreachable!(),
        },
        OpClass::Halt => sec | funct(Op::Halt),
    }
}

/// Error returned by [`decode`] for words that are not valid encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010X}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a 32-bit word back into an [`Instruction`].
///
/// # Errors
///
/// Returns [`DecodeError`] if the opcode or funct field is unassigned.
pub fn decode(word: u32) -> Result<Instruction, DecodeError> {
    let secure = word & SECURE_BIT != 0;
    let opc = (word >> 26) & 0x1F;
    let rs = Reg::from_number(((word >> 21) & 0x1F) as u8);
    let rt = Reg::from_number(((word >> 16) & 0x1F) as u8);
    let err = DecodeError { word };
    let inst = if opc == 0 {
        let rd = Reg::from_number(((word >> 11) & 0x1F) as u8);
        let shamt = (word >> 6) & 0x1F;
        let op = op_from_funct(word & 0x3F).ok_or(err)?;
        match op.class() {
            OpClass::AluReg => Instruction::r(op, rd, rs, rt),
            OpClass::ShiftImm => Instruction::shift(op, rd, rt, shamt),
            OpClass::Jump if op == Op::Jr => Instruction::jr(rs),
            OpClass::Jump => Instruction::jalr(rd, rs),
            OpClass::Halt => Instruction::halt(),
            _ => return Err(err),
        }
    } else {
        let op = op_from_opcode(opc).ok_or(err)?;
        let raw = word & 0xFFFF;
        let imm = if op.zero_extends_imm() { raw as i32 } else { i32::from(raw as u16 as i16) };
        match op.class() {
            OpClass::AluImm => Instruction::i(op, rt, rs, imm),
            OpClass::Load => Instruction::lw(rt, imm, rs),
            OpClass::Store => Instruction::sw(rt, imm, rs),
            OpClass::Branch => Instruction::branch(op, rs, rt, imm),
            OpClass::Jump => Instruction::jump(op, word & 0x03FF_FFFF),
            _ => return Err(err),
        }
    };
    Ok(inst.with_secure(secure))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_instructions() -> Vec<Instruction> {
        use Op::*;
        vec![
            Instruction::r(Addu, Reg::T0, Reg::T1, Reg::T2),
            Instruction::r(Xor, Reg::S3, Reg::A0, Reg::V1).with_secure(true),
            Instruction::r(Mul, Reg::T7, Reg::T8, Reg::T9),
            Instruction::shift(Sll, Reg::T0, Reg::T1, 31),
            Instruction::shift(Sra, Reg::T0, Reg::T1, 1).with_secure(true),
            Instruction::i(Addiu, Reg::Sp, Reg::Sp, -32),
            Instruction::i(Andi, Reg::T0, Reg::T1, 0xFFFF),
            Instruction::i(Lui, Reg::T0, Reg::Zero, 0x7FFF),
            Instruction::lw(Reg::T0, -4, Reg::Sp),
            Instruction::lw(Reg::T0, 1024, Reg::Gp).with_secure(true),
            Instruction::sw(Reg::Ra, 0, Reg::Sp).with_secure(true),
            Instruction::branch(Beq, Reg::T0, Reg::T1, -100),
            Instruction::branch(Bgez, Reg::A0, Reg::Zero, 7),
            Instruction::jump(J, 0x03FF_FFFF),
            Instruction::jump(Jal, 42),
            Instruction::jr(Reg::Ra),
            Instruction::jalr(Reg::Ra, Reg::T9),
            Instruction::nop(),
            Instruction::halt(),
        ]
    }

    #[test]
    fn round_trip_samples() {
        for inst in sample_instructions() {
            let word = encode(&inst);
            assert_eq!(decode(word).unwrap(), inst, "{inst}");
        }
    }

    #[test]
    fn secure_bit_is_bit_31() {
        let plain = encode(&Instruction::lw(Reg::T0, 0, Reg::T1));
        let secure = encode(&Instruction::lw(Reg::T0, 0, Reg::T1).with_secure(true));
        assert_eq!(secure, plain | 0x8000_0000);
    }

    #[test]
    fn nop_encodes_to_zero() {
        assert_eq!(encode(&Instruction::nop()), 0);
        assert!(decode(0).unwrap().is_nop());
    }

    #[test]
    fn unknown_funct_rejected() {
        let e = decode(0x3F).unwrap_err(); // funct 63 unassigned
        assert!(e.to_string().contains("0x0000003F"));
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(decode(31 << 26).is_err());
    }

    #[test]
    fn negative_immediates_sign_extend() {
        let inst = Instruction::i(Op::Addiu, Reg::T0, Reg::T1, -1);
        assert_eq!(decode(encode(&inst)).unwrap().imm, -1);
    }

    #[test]
    fn logical_immediates_zero_extend() {
        let inst = Instruction::i(Op::Ori, Reg::T0, Reg::T1, 0x8000);
        assert_eq!(decode(encode(&inst)).unwrap().imm, 0x8000);
    }

    proptest! {
        #[test]
        fn random_r_type_round_trips(
            rd in 0u8..32, rs in 0u8..32, rt in 0u8..32, secure: bool,
            op_idx in 0usize..14,
        ) {
            use Op::*;
            let ops = [Addu, Subu, And, Or, Xor, Nor, Sllv, Srlv, Srav, Slt, Sltu, Mul, Div, Rem];
            let inst = Instruction::r(
                ops[op_idx],
                Reg::from_number(rd),
                Reg::from_number(rs),
                Reg::from_number(rt),
            )
            .with_secure(secure);
            prop_assert_eq!(decode(encode(&inst)).unwrap(), inst);
        }

        #[test]
        fn random_loads_round_trip(rt in 0u8..32, rs in 0u8..32, off in -32768i32..32768, secure: bool) {
            let inst = Instruction::lw(Reg::from_number(rt), off, Reg::from_number(rs))
                .with_secure(secure);
            prop_assert_eq!(decode(encode(&inst)).unwrap(), inst);
        }

        #[test]
        fn random_branches_round_trip(rs in 0u8..32, rt in 0u8..32, off in -32768i32..32768) {
            let inst = Instruction::branch(Op::Bne, Reg::from_number(rs), Reg::from_number(rt), off);
            prop_assert_eq!(decode(encode(&inst)).unwrap(), inst);
        }

        #[test]
        fn decode_never_panics(word: u32) {
            let _ = decode(word);
        }
    }
}
