//! The three-address intermediate representation.
//!
//! Local scalars and expression temporaries are virtual registers
//! ([`Temp`]); globals (scalars and arrays) live in data memory and are
//! accessed through explicit load/store instructions — which is exactly
//! the granularity at which the paper's secure instructions operate.

use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Temp(pub u32);

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A branch label, local to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".L{}", self.0)
    }
}

/// An instruction operand: a virtual register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Virtual register.
    Temp(Temp),
    /// 32-bit immediate (raw pattern).
    Const(u32),
}

impl Operand {
    /// The temp, if this operand is one.
    pub(crate) fn as_temp(self) -> Option<Temp> {
        match self {
            Operand::Temp(t) => Some(t),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this operand is one.
    pub(crate) fn as_const(self) -> Option<u32> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Temp(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Temp(t) => write!(f, "{t}"),
            Operand::Const(c) => write!(f, "{}", *c as i32),
        }
    }
}

/// Binary operation kinds. Comparisons produce 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    /// Arithmetic right shift (Tiny-C `int` is signed).
    Shr,
    SetEq,
    SetNe,
    SetLt,
    SetLe,
    SetGt,
    SetGe,
}

impl BinKind {
    /// Constant-folds the operation; `None` when it would trap (division by
    /// zero), leaving the fault to runtime.
    pub(crate) fn eval(self, a: u32, b: u32) -> Option<u32> {
        let (sa, sb) = (a as i32, b as i32);
        Some(match self {
            BinKind::Add => a.wrapping_add(b),
            BinKind::Sub => a.wrapping_sub(b),
            BinKind::Mul => a.wrapping_mul(b),
            BinKind::Div => {
                if b == 0 {
                    return None;
                }
                sa.wrapping_div(sb) as u32
            }
            BinKind::Rem => {
                if b == 0 {
                    return None;
                }
                sa.wrapping_rem(sb) as u32
            }
            BinKind::And => a & b,
            BinKind::Or => a | b,
            BinKind::Xor => a ^ b,
            BinKind::Shl => a.wrapping_shl(b & 31),
            BinKind::Shr => sa.wrapping_shr(b & 31) as u32,
            BinKind::SetEq => u32::from(a == b),
            BinKind::SetNe => u32::from(a != b),
            BinKind::SetLt => u32::from(sa < sb),
            BinKind::SetLe => u32::from(sa <= sb),
            BinKind::SetGt => u32::from(sa > sb),
            BinKind::SetGe => u32::from(sa >= sb),
        })
    }
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = value`.
    Const {
        /// Destination.
        dst: Temp,
        /// Immediate.
        value: u32,
    },
    /// `dst = src`.
    Copy {
        /// Destination.
        dst: Temp,
        /// Source.
        src: Operand,
    },
    /// `dst = declassify(src)`: semantically a copy, but the forward slice
    /// does **not** propagate taint through it and never marks it
    /// critical — the programmer's assertion that the value is public
    /// (the paper's insecure output permutation, justified because the
    /// ciphertext "reveals only the information already available from
    /// the output cipher").
    Declassify {
        /// Destination.
        dst: Temp,
        /// Source.
        src: Operand,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Operation.
        op: BinKind,
        /// Destination.
        dst: Temp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = global` (scalar).
    LoadGlobal {
        /// Destination.
        dst: Temp,
        /// Global name.
        name: String,
    },
    /// `global = src` (scalar).
    StoreGlobal {
        /// Global name.
        name: String,
        /// Source.
        src: Operand,
    },
    /// `dst = array[index]`.
    LoadElem {
        /// Destination.
        dst: Temp,
        /// Array name.
        array: String,
        /// Element index (in words).
        index: Operand,
    },
    /// `array[index] = src`.
    StoreElem {
        /// Array name.
        array: String,
        /// Element index (in words).
        index: Operand,
        /// Source.
        src: Operand,
    },
    /// `dst = func(args...)` (dst absent for void calls).
    Call {
        /// Optional destination.
        dst: Option<Temp>,
        /// Callee.
        func: String,
        /// Arguments (max 4 — the register-passing convention).
        args: Vec<Operand>,
    },
    /// Unconditional jump.
    Jump {
        /// Target label.
        target: Label,
    },
    /// Jump to `target` when `cond` is nonzero (`if_true`) or zero.
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Branch when nonzero (`true`) or when zero (`false`).
        if_true: bool,
        /// Target label.
        target: Label,
    },
    /// A label definition.
    Label(Label),
    /// Function return.
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
}

impl Inst {
    /// The temp defined by this instruction, if any.
    pub(crate) fn def(&self) -> Option<Temp> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Declassify { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::LoadElem { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// The temps read by this instruction.
    pub fn uses(&self) -> Vec<Temp> {
        let mut v = Vec::new();
        let mut push = |o: &Operand| {
            if let Operand::Temp(t) = o {
                v.push(*t);
            }
        };
        match self {
            Inst::Copy { src, .. } | Inst::Declassify { src, .. } => push(src),
            Inst::Bin { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Inst::StoreGlobal { src, .. } => push(src),
            Inst::LoadElem { index, .. } => push(index),
            Inst::StoreElem { index, src, .. } => {
                push(index);
                push(src);
            }
            Inst::Call { args, .. } => args.iter().for_each(push),
            Inst::Branch { cond, .. } => push(cond),
            Inst::Ret { value: Some(v0) } => push(v0),
            _ => {}
        }
        v
    }

    /// True if removing this instruction (when its def is dead) is safe —
    /// i.e. it has no side effects.
    pub(crate) fn is_pure(&self) -> bool {
        !matches!(
            self,
            Inst::StoreGlobal { .. }
                | Inst::StoreElem { .. }
                | Inst::Call { .. }
                | Inst::Jump { .. }
                | Inst::Branch { .. }
                | Inst::Label(_)
                | Inst::Ret { .. }
        ) && !matches!(self, Inst::Bin { op: BinKind::Div | BinKind::Rem, .. })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "{dst} = {}", *value as i32),
            Inst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Inst::Declassify { dst, src } => write!(f, "{dst} = declassify({src})"),
            Inst::Bin { op, dst, lhs, rhs } => write!(f, "{dst} = {op:?}({lhs}, {rhs})"),
            Inst::LoadGlobal { dst, name } => write!(f, "{dst} = @{name}"),
            Inst::StoreGlobal { name, src } => write!(f, "@{name} = {src}"),
            Inst::LoadElem { dst, array, index } => write!(f, "{dst} = @{array}[{index}]"),
            Inst::StoreElem { array, index, src } => write!(f, "@{array}[{index}] = {src}"),
            Inst::Call { dst: Some(d), func, args } => {
                write!(f, "{d} = call {func}({})", fmt_args(args))
            }
            Inst::Call { dst: None, func, args } => write!(f, "call {func}({})", fmt_args(args)),
            Inst::Jump { target } => write!(f, "jump {target}"),
            Inst::Branch { cond, if_true: true, target } => write!(f, "if {cond} jump {target}"),
            Inst::Branch { cond, if_true: false, target } => {
                write!(f, "ifnot {cond} jump {target}")
            }
            Inst::Label(l) => write!(f, "{l}:"),
            Inst::Ret { value: Some(v) } => write!(f, "ret {v}"),
            Inst::Ret { value: None } => write!(f, "ret"),
        }
    }
}

fn fmt_args(args: &[Operand]) -> String {
    args.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ")
}

/// The IR of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncIr {
    /// Function name.
    pub name: String,
    /// Parameter temps, in order (receive `$a0..$a3`).
    pub params: Vec<Temp>,
    /// Whether the function returns a value.
    pub returns_value: bool,
    /// The instruction list.
    pub body: Vec<Inst>,
    /// Number of temps allocated (`Temp(0)..Temp(temp_count)`).
    pub temp_count: u32,
    /// Number of labels allocated.
    pub label_count: u32,
}

impl fmt::Display for FuncIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "func {}({}):",
            self.name,
            self.params.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
        )?;
        for inst in &self.body {
            if matches!(inst, Inst::Label(_)) {
                writeln!(f, "{inst}")?;
            } else {
                writeln!(f, "    {inst}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin {
            op: BinKind::Xor,
            dst: Temp(3),
            lhs: Operand::Temp(Temp(1)),
            rhs: Operand::Const(7),
        };
        assert_eq!(i.def(), Some(Temp(3)));
        assert_eq!(i.uses(), vec![Temp(1)]);
        let s = Inst::StoreElem {
            array: "a".into(),
            index: Operand::Temp(Temp(2)),
            src: Operand::Temp(Temp(4)),
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![Temp(2), Temp(4)]);
    }

    #[test]
    fn purity_classification() {
        assert!(Inst::Const { dst: Temp(0), value: 1 }.is_pure());
        assert!(
            Inst::LoadElem { dst: Temp(0), array: "a".into(), index: Operand::Const(0) }.is_pure()
        );
        assert!(!Inst::StoreGlobal { name: "g".into(), src: Operand::Const(0) }.is_pure());
        assert!(!Inst::Call { dst: Some(Temp(0)), func: "f".into(), args: vec![] }.is_pure());
        // Division may trap; never dead-code-eliminate it.
        assert!(!Inst::Bin {
            op: BinKind::Div,
            dst: Temp(0),
            lhs: Operand::Const(1),
            rhs: Operand::Temp(Temp(1))
        }
        .is_pure());
    }

    #[test]
    fn eval_matches_wrapping_semantics() {
        assert_eq!(BinKind::Add.eval(u32::MAX, 1), Some(0));
        assert_eq!(BinKind::Sub.eval(0, 1), Some(u32::MAX));
        assert_eq!(BinKind::Shr.eval((-8i32) as u32, 1), Some((-4i32) as u32));
        assert_eq!(BinKind::SetLt.eval((-1i32) as u32, 0), Some(1));
        assert_eq!(BinKind::Div.eval(7, 0), None);
        assert_eq!(BinKind::Rem.eval(7, 2), Some(1));
        assert_eq!(BinKind::Xor.eval(0b1010, 0b0110), Some(0b1100));
    }

    #[test]
    fn display_is_readable() {
        let i =
            Inst::LoadElem { dst: Temp(1), array: "sbox".into(), index: Operand::Temp(Temp(0)) };
        assert_eq!(i.to_string(), "%1 = @sbox[%0]");
    }
}
