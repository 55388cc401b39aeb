//! The SLA instruction set and its static classification.

use std::fmt;

use crate::{Addr, AluOp, Cond, FAluOp, FReg, FUnOp, Reg};

/// An SLA machine instruction.
///
/// Every instruction occupies one code word (see [`Addr`]). The set is
/// deliberately small and regular; see the [crate docs](crate) for why this
/// suffices to reproduce the paper's experiments.
///
/// Construction is by ordinary enum literals; higher-level program
/// construction (labels, structured loops, calls) lives in `loopspec-asm`.
///
/// ```
/// use loopspec_isa::{Instruction, Reg, AluOp};
/// // r3 <- r1 + r2
/// let i = Instruction::Alu { op: AluOp::Add, rd: Reg::R3, ra: Reg::R1, rb: Reg::R2 };
/// assert_eq!(i.to_string(), "add r3, r1, r2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Stops the machine; the only way a program terminates normally.
    Halt,
    /// `rd <- op(ra, rb)` — register-register integer ALU operation.
    Alu {
        /// Operation to apply.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
    },
    /// `rd <- op(ra, imm)` — register-immediate integer ALU operation.
    AluImm {
        /// Operation to apply.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        ra: Reg,
        /// Sign-extended immediate operand.
        imm: i32,
    },
    /// `rd <- imm` — load a (sign-extended) 48-bit immediate constant.
    LoadImm {
        /// Destination register.
        rd: Reg,
        /// Immediate value; must fit in 48 signed bits to be encodable.
        imm: i64,
    },
    /// `rd <- mem[ra + offset]` — load a 64-bit word.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset added to the base.
        offset: i32,
    },
    /// `mem[base + offset] <- src` — store a 64-bit word.
    Store {
        /// Source register holding the value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset added to the base.
        offset: i32,
    },
    /// `fd <- op(fa, fb)` — binary floating-point operation.
    FAlu {
        /// Operation to apply.
        op: FAluOp,
        /// Destination FP register.
        fd: FReg,
        /// First source FP register.
        fa: FReg,
        /// Second source FP register.
        fb: FReg,
    },
    /// `fd <- op(fa)` — unary floating-point operation.
    FUn {
        /// Operation to apply.
        op: FUnOp,
        /// Destination FP register.
        fd: FReg,
        /// Source FP register.
        fa: FReg,
    },
    /// `fd <- value` — load an `f32` immediate (widened to `f64`).
    FLoadImm {
        /// Destination FP register.
        fd: FReg,
        /// Immediate value.
        value: f32,
    },
    /// `fd <- mem[base + offset]` — load a 64-bit word as `f64` bits.
    FLoad {
        /// Destination FP register.
        fd: FReg,
        /// Base address register (integer file).
        base: Reg,
        /// Word offset added to the base.
        offset: i32,
    },
    /// `mem[base + offset] <- fsrc` — store `f64` bits as a 64-bit word.
    FStore {
        /// Source FP register.
        fsrc: FReg,
        /// Base address register (integer file).
        base: Reg,
        /// Word offset added to the base.
        offset: i32,
    },
    /// `rd <- cond(fa, fb) ? 1 : 0` — floating-point compare into an
    /// integer register (FP control flow goes through integer branches).
    FCmp {
        /// Condition evaluated on the FP operands' total order.
        cond: Cond,
        /// Destination integer register.
        rd: Reg,
        /// First source FP register.
        fa: FReg,
        /// Second source FP register.
        fb: FReg,
    },
    /// `fd <- (f64) ra` — integer-to-float conversion (signed).
    ItoF {
        /// Destination FP register.
        fd: FReg,
        /// Source integer register.
        ra: Reg,
    },
    /// `rd <- (i64) fa` — float-to-integer conversion (truncating; saturates
    /// at the `i64` range, `0` for NaN).
    FtoI {
        /// Destination integer register.
        rd: Reg,
        /// Source FP register.
        fa: FReg,
    },
    /// Conditional branch: `if cond(ra, rb) { pc <- target }`.
    Branch {
        /// Branch condition.
        cond: Cond,
        /// First source register.
        ra: Reg,
        /// Second source register.
        rb: Reg,
        /// Branch target address.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Jump target address.
        target: Addr,
    },
    /// Unconditional indirect jump: `pc <- base` (register holds a code
    /// address). Used for switch tables and computed gotos.
    JumpInd {
        /// Register holding the target code address.
        base: Reg,
    },
    /// Subroutine call: `link <- pc + 1; pc <- target`.
    Call {
        /// Call target address.
        target: Addr,
        /// Link register receiving the return address.
        link: Reg,
    },
    /// Indirect subroutine call: `link <- pc + 1; pc <- base`.
    CallInd {
        /// Register holding the callee's code address.
        base: Reg,
        /// Link register receiving the return address.
        link: Reg,
    },
    /// Subroutine return: `pc <- link`.
    Ret {
        /// Register holding the return address.
        link: Reg,
    },
    /// Dispatch into a registered kernel (see [`crate::kernel`]): the
    /// kernel's body executes to completion and control resumes at the
    /// next instruction.
    ///
    /// The dispatch itself retires no event — the body's instructions
    /// retire individually at synthesized virtual addresses
    /// ([`crate::kernel::virtual_pc`]), so the committed event stream is
    /// bit-identical to inlining the body at those addresses.
    KernelCall {
        /// Registry id of the kernel to run.
        id: u32,
    },
}

/// Static control-flow classification of an instruction.
///
/// This is the *event language* consumed by the dynamic loop detector: the
/// Current Loop Stack update rules of the paper (§2.2) branch on exactly
/// these categories.
///
/// ```
/// use loopspec_isa::{Instruction, ControlKind, Reg, Addr};
/// let call = Instruction::Call { target: Addr::new(100), link: Reg::RA };
/// assert_eq!(call.control_kind(), ControlKind::Call { target: Addr::new(100) });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ControlKind {
    /// Not a control-transfer instruction.
    None,
    /// Conditional branch with a statically known target.
    CondBranch {
        /// Target if taken.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Jump target.
        target: Addr,
    },
    /// Unconditional indirect jump (target known only dynamically).
    IndirectJump,
    /// Direct subroutine call. Calls do **not** terminate loop executions
    /// (paper §2.1: subroutine bodies belong to the loop execution but not
    /// to the static loop body).
    Call {
        /// Callee address.
        target: Addr,
    },
    /// Indirect subroutine call.
    IndirectCall,
    /// Subroutine return. Terminates every current loop whose static body
    /// contains the return instruction (paper §2.2).
    Ret,
    /// Machine halt.
    Halt,
}

/// Register-use summary of an instruction: which architectural registers it
/// reads and writes.
///
/// Produced by [`Instruction::reg_use`]; consumed by the live-in detector
/// of `loopspec-dataspec`. Fixed-capacity by construction: no SLA
/// instruction reads more than three or writes more than one register per
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegUse {
    /// Integer registers read (in operand order).
    pub reads: [Option<Reg>; 3],
    /// Integer register written, if any.
    pub write: Option<Reg>,
    /// FP registers read (in operand order).
    pub freads: [Option<FReg>; 2],
    /// FP register written, if any.
    pub fwrite: Option<FReg>,
}

impl RegUse {
    /// Iterates over the integer registers read.
    pub fn reads_iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.reads.iter().flatten().copied()
    }

    /// Iterates over the FP registers read.
    pub fn freads_iter(&self) -> impl Iterator<Item = FReg> + '_ {
        self.freads.iter().flatten().copied()
    }
}

impl Instruction {
    /// Classifies the instruction's control-flow behaviour.
    #[inline]
    pub fn control_kind(&self) -> ControlKind {
        match *self {
            Instruction::Branch { target, .. } => ControlKind::CondBranch { target },
            Instruction::Jump { target } => ControlKind::Jump { target },
            Instruction::JumpInd { .. } => ControlKind::IndirectJump,
            Instruction::Call { target, .. } => ControlKind::Call { target },
            Instruction::CallInd { .. } => ControlKind::IndirectCall,
            Instruction::Ret { .. } => ControlKind::Ret,
            Instruction::Halt => ControlKind::Halt,
            _ => ControlKind::None,
        }
    }

    /// Computes the register-use summary (architectural reads and writes).
    ///
    /// Reads of the hardwired-zero register are still reported (the value
    /// is architecturally read, it just happens to be constant); writes to
    /// it are reported too — the *CPU* discards them, but the dataflow
    /// summary is purely syntactic.
    pub fn reg_use(&self) -> RegUse {
        let mut u = RegUse::default();
        match *self {
            Instruction::Nop | Instruction::Halt => {}
            Instruction::Alu { rd, ra, rb, .. } => {
                u.reads = [Some(ra), Some(rb), None];
                u.write = Some(rd);
            }
            Instruction::AluImm { rd, ra, .. } => {
                u.reads = [Some(ra), None, None];
                u.write = Some(rd);
            }
            Instruction::LoadImm { rd, .. } => u.write = Some(rd),
            Instruction::Load { rd, base, .. } => {
                u.reads = [Some(base), None, None];
                u.write = Some(rd);
            }
            Instruction::Store { src, base, .. } => {
                u.reads = [Some(base), Some(src), None];
            }
            Instruction::FAlu { fd, fa, fb, .. } => {
                u.freads = [Some(fa), Some(fb)];
                u.fwrite = Some(fd);
            }
            Instruction::FUn { fd, fa, .. } => {
                u.freads = [Some(fa), None];
                u.fwrite = Some(fd);
            }
            Instruction::FLoadImm { fd, .. } => u.fwrite = Some(fd),
            Instruction::FLoad { fd, base, .. } => {
                u.reads = [Some(base), None, None];
                u.fwrite = Some(fd);
            }
            Instruction::FStore { fsrc, base, .. } => {
                u.reads = [Some(base), None, None];
                u.freads = [Some(fsrc), None];
            }
            Instruction::FCmp { rd, fa, fb, .. } => {
                u.freads = [Some(fa), Some(fb)];
                u.write = Some(rd);
            }
            Instruction::ItoF { fd, ra } => {
                u.reads = [Some(ra), None, None];
                u.fwrite = Some(fd);
            }
            Instruction::FtoI { rd, fa } => {
                u.freads = [Some(fa), None];
                u.write = Some(rd);
            }
            Instruction::Branch { ra, rb, .. } => {
                u.reads = [Some(ra), Some(rb), None];
            }
            Instruction::Jump { .. } => {}
            Instruction::JumpInd { base } => {
                u.reads = [Some(base), None, None];
            }
            Instruction::Call { link, .. } => u.write = Some(link),
            Instruction::CallInd { base, link } => {
                u.reads = [Some(base), None, None];
                u.write = Some(link);
            }
            Instruction::Ret { link } => {
                u.reads = [Some(link), None, None];
            }
            // The dispatch reads the argument registers and clobbers the
            // kernel scratch set, but it emits no event of its own: the
            // body's instructions carry the architectural reads/writes.
            Instruction::KernelCall { .. } => {}
        }
        u
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Nop => f.write_str("nop"),
            Instruction::Halt => f.write_str("halt"),
            Instruction::Alu { op, rd, ra, rb } => write!(f, "{op} {rd}, {ra}, {rb}"),
            Instruction::AluImm { op, rd, ra, imm } => write!(f, "{op}i {rd}, {ra}, {imm}"),
            Instruction::LoadImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instruction::Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Instruction::Store { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Instruction::FAlu { op, fd, fa, fb } => write!(f, "{op} {fd}, {fa}, {fb}"),
            Instruction::FUn { op, fd, fa } => write!(f, "{op} {fd}, {fa}"),
            Instruction::FLoadImm { fd, value } => write!(f, "fli {fd}, {value}"),
            Instruction::FLoad { fd, base, offset } => write!(f, "fld {fd}, {offset}({base})"),
            Instruction::FStore { fsrc, base, offset } => {
                write!(f, "fst {fsrc}, {offset}({base})")
            }
            Instruction::FCmp { cond, rd, fa, fb } => write!(f, "fcmp.{cond} {rd}, {fa}, {fb}"),
            Instruction::ItoF { fd, ra } => write!(f, "itof {fd}, {ra}"),
            Instruction::FtoI { rd, fa } => write!(f, "ftoi {rd}, {fa}"),
            Instruction::Branch {
                cond,
                ra,
                rb,
                target,
            } => write!(f, "b.{cond} {ra}, {rb}, {target}"),
            Instruction::Jump { target } => write!(f, "j {target}"),
            Instruction::JumpInd { base } => write!(f, "jr {base}"),
            Instruction::Call { target, link } => write!(f, "call {target}, {link}"),
            Instruction::CallInd { base, link } => write!(f, "callr {base}, {link}"),
            Instruction::Ret { link } => write!(f, "ret {link}"),
            Instruction::KernelCall { id } => write!(f, "kcall {id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_kind_classification() {
        let t = Addr::new(5);
        assert_eq!(Instruction::Nop.control_kind(), ControlKind::None);
        assert_eq!(Instruction::Halt.control_kind(), ControlKind::Halt);
        assert_eq!(
            Instruction::Jump { target: t }.control_kind(),
            ControlKind::Jump { target: t }
        );
        assert_eq!(
            Instruction::JumpInd { base: Reg::R1 }.control_kind(),
            ControlKind::IndirectJump
        );
        assert_eq!(
            Instruction::Ret { link: Reg::RA }.control_kind(),
            ControlKind::Ret
        );
        assert_eq!(
            Instruction::CallInd {
                base: Reg::R1,
                link: Reg::RA
            }
            .control_kind(),
            ControlKind::IndirectCall
        );
    }

    #[test]
    fn reg_use_alu() {
        let u = Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            ra: Reg::R1,
            rb: Reg::R2,
        }
        .reg_use();
        assert_eq!(u.reads_iter().collect::<Vec<_>>(), vec![Reg::R1, Reg::R2]);
        assert_eq!(u.write, Some(Reg::R3));
        assert_eq!(u.fwrite, None);
    }

    #[test]
    fn reg_use_store_reads_both() {
        let u = Instruction::Store {
            src: Reg::R7,
            base: Reg::SP,
            offset: -1,
        }
        .reg_use();
        assert_eq!(u.reads_iter().collect::<Vec<_>>(), vec![Reg::SP, Reg::R7]);
        assert_eq!(u.write, None);
    }

    #[test]
    fn reg_use_call_writes_link() {
        let u = Instruction::Call {
            target: Addr::new(9),
            link: Reg::RA,
        }
        .reg_use();
        assert_eq!(u.write, Some(Reg::RA));
        assert_eq!(u.reads_iter().count(), 0);
    }

    #[test]
    fn reg_use_fp() {
        let u = Instruction::FAlu {
            op: FAluOp::Mul,
            fd: FReg::F0,
            fa: FReg::F1,
            fb: FReg::F2,
        }
        .reg_use();
        assert_eq!(
            u.freads_iter().collect::<Vec<_>>(),
            vec![FReg::F1, FReg::F2]
        );
        assert_eq!(u.fwrite, Some(FReg::F0));
    }

    #[test]
    fn display_round_trips_visually() {
        let i = Instruction::Branch {
            cond: Cond::Ne,
            ra: Reg::R4,
            rb: Reg::R0,
            target: Addr::new(16),
        };
        assert_eq!(i.to_string(), "b.ne r4, r0, @0x0010");
    }
}
