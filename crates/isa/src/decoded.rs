//! Pre-decoded ("threaded code") program image.
//!
//! The legacy interpreter in `loopspec-cpu` re-derives everything it
//! needs per retired instruction: it fetches through an `Option`,
//! classifies control flow with [`Instruction::control_kind`], and
//! walks [`Instruction::reg_use`] to assemble the trace event. All of
//! that is static — it depends only on the code word, never on machine
//! state — so a one-time decode pass can hoist it out of the dispatch
//! loop entirely, in the style of classic threaded-code VMs.
//!
//! [`DecodedImage::build`] lowers a code slice into:
//!
//! * a flat execution stream: one [`FlatOp`] per pc with the ALU
//!   sub-op and FP-compare condition folded into a single opcode and
//!   immediates already sign-extended to the machine's 64-bit width
//!   (`f32` constants pre-widened to `f64`), the form the straight-line
//!   executor dispatches on;
//! * the static per-pc metadata the tracer path needs
//!   ([`ControlKind`], [`RegUse`], and the original [`Instruction`],
//!   which is also what control transfers dispatch on);
//! * a **basic-block table**: for every pc, the length of the
//!   straight-line (control-free) run starting there. The executor
//!   uses it to retire whole loop bodies in a tight inner loop with a
//!   single fuel check, and because the table is per-*pc* (a suffix
//!   run length, not a block-entry map) any branch target — even one
//!   landing mid-block — starts a maximal run.
//!
//! There is no fusion pass: every straight-line op is one dispatch and
//! every control transfer is one step. DESIGN.md §8 records why.
//!
//! Branch targets are *not* re-validated here: the assembler
//! (`loopspec-asm`) only produces programs whose direct targets are in
//! range, and the executor bounds-checks the pc at each control
//! transfer — exactly as the legacy interpreter does — so out-of-range
//! targets fault identically on both paths.

use crate::{AluOp, Cond, ControlKind, FAluOp, FUnOp, Instruction, RegUse};

/// Flat execution opcode: one discriminant per *executable operation*,
/// with the ALU sub-operation and FP-compare condition folded in.
///
/// The architectural [`Instruction`] shape leaves an executor with two
/// dependent dispatches per value op: the variant match, then the
/// nested `AluOp`/`Cond` match inside the arm. The flat form collapses
/// both into a single jump table with small, self-contained arms — the
/// classic threaded-code opcode layout. Only non-control ops get real
/// flat codes; control transfers, halts and kernel calls lower to
/// [`FlatCode::Ctl`], which straight-line runs never reach (their
/// run-length is 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlatCode {
    /// `a <- b + c` (wrapping).
    AddRR,
    /// `a <- b - c` (wrapping).
    SubRR,
    /// `a <- b * c` (wrapping).
    MulRR,
    /// `a <- b / c` signed (0 on divide-by-zero).
    DivRR,
    /// `a <- b % c` signed (0 on divide-by-zero).
    RemRR,
    /// `a <- b & c`.
    AndRR,
    /// `a <- b | c`.
    OrRR,
    /// `a <- b ^ c`.
    XorRR,
    /// `a <- b << c` (shift amount mod 64).
    ShlRR,
    /// `a <- b >> c` logical (shift amount mod 64).
    ShrRR,
    /// `a <- b >> c` arithmetic (shift amount mod 64).
    SarRR,
    /// `a <- (b < c) ? 1 : 0` signed.
    SltSRR,
    /// `a <- (b < c) ? 1 : 0` unsigned.
    SltURR,
    /// `a <- b + imm` (wrapping).
    AddRI,
    /// `a <- b - imm` (wrapping).
    SubRI,
    /// `a <- b * imm` (wrapping).
    MulRI,
    /// `a <- b / imm` signed (0 on divide-by-zero).
    DivRI,
    /// `a <- b % imm` signed (0 on divide-by-zero).
    RemRI,
    /// `a <- b & imm`.
    AndRI,
    /// `a <- b | imm`.
    OrRI,
    /// `a <- b ^ imm`.
    XorRI,
    /// `a <- b << imm` (shift amount mod 64).
    ShlRI,
    /// `a <- b >> imm` logical (shift amount mod 64).
    ShrRI,
    /// `a <- b >> imm` arithmetic (shift amount mod 64).
    SarRI,
    /// `a <- (b < imm) ? 1 : 0` signed.
    SltSRI,
    /// `a <- (b < imm) ? 1 : 0` unsigned.
    SltURI,
    /// `a <- imm`.
    Li,
    /// `a <- mem[b + imm]`.
    Ld,
    /// `mem[b + imm] <- a`.
    St,
    /// `fa <- fb + fc`.
    FAdd,
    /// `fa <- fb - fc`.
    FSub,
    /// `fa <- fb * fc`.
    FMul,
    /// `fa <- fb / fc`.
    FDiv,
    /// `fa <- min(fb, fc)` (`fb` if either is NaN).
    FMin,
    /// `fa <- max(fb, fc)` (`fb` if either is NaN).
    FMax,
    /// `fa <- -fb`.
    FNeg,
    /// `fa <- |fb|`.
    FAbs,
    /// `fa <- sqrt(fb)`.
    FSqrt,
    /// `fa <- f64::from_bits(imm)` (pre-widened constant).
    FLi,
    /// `fa <- mem[b + imm]` (bit pattern).
    FLd,
    /// `mem[b + imm] <- fa` (bit pattern).
    FSt,
    /// `a <- (fb == fc) ? 1 : 0`.
    FcEq,
    /// `a <- (fb != fc) ? 1 : 0`.
    FcNe,
    /// `a <- (fb < fc) ? 1 : 0`.
    FcLt,
    /// `a <- (fb <= fc) ? 1 : 0`.
    FcLe,
    /// `a <- (fb > fc) ? 1 : 0`.
    FcGt,
    /// `a <- (fb >= fc) ? 1 : 0`.
    FcGe,
    /// `fa <- (f64) b` (signed int to FP).
    ItoF,
    /// `a <- (i64) fb` (FP to signed int, truncating).
    FtoI,
    /// No operation.
    Nop,
    /// Control transfer or halt: never executed as straight-line code
    /// (its run length is 0); the dispatcher handles it structurally.
    Ctl,
}

/// The flat threaded-code form of one op: a [`FlatCode`] plus packed
/// byte operands and one pre-extended immediate.
///
/// Operand convention (see each [`FlatCode`] doc): `a` is the
/// destination (source for stores), `b` and `c` are sources; register
/// fields index `regs`/`fregs` and are always `< 32`, so executors may
/// mask with `& 31` to elide bounds checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatOp {
    /// Operation selector (single-level dispatch).
    pub code: FlatCode,
    /// Destination register index (source for `St`/`FSt`).
    pub a: u8,
    /// First source register index.
    pub b: u8,
    /// Second source register index.
    pub c: u8,
    /// Pre-extended immediate: ALU operand, memory offset, or constant
    /// bits.
    pub imm: u64,
}

impl FlatOp {
    /// Lowers one instruction to its flat execution form: integer
    /// immediates and memory offsets sign-extended to `u64`, the `f32`
    /// constant of `FLoadImm` pre-widened to `f64` bits.
    pub fn lower(instr: Instruction) -> FlatOp {
        fn flat(code: FlatCode, a: usize, b: usize, c: usize, imm: u64) -> FlatOp {
            FlatOp {
                code,
                a: a as u8,
                b: b as u8,
                c: c as u8,
                imm,
            }
        }
        let alu_rr = |op: AluOp| {
            use FlatCode::*;
            match op {
                AluOp::Add => AddRR,
                AluOp::Sub => SubRR,
                AluOp::Mul => MulRR,
                AluOp::Div => DivRR,
                AluOp::Rem => RemRR,
                AluOp::And => AndRR,
                AluOp::Or => OrRR,
                AluOp::Xor => XorRR,
                AluOp::Shl => ShlRR,
                AluOp::Shr => ShrRR,
                AluOp::Sar => SarRR,
                AluOp::SltS => SltSRR,
                AluOp::SltU => SltURR,
            }
        };
        let alu_ri = |op: AluOp| {
            use FlatCode::*;
            match op {
                AluOp::Add => AddRI,
                AluOp::Sub => SubRI,
                AluOp::Mul => MulRI,
                AluOp::Div => DivRI,
                AluOp::Rem => RemRI,
                AluOp::And => AndRI,
                AluOp::Or => OrRI,
                AluOp::Xor => XorRI,
                AluOp::Shl => ShlRI,
                AluOp::Shr => ShrRI,
                AluOp::Sar => SarRI,
                AluOp::SltS => SltSRI,
                AluOp::SltU => SltURI,
            }
        };
        match instr {
            Instruction::Nop => flat(FlatCode::Nop, 0, 0, 0, 0),
            Instruction::Alu { op, rd, ra, rb } => {
                flat(alu_rr(op), rd.index(), ra.index(), rb.index(), 0)
            }
            Instruction::AluImm { op, rd, ra, imm } => {
                flat(alu_ri(op), rd.index(), ra.index(), 0, imm as i64 as u64)
            }
            Instruction::LoadImm { rd, imm } => flat(FlatCode::Li, rd.index(), 0, 0, imm as u64),
            Instruction::Load { rd, base, offset } => flat(
                FlatCode::Ld,
                rd.index(),
                base.index(),
                0,
                offset as i64 as u64,
            ),
            Instruction::Store { src, base, offset } => flat(
                FlatCode::St,
                src.index(),
                base.index(),
                0,
                offset as i64 as u64,
            ),
            Instruction::FAlu { op, fd, fa, fb } => {
                let code = match op {
                    FAluOp::Add => FlatCode::FAdd,
                    FAluOp::Sub => FlatCode::FSub,
                    FAluOp::Mul => FlatCode::FMul,
                    FAluOp::Div => FlatCode::FDiv,
                    FAluOp::Min => FlatCode::FMin,
                    FAluOp::Max => FlatCode::FMax,
                };
                flat(code, fd.index(), fa.index(), fb.index(), 0)
            }
            Instruction::FUn { op, fd, fa } => {
                let code = match op {
                    FUnOp::Neg => FlatCode::FNeg,
                    FUnOp::Abs => FlatCode::FAbs,
                    FUnOp::Sqrt => FlatCode::FSqrt,
                };
                flat(code, fd.index(), fa.index(), 0, 0)
            }
            Instruction::FLoadImm { fd, value } => {
                flat(FlatCode::FLi, fd.index(), 0, 0, (value as f64).to_bits())
            }
            Instruction::FLoad { fd, base, offset } => flat(
                FlatCode::FLd,
                fd.index(),
                base.index(),
                0,
                offset as i64 as u64,
            ),
            Instruction::FStore { fsrc, base, offset } => flat(
                FlatCode::FSt,
                fsrc.index(),
                base.index(),
                0,
                offset as i64 as u64,
            ),
            Instruction::FCmp { cond, rd, fa, fb } => {
                // Numeric FP comparison: signed/unsigned integer
                // condition pairs collapse (there is one FP ordering),
                // NaN semantics follow IEEE-754 operator results.
                let code = match cond {
                    Cond::Eq => FlatCode::FcEq,
                    Cond::Ne => FlatCode::FcNe,
                    Cond::LtS | Cond::LtU => FlatCode::FcLt,
                    Cond::LeS => FlatCode::FcLe,
                    Cond::GtS => FlatCode::FcGt,
                    Cond::GeS | Cond::GeU => FlatCode::FcGe,
                };
                flat(code, rd.index(), fa.index(), fb.index(), 0)
            }
            Instruction::ItoF { fd, ra } => flat(FlatCode::ItoF, fd.index(), ra.index(), 0, 0),
            Instruction::FtoI { rd, fa } => flat(FlatCode::FtoI, rd.index(), fa.index(), 0, 0),
            Instruction::Halt
            | Instruction::Branch { .. }
            | Instruction::Jump { .. }
            | Instruction::JumpInd { .. }
            | Instruction::Call { .. }
            | Instruction::CallInd { .. }
            | Instruction::Ret { .. }
            | Instruction::KernelCall { .. } => flat(FlatCode::Ctl, 0, 0, 0, 0),
        }
    }
}

/// The pre-decoded form of a program's code: one [`FlatOp`] per code
/// word plus the static per-pc metadata the dispatch loop and the
/// tracer path consume.
///
/// Built once per program with [`DecodedImage::build`]; executed by
/// `loopspec_cpu::Cpu::run_decoded`. The image holds a copy of the
/// original instructions: control transfers dispatch on it, trace
/// events report it, and callers verify with it that the image still
/// matches a given program.
#[derive(Debug, Clone)]
pub struct DecodedImage {
    instrs: Vec<Instruction>,
    kinds: Vec<ControlKind>,
    uses: Vec<RegUse>,
    run_len: Vec<u32>,
    flat: Vec<FlatOp>,
}

impl DecodedImage {
    /// Decodes a code slice.
    pub fn build(code: &[Instruction]) -> DecodedImage {
        let n = code.len();
        let kinds: Vec<ControlKind> = code.iter().map(|i| i.control_kind()).collect();
        let uses: Vec<RegUse> = code.iter().map(|i| i.reg_use()).collect();

        // Suffix straight-line run lengths: run_len[pc] counts the
        // control-free ops from pc up to (not including) the block
        // terminator. Control transfers and kernel dispatches have run
        // length 0, which also makes them terminate the run of every
        // preceding pc. (A `KernelCall` classifies as
        // `ControlKind::None` — it is invisible to the loop detector —
        // but it retires a whole body, so the dispatcher must reach it
        // as a single step, never mid-run.)
        let mut run_len = vec![0u32; n];
        for pc in (0..n).rev() {
            if kinds[pc] == ControlKind::None && !matches!(code[pc], Instruction::KernelCall { .. })
            {
                run_len[pc] = 1 + if pc + 1 < n { run_len[pc + 1] } else { 0 };
            }
        }

        let flat = code.iter().map(|&i| FlatOp::lower(i)).collect();

        DecodedImage {
            instrs: code.to_vec(),
            kinds,
            uses,
            run_len,
            flat,
        }
    }

    /// Number of code words in the image.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the image holds no code.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The original instruction at `pc` (callers guarantee
    /// `pc < len`): what control transfers dispatch on and trace events
    /// report.
    #[inline(always)]
    pub fn instr(&self, pc: usize) -> Instruction {
        self.instrs[pc]
    }

    /// The pre-computed control classification at `pc`.
    #[inline(always)]
    pub fn kind(&self, pc: usize) -> ControlKind {
        self.kinds[pc]
    }

    /// The pre-computed register-use summary at `pc`.
    #[inline(always)]
    pub fn reg_use(&self, pc: usize) -> &RegUse {
        &self.uses[pc]
    }

    /// Length of the straight-line (control-free) run starting at
    /// `pc`; `0` at control transfers, halts and kernel calls.
    #[inline(always)]
    pub fn run_len(&self, pc: usize) -> u32 {
        self.run_len[pc]
    }

    /// All per-pc register-use summaries, indexed by pc (slice
    /// counterpart of [`DecodedImage::reg_use`]).
    #[inline(always)]
    pub fn uses(&self) -> &[RegUse] {
        &self.uses
    }

    /// All flat execution ops, indexed by pc — the single-dispatch form
    /// the straight-line executor walks (control pcs hold
    /// [`FlatCode::Ctl`] fillers and are never executed from here).
    #[inline(always)]
    pub fn flat(&self) -> &[FlatOp] {
        &self.flat
    }

    /// The instruction copy the image was built from, for verifying an
    /// image still matches a program.
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Reg};

    fn addi(rd: Reg, ra: Reg, imm: i32) -> Instruction {
        Instruction::AluImm {
            op: AluOp::Add,
            rd,
            ra,
            imm,
        }
    }

    /// A canonical counted loop:
    /// ```text
    /// 0: li   r1, 0
    /// 1: addi r2, r2, 7    <- loop body (run of 3)
    /// 2: addi r2, r2, 9
    /// 3: addi r1, r1, 1    <- last op of the run
    /// 4: b.lt r1, r3, @1
    /// 5: halt
    /// ```
    fn counted_loop() -> Vec<Instruction> {
        vec![
            Instruction::LoadImm {
                rd: Reg::R1,
                imm: 0,
            },
            addi(Reg::R2, Reg::R2, 7),
            addi(Reg::R2, Reg::R2, 9),
            addi(Reg::R1, Reg::R1, 1),
            Instruction::Branch {
                cond: Cond::LtS,
                ra: Reg::R1,
                rb: Reg::R3,
                target: Addr::new(1),
            },
            Instruction::Halt,
        ]
    }

    #[test]
    fn immediates_are_pre_extended() {
        let img = DecodedImage::build(&[
            addi(Reg::R1, Reg::R1, -1),
            Instruction::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: -4,
            },
        ]);
        assert_eq!(
            img.flat()[0],
            FlatOp {
                code: FlatCode::AddRI,
                a: 1,
                b: 1,
                c: 0,
                imm: u64::MAX,
            }
        );
        assert_eq!(
            img.flat()[1],
            FlatOp {
                code: FlatCode::Ld,
                a: 1,
                b: 2,
                c: 0,
                imm: (-4i64) as u64,
            }
        );
    }

    #[test]
    fn back_edge_runs_stop_at_the_branch() {
        let img = DecodedImage::build(&counted_loop());
        // The body run from the branch target covers pcs 1..=3,
        // including the counter bump that feeds the branch, and stops
        // at the branch.
        assert_eq!(img.run_len(0), 4);
        assert_eq!(img.run_len(1), 3);
        assert_eq!(img.run_len(2), 2);
        assert_eq!(img.run_len(3), 1, "the branch's feeder ends the run");
        assert_eq!(img.run_len(4), 0, "control op");
        assert_eq!(img.run_len(5), 0, "halt");
    }

    #[test]
    fn suffix_run_lengths_cover_every_entry_point() {
        let code = vec![
            addi(Reg::R1, Reg::R1, 1),
            addi(Reg::R2, Reg::R2, 1),
            addi(Reg::R3, Reg::R3, 1),
            Instruction::Halt,
        ];
        let img = DecodedImage::build(&code);
        // Each pc sees the maximal remaining run.
        assert_eq!(img.run_len(0), 3);
        assert_eq!(img.run_len(1), 2);
        assert_eq!(img.run_len(2), 1);
        assert_eq!(img.run_len(3), 0);
    }

    #[test]
    fn a_load_before_a_branch_is_a_run_of_one() {
        let code = vec![
            Instruction::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            Instruction::Branch {
                cond: Cond::Ne,
                ra: Reg::R1,
                rb: Reg::R0,
                target: Addr::new(0),
            },
            Instruction::Halt,
        ];
        let img = DecodedImage::build(&code);
        assert_eq!(img.run_len(0), 1);
    }

    #[test]
    fn kernel_call_terminates_runs() {
        let code = vec![
            addi(Reg::R1, Reg::R1, 1),
            addi(Reg::R2, Reg::R2, 1),
            Instruction::KernelCall { id: 1 },
            addi(Reg::R3, Reg::R3, 1),
            Instruction::Halt,
        ];
        let img = DecodedImage::build(&code);
        assert_eq!(img.instr(2), Instruction::KernelCall { id: 1 });
        assert_eq!(img.kind(2), ControlKind::None, "invisible to the CLS");
        assert_eq!(img.run_len(0), 2, "run stops before the dispatch");
        assert_eq!(img.run_len(2), 0, "dispatch is a single step");
        assert_eq!(img.run_len(3), 1);
        assert_eq!(img.flat()[2].code, FlatCode::Ctl);
    }

    #[test]
    fn lowering_preserves_the_instruction_copy() {
        let code = counted_loop();
        let img = DecodedImage::build(&code);
        assert_eq!(img.instrs(), &code[..]);
        assert_eq!(img.len(), code.len());
        assert!(!img.is_empty());
        for (pc, instr) in code.iter().enumerate() {
            assert_eq!(img.kind(pc), instr.control_kind());
            assert_eq!(*img.reg_use(pc), instr.reg_use());
            assert_eq!(img.instr(pc), *instr);
        }
    }
}
