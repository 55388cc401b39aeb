//! The pre-decoded (threaded-code) dispatch loop.
//!
//! [`DecodedProgram`] pairs a [`Program`]'s entry point with its
//! [`DecodedImage`] (see [`loopspec_isa::DecodedImage`] for what the
//! decode pass precomputes). [`Cpu::run_decoded`] /
//! [`Cpu::resume_decoded`] execute that image with semantics
//! **bit-identical** to the legacy [`Cpu::run`] / [`Cpu::resume`]:
//!
//! * the same [`InstrEvent`] sequence reaches the tracer, one event
//!   per retired instruction (modulo fields the tracer's [`Demand`]
//!   mask waives);
//! * the same faults surface at the same retirement counts;
//! * every pause — fuel exhaustion, halt, fault — lands at an
//!   instruction boundary, so [`Cpu::save_state`] emits the same bytes
//!   the legacy interpreter would. There is no mid-block cursor to
//!   persist: the pc alone locates the resume point, and a resumed run
//!   re-enters the middle of a straight-line run via the per-pc suffix
//!   run-length table.
//!
//! Dispatch is one decision per pc: a non-zero run length retires a
//! straight-line run, one [`FlatOp`] per instruction through
//! [`Cpu::exec_flat_op`]; a zero run length (control transfer, halt,
//! kernel call) retires the image's [`Instruction`] through
//! [`Cpu::step`].
//!
//! What the decoded path *saves* per retirement: the fetch through
//! `Option`, the `control_kind()` reclassification, the `reg_use()`
//! walk (pre-computed, and skipped outright when un-demanded), the
//! immediate sign-extension, and — inside straight-line runs — the
//! per-instruction fuel, halt and pc checks, which hoist to one check
//! per run.

use std::time::Instant;

use loopspec_asm::Program;
use loopspec_isa::{
    Addr, AluOp, ControlKind, DecodedImage, FAluOp, FReg, FUnOp, FlatCode, FlatOp, Instruction,
    Reg, RegUse,
};

use crate::cpu::{Completion, Cpu, CpuError, RunLimits, RunSummary};
use crate::tracer::{
    ArchReg, ControlOutcome, Demand, InstrEvent, MemAccess, RegRead, RegWrite, Tracer,
};

/// The fall-through successor of a *fetched* pc. `Addr::next()` folds a
/// checked-overflow panic into the caller — a side effect that blocks
/// dead-code elimination of otherwise unused event fields — but a
/// fetched pc is `< len`, so the wrapping successor is identical.
#[inline(always)]
fn succ(pc: Addr) -> Addr {
    Addr::new(pc.index().wrapping_add(1))
}

/// A [`Program`] lowered to threaded code: the input of
/// [`Cpu::run_decoded`].
///
/// Build once per program (an `O(code size)` pass), reuse across runs,
/// resumes and CPUs. The image keeps a copy of the source
/// instructions, so [`matches`](DecodedProgram::matches) can verify it
/// still corresponds to a given program before executing.
///
/// ```
/// use loopspec_asm::ProgramBuilder;
/// use loopspec_cpu::{Cpu, DecodedProgram, NullTracer, RunLimits};
///
/// let mut b = ProgramBuilder::new();
/// b.counted_loop(10, |b, _| b.work(4));
/// let program = b.finish()?;
///
/// let decoded = DecodedProgram::new(&program);
/// assert!(decoded.matches(&program));
/// let summary = Cpu::new().run_decoded(&decoded, &mut NullTracer, RunLimits::default())?;
/// assert!(summary.halted());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    image: DecodedImage,
    entry: Addr,
}

impl DecodedProgram {
    /// Decodes `program`.
    pub fn new(program: &Program) -> DecodedProgram {
        DecodedProgram {
            image: DecodedImage::build(program.code()),
            entry: program.entry(),
        }
    }

    /// The decoded image.
    pub fn image(&self) -> &DecodedImage {
        &self.image
    }

    /// The program's entry point.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// `true` when this decoding was built from exactly `program`
    /// (same code words, same entry point).
    pub fn matches(&self, program: &Program) -> bool {
        self.entry == program.entry() && self.image.instrs() == program.code()
    }
}

impl Cpu {
    /// Runs a pre-decoded program from its entry point — the
    /// threaded-code counterpart of [`Cpu::run`], observably identical
    /// to it (events, faults, architectural state, snapshot bytes).
    ///
    /// # Errors
    ///
    /// Exactly as [`Cpu::run`].
    pub fn run_decoded<T: Tracer>(
        &mut self,
        program: &DecodedProgram,
        tracer: &mut T,
        limits: RunLimits,
    ) -> Result<RunSummary, CpuError> {
        self.pc = program.entry();
        self.resume_decoded(program, tracer, limits)
    }

    /// Continues a pre-decoded run from the current program counter —
    /// the threaded-code counterpart of [`Cpu::resume`].
    ///
    /// Resumption composes freely with the legacy interpreter: a run
    /// paused by either can be continued by the other, because every
    /// pause lands at an instruction boundary where the pc alone
    /// locates the next dispatch (a budget cut inside a straight-line
    /// run simply shortens the run via the suffix run-length table).
    ///
    /// # Errors
    ///
    /// Exactly as [`Cpu::resume`].
    pub fn resume_decoded<T: Tracer>(
        &mut self,
        program: &DecodedProgram,
        tracer: &mut T,
        limits: RunLimits,
    ) -> Result<RunSummary, CpuError> {
        let started = Instant::now();
        let img = program.image();
        let demand = tracer.demand();
        let start_retired = self.retired;
        let budget = limits.max_instrs;
        let len = img.len();

        while self.retired - start_retired < budget {
            let pc = self.pc;
            let pcu = pc.index() as usize;
            if pcu >= len {
                return Err(CpuError::PcOutOfRange { pc });
            }
            let fuel = budget - (self.retired - start_retired);

            // Straight-line superblock: retire the whole control-free
            // run with a single fuel/pc check. Clamping to the
            // remaining fuel keeps every pause at an instruction
            // boundary.
            let run = (img.run_len(pcu) as u64).min(fuel) as usize;
            if run >= 1 {
                self.telem.record_superblock(run as u64);
                self.exec_run(img, pcu, run, tracer, demand, limits.max_pages)?;
                continue;
            }

            if self.step(img, pcu, fuel, tracer, demand, limits.max_pages)? {
                return Ok(RunSummary {
                    retired: self.retired - start_retired,
                    completion: Completion::Halted,
                    elapsed: started.elapsed(),
                });
            }
        }

        Ok(RunSummary {
            retired: self.retired - start_retired,
            completion: Completion::OutOfFuel,
            elapsed: started.elapsed(),
        })
    }

    /// Executes `n` straight-line ops starting at `pcu` (the caller
    /// guarantees they are control-free and in bounds), then advances
    /// the pc past them. On a fault the pc is left at the faulting
    /// instruction, as the legacy interpreter does.
    ///
    /// Inlined into the dispatcher: every straight-line op — including
    /// runs of one — executes from here, so the call boundary would be
    /// pure per-run overhead.
    #[inline(always)]
    fn exec_run<T: Tracer>(
        &mut self,
        img: &DecodedImage,
        pcu: usize,
        n: usize,
        tracer: &mut T,
        demand: Demand,
        max_pages: usize,
    ) -> Result<(), CpuError> {
        // Slice once up front: the per-op loop then walks the image
        // arrays with no further bounds checks (all the slices have
        // length exactly `n`, which the optimizer can see).
        let flat = &img.flat()[pcu..pcu + n];
        let instrs = &img.instrs()[pcu..pcu + n];
        let uses = &img.uses()[pcu..pcu + n];
        // Keep the retirement counter in a register across the run:
        // each op takes its sequence number as an argument instead of
        // bumping `self.retired` through memory (a serial
        // load→inc→store chain the whole loop would wait on).
        let seq0 = self.retired;
        for i in 0..n {
            let pc = Addr::new((pcu + i) as u32);
            if let Err(e) = self.exec_flat_op(
                flat[i],
                instrs[i],
                &uses[i],
                pc,
                seq0 + i as u64,
                tracer,
                demand,
                max_pages,
            ) {
                // The faulting op did retire (the page-limit check runs
                // post-retirement, like the legacy interpreter's).
                self.retired = seq0 + i as u64 + 1;
                self.pc = pc;
                return Err(e);
            }
        }
        self.retired = seq0 + n as u64;
        self.pc = Addr::new((pcu + n) as u32);
        Ok(())
    }

    /// Retires one non-control op from its flat execution form:
    /// execute (one jump-table dispatch — ALU sub-op and FP-compare
    /// condition are folded into the opcode), emit the (demand-trimmed)
    /// event, check the memory limit if a store ran. Does **not**
    /// advance the pc — [`Cpu::exec_run`] owns the cursor.
    ///
    /// Register operands index with `& 31`, which the lowering
    /// guarantees is the identity (see [`FlatOp`]) and which elides the
    /// bounds checks on the `[u64; 32]` / `[f64; 32]` register files.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn exec_flat_op<T: Tracer>(
        &mut self,
        f: FlatOp,
        instr: Instruction,
        u: &RegUse,
        pc: Addr,
        seq: u64,
        tracer: &mut T,
        demand: Demand,
        max_pages: usize,
    ) -> Result<(), CpuError> {
        let mut ev = InstrEvent {
            seq,
            pc,
            instr,
            control: ControlOutcome {
                kind: ControlKind::None,
                taken: false,
                target: succ(pc),
            },
            reads: [None; 5],
            write: None,
            mem_read: None,
            mem_write: None,
        };
        if demand.reads() {
            self.capture_reads_from(u, &mut ev);
        }

        let mut stored = false;
        // Arm bodies: `$op.eval` / the comparison operator const-fold
        // against the constant sub-op, leaving one small straight-line
        // arm per opcode behind a single jump table.
        macro_rules! rr {
            ($op:expr) => {{
                let v = $op.eval(
                    self.regs[(f.b & 31) as usize],
                    self.regs[(f.c & 31) as usize],
                );
                self.write_int_flat(f.a, v, &mut ev, demand);
            }};
        }
        macro_rules! ri {
            ($op:expr) => {{
                let v = $op.eval(self.regs[(f.b & 31) as usize], f.imm);
                self.write_int_flat(f.a, v, &mut ev, demand);
            }};
        }
        macro_rules! frr {
            ($op:expr) => {{
                let v = $op.eval(
                    self.fregs[(f.b & 31) as usize],
                    self.fregs[(f.c & 31) as usize],
                );
                self.write_fp_flat(f.a, v, &mut ev, demand);
            }};
        }
        macro_rules! fcmp {
            ($cmp:tt) => {{
                let x = self.fregs[(f.b & 31) as usize];
                let y = self.fregs[(f.c & 31) as usize];
                self.write_int_flat(f.a, (x $cmp y) as u64, &mut ev, demand);
            }};
        }
        match f.code {
            FlatCode::Nop => {}
            FlatCode::AddRR => rr!(AluOp::Add),
            FlatCode::SubRR => rr!(AluOp::Sub),
            FlatCode::MulRR => rr!(AluOp::Mul),
            FlatCode::DivRR => rr!(AluOp::Div),
            FlatCode::RemRR => rr!(AluOp::Rem),
            FlatCode::AndRR => rr!(AluOp::And),
            FlatCode::OrRR => rr!(AluOp::Or),
            FlatCode::XorRR => rr!(AluOp::Xor),
            FlatCode::ShlRR => rr!(AluOp::Shl),
            FlatCode::ShrRR => rr!(AluOp::Shr),
            FlatCode::SarRR => rr!(AluOp::Sar),
            FlatCode::SltSRR => rr!(AluOp::SltS),
            FlatCode::SltURR => rr!(AluOp::SltU),
            FlatCode::AddRI => ri!(AluOp::Add),
            FlatCode::SubRI => ri!(AluOp::Sub),
            FlatCode::MulRI => ri!(AluOp::Mul),
            FlatCode::DivRI => ri!(AluOp::Div),
            FlatCode::RemRI => ri!(AluOp::Rem),
            FlatCode::AndRI => ri!(AluOp::And),
            FlatCode::OrRI => ri!(AluOp::Or),
            FlatCode::XorRI => ri!(AluOp::Xor),
            FlatCode::ShlRI => ri!(AluOp::Shl),
            FlatCode::ShrRI => ri!(AluOp::Shr),
            FlatCode::SarRI => ri!(AluOp::Sar),
            FlatCode::SltSRI => ri!(AluOp::SltS),
            FlatCode::SltURI => ri!(AluOp::SltU),
            FlatCode::Li => self.write_int_flat(f.a, f.imm, &mut ev, demand),
            FlatCode::Ld => {
                let addr = self.regs[(f.b & 31) as usize].wrapping_add(f.imm);
                let v = self.mem.read(addr);
                if demand.mem() {
                    ev.mem_read = Some(MemAccess { addr, value: v });
                }
                self.write_int_flat(f.a, v, &mut ev, demand);
            }
            FlatCode::St => {
                let addr = self.regs[(f.b & 31) as usize].wrapping_add(f.imm);
                let v = self.regs[(f.a & 31) as usize];
                self.mem.write(addr, v);
                if demand.mem() {
                    ev.mem_write = Some(MemAccess { addr, value: v });
                }
                stored = true;
            }
            FlatCode::FAdd => frr!(FAluOp::Add),
            FlatCode::FSub => frr!(FAluOp::Sub),
            FlatCode::FMul => frr!(FAluOp::Mul),
            FlatCode::FDiv => frr!(FAluOp::Div),
            FlatCode::FMin => frr!(FAluOp::Min),
            FlatCode::FMax => frr!(FAluOp::Max),
            FlatCode::FNeg => {
                let v = FUnOp::Neg.eval(self.fregs[(f.b & 31) as usize]);
                self.write_fp_flat(f.a, v, &mut ev, demand);
            }
            FlatCode::FAbs => {
                let v = FUnOp::Abs.eval(self.fregs[(f.b & 31) as usize]);
                self.write_fp_flat(f.a, v, &mut ev, demand);
            }
            FlatCode::FSqrt => {
                let v = FUnOp::Sqrt.eval(self.fregs[(f.b & 31) as usize]);
                self.write_fp_flat(f.a, v, &mut ev, demand);
            }
            FlatCode::FLi => {
                self.write_fp_flat(f.a, f64::from_bits(f.imm), &mut ev, demand);
            }
            FlatCode::FLd => {
                let addr = self.regs[(f.b & 31) as usize].wrapping_add(f.imm);
                let bits = self.mem.read(addr);
                if demand.mem() {
                    ev.mem_read = Some(MemAccess { addr, value: bits });
                }
                self.write_fp_flat(f.a, f64::from_bits(bits), &mut ev, demand);
            }
            FlatCode::FSt => {
                let addr = self.regs[(f.b & 31) as usize].wrapping_add(f.imm);
                let bits = self.fregs[(f.a & 31) as usize].to_bits();
                self.mem.write(addr, bits);
                if demand.mem() {
                    ev.mem_write = Some(MemAccess { addr, value: bits });
                }
                stored = true;
            }
            // Numeric FP comparison (NaN compares false except Ne),
            // matching the legacy interpreter exactly.
            FlatCode::FcEq => fcmp!(==),
            FlatCode::FcNe => fcmp!(!=),
            FlatCode::FcLt => fcmp!(<),
            FlatCode::FcLe => fcmp!(<=),
            FlatCode::FcGt => fcmp!(>),
            FlatCode::FcGe => fcmp!(>=),
            FlatCode::ItoF => {
                let v = self.regs[(f.b & 31) as usize] as i64 as f64;
                self.write_fp_flat(f.a, v, &mut ev, demand);
            }
            FlatCode::FtoI => {
                let v = self.fregs[(f.b & 31) as usize] as i64 as u64;
                self.write_int_flat(f.a, v, &mut ev, demand);
            }
            FlatCode::Ctl => unreachable!("control op dispatched as a straight-line op"),
        }

        // The caller owns the retirement counter (`seq` is the count
        // before this op): the run loop keeps it in a register and
        // stores it once per run instead of once per op.
        tracer.on_retire(&ev);

        // Loads never materialise pages (absent words read as 0), so
        // the legacy per-instruction page check can only ever fire
        // after a store — checking there is behaviourally identical.
        if stored && self.mem.pages_allocated() > max_pages {
            return Err(CpuError::MemoryLimit {
                pages: self.mem.pages_allocated(),
            });
        }
        Ok(())
    }

    /// Retires a conditional branch at `pcu` (already destructured by
    /// [`Cpu::step`]'s dispatch — no second op load) and advances the
    /// pc.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn exec_branch<T: Tracer>(
        &mut self,
        img: &DecodedImage,
        pcu: usize,
        cond: loopspec_isa::Cond,
        ra: Reg,
        rb: Reg,
        target: Addr,
        tracer: &mut T,
        demand: Demand,
    ) {
        let pc = Addr::new(pcu as u32);
        let mut ev = InstrEvent {
            seq: self.retired,
            pc,
            instr: img.instr(pcu),
            control: ControlOutcome {
                kind: img.kind(pcu),
                taken: false,
                target: succ(pc),
            },
            reads: [None; 5],
            write: None,
            mem_read: None,
            mem_write: None,
        };
        if demand.reads() {
            self.capture_reads_from(img.reg_use(pcu), &mut ev);
        }
        let next = if cond.eval(self.regs[ra.index()], self.regs[rb.index()]) {
            ev.control.taken = true;
            ev.control.target = target;
            target
        } else {
            succ(pc)
        };
        self.retired += 1;
        tracer.on_retire(&ev);
        self.pc = next;
    }

    /// Single-instruction dispatch for the ops whose run length is 0:
    /// control transfers, halt and kernel calls, matched on the
    /// image's architectural [`Instruction`]. Returns `Ok(true)` on
    /// halt. `fuel` is the remaining budget of the enclosing
    /// resume (≥ 1 by the loop invariant): only the kernel arm needs
    /// it, since every other dispatch retires exactly one instruction.
    /// Inlined: in call-heavy programs this is the second-hottest
    /// dispatch after [`Cpu::exec_run`], and the call preamble would
    /// cost more than the body's jump table.
    #[inline(always)]
    fn step<T: Tracer>(
        &mut self,
        img: &DecodedImage,
        pcu: usize,
        fuel: u64,
        tracer: &mut T,
        demand: Demand,
        max_pages: usize,
    ) -> Result<bool, CpuError> {
        let pc = Addr::new(pcu as u32);
        let instr = img.instr(pcu);
        match instr {
            Instruction::Branch {
                cond,
                ra,
                rb,
                target,
            } => {
                self.exec_branch(img, pcu, cond, ra, rb, target, tracer, demand);
                return Ok(false);
            }
            Instruction::KernelCall { id } => {
                // The decode pass terminates every superblock at a
                // kernel call, so it always dispatches from here —
                // through the same executor the legacy interpreter
                // uses, which is what makes the two paths identical
                // on kernels by construction.
                if self.exec_kernel(id, fuel, tracer, max_pages)? {
                    self.pc = succ(pc);
                }
                return Ok(false);
            }
            _ => {}
        }

        // A halt or an unconditional transfer: with straight-line ops
        // retired by `exec_run`, nothing else has run length 0.
        let mut ev = InstrEvent {
            seq: self.retired,
            pc,
            instr,
            control: ControlOutcome {
                kind: img.kind(pcu),
                taken: false,
                target: succ(pc),
            },
            reads: [None; 5],
            write: None,
            mem_read: None,
            mem_write: None,
        };
        if demand.reads() {
            self.capture_reads_from(img.reg_use(pcu), &mut ev);
        }
        let (target, link) = match instr {
            Instruction::Jump { target } => (target, None),
            Instruction::JumpInd { base } | Instruction::Ret { link: base } => {
                (self.indirect_target(pc, self.regs[base.index()])?, None)
            }
            Instruction::Call { target, link } => (target, Some(link)),
            Instruction::CallInd { base, link } => (
                self.indirect_target(pc, self.regs[base.index()])?,
                Some(link),
            ),
            _ => {
                debug_assert_eq!(instr, Instruction::Halt);
                self.retired += 1;
                tracer.on_retire(&ev);
                return Ok(true);
            }
        };
        if let Some(link) = link {
            self.write_int_flat(link.index() as u8, succ(pc).index() as u64, &mut ev, demand);
        }
        ev.control.taken = true;
        ev.control.target = target;
        self.retired += 1;
        tracer.on_retire(&ev);
        self.pc = target;
        Ok(false)
    }

    /// [`Cpu::capture_reads`] with the pre-computed [`RegUse`] from
    /// the decoded image instead of a per-retirement `reg_use()` call.
    #[inline(always)]
    pub(crate) fn capture_reads_from(&self, u: &RegUse, ev: &mut InstrEvent) {
        let mut slot = 0;
        for r in u.reads.iter().flatten() {
            ev.reads[slot] = Some(RegRead {
                reg: ArchReg::Int(*r),
                value: self.regs[r.index()],
            });
            slot += 1;
        }
        for r in u.freads.iter().flatten() {
            ev.reads[slot] = Some(RegRead {
                reg: ArchReg::Fp(*r),
                value: self.fregs[r.index()].to_bits(),
            });
            slot += 1;
        }
    }

    /// Writes an integer register by flat (byte) index, recording the
    /// event write when demanded and dropping writes to the hardwired
    /// zero register — exactly [`Cpu::set_reg`]'s semantics.
    #[inline(always)]
    pub(crate) fn write_int_flat(&mut self, a: u8, v: u64, ev: &mut InstrEvent, demand: Demand) {
        if demand.write() {
            ev.write = Some(RegWrite {
                reg: ArchReg::Int(Reg::ALL[(a & 31) as usize]),
                value: v,
            });
        }
        if a != 0 {
            self.regs[(a & 31) as usize] = v;
        }
    }

    /// Writes an FP register by flat (byte) index, recording the event
    /// write (as bits) when demanded.
    #[inline(always)]
    fn write_fp_flat(&mut self, a: u8, v: f64, ev: &mut InstrEvent, demand: Demand) {
        if demand.write() {
            ev.write = Some(RegWrite {
                reg: ArchReg::Fp(FReg::ALL[(a & 31) as usize]),
                value: v.to_bits(),
            });
        }
        self.fregs[(a & 31) as usize] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{CountingTracer, NullTracer};
    use loopspec_asm::ProgramBuilder;
    use loopspec_isa::AluOp;

    /// A workload with loops, calls, branches and memory traffic.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::with_seed(11);
        b.define_func("accum", |b| {
            b.op(
                AluOp::Add,
                ProgramBuilder::RET_REG,
                ProgramBuilder::ARG_REGS[0],
                ProgramBuilder::ARG_REGS[1],
            );
        });
        let sum = b.alloc_reg();
        let out = b.alloc_static(8);
        b.li(sum, 0);
        b.counted_loop(8, |b, i| {
            b.work(3);
            b.op(AluOp::Add, sum, sum, i);
            b.store_idx(sum, out, i);
        });
        b.set_arg(0, 5);
        b.set_arg(1, 37);
        b.call_func("accum");
        b.store_static(ProgramBuilder::RET_REG, out);
        b.finish().unwrap()
    }

    /// Records every event verbatim, demanding everything.
    #[derive(Default)]
    struct Recorder {
        events: Vec<InstrEvent>,
    }
    impl Tracer for Recorder {
        fn on_retire(&mut self, ev: &InstrEvent) {
            self.events.push(*ev);
        }
    }

    fn arch_state(cpu: &Cpu) -> Vec<u8> {
        let mut enc = loopspec_isa::snap::Enc::new();
        cpu.save_state(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn decoded_events_and_state_match_legacy() {
        let p = mixed_program();
        let decoded = DecodedProgram::new(&p);
        assert!(decoded.matches(&p));

        let mut legacy_cpu = Cpu::new();
        let mut legacy = Recorder::default();
        let ls = legacy_cpu
            .run(&p, &mut legacy, RunLimits::default())
            .unwrap();

        let mut dec_cpu = Cpu::new();
        let mut dec = Recorder::default();
        let ds = dec_cpu
            .run_decoded(&decoded, &mut dec, RunLimits::default())
            .unwrap();

        assert_eq!(ls.retired, ds.retired);
        assert_eq!(ls.completion, ds.completion);
        assert_eq!(legacy.events, dec.events);
        assert_eq!(arch_state(&legacy_cpu), arch_state(&dec_cpu));
    }

    /// Store and load blocks — same-page, page-split and
    /// pointer-chasing — retire events and state bit-identical to the
    /// legacy interpreter. The stale-pointer registers below are primed
    /// with *same-page* addresses so an executor that precomputed load
    /// addresses (skipping the base-written-by-earlier-element hazard)
    /// would read the wrong cells rather than merely crossing a page.
    #[test]
    fn memory_blocks_match_legacy_on_hazards_and_page_splits() {
        use loopspec_isa::Instruction as I;
        let mut b = ProgramBuilder::new();
        let base = b.alloc_reg();
        let far = b.alloc_reg();
        let v = b.alloc_reg();
        let (p0, p1, p2) = (b.alloc_reg(), b.alloc_reg(), b.alloc_reg());
        let (q0, q1, q2) = (b.alloc_reg(), b.alloc_reg(), b.alloc_reg());
        let a = b.alloc_static(16);
        b.li(base, a);
        b.li(far, a + (1 << 13)); // 2 pages away (pages are 4096 words)

        // Pointer chain in memory: a -> a+1 -> a+2 -> 99, plus decoys
        // at the cells a stale precomputation would read.
        for (off, val) in [(0, a + 1), (1, a + 2), (2, 99), (5, 1111), (6, 2222)] {
            b.li(v, val);
            b.emit(I::Store {
                src: v,
                base,
                offset: off,
            });
        }

        // Same-page store run.
        b.li(v, 7);
        for off in 8..12 {
            b.emit(I::Store {
                src: v,
                base,
                offset: off,
            });
        }
        // Page-split store run.
        b.emit(I::Store {
            src: v,
            base,
            offset: 12,
        });
        b.emit(I::Store {
            src: v,
            base: far,
            offset: 0,
        });
        b.emit(I::Store {
            src: base,
            base: far,
            offset: 1,
        });

        // Same-page load run with independent registers.
        b.emit(I::Load {
            rd: q0,
            base,
            offset: 8,
        });
        b.emit(I::Load {
            rd: q1,
            base,
            offset: 9,
        });
        b.emit(I::Load {
            rd: q2,
            base,
            offset: 10,
        });
        // Pointer-chasing load run: p0/p1 hold stale same-page
        // addresses, so each load must use the base its predecessor
        // just wrote.
        b.li(p0, a + 5);
        b.li(p1, a + 6);
        b.emit(I::Load {
            rd: p0,
            base,
            offset: 0,
        });
        b.emit(I::Load {
            rd: p1,
            base: p0,
            offset: 0,
        });
        b.emit(I::Load {
            rd: p2,
            base: p1,
            offset: 0,
        });
        b.store_static(p2, a + 15);
        let p = b.finish().unwrap();

        let decoded = DecodedProgram::new(&p);

        let mut legacy_cpu = Cpu::new();
        let mut legacy = Recorder::default();
        legacy_cpu
            .run(&p, &mut legacy, RunLimits::default())
            .unwrap();
        let mut dec_cpu = Cpu::new();
        let mut dec = Recorder::default();
        dec_cpu
            .run_decoded(&decoded, &mut dec, RunLimits::default())
            .unwrap();

        assert_eq!(dec_cpu.reg(p2), 99, "chase must land");
        assert_eq!(legacy.events, dec.events);
        assert_eq!(arch_state(&legacy_cpu), arch_state(&dec_cpu));
    }

    #[test]
    fn fuel_cuts_inside_straight_line_runs_resume_exactly() {
        let p = mixed_program();
        let decoded = DecodedProgram::new(&p);

        let mut reference = Cpu::new();
        let mut ref_rec = Recorder::default();
        reference
            .run(&p, &mut ref_rec, RunLimits::default())
            .unwrap();

        // Odd fuel slices force pauses mid-run and between a branch
        // and the op feeding it.
        for fuel in [1u64, 2, 3, 5, 7] {
            let mut cpu = Cpu::new();
            let mut rec = Recorder::default();
            let mut s = cpu
                .run_decoded(&decoded, &mut rec, RunLimits::with_fuel(fuel))
                .unwrap();
            while !s.halted() {
                s = cpu
                    .resume_decoded(&decoded, &mut rec, RunLimits::with_fuel(fuel))
                    .unwrap();
            }
            assert_eq!(rec.events, ref_rec.events, "fuel {fuel}");
            assert_eq!(arch_state(&cpu), arch_state(&reference), "fuel {fuel}");
        }
    }

    #[test]
    fn legacy_and_decoded_interpreters_interleave() {
        let p = mixed_program();
        let decoded = DecodedProgram::new(&p);

        let mut reference = Cpu::new();
        reference
            .run(&p, &mut NullTracer, RunLimits::default())
            .unwrap();

        let mut cpu = Cpu::new();
        cpu.pc = p.entry();
        let mut use_decoded = false;
        loop {
            let s = if use_decoded {
                cpu.resume_decoded(&decoded, &mut NullTracer, RunLimits::with_fuel(9))
            } else {
                cpu.resume(&p, &mut NullTracer, RunLimits::with_fuel(9))
            }
            .unwrap();
            if s.halted() {
                break;
            }
            use_decoded = !use_decoded;
        }
        assert_eq!(arch_state(&cpu), arch_state(&reference));
    }

    #[test]
    fn counting_tracer_sees_identical_counts() {
        let p = mixed_program();
        let decoded = DecodedProgram::new(&p);
        let mut a = CountingTracer::default();
        Cpu::new().run(&p, &mut a, RunLimits::default()).unwrap();
        let mut b = CountingTracer::default();
        Cpu::new()
            .run_decoded(&decoded, &mut b, RunLimits::default())
            .unwrap();
        assert_eq!(a.retired, b.retired);
        assert_eq!(a.branches, b.branches);
        assert_eq!(a.taken_branches, b.taken_branches);
        assert_eq!(a.calls, b.calls);
        assert_eq!(a.returns, b.returns);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.stores, b.stores);
    }

    #[test]
    fn faults_match_legacy() {
        // Control past the end of code.
        let mut b = ProgramBuilder::new();
        b.work(2);
        let p = b.finish().unwrap();
        // Drop the halt by jumping past it: build a raw program whose
        // last instruction is not a terminator.
        let code = {
            let mut c = p.code().to_vec();
            c.pop(); // remove halt
            c
        };
        let raw = Program::new(code, p.entry(), std::collections::BTreeMap::new()).unwrap();
        let decoded = DecodedProgram::new(&raw);
        let legacy_err = Cpu::new()
            .run(&raw, &mut NullTracer, RunLimits::default())
            .unwrap_err();
        let decoded_err = Cpu::new()
            .run_decoded(&decoded, &mut NullTracer, RunLimits::default())
            .unwrap_err();
        assert_eq!(legacy_err, decoded_err);

        // Bad indirect target.
        let mut b = ProgramBuilder::new();
        let r = b.alloc_reg();
        b.li(r, i64::MAX);
        b.emit(loopspec_isa::Instruction::JumpInd { base: r });
        let p = b.finish().unwrap();
        let decoded = DecodedProgram::new(&p);
        let mut legacy_cpu = Cpu::new();
        let legacy_err = legacy_cpu
            .run(&p, &mut NullTracer, RunLimits::default())
            .unwrap_err();
        let mut dec_cpu = Cpu::new();
        let decoded_err = dec_cpu
            .run_decoded(&decoded, &mut NullTracer, RunLimits::default())
            .unwrap_err();
        assert_eq!(legacy_err, decoded_err);
        assert_eq!(legacy_cpu.retired(), dec_cpu.retired());
    }

    #[test]
    fn throughput_is_reported() {
        let p = mixed_program();
        let decoded = DecodedProgram::new(&p);
        let s = Cpu::new()
            .run_decoded(&decoded, &mut NullTracer, RunLimits::default())
            .unwrap();
        assert!(s.retired > 0);
        // Wall clock may be below timer resolution, but the accessor
        // must never report nonsense.
        assert!(s.instrs_per_sec().is_finite());
        assert!(s.instrs_per_sec() >= 0.0);
    }
}
